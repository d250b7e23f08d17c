"""Resolution-platform substrate: load balancing, iterative resolution, stubs."""

from .forwarder import ForwardingResolver
from .misbehaving import Misbehavior, MisbehavingResolver
from .multipool import MultiPoolConfig, MultiPoolPlatform, PoolSpec
from .iterative import (
    AnswerKind,
    IterativeResolver,
    ResolutionResult,
    StepResult,
)
from .platform import PlatformConfig, PlatformStats, ResolutionPlatform
from .selection import (
    CacheSelector,
    EgressSelector,
    LeastLoadedSelector,
    PinnedEgressSelector,
    QnameHashSelector,
    QueryContext,
    RandomEgressSelector,
    RoundRobinEgressSelector,
    RoundRobinSelector,
    SELECTOR_FACTORIES,
    SourceIpHashSelector,
    StickyRandomSelector,
    UniformRandomSelector,
    make_selector,
)
from .stub import StubAnswer, StubResolver

__all__ = [
    "AnswerKind", "CacheSelector", "EgressSelector", "ForwardingResolver",
    "Misbehavior", "MisbehavingResolver", "MultiPoolConfig",
    "MultiPoolPlatform", "PoolSpec",
    "IterativeResolver", "LeastLoadedSelector", "PinnedEgressSelector",
    "PlatformConfig", "PlatformStats", "QnameHashSelector", "QueryContext",
    "RandomEgressSelector", "ResolutionPlatform", "ResolutionResult",
    "RoundRobinEgressSelector", "RoundRobinSelector", "SELECTOR_FACTORIES",
    "SourceIpHashSelector", "StepResult", "StickyRandomSelector",
    "StubAnswer", "StubResolver", "UniformRandomSelector", "make_selector",
]
