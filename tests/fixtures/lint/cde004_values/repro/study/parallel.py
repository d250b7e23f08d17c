"""CDE004 fixture: per-process state the shard worker reaches only as values.

No impure function here is called by name on the worker's path: one is
passed as an argument, one is returned, and one is listed in a function
table that another module defines.
"""

import os
from typing import Callable

from .measures import MEASURES


def _environ_mode() -> str:
    return os.environ.get("REPRO_MODE", "sim")   # CDE004 (an argument)


def _pid_label() -> str:
    return f"pid-{os.getpid()}"                  # CDE004 (a return value)


def _apply(build: Callable[[], str]) -> str:
    return build()


def _labeller() -> Callable[[], str]:
    return _pid_label


def run_shard(task: str) -> list[str]:
    return [_apply(_environ_mode), _labeller()(), MEASURES[task]()]
