"""Taint tables and interprocedural provenance propagation (cdeflow).

This module is the whole-program half of the dataflow layer: it owns the
**source / sink / sanitizer tables** shared by the CDE010–CDE013 rules
and a parametrised fixed-point :func:`propagate` that lifts the
per-function flow edges of :mod:`repro.lint.dataflow` over the
conservative name-bound call graph (:mod:`repro.lint.callgraph`).

Single-sourcing: the timing-source call table *is* the effect engine's
``CLOCK_CALLS`` leaf table (plus the sanctioned ``time.perf_counter``,
which CDE001/CDE007 exempt but which must still never reach a counting
sink), and the fork-unsafe resource table names the handle-producing
subset of the ``IO_CALLS`` / ``ENTROPY_CALLS`` leaves.  A rule that
needs a new leaf extends the table here, next to the effect tables it
mirrors, never inline in a rule.

The propagation computes, per call-graph node, three summaries to a
fixed point:

* ``ret_abs`` — taint sources whose values reach the node's return,
  with one shortest witness chain each;
* ``ret_params`` — parameters whose values reach the return (so a call
  with a tainted argument yields a tainted result);
* ``sink_params`` — parameters whose values reach a configured sink,
  directly or through further calls.

Witness chains are stitched across functions, so a finding reads as a
def-use proof: ``result.dns_rtt -> samples@249 -> split_bimodal()``.

Deliberate approximations (documented, tested):

* **Explicit flows only.**  A value used in a branch condition does not
  taint what the branch computes — ``if classifier.is_miss(rtt):
  count += 1`` keeps ``count`` clean.  This is what sanctions the
  hit/miss classifier as *the* boundary between latency and counting.
* **Unknown callees are clean.**  A call into code outside the linted
  tree (or a dataclass's synthesised ``__init__``) returns untainted
  values.  Record/row constructors therefore start a fresh provenance
  domain, which matches the measurement model: a row is data, not a
  live handle into the world that produced it.
* **Name-bound call edges.**  As everywhere in cdelint, a call binds to
  every project function of that simple name; a false edge can only
  widen the audited surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from .effects import CLOCK_CALLS

if TYPE_CHECKING:  # pragma: no cover - type-only import, no runtime cycle
    from .callgraph import CallGraph, FunctionSummary
    from .dataflow import FlowEdge

# ---------------------------------------------------------------------------
# the tables (single-sourced with the effect-leaf tables)
# ---------------------------------------------------------------------------

#: Calls whose *result* is a timing value.  This is the CDE001/CDE007
#: CLOCK leaf table verbatim, plus ``time.perf_counter``: perf_counter is
#: sanctioned as telemetry (CDE001 exempts it) but its value must still
#: never reach a counting sink.
TIMING_CALL_SOURCES: frozenset[str] = CLOCK_CALLS | frozenset(
    {"time.perf_counter"})

#: Attribute reads whose value is a latency / virtual-clock reading.
#: ``clock.now`` is the SimClock read; ``.rtt`` / ``.dns_rtt`` are the
#: probe and browser latency fields the timing side channel measures.
TIMING_ATTR_SOURCES: tuple[str, ...] = ("clock.now", ".rtt", ".dns_rtt")

#: Default CDE010 sources: every timing read above.
DEFAULT_TIMING_SOURCES: tuple[str, ...] = tuple(sorted(
    set(TIMING_ATTR_SOURCES) | TIMING_CALL_SOURCES))

#: Default CDE010 sinks: the counting arithmetic and the row/report
#: exporters.  PerfCounters / ShardPerf are deliberately absent — they
#: are the sanctioned destination of wall-time telemetry (see CDE001).
DEFAULT_TIMING_SINKS: tuple[str, ...] = (
    "CacheCountEstimate",
    "estimate_from_occupancy",
    "PlatformMeasurement",
    "measurement_to_dict",
    "measurements_to_dict",
    "report_to_dict",
    "table1_to_dict",
)

#: Default CDE010 sanitizers: the hit/miss classifier boundary.  A
#: latency crossing one of these calls becomes a *classification*, which
#: is the paper's §IV-B3 counting primitive and free to enter counts.
DEFAULT_TIMING_SANITIZERS: tuple[str, ...] = (
    "LatencyClassifier.fit",
    "is_miss",
    "split_bimodal",
)

#: Calls that produce fork-unsafe resources (CDE012): live handles that
#: must never ride inside a pickled shard spec.  ``open`` and the socket
#: constructors are the handle-producing IO leaves (cf. ``IO_CALLS`` /
#: ``IO_REF_PREFIXES`` in :mod:`repro.lint.effects`); ``random.Random``
#: / ``random.SystemRandom`` mirror the CDE002 RNG-object leaves; a
#: ``*.stream(...)`` result is a live, memoised RNG shared with its
#: factory.
FORK_UNSAFE_CALLS: frozenset[str] = frozenset({
    "open",
    "socket.socket",
    "socket.create_connection",
    "socket.socketpair",
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "random.Random",
    "random.SystemRandom",
    ".stream",
})

#: Attribute suffixes the intraprocedural pass records origins for.
#: This is the *candidate universe*: summaries are config-independent,
#: so a configured attribute source must end with one of these suffixes
#: to be tracked (extending the universe bumps ``SUMMARY_VERSION``).
CANDIDATE_ATTR_SUFFIXES: tuple[str, ...] = (
    ".rtt", ".dns_rtt", ".now",
)

#: Calls that pass taint straight through from arguments to result
#: (value-preserving transforms; ``len`` is deliberately absent — a
#: count of samples is not the samples).
PASSTHROUGH_CALLS: frozenset[str] = frozenset({
    "sorted", "list", "tuple", "set", "frozenset", "dict", "reversed",
    "min", "max", "sum", "abs", "round", "float", "int", "str", "repr",
    "format", "zip", "enumerate", "filter", "map", "next", "iter",
    "statistics.mean", "statistics.median", "statistics.stdev",
    "statistics.fmean", "statistics.pstdev", "copy.copy", "copy.deepcopy",
})

#: Method names that mutate their receiver: a tainted argument taints
#: the object the method is called on (``samples.append(result.rtt)``).
MUTATOR_METHODS: frozenset[str] = frozenset({
    "append", "extend", "add", "insert", "update", "setdefault",
    "appendleft", "extendleft", "push",
})

#: Constructor calls whose result is a mutable container (module-level
#: occurrences of these define a *mutable global* for CDE012).
MUTABLE_CONSTRUCTORS: frozenset[str] = frozenset({
    "dict", "list", "set", "bytearray",
    "collections.defaultdict", "collections.deque", "collections.Counter",
    "collections.OrderedDict",
})


# ---------------------------------------------------------------------------
# pattern matching
# ---------------------------------------------------------------------------

def pattern_matches(dotted: str, pattern: str) -> bool:
    """Whether a dotted name falls under a table pattern.

    A pattern starting with ``.`` matches by raw suffix (``.rtt`` ~
    ``result.rtt``); otherwise it matches the whole name or a trailing
    dotted segment (``clock.now`` ~ ``world.clock.now``,
    ``is_miss`` ~ ``classifier.is_miss``).
    """
    if not dotted:
        return False
    if pattern.startswith("."):
        return dotted.endswith(pattern)
    return dotted == pattern or dotted.endswith("." + pattern)


def matches_any(dotted: str, patterns: Iterable[str]) -> bool:
    return any(pattern_matches(dotted, pattern) for pattern in patterns)


# ---------------------------------------------------------------------------
# interprocedural propagation
# ---------------------------------------------------------------------------

#: Bounds keeping summaries and witness chains small and convergent.
MAX_CHAIN = 12

_PARAM = "param:"
_ATTR = "attr:"
_CALL = "call:"


@dataclass(frozen=True)
class TaintSpec:
    """One rule's parametrisation of the propagation."""

    sources: tuple[str, ...]
    sinks: tuple[str, ...]
    sanitizers: tuple[str, ...] = ()


@dataclass(frozen=True, order=True)
class TaintFlow:
    """One source-to-sink flow, anchored at the violating call site."""

    rel: str
    line: int
    col: int
    qualname: str
    source: str          # the matched origin, e.g. "world.clock.now"
    source_line: int
    sink: str            # the sink callee, e.g. "CacheCountEstimate"
    chain: tuple[str, ...]

    def render_chain(self) -> str:
        return " -> ".join(self.chain) if self.chain else "direct"


@dataclass
class _NodeState:
    """Fixed-point summary of one call-graph node under one spec."""

    ret_abs: dict[str, tuple[int, tuple[str, ...]]] = field(
        default_factory=dict)
    ret_params: frozenset[str] = frozenset()
    sink_params: dict[str, tuple[str, tuple[str, ...]]] = field(
        default_factory=dict)

    def shape(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        """Convergence is judged on key sets only: chains keep their
        first (shortest-discovered) value, which makes growth monotone."""
        return (frozenset(self.ret_abs), self.ret_params,
                frozenset(self.sink_params))


def _cap(chain: tuple[str, ...]) -> tuple[str, ...]:
    return chain[:MAX_CHAIN]


def _param_for(summary: "FunctionSummary", arg: str) -> Optional[str]:
    """Map a call-site argument spec (``"0"`` / ``"k=name"``) to the
    callee's parameter name, skipping an implicit self/cls receiver."""
    params = summary.params
    if arg.startswith("k="):
        name = arg[2:]
        return name if name in params else None
    try:
        index = int(arg)
    except ValueError:
        return None
    if params and params[0] in ("self", "cls"):
        index += 1
    if 0 <= index < len(params):
        return params[index]
    return None


class TaintAnalysis:
    """Fixed-point taint propagation for one :class:`TaintSpec`."""

    def __init__(self, graph: "CallGraph", spec: TaintSpec):
        self.graph = graph
        self.spec = spec
        self.state: dict[str, _NodeState] = {}
        #: per node: call-site index ``(callee, line) -> arg -> edges``.
        self._call_edges: dict[
            str, dict[tuple[str, int], dict[str, list["FlowEdge"]]]] = {}
        self._return_edges: dict[str, list["FlowEdge"]] = {}
        self._index()
        self._fixpoint()

    # -- construction -------------------------------------------------------

    def _index(self) -> None:
        for key in sorted(self.graph.nodes):
            node = self.graph.nodes[key]
            calls: dict[tuple[str, int], dict[str, list["FlowEdge"]]] = {}
            returns: list["FlowEdge"] = []
            for edge in node.summary.flows:
                if edge.sink == "return":
                    returns.append(edge)
                    continue
                if not edge.sink.startswith("arg:"):
                    continue
                _, _, rest = edge.sink.partition(":")
                callee, _, arg = rest.rpartition(":")
                if not callee:
                    continue
                site = calls.setdefault((callee, edge.line), {})
                site.setdefault(arg, []).append(edge)
            self._call_edges[key] = calls
            self._return_edges[key] = returns
            self.state[key] = _NodeState()

    # -- origin resolution --------------------------------------------------

    def _resolve(
        self, key: str, edge: "FlowEdge",
        seen: frozenset[tuple[str, int]],
    ) -> tuple[dict[str, tuple[int, tuple[str, ...]]], frozenset[str]]:
        """Absolute sources and parameter names an edge's origin carries."""
        origin, line = edge.src, edge.src_line
        if (origin, line) in seen:
            return {}, frozenset()
        seen = seen | {(origin, line)}
        hops = tuple(edge.hops)

        if origin.startswith(_PARAM):
            return {}, frozenset({origin[len(_PARAM):]})

        if origin.startswith(_ATTR):
            dotted = origin[len(_ATTR):]
            if matches_any(dotted, self.spec.sources):
                return {dotted: (line, _cap(hops))}, frozenset()
            return {}, frozenset()

        if not origin.startswith(_CALL):
            return {}, frozenset()
        dotted = origin[len(_CALL):].rpartition("@")[0]
        if matches_any(dotted, self.spec.sanitizers):
            return {}, frozenset()

        abs_sources: dict[str, tuple[int, tuple[str, ...]]] = {}
        params: set[str] = set()
        if matches_any(dotted, self.spec.sources):
            abs_sources[dotted] = (line, _cap(hops))
        for target in self.graph.bound_keys(dotted.rsplit(".", 1)[-1]):
            target_state = self.state[target]
            target_node = self.graph.nodes[target]
            prefix = f"{dotted}()@{line}"
            for src, (src_line, chain) in target_state.ret_abs.items():
                abs_sources.setdefault(
                    src, (src_line, _cap(chain + (prefix,) + hops)))
            if not target_state.ret_params:
                continue
            site = self._call_edges[key].get((dotted, line), {})
            for arg, arg_edges in site.items():
                pname = _param_for(target_node.summary, arg)
                if pname is None or pname not in target_state.ret_params:
                    continue
                for arg_edge in arg_edges:
                    inner_abs, inner_params = self._resolve(
                        key, arg_edge, seen)
                    for src, (src_line, chain) in inner_abs.items():
                        abs_sources.setdefault(
                            src, (src_line, _cap(chain + (prefix,) + hops)))
                    params |= inner_params
        return abs_sources, frozenset(params)

    # -- fixed point --------------------------------------------------------

    def _recompute(self, key: str) -> _NodeState:
        old = self.state[key]
        state = _NodeState(
            ret_abs=dict(old.ret_abs),
            ret_params=old.ret_params,
            sink_params=dict(old.sink_params),
        )
        ret_params = set(state.ret_params)
        for edge in self._return_edges[key]:
            abs_sources, params = self._resolve(key, edge, frozenset())
            for src, value in abs_sources.items():
                state.ret_abs.setdefault(src, value)
            ret_params |= params
        state.ret_params = frozenset(ret_params)

        for (callee, line), site in sorted(self._call_edges[key].items()):
            if matches_any(callee, self.spec.sanitizers):
                continue
            is_sink = matches_any(callee, self.spec.sinks)
            for arg in sorted(site):
                for edge in site[arg]:
                    _, params = self._resolve(key, edge, frozenset())
                    if is_sink:
                        for pname in params:
                            state.sink_params.setdefault(
                                pname, (callee, _cap(tuple(edge.hops))))
                        continue
                    for target in self.graph.bound_keys(
                            callee.rsplit(".", 1)[-1]):
                        target_state = self.state[target]
                        pname = _param_for(
                            self.graph.nodes[target].summary, arg)
                        if pname is None or pname not in \
                                target_state.sink_params:
                            continue
                        sink, via = target_state.sink_params[pname]
                        for caller_param in params:
                            state.sink_params.setdefault(
                                caller_param,
                                (sink, _cap(tuple(edge.hops)
                                            + (f"{callee}()@{line}",) + via)))
        return state

    def _fixpoint(self) -> None:
        worklist = sorted(self.state)
        pending = set(worklist)
        while worklist:
            key = worklist.pop()
            pending.discard(key)
            new_state = self._recompute(key)
            if new_state.shape() != self.state[key].shape():
                self.state[key] = new_state
                for caller in self.graph.callers(key):
                    if caller not in pending:
                        worklist.append(caller)
                        pending.add(caller)
            else:
                self.state[key] = new_state

    # -- results ------------------------------------------------------------

    def hits(self) -> list[TaintFlow]:
        """Every absolute source-to-sink flow, sorted and deduplicated."""
        found: dict[tuple[str, int, int, str, str], TaintFlow] = {}
        for key in sorted(self.graph.nodes):
            node = self.graph.nodes[key]
            for (callee, line), site in sorted(
                    self._call_edges[key].items()):
                if matches_any(callee, self.spec.sanitizers):
                    continue
                is_sink = matches_any(callee, self.spec.sinks)
                for arg in sorted(site):
                    for edge in site[arg]:
                        abs_sources, _ = self._resolve(key, edge, frozenset())
                        if not abs_sources:
                            continue
                        if is_sink:
                            self._record(found, node, edge, callee,
                                         abs_sources, ())
                            continue
                        for target in self.graph.bound_keys(
                                callee.rsplit(".", 1)[-1]):
                            pname = _param_for(
                                self.graph.nodes[target].summary, arg)
                            target_state = self.state[target]
                            if pname is None or pname not in \
                                    target_state.sink_params:
                                continue
                            sink, via = target_state.sink_params[pname]
                            self._record(
                                found, node, edge, sink, abs_sources,
                                (f"{callee}()@{edge.line}",) + via)
        return sorted(found.values())

    def _record(
        self,
        found: dict[tuple[str, int, int, str, str], TaintFlow],
        node: object,
        edge: "FlowEdge",
        sink: str,
        abs_sources: dict[str, tuple[int, tuple[str, ...]]],
        suffix: tuple[str, ...],
    ) -> None:
        rel = node.rel            # type: ignore[attr-defined]
        qualname = node.qualname  # type: ignore[attr-defined]
        for src in sorted(abs_sources):
            src_line, chain = abs_sources[src]
            mark = (rel, edge.line, edge.col, src, sink)
            found.setdefault(mark, TaintFlow(
                rel=rel, line=edge.line, col=edge.col, qualname=qualname,
                source=src, source_line=src_line, sink=sink,
                chain=_cap(chain + suffix),
            ))


def propagate(graph: "CallGraph", spec: TaintSpec) -> TaintAnalysis:
    """Run one parametrised interprocedural taint propagation."""
    return TaintAnalysis(graph, spec)
