"""Replica-equivalence matching for cdesync (CDE015).

Given a *replica binding* — a fused fast-path function declared (via a
``# cdelint: replica-of=<dotted.path>`` marker or the ``[tool.cdelint]
replicas`` config) to mirror a structured original — this module
compiles both functions' stored effect traces (:mod:`repro.lint.trace`)
into epsilon-NFAs over a canonical token alphabet and decides **trace
inclusion**: every observable-effect sequence the replica can produce
must be producible by the original.  A sequence the original cannot
produce is *replica drift*, reported with a dual witness: the first
diverging replica effect (with its call-hop chain) and the effects the
original expects at that point.

Canonical alphabet
==================

``rng:<method>``
    A draw, by canonical method.  Resolved through the config RNG-
    callable table; ``randrange``/``randint`` calls and the fused
    corridor's bound ``randrange`` slots all canonicalize to
    ``rng:randbelow``, so a fused draw compares equal to the structured
    call.

``clock``
    A virtual-clock write (``_now`` assignment, however reached).

``mut:<attr>``
    A mutation of an observable state attribute (config
    ``trace_state_attrs``), receiver-blind and amount-blind: adjacent
    equal mutations collapse, so ``misses += 2`` equals two successive
    ``misses += 1`` bumps.  Mutations of non-listed attributes and of
    config ``trace_containers`` scratch slots are unobservable.

``sync:<original>``
    A call into a bound pair, from either side.  On the replica side a
    call to a replica *or* its original canonicalizes to the sync token
    (the fused fallback idiom ``if not _fused_x(...): real_x(...)``
    collapses, because adjacent sync tokens also absorb).  On the
    original side a call to a bound original offers both the sync token
    and its full expansion, so delegating and inlining replicas match
    the same original.

Calls outside the alphabet expand through the conservative name-bound
call graph with an always-present empty alternative (open-world calls
may be pure), cycle-guarded and depth-bounded: original-side callee
effects are optional context, replica-side effects are mandatory
obligations.  That asymmetry is the point — the replica cannot invent
or reorder observable effects the original does not perform in that
order, which is exactly the seeded byte-identity contract the fused
fast path claims.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .callgraph import CallGraph, FunctionSummary, ModuleSummary
from .config import LintConfig

#: Maximum call-expansion depth below a compared function.
MAX_DEPTH = 12
#: Soft cap on NFA transitions per compiled side; expansions degrade to
#: their empty alternative beyond it (deterministically).
STATE_BUDGET = 120_000
#: Cap on product states explored per pair before giving up (no finding).
VISIT_BUDGET = 300_000
#: Candidates considered per name-bound call expansion.
MAX_CANDIDATES = 8


@dataclass(frozen=True)
class TokenMeta:
    """Where a token edge came from, for witnesses."""

    rel: str
    line: int
    hops: tuple[str, ...]

    def describe(self) -> str:
        chain = "->".join(self.hops) if self.hops else "?"
        return f"{chain} at {self.rel}:{self.line}"


@dataclass(frozen=True)
class Binding:
    """One replica pair: ``replica_key`` claims to mirror ``original_key``."""

    replica_key: str
    original_key: str
    line: int
    checked: bool
    spec: str


@dataclass(frozen=True)
class BindingError:
    rel: str
    line: int
    qualname: str
    message: str


@dataclass
class Violation:
    """First point where the replica's trace leaves the original's."""

    kind: str                      # "token" or "accept"
    token: str = ""
    meta: Optional[TokenMeta] = None
    expected: tuple[tuple[str, TokenMeta], ...] = ()


@dataclass(frozen=True)
class SyncTables:
    """Config-derived canonicalization tables."""

    rng_map: dict[str, str] = field(default_factory=dict)
    containers: frozenset[str] = frozenset()
    state_attrs: frozenset[str] = frozenset()

    @classmethod
    def from_config(cls, config: LintConfig) -> "SyncTables":
        rng_map: dict[str, str] = {}
        for entry in config.trace_rng_callables:
            name, _, method = entry.partition("=")
            if name.strip() and method.strip():
                rng_map[name.strip()] = method.strip()
        return cls(rng_map=rng_map,
                   containers=frozenset(config.trace_containers),
                   state_attrs=frozenset(config.trace_state_attrs))


# ---------------------------------------------------------------------------
# binding collection
# ---------------------------------------------------------------------------

def resolve_dotted(summaries: dict[str, ModuleSummary],
                   dotted: str) -> Optional[str]:
    """``repro.net.network.Network._traverse`` -> ``<rel>::<qualname>``."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        suffix = "/".join(parts[:split]) + ".py"
        qualname = ".".join(parts[split:])
        for rel in sorted(summaries):
            if not ("/" + rel).endswith("/" + suffix):
                continue
            if any(f.qualname == qualname
                   for f in summaries[rel].functions):
                return f"{rel}::{qualname}"
    return None


def collect_bindings(
    summaries: dict[str, ModuleSummary], config: LintConfig,
) -> tuple[list[Binding], list[BindingError]]:
    """Marker- and config-declared replica pairs, resolved to node keys."""
    assumed = tuple(config.replicas_assume)
    bindings: list[Binding] = []
    errors: list[BindingError] = []
    declarations: list[tuple[str, int, str, str]] = []

    for rel in sorted(summaries):
        for func in summaries[rel].functions:
            if func.replica_of:
                declarations.append(
                    (f"{rel}::{func.qualname}", func.line, func.replica_of,
                     func.qualname))
    for entry in config.replicas:
        spec, _, dotted = entry.partition("=")
        spec, dotted = spec.strip(), dotted.strip()
        if not spec or not dotted:
            continue
        suffix, _, qualname = spec.partition("::")
        for rel in sorted(summaries):
            if not ("/" + rel).endswith("/" + suffix.lstrip("/")):
                continue
            for func in summaries[rel].functions:
                if func.qualname == qualname:
                    declarations.append(
                        (f"{rel}::{qualname}", func.line, dotted, qualname))

    seen: set[str] = set()
    for replica_key, line, dotted, qualname in declarations:
        if replica_key in seen:
            continue
        seen.add(replica_key)
        rel = replica_key.split("::", 1)[0]
        original_key = resolve_dotted(summaries, dotted)
        if original_key is None:
            errors.append(BindingError(
                rel=rel, line=line, qualname=qualname,
                message=(f"replica-of target {dotted!r} does not resolve "
                         f"to a project function")))
            continue
        checked = not any(
            ("/" + replica_key).endswith("/" + waived.lstrip("/"))
            for waived in assumed)
        bindings.append(Binding(replica_key=replica_key,
                                original_key=original_key, line=line,
                                checked=checked, spec=dotted))
    bindings.sort(key=lambda b: (b.replica_key, b.original_key))
    return bindings, errors


# ---------------------------------------------------------------------------
# NFA construction
# ---------------------------------------------------------------------------

Edge = tuple[Optional[str], int, Optional[TokenMeta]]


class Nfa:
    """Epsilon-NFA over canonical tokens; both exits accept."""

    def __init__(self) -> None:
        self.edges: list[list[Edge]] = []
        self.start = self.new_state()
        self.accepts: set[int] = set()

    def new_state(self) -> int:
        self.edges.append([])
        return len(self.edges) - 1

    def add(self, src: int, label: Optional[str], dst: int,
            meta: Optional[TokenMeta] = None) -> None:
        self.edges[src].append((label, dst, meta))


@dataclass
class _Ctx:
    key: str
    rel: str
    depth: int
    rtarget: int
    etarget: int
    loops: list[tuple[int, int]]          # (break target, continue target)
    hops: tuple[str, ...]
    stack: frozenset[str]


class SyncIndex:
    """Lookup tables shared by every pair check of one run."""

    def __init__(self, summaries: dict[str, ModuleSummary],
                 graph: CallGraph, tables: SyncTables,
                 bindings: Iterable[Binding]):
        self.summaries = summaries
        self.graph = graph
        self.tables = tables
        self._traces: dict[str, Optional[list]] = {}
        self._functions: dict[str, FunctionSummary] = {}
        for rel, summary in summaries.items():
            for func in summary.functions:
                self._functions[f"{rel}::{func.qualname}"] = func
        #: simple callee name -> sync token label (the original qualname)
        self.sync_by_name: dict[str, str] = {}
        #: simple names that are bound *originals* (get the dual arm)
        self.original_names: set[str] = set()
        for binding in bindings:
            label = binding.original_key.split("::", 1)[1]
            replica_name = binding.replica_key.split("::", 1)[1].split(".")[-1]
            original_name = label.split(".")[-1]
            self.sync_by_name[replica_name] = label
            self.sync_by_name[original_name] = label
            self.original_names.add(original_name)

    def function(self, key: str) -> Optional[FunctionSummary]:
        return self._functions.get(key)

    def trace(self, key: str) -> Optional[list]:
        if key not in self._traces:
            func = self._functions.get(key)
            raw = func.trace_json if func is not None else ""
            self._traces[key] = json.loads(raw) if raw else None
        return self._traces[key]


class _Compiler:
    """Compile one side of a pair into an :class:`Nfa`."""

    def __init__(self, index: SyncIndex, side: str):
        self.index = index
        self.side = side              # "replica" | "original"
        self.tables = index.tables
        self.nfa = Nfa()
        #: Original-side callee fragments, one per (key, etarget) — see
        #: :meth:`_fragment`.
        self._fragments: dict[tuple[str, int], tuple[int, int]] = {}
        #: Keys whose fragment body is currently being compiled, with
        #: the first fragment registered for each — recursive chains
        #: that keep minting fresh exception targets (a cycle through a
        #: ``try`` body) link back here instead of recursing forever.
        self._building: dict[str, tuple[int, int]] = {}

    # -- public entry -------------------------------------------------------

    def compile(self, key: str) -> Nfa:
        nfa = self.nfa
        raise_exit = nfa.new_state()
        end = nfa.new_state()
        nfa.accepts = {raise_exit, end}
        func = self.index.function(key)
        qualname = func.qualname if func is not None else key
        ctx = _Ctx(key=key, rel=key.split("::", 1)[0], depth=0,
                   rtarget=end, etarget=raise_exit, loops=[],
                   hops=(qualname,), stack=frozenset({key}))
        trace = self.index.trace(key)
        exit_state = (self.node(trace, nfa.start, ctx)
                      if trace is not None else nfa.start)
        nfa.add(exit_state, None, end)
        return nfa

    # -- tree walk ----------------------------------------------------------

    def node(self, tree: list, s: int, ctx: _Ctx) -> int:
        kind = tree[0]
        nfa = self.nfa
        if kind == "seq":
            for child in tree[1]:
                s = self.node(child, s, ctx)
            return s
        if kind == "alt":
            exit_state = nfa.new_state()
            for arm in tree[1]:
                arm_exit = self.node(arm, s, ctx)
                nfa.add(arm_exit, None, exit_state)
            return exit_state
        if kind == "loop":
            exit_state = nfa.new_state()
            ctx.loops.append((exit_state, s))
            body_exit = self.node(tree[1], s, ctx)
            ctx.loops.pop()
            nfa.add(body_exit, None, s)
            nfa.add(s, None, exit_state)
            return exit_state
        if kind == "while":
            # s -> test -> (exit | body -> back to s).
            entry = nfa.new_state()
            nfa.add(s, None, entry)
            test_exit = self.node(tree[1], entry, ctx)
            exit_state = nfa.new_state()
            nfa.add(test_exit, None, exit_state)
            ctx.loops.append((exit_state, entry))
            body_exit = self.node(tree[2], test_exit, ctx)
            ctx.loops.pop()
            nfa.add(body_exit, None, entry)
            return exit_state
        if kind == "try":
            exit_state = nfa.new_state()
            dispatch = nfa.new_state()
            # An unmatched exception type keeps propagating.
            nfa.add(dispatch, None, ctx.etarget)
            inner = _Ctx(key=ctx.key, rel=ctx.rel, depth=ctx.depth,
                         rtarget=ctx.rtarget, etarget=dispatch,
                         loops=ctx.loops, hops=ctx.hops, stack=ctx.stack)
            body_exit = self.node(tree[1], s, inner)
            nfa.add(body_exit, None, exit_state)
            for handler in tree[2]:
                handler_exit = self.node(handler, dispatch, ctx)
                nfa.add(handler_exit, None, exit_state)
            return exit_state
        if kind == "ret":
            nfa.add(s, None, ctx.rtarget)
            return nfa.new_state()
        if kind == "raise":
            nfa.add(s, None, ctx.etarget)
            return nfa.new_state()
        if kind == "brk":
            if ctx.loops:
                nfa.add(s, None, ctx.loops[-1][0])
            return nfa.new_state()
        if kind == "cont":
            if ctx.loops:
                nfa.add(s, None, ctx.loops[-1][1])
            return nfa.new_state()
        if kind == "call":
            return self.call(tree[1], tree[2], s, ctx)
        if kind == "mut":
            return self.mutation(tree[1], tree[2], s, ctx)
        if kind == "layout":
            return s  # object construction is unobservable (CDE016's job)
        return s  # pragma: no cover - unknown node kinds are inert

    # -- leaves -------------------------------------------------------------

    def token(self, s: int, label: str, line: int, ctx: _Ctx) -> int:
        dst = self.nfa.new_state()
        self.nfa.add(s, label, dst,
                     TokenMeta(rel=ctx.rel, line=line, hops=ctx.hops))
        return dst

    def mutation(self, chain: list, line: int, s: int, ctx: _Ctx) -> int:
        # Container precedence: a write that goes through a configured
        # container slot (an index bucket, a memo, the entry table) is
        # scratch bookkeeping — the fused log replay appends through
        # pre-captured bucket aliases no static chain can track, so
        # container *contents* are runtime-verified, while the stat
        # counters that always accompany them stay mandatory here.
        if any(str(part) in self.tables.containers for part in chain):
            return s
        label = str(chain[-1]).lstrip("_")
        if label == "now":
            return self.token(s, "clock", line, ctx)
        if label in self.tables.state_attrs:
            return self.token(s, f"mut:{label}", line, ctx)
        return s

    def call(self, chain: list, line: int, s: int, ctx: _Ctx) -> int:
        name = str(chain[-1])
        # 1. RNG draw through the callable table.
        method = self.tables.rng_map.get(name)
        if method is not None:
            return self.token(s, f"rng:{method}", line, ctx)
        # 2. Bound-pair calls canonicalize to sync tokens.
        sync_label = self.index.sync_by_name.get(name)
        if sync_label is not None:
            if self.side == "replica":
                dst = self.token(s, f"sync:{sync_label}", line, ctx)
                self.nfa.add(dst, None, ctx.etarget)  # callee may raise
                return dst
            exit_state = self.nfa.new_state()
            dst = self.token(s, f"sync:{sync_label}", line, ctx)
            self.nfa.add(dst, None, ctx.etarget)
            self.nfa.add(dst, None, exit_state)
            self.expand(name, line, s, ctx, exit_state, allow_empty=False)
            return exit_state
        # 3. Container reads/helpers are unobservable.
        if any(str(part) in self.tables.containers for part in chain[:-1]):
            return s
        # 4. Open-world expansion with an empty alternative.
        exit_state = self.nfa.new_state()
        self.nfa.add(s, None, exit_state)
        self.expand(name, line, s, ctx, exit_state, allow_empty=True)
        return exit_state

    def expand(self, name: str, line: int, s: int, ctx: _Ctx,
               exit_state: int, allow_empty: bool) -> None:
        if ctx.depth >= MAX_DEPTH:
            return
        if len(self.nfa.edges) > STATE_BUDGET:
            return
        candidates = [key for key in self.index.graph.bound_keys(name)
                      if key not in ctx.stack][:MAX_CANDIDATES]
        for key in candidates:
            trace = self.index.trace(key)
            if trace is None:
                continue
            if self.side == "original":
                fragment = self._fragment(key, ctx)
                if fragment is not None:
                    entry, fragment_exit = fragment
                    self.nfa.add(s, None, entry)
                    self.nfa.add(fragment_exit, None, exit_state)
                continue
            func = self.index.function(key)
            qualname = func.qualname if func is not None else key
            entry = self.nfa.new_state()
            self.nfa.add(s, None, entry)
            inner = _Ctx(key=key, rel=key.split("::", 1)[0],
                         depth=ctx.depth + 1, rtarget=exit_state,
                         etarget=ctx.etarget, loops=[],
                         hops=ctx.hops + (qualname,),
                         stack=ctx.stack | {key})
            body_exit = self.node(trace, entry, inner)
            self.nfa.add(body_exit, None, exit_state)

    def _fragment(self, key: str,
                  ctx: _Ctx) -> Optional[tuple[int, int]]:
        """One shared (entry, exit) sub-NFA per original-side callee.

        Every call site of ``key`` under the same exception target links
        the same fragment, so the compiled size is linear in the trace
        set instead of exponential in call depth.  Sharing merges paths
        across call sites (entering from one site can exit toward
        another's continuation) and turns recursion into loops — both
        strictly *widen* the original's language, which is the sound
        direction for an inclusion check: the replica side stays
        per-site exact, so widening the original can only make the
        checker more permissive, never invent a drift finding.
        """
        trace = self.index.trace(key)
        if trace is None:
            return None
        memo_key = (key, ctx.etarget)
        cached = self._fragments.get(memo_key)
        if cached is not None:
            return cached
        in_progress = self._building.get(key)
        if in_progress is not None:
            return in_progress
        nfa = self.nfa
        entry = nfa.new_state()
        fragment_exit = nfa.new_state()
        # Register before compiling the body so recursive calls link
        # back to this same fragment instead of recursing.
        self._fragments[memo_key] = (entry, fragment_exit)
        self._building[key] = (entry, fragment_exit)
        func = self.index.function(key)
        qualname = func.qualname if func is not None else key
        inner = _Ctx(key=key, rel=key.split("::", 1)[0], depth=0,
                     rtarget=fragment_exit, etarget=ctx.etarget, loops=[],
                     hops=ctx.hops + (qualname,), stack=frozenset())
        body_exit = self.node(trace, entry, inner)
        nfa.add(body_exit, None, fragment_exit)
        del self._building[key]
        return (entry, fragment_exit)


# ---------------------------------------------------------------------------
# inclusion check
# ---------------------------------------------------------------------------

def _collapsible(label: str) -> bool:
    return (label == "clock" or label.startswith("mut:")
            or label.startswith("sync:"))


class _Product:
    """On-the-fly check of collapse(L(replica)) within collapse(L(orig))."""

    def __init__(self, replica: Nfa, original: Nfa):
        self.replica = replica
        self.original = original
        self._closure_cache: dict[frozenset[int], frozenset[int]] = {}
        self._move_cache: dict[tuple[frozenset[int], str],
                               frozenset[int]] = {}

    def closure(self, states: frozenset[int]) -> frozenset[int]:
        cached = self._closure_cache.get(states)
        if cached is not None:
            return cached
        out = set(states)
        stack = list(states)
        edges = self.original.edges
        while stack:
            for label, dst, _meta in edges[stack.pop()]:
                if label is None and dst not in out:
                    out.add(dst)
                    stack.append(dst)
        result = frozenset(out)
        self._closure_cache[states] = result
        return result

    def move(self, states: frozenset[int], token: str) -> frozenset[int]:
        key = (states, token)
        cached = self._move_cache.get(key)
        if cached is not None:
            return cached
        edges = self.original.edges
        base = {dst for s in states for label, dst, _m in edges[s]
                if label == token}
        out = self.closure(frozenset(base)) if base else frozenset()
        if out and _collapsible(token):
            # Absorb the original's own adjacent duplicates.
            while True:
                extra = {dst for s in out for label, dst, _m in edges[s]
                         if label == token} - out
                if not extra:
                    break
                out = out | self.closure(frozenset(extra))
        self._move_cache[key] = out
        return out

    def expected(self, states: frozenset[int]) -> tuple[
            tuple[str, TokenMeta], ...]:
        found: dict[str, TokenMeta] = {}
        for s in sorted(states):
            for label, _dst, meta in self.original.edges[s]:
                if label is not None and meta is not None:
                    current = found.get(label)
                    if current is None or (meta.line, meta.rel) < (
                            current.line, current.rel):
                        found[label] = meta
        return tuple(sorted(found.items()))

    def check(self) -> Optional[Violation]:
        start = self.closure(frozenset({self.original.start}))
        initial = (self.replica.start, "", start)
        queue: list[tuple[int, str, frozenset[int]]] = [initial]
        seen: set[tuple[int, str, frozenset[int]]] = {initial}
        head = 0
        accepts = self.original.accepts
        while head < len(queue):
            if len(seen) > VISIT_BUDGET:
                return None  # out of budget: give up, never guess
            r, last, states = queue[head]
            head += 1
            if (r in self.replica.accepts
                    and not (states & accepts)):
                return Violation(kind="accept",
                                 expected=self.expected(states))
            for label, dst, meta in self.replica.edges[r]:
                if label is None:
                    nxt = (dst, last, states)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
                    continue
                if _collapsible(label) and label == last:
                    # The replica's own adjacent duplicate: absorbed.
                    nxt = (dst, last, states)
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
                    continue
                moved = self.move(states, label)
                if not moved:
                    return Violation(kind="token", token=label, meta=meta,
                                     expected=self.expected(states))
                carry = label if _collapsible(label) else ""
                nxt = (dst, carry, moved)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return None


def check_pair(index: SyncIndex, binding: Binding) -> Optional[Violation]:
    """Compile both sides of ``binding`` and decide trace inclusion."""
    replica_nfa = _Compiler(index, "replica").compile(binding.replica_key)
    original_nfa = _Compiler(index, "original").compile(binding.original_key)
    return _Product(replica_nfa, original_nfa).check()


# ---------------------------------------------------------------------------
# run digest (for warm-cache replay of CDE015 findings)
# ---------------------------------------------------------------------------

def sync_digest(summaries: dict[str, ModuleSummary],
                config: LintConfig) -> str:
    """Digest of every input the CDE015 verdicts depend on."""
    hasher = hashlib.sha256()
    hasher.update(config.config_hash().encode())
    for rel in sorted(summaries):
        summary = summaries[rel]
        hasher.update(rel.encode())
        for func in summary.functions:
            if func.trace_json or func.replica_of:
                hasher.update(func.qualname.encode())
                hasher.update(str(func.line).encode())
                hasher.update(func.replica_of.encode())
                hasher.update(func.trace_json.encode())
        for name, fields in sorted(summary.dataclass_fields.items()):
            hasher.update(name.encode())
            hasher.update("|".join(fields).encode())
    return hasher.hexdigest()[:24]
