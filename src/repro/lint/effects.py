"""Whole-program effect inference (the cdelint effect engine).

Every function in the linted tree gets an *effect signature*: the subset
of the effect lattice

    {CLOCK, RNG, IO, ENV, MUTATES_GLOBAL, UNORDERED}

it may exercise, directly or through anything it calls.  Direct (leaf)
effects are recognised syntactically — ``time.time()`` is CLOCK,
``random.random()`` is RNG, ``open()`` is IO, ``os.environ`` is ENV, a
``global`` statement is MUTATES_GLOBAL, iterating a set is UNORDERED —
and then propagated over the project call graph
(:mod:`repro.lint.callgraph`) to a fixed point, so an effect introduced
three calls deep is attributed to every caller that can reach it.

The propagation is conservative in the same direction as CDE004 always
was: a call to a simple name binds to *every* project function of that
name, so a false edge can only widen an audited surface, never hide an
effect.  Rules built on top (CDE007 effect contracts, the rewritten
CDE004 shard purity) consume the signatures plus one shortest witness
chain per reachable function for their reports.

Sanctioned carve-outs mirror the per-file rules: ``time.perf_counter``
is *not* CLOCK (it is the documented way to sample real elapsed time for
performance counters, which never feed measured rows), and effect sites
inside the configured ``wallclock-allow`` / ``rng-allow`` files are
skipped by the contract rules exactly as CDE001/CDE002 skip them.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .astutil import dotted_name, is_set_expression, local_set_names

if TYPE_CHECKING:  # pragma: no cover - type-only import, no runtime cycle
    from .callgraph import CallGraph


class Effect(enum.Enum):
    """One axis of the effect lattice (ordered; see EFFECT_ORDER)."""

    CLOCK = "CLOCK"                  # reads host wall-clock time
    RNG = "RNG"                      # draws randomness outside seeded streams
    IO = "IO"                        # file / socket / process / console I/O
    ENV = "ENV"                      # reads per-process or per-host state
    MUTATES_GLOBAL = "MUTATES_GLOBAL"  # rebinds module-level state
    UNORDERED = "UNORDERED"          # iterates a set (hash-order dependent)


#: Canonical rendering order for signatures (reports and JSON output).
EFFECT_ORDER: tuple[Effect, ...] = (
    Effect.CLOCK, Effect.RNG, Effect.IO, Effect.ENV,
    Effect.MUTATES_GLOBAL, Effect.UNORDERED,
)


@dataclass(frozen=True, order=True)
class EffectSite:
    """One direct (leaf) effect at one source location."""

    line: int
    col: int
    effect: str          # Effect value name (kept as str: JSON-stable)
    label: str           # e.g. "time.time", "os.environ.get", "import socket"

    def to_json(self) -> list[object]:
        return [self.line, self.col, self.effect, self.label]

    @classmethod
    def from_json(cls, raw: list[object]) -> "EffectSite":
        return cls(line=int(raw[0]), col=int(raw[1]),  # type: ignore[arg-type]
                   effect=str(raw[2]), label=str(raw[3]))


# ---------------------------------------------------------------------------
# leaf tables
# ---------------------------------------------------------------------------

#: Wall-clock reads (the CDE001 set).  ``time.perf_counter`` is sanctioned.
WALLCLOCK_READS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: The effect engine additionally treats real sleeping as CLOCK — it does
#: not read the clock but couples behaviour to host scheduling.
CLOCK_CALLS = WALLCLOCK_READS | frozenset({"time.sleep"})

#: Draw/state functions of the *global* ``random`` module (the CDE002 set).
GLOBAL_RANDOM_DRAWS = frozenset({
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.sample", "random.shuffle", "random.uniform",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.betavariate", "random.triangular", "random.getrandbits",
    "random.randbytes", "random.seed", "random.setstate", "random.getstate",
})

#: Other entropy sources that bypass the seed-derivation scheme entirely.
ENTROPY_CALLS = frozenset({
    "random.SystemRandom", "os.urandom", "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.randbits", "secrets.choice",
})

#: Per-process / per-host state reads (the CDE004 impurity set, widened).
ENV_NAMES = frozenset({
    "os.environ", "os.getenv", "os.putenv", "os.getpid", "os.getppid",
    "os.uname", "os.getcwd", "os.cpu_count", "socket.gethostname",
    "platform.node", "platform.platform", "sys.argv",
})
ENV_PREFIXES = ("os.environ.",)

#: File / console / process / network I/O, by exact callable name ...
IO_CALLS = frozenset({
    "open", "input", "print", "breakpoint",
    "os.open", "os.read", "os.write", "os.remove", "os.unlink",
    "os.mkdir", "os.makedirs", "os.rmdir", "os.rename", "os.replace",
    "os.listdir", "os.scandir", "os.stat", "os.system", "os.popen",
})
#: ... and by dotted prefix (referencing the module at all is flagged,
#: matching CDE004's historical treatment of ``socket``).
IO_REF_PREFIXES = (
    "socket.", "subprocess.", "shutil.", "urllib.", "http.client.",
    "requests.", "sys.stdout.", "sys.stderr.", "sys.stdin.",
)
IO_REF_NAMES = frozenset({"socket", "subprocess"})


def _walk_own(func: ast.AST) -> Iterator[ast.AST]:
    """Walk ``func`` without descending into nested function bodies.

    Nested defs are separate call-graph nodes reached via the call edge
    their name creates; scanning them here would double-report.  Lambdas
    stay inline.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _resolve(node: ast.expr, aliases: dict[str, str]) -> Optional[str]:
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = aliases.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def _fixed_seed_rng(node: ast.Call) -> Optional[str]:
    """Label when ``node`` constructs ``random.Random`` unseeded or with a
    literal constant seed — either way the stream is not derived from the
    experiment seed via ``derive_seed``."""
    if not node.args and not node.keywords:
        return "random.Random()"
    if len(node.args) == 1 and not node.keywords:
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and not isinstance(arg.value, str):
            return f"random.Random({arg.value!r})"
    return None


def extract_effect_sites(func: ast.AST,
                         aliases: dict[str, str]) -> tuple[EffectSite, ...]:
    """Direct (leaf) effect sites of one function body.

    Purely syntactic and configuration-independent — allow-lists are
    applied later by the rules, which keeps these summaries cacheable by
    file content alone.
    """
    found: list[EffectSite] = []

    def add(node: ast.AST, effect: Effect, label: str) -> None:
        if hasattr(node, "lineno"):
            found.append(EffectSite(
                line=node.lineno,                       # type: ignore[attr-defined]
                col=getattr(node, "col_offset", 0),
                effect=effect.value, label=label,
            ))

    for node in _walk_own(func):
        if isinstance(node, ast.Global):
            add(node, Effect.MUTATES_GLOBAL,
                "global " + ", ".join(node.names))
        elif isinstance(node, ast.Call):
            target = _resolve(node.func, aliases)
            if target is None:
                continue
            if target in CLOCK_CALLS:
                add(node, Effect.CLOCK, target)
            elif target in GLOBAL_RANDOM_DRAWS or target in ENTROPY_CALLS:
                add(node, Effect.RNG, target)
            elif target == "random.Random":
                label = _fixed_seed_rng(node)
                if label is not None:
                    add(node, Effect.RNG, label)
            elif target in IO_CALLS:
                add(node, Effect.IO, target)
        elif isinstance(node, (ast.Attribute, ast.Name)):
            target = _resolve(node, aliases)
            if target is None:
                continue
            if target in ENV_NAMES or target.startswith(ENV_PREFIXES):
                add(node, Effect.ENV, target)
            elif (target in IO_REF_NAMES
                  or target.startswith(IO_REF_PREFIXES)):
                add(node, Effect.IO, target)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modname = (node.names[0].name if isinstance(node, ast.Import)
                       else (node.module or ""))
            if modname == "socket" or modname.startswith("socket."):
                add(node, Effect.IO, "import socket")

    # Set iteration (UNORDERED) reuses the CDE003 machinery on this scope.
    set_names = local_set_names(func)
    for node in _walk_own(func):
        iterables: list[ast.expr] = []
        if isinstance(node, ast.For):
            iterables.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            iterables.extend(gen.iter for gen in node.generators)
        for iterable in iterables:
            if is_set_expression(iterable, set_names):
                add(iterable, Effect.UNORDERED, "set iteration")

    # Deterministic, deduped by location + effect.
    unique = {(s.line, s.col, s.effect, s.label): s for s in found}
    return tuple(unique[key] for key in sorted(unique))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

@dataclass
class EffectAnalysis:
    """Fixed-point effect signatures over a :class:`CallGraph`.

    ``signatures[key]`` is the full inferred effect set of the function
    ``key`` (its direct effects plus everything reachable through its
    calls).  ``recomputed`` lists the function keys whose signatures were
    actually re-propagated this run — the whole graph on a cold start,
    only the dirty subgraph when warm cached signatures were supplied.
    """

    signatures: dict[str, frozenset[Effect]]
    recomputed: tuple[str, ...] = ()

    def signature_of(self, key: str) -> frozenset[Effect]:
        return self.signatures.get(key, frozenset())

    def to_json(self) -> dict[str, list[str]]:
        return {
            key: [e.value for e in EFFECT_ORDER if e in effects]
            for key, effects in sorted(self.signatures.items())
        }

    @staticmethod
    def signatures_from_json(
        raw: dict[str, list[str]],
    ) -> dict[str, frozenset[Effect]]:
        return {
            key: frozenset(Effect(name) for name in names)
            for key, names in raw.items()
        }

    @classmethod
    def build(cls, graph: "CallGraph",
              cached: Optional[dict[str, frozenset[Effect]]] = None,
              dirty_rels: Optional[frozenset[str]] = None) -> "EffectAnalysis":
        """Propagate direct effects to a fixed point.

        With ``cached`` signatures and the set of ``dirty_rels`` (files
        whose summaries changed since the cache was written), only the
        *affected subgraph* — functions in dirty files plus every
        transitive caller that can reach one — is re-propagated; clean
        functions keep their cached signatures.  A cached signature is
        trusted only if the binding environment is unchanged, which the
        caller guarantees by comparing
        :meth:`CallGraph.binding_fingerprint` before passing ``cached``.
        """
        direct: dict[str, frozenset[Effect]] = {
            key: frozenset(Effect(site.effect) for site in node.effects)
            for key, node in graph.nodes.items()
        }

        if cached is None or dirty_rels is None:
            affected = set(graph.nodes)
        else:
            seeds = [key for key, node in graph.nodes.items()
                     if node.rel in dirty_rels or key not in cached]
            affected = graph.reverse_reachable(seeds)

        signatures: dict[str, frozenset[Effect]] = {}
        for key in graph.nodes:
            if key in affected or cached is None:
                signatures[key] = direct[key]
            else:
                signatures[key] = cached.get(key, direct[key])

        # Worklist fixed point over the affected subgraph only.  Callees
        # outside the subgraph contribute their (trusted) signatures but
        # are never themselves revisited.
        worklist = sorted(affected)
        pending = set(worklist)
        while worklist:
            key = worklist.pop()
            pending.discard(key)
            node = graph.nodes[key]
            merged = set(signatures[key])
            for callee in graph.callees(key):
                merged |= signatures.get(callee, frozenset())
            merged_frozen = frozenset(merged)
            if merged_frozen != signatures[key]:
                signatures[key] = merged_frozen
                for caller in graph.callers(key):
                    if caller in affected and caller not in pending:
                        worklist.append(caller)
                        pending.add(caller)
        return cls(signatures=signatures, recomputed=tuple(sorted(affected)))
