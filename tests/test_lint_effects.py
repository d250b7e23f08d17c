"""Whole-program machinery: effect inference, call graph, CDE007–CDE009.

Leaf extraction and fixed-point propagation run on the per-kind fixtures
under ``tests/fixtures/lint/effects/``; the project rules are driven
through :func:`repro.lint.run_lint` on the rule-fixture trees so the
summary → graph → signature pipeline is covered end to end.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.lint import run_lint
from repro.lint.callgraph import CallGraph, summarize_module
from repro.lint.effects import Effect, EffectAnalysis
from repro.lint.engine import _parse, iter_python_files
from repro.lint.config import LintConfig
from repro.lint.rules.layering import package_of, resolve_import
from repro.lint.callgraph import ImportRecord

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
EFFECTS = FIXTURES / "effects"


def summaries_for(*names: str):
    out = {}
    for name in names:
        path = EFFECTS / f"{name}.py"
        rel = f"effects/{name}.py"
        module = _parse(path, rel, path.read_text(encoding="utf-8"))
        out[rel] = summarize_module(module)
    return out


def analysis_for(*names: str) -> EffectAnalysis:
    return EffectAnalysis.build(CallGraph(summaries_for(*names).values()))


# ---------------------------------------------------------------------------
# leaf extraction, one fixture per effect kind
# ---------------------------------------------------------------------------

def test_clock_leaves():
    sig = analysis_for("clock").signature_of
    assert sig("effects/clock.py::read_clock") == {Effect.CLOCK}
    assert sig("effects/clock.py::nap") == {Effect.CLOCK}  # time.sleep
    assert sig("effects/clock.py::stamp") == {Effect.CLOCK}
    # perf_counter is sanctioned — not a CLOCK leaf.
    assert sig("effects/clock.py::sanctioned") == frozenset()


def test_rng_leaves():
    sig = analysis_for("rng").signature_of
    assert sig("effects/rng.py::global_draw") == {Effect.RNG}
    assert sig("effects/rng.py::entropy") == {Effect.RNG}  # os.urandom
    assert sig("effects/rng.py::fixed_seed") == {Effect.RNG}
    assert sig("effects/rng.py::unseeded") == {Effect.RNG}
    # Seeding from a variable is assumed to come from derive_seed.
    assert sig("effects/rng.py::seeded_properly") == frozenset()


def test_io_leaves():
    sig = analysis_for("io").signature_of
    assert sig("effects/io.py::read_file") == {Effect.IO}   # open
    assert sig("effects/io.py::log") == {Effect.IO}         # print
    assert sig("effects/io.py::connect") == {Effect.IO}     # socket.*


def test_env_leaves():
    sig = analysis_for("env").signature_of
    assert sig("effects/env.py::mode") == {Effect.ENV}      # os.environ.get
    assert sig("effects/env.py::worker_id") == {Effect.ENV}  # os.getpid


def test_mutates_global_leaf():
    sig = analysis_for("globals").signature_of
    assert sig("effects/globals.py::bump") == {Effect.MUTATES_GLOBAL}


def test_unordered_leaf():
    sig = analysis_for("unordered").signature_of
    assert sig("effects/unordered.py::rows") == {Effect.UNORDERED}


# ---------------------------------------------------------------------------
# propagation: cycles, incrementality, binding fingerprint
# ---------------------------------------------------------------------------

def test_cycle_converges_and_propagates():
    analysis = analysis_for("cycle")
    for name in ("ping", "pong", "driver"):
        assert analysis.signature_of(
            f"effects/cycle.py::{name}") == {Effect.CLOCK}, name
    assert analysis.signature_of("effects/cycle.py::bystander") == frozenset()


def test_incremental_rebuild_recomputes_only_dirty_subgraph():
    graph = CallGraph(summaries_for("cycle", "clock").values())
    cold = EffectAnalysis.build(graph)
    assert set(cold.recomputed) == set(graph.nodes)

    warm = EffectAnalysis.build(graph, cached=cold.signatures,
                                dirty_rels=frozenset({"effects/clock.py"}))
    assert warm.signatures == cold.signatures
    # Nothing in cycle.py calls into clock.py, so only clock.py re-runs.
    assert set(warm.recomputed) == {
        key for key in graph.nodes if key.startswith("effects/clock.py::")}

    untouched = EffectAnalysis.build(graph, cached=cold.signatures,
                                     dirty_rels=frozenset())
    assert untouched.recomputed == ()
    assert untouched.signatures == cold.signatures


def test_dirty_file_dirties_transitive_callers(tmp_path):
    lib = tmp_path / "lib.py"
    app = tmp_path / "app.py"
    lib.write_text("def helper():\n    return 1\n")
    app.write_text("from lib import helper\n\n"
                   "def entry():\n    return helper()\n")

    def build():
        summaries = []
        for path in (lib, app):
            rel = path.name
            summaries.append(summarize_module(
                _parse(path, rel, path.read_text())))
        return CallGraph(summaries)

    cold = EffectAnalysis.build(build())
    assert cold.signature_of("app.py::entry") == frozenset()

    # Same defined names, new effect: the warm build must re-propagate
    # the caller in the *other* file through reverse reachability.
    lib.write_text("import time\n\ndef helper():\n    return time.time()\n")
    graph = build()
    warm = EffectAnalysis.build(graph, cached=cold.signatures,
                                dirty_rels=frozenset({"lib.py"}))
    assert warm.signature_of("lib.py::helper") == {Effect.CLOCK}
    assert warm.signature_of("app.py::entry") == {Effect.CLOCK}
    assert "app.py::entry" in warm.recomputed


def test_binding_fingerprint_tracks_defined_names(tmp_path):
    source = "def alpha():\n    return 1\n"
    path = tmp_path / "m.py"
    path.write_text(source)
    graph_a = CallGraph([summarize_module(_parse(path, "m.py", source))])

    source_b = source + "\n\ndef beta():\n    return 2\n"
    path.write_text(source_b)
    graph_b = CallGraph([summarize_module(_parse(path, "m.py", source_b))])

    assert graph_a.binding_fingerprint() != graph_b.binding_fingerprint()
    assert graph_a.binding_fingerprint() == CallGraph(
        [summarize_module(_parse(path, "m.py", source))]
    ).binding_fingerprint()


# ---------------------------------------------------------------------------
# CDE004 — value references
# ---------------------------------------------------------------------------

def test_cde004_follows_functions_passed_as_values():
    # Each impure function is reached from run_shard only as a value: an
    # argument, a return value, an entry of a table imported from
    # another file.
    report = run_lint([FIXTURES / "cde004_values"], select=["CDE004"])
    chains = {f.symbol: f.message for f in report.findings}
    assert sorted(chains) == ["_cwd_row", "_environ_mode", "_pid_label"]
    assert "run_shard -> _environ_mode)" in chains["_environ_mode"]
    assert "run_shard -> _labeller -> _pid_label)" in chains["_pid_label"]
    assert "run_shard -> _cwd_row)" in chains["_cwd_row"]


def test_value_references_become_edges(tmp_path):
    source = ("def leaf():\n    return 1\n\n\n"
              "def passes():\n    return sorted([], key=leaf)\n\n\n"
              "def keyword():\n    return run(callback=leaf)\n\n\n"
              "def returns():\n    return leaf\n\n\n"
              "def lists():\n    return (leaf, 2)\n\n\n"
              "def mentions():\n    return leaf.__name__\n\n\n"
              "TABLE = {'a': [leaf]}\n\n\n"
              "def reads(key):\n    return TABLE[key]()\n")
    path = tmp_path / "m.py"
    path.write_text(source)
    graph = CallGraph([summarize_module(_parse(path, "m.py", source))])
    for name in ("passes", "keyword", "returns", "lists", "reads"):
        assert graph.callees(f"m.py::{name}") == ("m.py::leaf",), name
    # An attribute read is no value use of the function.
    assert graph.callees("m.py::mentions") == ()


# ---------------------------------------------------------------------------
# CDE007 — effect contracts
# ---------------------------------------------------------------------------

def test_cde007_reports_witness_chain_and_effect_kind():
    report = run_lint([FIXTURES / "cde007_bad"], select=["CDE007"])
    assert len(report.findings) == 3
    by_symbol = {f.symbol: f.message for f in report.findings}
    assert "run_shard -> _pace" in by_symbol["_pace"]
    assert "time.sleep (CLOCK)" in by_symbol["_pace"]
    assert "open (IO)" in by_symbol["_load_hints"]
    assert "random.Random(42) (RNG)" in by_symbol["_jitter"]


def test_cde007_clean_root_produces_nothing():
    report = run_lint([FIXTURES / "cde007_good"], select=["CDE007"])
    assert report.findings == []


def test_cde007_allow_lists_sanction_clock_and_rng_files(tmp_path):
    tree = tmp_path / "repro" / "study"
    tree.mkdir(parents=True)
    (tree / "parallel.py").write_text(
        "import time\n\n\ndef run_shard(task):\n    return time.time()\n")
    config = LintConfig(wallclock_allow=("repro/study/parallel.py",))
    report = run_lint([tmp_path], config=config, select=["CDE007"])
    assert report.findings == []
    # Without the allowance the same tree is flagged.
    report = run_lint([tmp_path], select=["CDE007"])
    assert len(report.findings) == 1


def test_cde007_does_not_double_report_cde004_territory():
    # cde004_bad reaches os.environ/os.getpid from run_shard, which is
    # both a shard entry and an effect root: ENV stays CDE004's.
    report = run_lint([FIXTURES / "cde004_bad"], select=["CDE007"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# CDE008 — layering
# ---------------------------------------------------------------------------

def test_cde008_flags_runtime_imports_but_not_type_checking():
    report = run_lint([FIXTURES / "cde008_bad"], select=["CDE008"])
    lines = sorted(f.line for f in report.findings)
    assert lines == [10, 17]  # module-level absolute + function-local lazy
    assert all("architecture DAG" in f.message for f in report.findings)
    assert all(f.line != 13 for f in report.findings)  # TYPE_CHECKING exempt


def test_cde008_good_tree_is_clean():
    report = run_lint([FIXTURES / "cde008_good"], select=["CDE008"])
    assert report.findings == []


def test_cde008_lint_is_isolated_both_directions(tmp_path):
    net = tmp_path / "repro" / "net"
    lint = tmp_path / "repro" / "lint"
    net.mkdir(parents=True)
    lint.mkdir(parents=True)
    (net / "uses_lint.py").write_text("from repro.lint import run_lint\n")
    (lint / "uses_net.py").write_text("from repro.net import clock\n")
    report = run_lint([tmp_path], select=["CDE008"])
    messages = sorted(f.message for f in report.findings)
    assert len(messages) == 2
    assert any("nothing imports repro.lint at runtime" in m for m in messages)
    assert any("repro.lint must not import" in m for m in messages)


def test_cde008_facade_and_same_package_are_exempt(tmp_path):
    pkg = tmp_path / "repro"
    (pkg / "dns").mkdir(parents=True)
    (pkg / "__init__.py").write_text("from repro.study import internet\n")
    (pkg / "dns" / "a.py").write_text("from repro.dns import b\nimport repro\n")
    report = run_lint([tmp_path], select=["CDE008"])
    assert report.findings == []


def test_package_of_and_resolve_import_helpers():
    assert package_of("src/repro/dns/wire.py") == "dns"
    assert package_of("tests/fixtures/lint/x/repro/study/a.py") == "study"
    assert package_of("src/repro/version.py") == ""  # facade level
    assert package_of("tests/helpers.py") is None

    record = ImportRecord(line=1, col=0, level=2, module="study",
                          type_checking=False)
    assert resolve_import("src/repro/dns/wire.py", record) == "repro.study"
    absolute = ImportRecord(line=1, col=0, level=0,
                            module="repro.study.internet",
                            type_checking=False)
    assert resolve_import("src/repro/dns/wire.py",
                          absolute) == "repro.study.internet"
    escaping = ImportRecord(line=1, col=0, level=5, module="x",
                            type_checking=False)
    assert resolve_import("src/repro/dns/wire.py", escaping) is None


# ---------------------------------------------------------------------------
# CDE009 — stream-label hygiene
# ---------------------------------------------------------------------------

def test_cde009_points_back_at_the_first_site():
    report = run_lint([FIXTURES / "cde009_bad.py"], select=["CDE009"])
    assert len(report.findings) == 2
    by_symbol = {f.symbol: f for f in report.findings}
    assert '"probe/jitter"' in by_symbol["backoff"].message
    assert "cde009_bad.py:5" in by_symbol["backoff"].message
    # f-string labels collide as templates.
    assert '"platform/{}"' in by_symbol["platform_rng_again"].message


def test_cde009_distinct_labels_are_clean():
    report = run_lint([FIXTURES / "cde009_good.py"], select=["CDE009"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# determinism: discovery and finding order are input-order independent
# ---------------------------------------------------------------------------

def test_shuffled_input_paths_produce_identical_reports():
    files = iter_python_files([FIXTURES / "effects"], LintConfig())
    assert files == sorted(files)

    baseline = run_lint([FIXTURES / "effects"])
    shuffled = list(files)
    for seed in (1, 7, 42):
        random.Random(seed).shuffle(shuffled)
        report = run_lint(shuffled)
        assert report.findings == baseline.findings
        assert report.files_checked == baseline.files_checked
    # Duplicated inputs collapse too.
    report = run_lint(list(files) + list(files))
    assert report.findings == baseline.findings
    assert report.files_checked == baseline.files_checked


# ---------------------------------------------------------------------------
# binding: method calls and ``__init__`` calls
# ---------------------------------------------------------------------------

def test_init_calls_bind_to_the_enclosing_class_bases(tmp_path):
    source = ("class Root:\n    def __init__(self):\n        pass\n\n\n"
              "class Middle(Root):\n    pass\n\n\n"
              "class Leaf(Middle):\n"
              "    def __init__(self):\n        super().__init__()\n\n\n"
              "class Named(Root):\n"
              "    def __init__(self):\n        Root.__init__(self)\n\n\n"
              "class Unrelated:\n    def __init__(self):\n        pass\n\n\n"
              "def anywhere(obj):\n    obj.__init__()\n")
    path = tmp_path / "m.py"
    path.write_text(source)
    graph = CallGraph([summarize_module(_parse(path, "m.py", source))])
    # Middle defines no __init__, so the call passes through to Root's.
    assert graph.callees("m.py::Leaf.__init__") == ("m.py::Root.__init__",)
    assert graph.callees("m.py::Named.__init__") == ("m.py::Root.__init__",)
    # Outside a class the receiver is unknown: every __init__ stays bound.
    assert len(graph.callees("m.py::anywhere")) == 4


def test_method_calls_bind_to_methods_not_module_functions(tmp_path):
    helper = ("_TABLE = {}\n\n\n"
              "def register(item):\n    _TABLE[item] = 1\n")
    source = ("import helper\n\n\n"
              "class Network:\n"
              "    def register(self, ip):\n        pass\n\n\n"
              "def on_object(network):\n    network.register('ip')\n\n\n"
              "def on_module():\n    helper.register('x')\n")
    summaries = []
    for name, text in (("helper.py", helper), ("m.py", source)):
        path = tmp_path / name
        path.write_text(text)
        summaries.append(summarize_module(_parse(path, name, text)))
    graph = CallGraph(summaries)
    assert graph.callees("m.py::on_object") == ("m.py::Network.register",)
    # A call through an imported name may reach a module function.
    assert "helper.py::register" in graph.callees("m.py::on_module")


def test_value_references_to_locals_bind_nothing(tmp_path):
    helper = "def step():\n    pass\n"
    source = ("import helper\n"
              "from helper import step as imported_step\n\n\n"
              "class Lane:\n"
              "    def step(self):\n        pass\n\n\n"
              "def step():\n    pass\n\n\n"
              "def local_value(response):\n"
              "    step = response.ingest()\n    return step\n\n\n"
              "def parameter(step):\n    return step\n\n\n"
              "def loop_target(items):\n"
              "    return [step for step in items]\n\n\n"
              "def nested():\n"
              "    def step():\n        pass\n    return step\n\n\n"
              "def free_name():\n    return step\n\n\n"
              "def on_receiver(lane):\n    return lane.step\n\n\n"
              "def on_module():\n    return helper.step\n")
    summaries = []
    for name, text in (("helper.py", helper), ("m.py", source)):
        path = tmp_path / name
        path.write_text(text)
        summaries.append(summarize_module(_parse(path, name, text)))
    graph = CallGraph(summaries)
    # A local holds whatever was put there: it names no function.
    for func in ("local_value", "parameter", "loop_target"):
        assert graph.callees(f"m.py::{func}") == (), func
    # A nested def and a free name still bind by name.
    assert "m.py::nested.step" in graph.callees("m.py::nested")
    assert "m.py::step" in graph.callees("m.py::free_name")
    # An attribute of a non-imported receiver can only be a method ...
    assert graph.callees("m.py::on_receiver") == ("m.py::Lane.step",)
    # ... and one of an imported module may be a module function.
    assert "helper.py::step" in graph.callees("m.py::on_module")


def test_planted_env_read_chain_stays_out_of_the_linter(tmp_path):
    """An ``os.environ.get`` planted in the fused corridor is reported
    with a chain through measurement code only: ``super().__init__()``
    in an exception class no longer binds to the linter's own
    ``_Scanner.__init__``, and no ``repro/lint/`` global needs a shard
    allowance."""
    import shutil

    shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "repro")
    engine = tmp_path / "repro" / "study" / "engine.py"
    text = engine.read_text(encoding="utf-8")
    anchor = "    plan.prober.queries_sent += 1\n"
    assert text.count(anchor) == 1
    engine.write_text(text.replace("import time\n", "import os\nimport time\n")
                      .replace(anchor, anchor + '    os.environ.get("X")\n'),
                      encoding="utf-8")
    report = run_lint([tmp_path], select=["CDE004", "CDE007", "CDE012"])
    planted = [f for f in report.findings if f.symbol == "_fused_probe"]
    assert planted, report.findings
    assert all("_fused_probe" in f.message for f in planted)
    # Only the shard graph reaches the corridor (CDE004); no chain runs
    # through the resolver's local ``step`` into ShardLane.step.
    assert {f.rule_id for f in planted} == {"CDE004"}
    assert not [f for f in planted
                if "_query_authorities -> ShardLane.step" in f.message]
    assert not [f for f in report.findings
                if "_Scanner" in f.message or "/repro/lint/" in f.path]
    graph_reach = CallGraph(
        summarize_module(_parse(path, path.relative_to(tmp_path).as_posix(),
                                path.read_text(encoding="utf-8")))
        for path in sorted((tmp_path / "repro").rglob("*.py")))
    init = "repro/dns/errors.py::ProbeFailure.__init__"
    assert graph_reach.callees(init) == ()
