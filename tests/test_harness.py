"""Registry integrity, determinism, baselines, reports, and the CLI."""

import ast
import collections
import dataclasses
import functools
import inspect
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fflab
from fflab import combinatorics, core, fourier, qforms, surfaces
from fflab import kakeya as kk
from fflab.cli import _report_line, main as cli_main
from fflab.core import PrimeField, coordinate_array
from fflab.errors import FFLabError, UnknownScenario
from fflab.harness import (
    REGISTRY,
    BaselineMismatch,
    BaselineMissing,
    BaselineStore,
    Scenario,
    ScenarioReport,
    exponent_table,
    regenerate_baselines,
    reports_to_csv,
    reports_to_json,
    run_scenario,
    sweep,
    trial_seed,
    witness_values,
)
from fflab.harness.baselines import oracle_hash
from fflab.harness.runners import _iso_pair, _mx1_surface
from fflab.harness.scenarios import RunContext
from fflab.harness.reporting import CSV_COLUMNS


# ---------------------------------------------------------------------------
# registry


def test_registry_size_and_families():
    assert len(REGISTRY) == 39
    families = {sid.split("-")[0] for sid in REGISTRY}
    assert families == {
        "FT", "ST", "EQ", "BR", "EN", "IN", "MT", "PL", "QF", "KK",
        "MX", "EX", "MAIN",
    }


def test_registry_entries_well_formed():
    for sid, sc in REGISTRY.items():
        assert sc.id == sid
        assert sc.kind in ("exact_identity", "constant_tracked",
                           "exponent_arith")
        assert sc.primes and sc.dims
        assert sc.default_trials >= 1
        assert sc.claim and len(sc.claim) > 20
        if sc.kind == "constant_tracked":
            assert sc.direction in ("upper", "floor")
            p, d, trials, seed = sc.provenance
            assert p in sc.primes and d in sc.dims
            assert trials >= 1 and seed >= 0
        else:
            assert sc.direction is None and sc.provenance is None


def test_every_runner_is_a_generator_function():
    # The harness alone reduces a run's cases; a runner that returned its
    # own (metric, witness) would go round the reduction.
    # isgeneratorfunction unwraps FT-1's and FT-2's functools.partial.
    assert [sid for sid, sc in REGISTRY.items()
            if not inspect.isgeneratorfunction(sc.runner)] == []


def test_a_duplicate_scenario_id_raises():
    from fflab.harness.scenarios import scenario
    ft1 = REGISTRY["FT-1"]
    with pytest.raises(ValueError, match="duplicate scenario id FT-1"):
        scenario("FT-1", "exact_identity", "a second FT-1", (3,), (3,), 1)(_unit_runner)
    assert REGISTRY["FT-1"] is ft1


def test_every_runner_function_is_the_runner_of_a_scenario():
    # The statement gate covers only the library, so a runner whose
    # @scenario line went missing would run nowhere and go unseen.
    import fflab.harness.runners as runners
    defined = {fn for name, fn in vars(runners).items()
               if name.startswith("_run_") and inspect.isfunction(fn)}
    registered = {sc.runner.func if isinstance(sc.runner, functools.partial) else sc.runner
                  for sc in REGISTRY.values()}
    assert len(defined) == 38
    assert defined == registered


def test_every_tracked_scenario_has_fresh_baseline():
    """The shipped store covers every tracked id, and each stored hash
    matches the current runner source, so no constant is stale."""
    store = BaselineStore.load()
    tracked = {sid for sid, sc in REGISTRY.items()
               if sc.kind == "constant_tracked"}
    assert set(store.entries) == tracked
    for sid in tracked:
        assert store.entries[sid].oracle_hash == oracle_hash(REGISTRY[sid].runner)


# the library modules whose statements the reachability gate checks
LIBRARY = (core, fourier, surfaces, qforms, combinatorics, kk)


def _traced(run, files, on_call=None):
    """Call run() under sys.settrace and return, for each of the given
    source files, the set of its lines that got a line event.  Only frames
    of those files are traced: on_call(frame), if given, sees each one's
    call event, and a line tracer its lines."""
    lines = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in lines:
            return None
        if on_call is not None:
            on_call(frame)
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines


# Grid points beyond the defaults, each for branches only it reaches.
EXTRA_POINTS = (
    # the sampled path, the only one that calls FFunction.indicator
    ("KK-1", 5, 2),
    # the odd-d rows of allowed_subsurface_triples, and diagonalize's
    # swaps and its exits on a radical or a decoupled coordinate
    ("QF-4", 3, 5),
    # the d = 5 exponent curve of _exponent_curve_for
    ("EX-3", 3, 5),
    # complementary_isotropic's n >= 2 solve against the rows built so far
    ("QF-2", 3, 4),
    # congruence_between on non-congruent square classes (the dot and
    # pairing forms at p = 7)
    ("EQ-1", 7, 3),
    # the trial-division loop of _is_prime, which the allowlist would
    # otherwise cover with its rejections
    ("KK-4", 13, 3),
)


@pytest.fixture(scope="module")
def default_runs():
    """Every scenario at its defaults, plus EXTRA_POINTS, under a line
    tracer.  Returns the reports, the lines of each library module that
    ran, and for every defaulted parameter of the library the kinds of
    value it received: "default" or "other".  The library's table caches
    are emptied first, so what the runs reach does not depend on the
    tests that ran before them."""
    for mod in LIBRARY:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    options = _defaulted_parameters()
    received = {key: set() for spec in options.values() for key, _, _ in spec}

    def record_options(frame):
        spec = options.get(frame.f_code)
        if spec is not None:
            args = frame.f_locals
            for key, name, default in spec:
                received[key].add(
                    "default" if _is_default(args[name], default) else "other")

    reports = []

    def run():
        reports.extend(run_scenario(sid) for sid in sorted(REGISTRY))
        reports.extend(run_scenario(sid, prime=p, dim=d) for sid, p, d in EXTRA_POINTS)

    lines = _traced(run, [mod.__file__ for mod in LIBRARY], record_options)
    return reports, lines, received


def test_each_scenario_runs_at_defaults(default_runs):
    reports, _, _ = default_runs
    assert ([r.scenario for r in reports]
            == sorted(REGISTRY) + [sid for sid, _, _ in EXTRA_POINTS])
    for r in reports:
        assert r.status in ("pass", "report_only"), (r.scenario, r.metric, r.witness)


# ---------------------------------------------------------------------------
# reachability: every library statement runs

# Library statements that no default run executes and that stay: each
# entry maps a function (module.qualname), or a class, which covers its
# methods, to the reason and the texts of the unrun statements it allows
# there.  Any other unrun statement of that function still fails the
# gate.  Test oracles live in fflab/oracles.py, outside the checked
# modules.
UNREACHED_BY_DESIGN = {
    "kakeya.coset_extension": (
        "perfbench/tracer.py times it as an entry point",
        ("S = f.surface",
         "out = np.empty((S.field.p, S.size), dtype=np.complex128)",
         "for t, row in enumerate(coset_slabs(f, W, V)):",
         "out[t] = row",
         "return FFunction(S.field, S.ambient_dim, out.reshape(-1))")),
    "qforms.enumerate_subspaces": (
        "perfbench/tracer.py counts its calls",
        ("for batch in _echelon_batches(field.p, m, k):",
         "for B in batch:",
         "yield Subspace._reduced(field, B.copy())")),
    "core.FFVector": (
        "perfbench/tracer.py counts FFVector.__post_init__",
        ("p = self.field.p",
         'object.__setattr__(self, "coords", tuple(c % p for c in self.coords))',
         "return len(self.coords)",
         "return encode_point(self.coords, self.field.p)",
         "if len(other.coords) != len(self.coords):",
         "return sum(a * b for a, b in zip(self.coords, other.coords)) % self.field.p",
         "return FFVector(",
         "return FFVector(tuple(-a for a in self.coords), self.field)",
         "return FFVector(tuple(c * a for a in self.coords), self.field)")),
    "core.PrimeField.__hash__": (
        "goes with PrimeField.__eq__, which the runs reach",
        ('return hash(("PrimeField", self.p))',)),
    "core._is_prime": (
        "its rejections: every grid prime passes it",
        ("return False", "return n == 2")),
    "qforms.solve_mod": (
        "its None for an inconsistent system, on which complementary_isotropic raises",
        ("return None  # pivot in the constants column",)),
    "qforms.enumerate_max_isotropic": (
        "its Witt-index-0 return: without it lexsort meets zero-width keys",
        ("return ()",)),
    "kakeya.random_slice_decomposition": (
        "its fallback piece for a draw that leaves every slice empty",
        ("coset = Subspace(field, subspaces[0].basis,",
         "decomposition[0] = [(coset, coset.point_array())]")),
}


@functools.lru_cache(maxsize=None)
def _parsed(path):
    """The source text and syntax tree of a file, read and parsed once."""
    source = Path(path).read_text()
    return source, ast.parse(source)


def _is_docstring(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _statements(source, tree, filename, prefix):
    """(filename, prefix.qualname, line, text) of every statement in the
    function bodies of a module's source, in line order.  Nested defs
    count, under the top-level function or method that holds them; module
    and class bodies do not.  raise statements, docstrings and __repr__
    are exempt."""
    text = source.splitlines()
    found = []
    for top in tree.body:
        members = ([(f"{top.name}.", fn) for fn in top.body]
                   if isinstance(top, ast.ClassDef) else [("", top)])
        for scope, fn in members:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__repr__":
                continue
            name = f"{prefix}.{scope}{fn.name}"
            docs = {id(node.body[0]) for node in ast.walk(fn)
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _is_docstring(node.body[0])}
            found += [(filename, name, node.lineno, text[node.lineno - 1].strip())
                      for node in ast.walk(fn)
                      if isinstance(node, ast.stmt) and node is not fn
                      and not isinstance(node, ast.Raise) and id(node) not in docs]
    return sorted(found, key=lambda item: item[2])


@functools.lru_cache(maxsize=None)
def _library_statements():
    return tuple(stmt for mod in LIBRARY
                 for stmt in _statements(*_parsed(Path(mod.__file__)), mod.__file__,
                                         mod.__name__.rpartition(".")[2]))


def _unrun(statements, lines):
    """module.qualname -> ["line N: text", ...] for the statements whose
    first line got no line event."""
    unrun = {}
    for filename, name, line, text in statements:
        if line not in lines[filename]:
            unrun.setdefault(name, []).append(f"line {line}: {text}")
    return unrun


def _covers(entry, name):
    """Whether an allowlist entry names this function or its class."""
    return entry in (name, name.rpartition(".")[0])


def _not_allowed(unrun):
    """The part of _unrun's result that no allowlist entry names."""
    found = {}
    for name, statements in unrun.items():
        rest = [stmt for stmt in statements
                if not any(_covers(entry, name) and stmt.partition(": ")[2] in texts
                           for entry, (_, texts) in UNREACHED_BY_DESIGN.items())]
        if rest:
            found[name] = rest
    return found


def test_statement_finder_flags_a_planted_unrun_branch():
    source = textwrap.dedent('''\
        def planted(x):
            """Docstring."""
            def inner(y):
                return -y
            if x:
                return inner(x)
            if x is None:
                raise ValueError(x)
            return 0

        class Planted:
            def __repr__(self):
                return "Planted"
        ''')
    namespace = {}
    exec(compile(source, "<planted>", "exec"), namespace)
    lines = _traced(lambda: namespace["planted"](0), ["<planted>"])
    statements = _statements(source, ast.parse(source), "<planted>", "m")
    assert _unrun(statements, lines) == {
        "m.planted": ["line 4: return -y", "line 6: return inner(x)"]}


def _functions_without_statements(statements):
    """The library functions, __repr__ aside, that own none of the given
    statements: none for a finder that sees every function body."""
    owners = {name for _, name, _, _ in statements}
    return sorted(name for name in _library_functions()
                  if not name.endswith(".__repr__") and name not in owners)


def test_statement_finder_sees_every_library_function():
    # The gate below is only as wide as the finder: one that finds
    # nothing, or skips a whole function, must fail it, however much
    # library code is deleted.
    statements = _library_statements()
    assert _functions_without_statements(()) == sorted(
        name for name in _library_functions() if not name.endswith(".__repr__"))
    skipped = [stmt for stmt in statements if stmt[1] != "kakeya.embed_closed_form"]
    assert _functions_without_statements(skipped) == ["kakeya.embed_closed_form"]


def test_every_library_statement_runs_at_the_defaults(default_runs):
    # A statement no run executes is either a branch the scenarios should
    # reach, or dead weight, and goes.
    _, lines, _ = default_runs
    assert not _functions_without_statements(_library_statements())
    unrun = _not_allowed(_unrun(_library_statements(), lines))
    assert not unrun, f"no default run executes {unrun}"


def test_allowlist_passes_only_the_statements_it_names(default_runs):
    # _is_prime is allowlisted for its rejections, not as a whole: were
    # its trial division to stop running, as it does when no run reaches
    # p = 13, the gate must flag the loop.
    _, lines, _ = default_runs
    loop = {line for _, name, line, text in _library_statements()
            if name == "core._is_prime" and text in ("if n % f == 0:", "f += 2")}
    assert len(loop) == 2 and loop <= lines[core.__file__]
    thinned = dict(lines, **{core.__file__: lines[core.__file__] - loop})
    flagged = _not_allowed(_unrun(_library_statements(), thinned))
    assert list(flagged) == ["core._is_prime"]
    assert [stmt.partition(": ")[2] for stmt in flagged["core._is_prime"]] == [
        "if n % f == 0:", "f += 2"]


def test_unreached_allowlist_has_no_stale_entry(default_runs):
    _, lines, _ = default_runs
    names = {name for _, name, _, _ in _library_statements()}
    unrun = _unrun(_library_statements(), lines)
    stale = []
    for entry, (_, texts) in UNREACHED_BY_DESIGN.items():
        if not any(_covers(entry, name) for name in names):
            stale.append(f"{entry} no longer exists")
            continue
        left = {stmt.partition(": ")[2] for name, statements in unrun.items()
                if _covers(entry, name) for stmt in statements}
        stale += [f"every {text!r} of {entry} now runs, or is gone"
                  for text in texts if text not in left]
    assert not stale, stale


# ---------------------------------------------------------------------------
# option use: no library option that the runs leave at one value


def _library_functions():
    """module.qualname -> every function and method, unwrapped, that the
    library modules define at top level.  A nested def or lambda is part
    of the function that encloses it."""
    found = {}
    for mod in LIBRARY:
        prefix = mod.__name__.rpartition(".")[2]
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                members = [(f"{name}.{attr}", m) for attr, m in vars(obj).items()]
            else:
                members = [(name, obj)]
            for qualname, member in members:
                if isinstance(member, property):
                    fns = [member.fget, member.fset, member.fdel]
                elif isinstance(member, (classmethod, staticmethod)):
                    fns = [member.__func__]
                else:
                    fns = [member]
                for fn in fns:
                    fn = inspect.unwrap(fn)
                    code = getattr(fn, "__code__", None)
                    if code is not None and code.co_filename == mod.__file__:
                        found[f"{prefix}.{qualname}"] = fn
    return found


def _defaulted_parameters():
    """code object -> ((module.qualname.param, param, default), ...) for
    every library function that has a parameter with a default."""
    found = {}
    for name, fn in _library_functions().items():
        spec = tuple((f"{name}.{param.name}", param.name, param.default)
                     for param in inspect.signature(fn).parameters.values()
                     if param.default is not param.empty)
        if spec:
            # the tracer reads a generator's locals again on every resume
            assert not (inspect.isgeneratorfunction(fn) and _rebinds(fn, spec)), name
            found[fn.__code__] = spec
    return found


def _rebinds(fn, spec):
    """Whether fn's body assigns to one of the parameters in spec."""
    names = {name for _, name, _ in spec}
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return any(isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
               and node.id in names for node in ast.walk(tree))


def _is_default(value, default):
    """Whether a received value is the parameter's default: the same
    object, or an equal value of the same type."""
    return value is default or (type(value) is type(default) and value == default)


# Defaulted parameters that the default runs set to one kind of value only
# (always the default, or never) and that stay, with the reason.
ONE_VALUE_BY_DESIGN = {}


def test_every_library_option_takes_its_default_and_another_value(default_runs):
    # An option that every run leaves at one value is a constant with a
    # branch no run executes: inline the value and delete the branch.
    _, _, received = default_runs
    one_value = sorted(f"{key} ({next(iter(kinds))} only)"
                       for key, kinds in received.items()
                       if len(kinds) == 1 and key not in ONE_VALUE_BY_DESIGN)
    assert not one_value, f"the default runs set one kind of value for {one_value}"


def test_one_value_allowlist_has_no_stale_entry(default_runs):
    _, _, received = default_runs
    stale = [f"{key} no longer exists" for key in ONE_VALUE_BY_DESIGN
             if key not in received]
    stale += [f"the default runs now set {key} both ways"
              for key in ONE_VALUE_BY_DESIGN if len(received.get(key, ())) > 1]
    assert not stale, stale


def _imports_oracles(tree):
    """Whether a module's syntax tree imports fflab.oracles in any form."""
    return _imports_any(tree, {"oracles"})


def _imports_any(tree, modules):
    """Whether a module's syntax tree imports any of the named fflab
    modules in any form."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        if not modules.isdisjoint(parts):
            return True
    return False


def test_library_modules_never_import_the_oracles():
    for planted in ("from .oracles import line_sum\n", "from . import oracles\n",
                    "import fflab.oracles\n", "def f():\n    from fflab import oracles\n"):
        assert _imports_oracles(ast.parse(planted)), planted
    assert not _imports_oracles(ast.parse("from .core import encode_point\nimport numpy\n"))
    found = [mod.__name__ for mod in LIBRARY
             if _imports_oracles(_parsed(Path(mod.__file__))[1])]
    assert found == []


def test_the_engine_imports_no_library_layer():
    # The engine judges runs and the runners alone reach the library:
    # scenarios.py takes only PrimeField from core.
    layers = {"fourier", "surfaces", "qforms", "combinatorics", "kakeya", "oracles"}
    for planted in ("from .. import kakeya as kk\n", "from ..fourier import convolve\n",
                    "import fflab.surfaces\n", "from ..oracles import brute_witt\n"):
        assert _imports_any(ast.parse(planted), layers), planted
    assert not _imports_any(ast.parse("from ..core import PrimeField\n"), layers)
    import fflab.harness.scenarios as scenarios
    assert not _imports_any(_parsed(Path(scenarios.__file__))[1], layers)


# ---------------------------------------------------------------------------
# seed fan-out


def test_trial_seed_is_deterministic_and_spread():
    assert trial_seed(0, "FT-1", 0) == trial_seed(0, "FT-1", 0)
    seen = {trial_seed(m, sid, t)
            for m in (0, 1) for sid in ("FT-1", "FT-2") for t in range(8)}
    assert len(seen) == 32


def test_trial_results_independent_of_trial_count():
    """Trial t's randomness depends only on (seed, id, t), so growing the
    trial count never changes earlier trials' contributions."""
    a = run_scenario("EN-1", prime=3, trials=3, seed=5)
    b = run_scenario("EN-1", prime=3, trials=6, seed=5)
    assert a.metric <= 1e-9 and b.metric <= 1e-9
    c1 = run_scenario("MX-3", prime=3, dim=5, trials=2, seed=9)
    c2 = run_scenario("MX-3", prime=3, dim=5, trials=4, seed=9)
    assert c2.metric >= c1.metric - 1e-15


# ---------------------------------------------------------------------------
# run_scenario semantics


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        run_scenario("XX-9")


def test_disallowed_parameters_raise():
    with pytest.raises(ValueError):
        run_scenario("FT-1", prime=4)
    with pytest.raises(ValueError):
        run_scenario("FT-1", prime=3, dim=7)
    with pytest.raises(ValueError):
        run_scenario("FT-1", trials=0)
    with pytest.raises(ValueError):
        sweep(["FT-1"], [3], [3], trials=0)


def test_pass_reports_drop_witness():
    r = run_scenario("FT-1", prime=3, dim=3)
    assert r.status == "pass"
    assert r.witness is None
    assert r.metric_name == "max_deviation"
    assert r.tolerance == 1e-9


def test_tracked_report_only_at_provenance():
    sc = REGISTRY["EN-2"]
    p, d, trials, seed = sc.provenance
    r = run_scenario("EN-2", prime=p, dim=d, trials=trials, seed=seed)
    assert r.status == "report_only"
    assert r.metric_name == "measured_constant"
    assert abs(r.metric - r.baseline_constant) <= 1e-9
    assert r.baseline_slack == 2.0


def test_tracked_upper_pass_away_from_provenance():
    r = run_scenario("EN-2", prime=5)
    assert r.status == "pass"
    assert r.metric <= 2.0 * r.baseline_constant + 1e-12


def test_tracked_floor_direction():
    r = run_scenario("KK-4", prime=5, dim=2)
    assert r.status == "pass"
    assert r.metric >= r.baseline_constant - 1e-12


# ---------------------------------------------------------------------------
# reports


def test_report_validation():
    with pytest.raises(ValueError):
        ScenarioReport(scenario="FT-1", kind="exact_identity", prime=3, dim=3,
                       trials=1, seed=0, status="nope",
                       metric_name="max_deviation", metric=0.0)
    with pytest.raises(ValueError):
        ScenarioReport(scenario="FT-1", kind="exact_identity", prime=3, dim=3,
                       trials=1, seed=0, status="fail",
                       metric_name="max_deviation", metric=1.0)  # no witness


def test_json_report_shape():
    r = run_scenario("ST-4", prime=3, dim=3)
    doc = json.loads(reports_to_json([r]))
    assert doc["schema"] == "fflab-report/1"
    assert len(doc["reports"]) == 1
    rec = doc["reports"][0]
    assert rec["scenario"] == "ST-4"
    assert "runtime_ms" not in rec


def test_csv_columns_and_runtime():
    r = run_scenario("ST-4", prime=3, dim=3)
    text = reports_to_csv([r])
    lines = text.strip().split("\n")
    assert lines[0].split(",") == CSV_COLUMNS
    assert len(lines) == 2
    assert lines[1].startswith("ST-4,3,3,")


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_deterministic_bytes():
    ids = ["FT-1", "ST-4", "EN-2", "KK-4"]
    r1, f1 = sweep(ids, [3, 5], [2, 3], seed=0)
    r2, f2 = sweep(ids, [3, 5], [2, 3], seed=0, workers=2)
    assert not f1 and not f2
    assert reports_to_json(r1) == reports_to_json(r2)
    csv1, csv2 = ([row.rpartition(",")[0] for row in reports_to_csv(r).split("\n")]
                  for r in (r1, r2))
    assert csv1[0] == ",".join(CSV_COLUMNS[:-1])
    # the same rows in the same order; only runtime_ms may differ
    assert csv1 == csv2


def test_sweep_skips_combos_outside_validity():
    reports, failed = sweep(["BR-1"], [3, 11], [3, 4], seed=0)
    assert not failed
    assert [(r.prime, r.dim) for r in reports] == [(3, 3)]


def test_sweep_empty_ids():
    with pytest.raises(ValueError, match="no scenario id selected"):
        sweep([], [3], [3])


def test_sweep_id_off_the_requested_grid_raises():
    with pytest.raises(ValueError, match="EN-1 runs at primes"):
        sweep(["FT-1", "EN-1"], [3], [5])


def test_sweep_unknown_id_raises():
    with pytest.raises(UnknownScenario):
        sweep(["FT-1", "XX-9"], [3], [3])


# ---------------------------------------------------------------------------
# baseline integrity


def test_missing_baseline_fails_actionably(tmp_path, monkeypatch, capsys):
    import fflab.harness.baselines as bl
    monkeypatch.setattr(bl, "_DEFAULT_PATH", tmp_path / "none.json")
    with pytest.raises(BaselineMissing, match="fflab baseline --regen"):
        run_scenario("EN-2", prime=3)
    # the sweep fails the id's row, which still prints with the rest of
    # the sweep and its summary
    out = tmp_path / "reports"
    code = cli_main(["sweep", "--ids", "EN-2,FT-1", "--primes", "3",
                     "--dims", "3", "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    trials = REGISTRY["EN-2"].default_trials
    assert lines[0] == (f"EN-2 p=3 d=3 trials={trials} seed=0: fail "
                        "(measured_constant=nan baseline=MISSING slack=2.0)")
    assert lines[1].startswith("FT-1 p=3 d=3 ") and ": pass " in lines[1]
    assert lines[2].startswith("2 runs, 1 failed; wrote ")
    en2, ft1 = _strict_json((out / "report.json").read_text())["reports"]
    assert "baseline --regen" in en2["witness"]["values"]["error"]
    assert (en2["metric"], en2["baseline_constant"], en2["baseline_slack"],
            en2["tolerance"]) == (None, None, 2.0, None)
    assert ft1["status"] == "pass"


def test_hash_mismatch_aborts_before_running(tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    store = BaselineStore.load()
    doctored = {}
    for sid, e in store.entries.items():
        doctored[sid] = bl.BaselineEntry(constant=e.constant, oracle_hash="0" * 64)
    path = tmp_path / "baselines.json"
    BaselineStore(doctored, path).save()
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    with pytest.raises(BaselineMismatch, match="EN-2"):
        run_scenario("EN-2", prime=3)
    with pytest.raises(BaselineMismatch):
        sweep(["EN-2"], [3], [3])


@pytest.mark.parametrize("layout", ["schema 1", "entry key", "store key"])
def test_a_store_that_keeps_more_than_it_measured_stops_every_command(
        layout, tmp_path, monkeypatch, capsys):
    # A schema-1 store kept the slack and each constant's provenance
    # beside it, and the judge read those copies: BR-2's trials set to 11
    # turned its drift check off, and a slack of 100 would pass a constant
    # cut 60x.  Provenance and slack live only in code, so a store that
    # holds them is refused before any runner starts.
    import fflab.harness.baselines as bl
    calls = []

    def stub(ctx):
        calls.append((ctx.prime, ctx.dim))
        yield 1.0, {}

    monkeypatch.setitem(REGISTRY, "BR-2", dataclasses.replace(REGISTRY["BR-2"], runner=stub))
    entries = {sid: {"constant": e.constant, "oracle_hash": oracle_hash(REGISTRY[sid].runner)}
               for sid, e in BaselineStore.load().entries.items()}
    doc = {"schema": bl.SCHEMA, "entries": entries}
    if layout == "schema 1":
        for sid, e in entries.items():
            e.update(zip(("prime", "dim", "trials", "seed"), REGISTRY[sid].provenance))
        doc["schema"] = "fflab-baselines/1"
    if layout != "store key":
        entries["BR-2"]["trials"] = 11
    if layout != "entry key":
        doc["slack"] = 100
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    out = tmp_path / "reports"
    for argv in (["list"], ["run", "BR-2"],
                 ["sweep", "--ids", "BR-2", "--primes", "3", "--dims", "3", "--out", str(out)]):
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert str(path) in err and "move it aside" in err and "fflab baseline --regen" in err
    assert calls == []
    assert not out.exists()


def _faulty_runner(ctx):
    if ctx.dim == 4:
        raise ValueError("stub runner fault")
    yield float("nan") if ctx.dim == 3 else float("-inf"), {}


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("kind", ["constant_tracked", "exact_identity"])
def test_non_finite_metric_fails(kind, tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    tracked = kind == "constant_tracked"
    monkeypatch.setitem(REGISTRY, "NAN-1", Scenario(
        "NAN-1", kind, "stub runner whose metric is not a finite number",
        _faulty_runner, (3,), (2, 3, 4), 1,
        direction="upper" if tracked else None,
        provenance=(3, 3, 1, 0) if tracked else None))
    path = tmp_path / "baselines.json"
    entry = bl.BaselineEntry(constant=1.0, oracle_hash=oracle_hash(_faulty_runner))
    BaselineStore({"NAN-1": entry}, path=path).save()
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    # dim 3 is the provenance point and returns NaN; dim 2 returns -inf
    for dim, text in ((3, "nan"), (2, "-inf")):
        r = run_scenario("NAN-1", prime=3, dim=dim, trials=1, seed=0)
        assert r.status == "fail"
        assert text in r.witness["values"].values()
        assert _strict_json(reports_to_json([r]))["reports"][0]["metric"] is None
    # dim 4 raises: a failing report naming the exception, not an abort
    r = run_scenario("NAN-1", prime=3, dim=4, trials=1, seed=0)
    assert r.status == "fail"
    assert r.witness["values"]["error"] == "ValueError"
    assert r.witness["values"]["message"] == "stub runner fault"
    assert "_faulty_runner" in r.witness["values"]["raised_in"]
    out = tmp_path / "reports"
    code = cli_main(["sweep", "--ids", "NAN-1,FT-1", "--primes", "3",
                     "--dims", "2,3,4", "--out", str(out)])
    assert code == 1
    doc = _strict_json((out / "report.json").read_text())
    # the sweep went on past the raising run to FT-1 at p = 3, d = 3
    assert [(rec["scenario"], rec["status"]) for rec in doc["reports"]] == [
        ("NAN-1", "fail")] * 3 + [("FT-1", "pass")]


def _empty_runner(ctx):
    yield from ()


def test_a_run_that_yields_no_case_fails(monkeypatch):
    monkeypatch.setitem(REGISTRY, "NIL-1", Scenario(
        "NIL-1", "exact_identity", "stub runner that checks no case at all",
        _empty_runner, (3,), (3,), 1))
    r = run_scenario("NIL-1", prime=3, dim=3)
    assert r.status == "fail"
    assert np.isnan(r.metric)
    assert r.witness["values"]["error"] == "FFLabError"
    assert "yielded no case" in r.witness["values"]["message"]


def _wrong_constant_runner(ctx):
    # against a stored constant of 1.0: more than twice it at p = 3 and
    # less than half of it at p = 5
    yield (2.5 if ctx.prime == 3 else 0.4), {}


@pytest.mark.parametrize("direction,bad_prime", [("upper", 3), ("floor", 5)])
def test_wrong_tracked_constant_fails(direction, bad_prime, tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    monkeypatch.setitem(REGISTRY, "BAD-1", Scenario(
        "BAD-1", "constant_tracked",
        "stub runner whose constant breaks its stored bound",
        _wrong_constant_runner, (3, 5, 7), (3,), 1,
        direction=direction, provenance=(7, 3, 1, 0)))
    path = tmp_path / "baselines.json"
    entry = bl.BaselineEntry(constant=1.0, oracle_hash=oracle_hash(_wrong_constant_runner))
    BaselineStore({"BAD-1": entry}, path=path).save()
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    out = tmp_path / "reports"
    code = cli_main(["sweep", "--ids", "BAD-1", "--primes", "3,5",
                     "--dims", "3", "--out", str(out)])
    assert code == 1
    doc = _strict_json((out / "report.json").read_text())
    by_prime = {rec["prime"]: rec for rec in doc["reports"]}
    bad, good = by_prime.pop(bad_prime), by_prime.popitem()[1]
    assert bad["status"] == "fail"
    assert bad["witness"]["values"] == {"measured": bad["metric"], "baseline": 1.0}
    assert good["status"] == "pass" and good["witness"] is None


def _dying_runner(ctx, parent=os.getpid()):
    # a worker killed mid-run, as by the out-of-memory killer
    if os.getpid() != parent:
        os._exit(70)
    yield 0.0, {}


def test_a_dead_worker_fails_its_runs_and_leaves_no_child(monkeypatch):
    monkeypatch.setitem(REGISTRY, "DIE-1", Scenario(
        "DIE-1", "exact_identity", "stub runner whose worker process dies",
        _dying_runner, (3,), (3,), 1))
    done = []
    # a pool that waited on its dead worker forever would hang here
    worker = threading.Thread(target=lambda: done.append(
        sweep(["DIE-1", "FT-3"], [3], [2, 3], seed=0, workers=2)), daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(done) == 1
    reports, failed = done[0]
    assert failed
    assert multiprocessing.active_children() == []
    assert [(r.scenario, r.dim) for r in reports] == [
        ("DIE-1", 3), ("FT-3", 2), ("FT-3", 3)]
    die = reports[0]
    assert die.status == "fail" and math.isnan(die.metric)
    assert die.witness["values"]["error"] == "BrokenProcessPool"
    assert die.witness["values"]["raised_in"] == "sweep worker at p = 3, d = 3"
    # FT-3 (3, 3) ran in the dead worker's group; FT-3 (3, 2) may have
    # finished in the other worker before the pool broke
    for r in reports[1:]:
        assert r.status == "pass" or (
            r.witness["values"]["error"] == "BrokenProcessPool")
    assert reports[2].status == "fail"
    # each row carries its kind's fields, so the CLI can print it
    assert [r.tolerance for r in reports] == [1e-9, 1e-9, 1e-9]
    for r in reports:
        assert _report_line(r).startswith(f"{r.scenario} p=3 d={r.dim} ")


def _pid_runner(ctx):
    # fails on purpose, so that the report's witness shows where it ran
    yield 1.0, {"pid": os.getpid()}


def test_cli_sweep_with_argv_forks_nothing(tmp_path, monkeypatch):
    # perfbench/tracer.py calls cli.main(argv) and counts library calls in
    # its own process; a worker's calls would escape it
    monkeypatch.setitem(REGISTRY, "PID-1", Scenario(
        "PID-1", "exact_identity", "stub runner that reports its process id",
        _pid_runner, (3, 5), (2, 3), 1))
    out = tmp_path / "reports"
    assert cli_main(["sweep", "--ids", "PID-1", "--primes", "3,5",
                     "--dims", "2,3", "--out", str(out)]) == 1
    doc = json.loads((out / "report.json").read_text())
    assert [rec["witness"]["values"]["pid"] for rec in doc["reports"]] == [os.getpid()] * 4
    # the same runs with workers do leave this process
    reports, _ = sweep(["PID-1"], [3, 5], [2, 3], seed=0, workers=2)
    assert os.getpid() not in {r.witness["values"]["pid"] for r in reports}


def _unit_runner(ctx):
    yield 1.0, {}


def test_sweep_verifies_each_tracked_runner_once(tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    monkeypatch.setitem(REGISTRY, "ONE-1", Scenario(
        "ONE-1", "constant_tracked", "stub runner that returns its constant",
        _unit_runner, (3, 5, 7), (3,), 1,
        direction="upper", provenance=(3, 3, 1, 0)))
    path = tmp_path / "baselines.json"
    entry = bl.BaselineEntry(constant=1.0, oracle_hash=oracle_hash(_unit_runner))
    BaselineStore({"ONE-1": entry}, path=path).save()
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    hashed = []
    monkeypatch.setattr(bl, "oracle_hash",
                        lambda fn: hashed.append(fn) or oracle_hash(fn))
    reports, failed = sweep(["ONE-1"], [3, 5, 7], [3], seed=0)
    assert not failed
    assert [r.status for r in reports] == ["report_only", "pass", "pass"]
    assert len(hashed) == 1
    # a single run still loads and verifies the store itself
    assert run_scenario("ONE-1", prime=5, dim=3).status == "pass"
    assert len(hashed) == 2


@pytest.mark.parametrize("devs,first_nan", [
    ([float("nan")] * 3, 0),      # every check NaN: must not pass as 0.0
    ([0.0, float("nan"), 1.0], 1),  # a later finite value must not replace it
])
def test_nan_deviation_fails_the_run_with_its_witness(monkeypatch, devs, first_nan):
    import fflab.harness.runners as runners
    values = iter(devs)
    # MT-1 checks a stack of trials per call, so the stub returns one
    # deviation per row, in trial order
    monkeypatch.setattr(runners, "pseudo_conformal_check",
                        lambda h0, S: np.array([next(values) for _ in h0.data]))
    r = run_scenario("MT-1", prime=3, dim=3, trials=len(devs))
    assert r.status == "fail"
    assert np.isnan(r.metric)
    assert r.witness == witness_values(trial=first_nan)


# The runners that cut their trials, or their exhaustive and structured
# inputs, into stacks, one operator call per stack (runners._stacks).
# KK-1 at (3, 2) and MX-2 at (3, 3) stack their exhaustive families.
# QF-1 cuts its forms into stacks, one oracle call per stack.
STACKED_RUNNERS = ("FT-3", "ST-1", "ST-2", "ST-5", "ST-6", "BR-1", "PL-1", "MT-1",
                   "EN-4", "KK-1", "KK-2", "KK-3", "MX-2", "QF-1")


def test_stacks_cut_a_run_into_consecutive_bounded_lists():
    import fflab.harness.runners as runners
    assert runners.STACK_POINTS == 4096
    sizes = {27: [20], 343: [11, 11, 3], 2048: [2] * 12 + [1], 2049: [1] * 25,
             16807: [1] * 25}
    for points, want in sizes.items():
        stacks = list(runners._stacks(range(25 if points != 27 else 20), points))
        assert [len(s) for s in stacks] == want
        assert [x for s in stacks for x in s] == list(range(sum(want)))


@pytest.mark.parametrize("sid", STACKED_RUNNERS)
def test_stacked_runner_yields_the_cases_of_one_trial_stacks(monkeypatch, sid):
    # With the stack limit patched down to one trial per stack, a runner
    # makes one operator call per trial; its cases must come out the same,
    # bit for bit and in order.  (7, 3) splits 25 trials, or BR-1's 343
    # triples, into stacks of 11 and a remainder.
    import fflab.harness.runners as runners
    sc = REGISTRY[sid]
    for p, d in ((3, sc.dims[0]), (7, 3)):
        assert runners.STACK_POINTS // p**d > 1
        stacked = list(sc.runner(RunContext(sid, p, d, sc.default_trials, 11)))
        with monkeypatch.context() as patch:
            patch.setattr(runners, "STACK_POINTS", 1)
            single = list(sc.runner(RunContext(sid, p, d, sc.default_trials, 11)))
        assert len(stacked) > 1
        assert repr(stacked) == repr(single)


@pytest.mark.parametrize("p,calls,cap", [(7, 131, 10), (5, 11, 26)])
def test_qf1_searches_one_stack_of_forms_per_oracle_call(monkeypatch, p, calls, cap):
    # (p - 1)^4 diagonal forms and 10 drawn ones, in stacks of at most
    # STACK_POINTS // N forms, N = (p^4 - 1) / (p - 1) projective points
    import fflab.harness.runners as runners
    stacks, brute_witt = [], runners.brute_witt

    def counted(forms, q, points):
        assert runners.STACK_POINTS // len(points) == cap
        stacks.append(len(forms))
        return brute_witt(forms, q, points)

    monkeypatch.setattr(runners, "brute_witt", counted)
    assert run_scenario("QF-1", prime=p, dim=4).status == "pass"
    assert len(stacks) == calls
    assert max(stacks) == cap and sum(stacks) == (p - 1) ** 4 + 10


def test_in2_witness_reports_the_audited_constants(monkeypatch):
    # a failing IN-2 row names the c1 and c2 its bound was built from
    import fflab.harness.runners as runners
    audits = []

    def zero_bound(P, L):
        audits.append(combinatorics.incidence_bound_audit(P, L))
        return audits[-1]._replace(bound=0.0)

    monkeypatch.setattr(runners, "incidence_bound_audit", zero_bound)
    r = run_scenario("IN-2", prime=3, dim=2, trials=2)
    assert r.status == "fail"
    values = r.witness["values"]
    want = audits[values["trial"]]
    assert (values["c1"], values["c2"]) == (want.c1, want.c2)


def test_drift_check_catches_a_defect_in_an_exhaustive_constant(monkeypatch):
    # Drop the "+ both" term of off_diagonal_energy's inclusion-exclusion.
    # EN-3's exhaustive p = 3 constant falls from 0.5 to 1/9, which is
    # still under twice the baseline; the default sweep catches it only
    # because the exhaustive run states one trial and so meets its
    # provenance, where the drift check compares the constant itself.
    import fflab.harness.runners as runners
    source = inspect.getsource(combinatorics.off_diagonal_energy)
    both = "\n            + _colliding_pairs(sums + b0 + p * b1, case, cases)"
    assert both in source
    planted = {}
    exec(source.replace(both, ""), vars(combinatorics), planted)
    monkeypatch.setattr(runners, "off_diagonal_energy",
                        planted["off_diagonal_energy"])
    reports, failed = sweep(["EN-3"], [3], [3])
    assert failed
    (r,) = reports
    assert (r.trials, r.status) == (1, "fail")
    assert r.metric == pytest.approx(1 / 9)
    assert r.witness["values"]["drift"] == pytest.approx(0.5 - 1 / 9)


def test_the_exhaustive_point_is_the_registry_provenance(monkeypatch):
    # A tracked runner enumerates its whole family, and states one trial,
    # at the point its registry entry names as provenance and nowhere
    # else, so moving the provenance moves the enumeration and the drift
    # check still meets it.
    import fflab.harness.runners as runners
    sc = REGISTRY["KK-1"]
    monkeypatch.setitem(REGISTRY, "KK-1", dataclasses.replace(sc, provenance=(5, 2, 1, 0)))
    ctx = RunContext("KK-1", 3, 2, sc.default_trials, 0)
    cases = list(sc.runner(ctx))
    assert ctx.trials == sc.default_trials
    assert [fields["trial"] for _, fields in cases] == list(range(sc.default_trials))
    assert run_scenario("KK-1", prime=3, dim=2).trials == sc.default_trials

    masks = runners._exhaustive_masks(RunContext("KK-1", 5, 2, 30, 0), 4)
    assert masks.dtype == bool and masks.shape == (15, 4)
    assert [int(row @ (1 << np.arange(4))) for row in masks] == list(range(1, 16))
    assert runners._exhaustive_masks(RunContext("KK-1", 3, 2, 30, 0), 4) is None

    # All 2^25 - 1 indicators of F_5^2 are too many to build here; the
    # family is cut to its first 7 rows, the subsets of the first three
    # points, and the decision stays the helper's own.
    real = runners._exhaustive_masks

    def first_rows(ctx, n):
        rows = real(ctx, 3)
        return None if rows is None else np.pad(rows, ((0, 0), (0, n - 3)))

    monkeypatch.setattr(runners, "_exhaustive_masks", first_rows)
    ctx = RunContext("KK-1", 5, 2, sc.default_trials, 0)
    cases = list(sc.runner(ctx))
    assert ctx.trials == 1
    assert [fields["mask"] for _, fields in cases] == list(range(1, 8))


def test_an_exhaustive_family_past_2_16_subsets_fails_before_it_is_built(monkeypatch):
    # At (5, 2) KK-1's family would be all 2^25 - 1 indicators of F_5^2,
    # about 6.7 GB of masks and rows; the run fails at once instead, with
    # a witness that names the family's size.
    import fflab.harness.runners as runners
    sc = REGISTRY["KK-1"]
    monkeypatch.setitem(REGISTRY, "KK-1", dataclasses.replace(sc, provenance=(5, 2, 1, 0)))
    start = time.perf_counter()
    r = run_scenario("KK-1", prime=5, dim=2)
    assert time.perf_counter() - start < 0.5
    assert r.status == "fail" and r.trials == sc.default_trials
    values = r.witness["values"]
    assert values["error"] == "FFLabError"
    assert "2^25 - 1 = 33554431 subsets" in values["message"]
    assert values["raised_in"].startswith("_exhaustive_masks")
    # 2^16 - 1 rows is the largest family built
    ctx = RunContext("KK-1", 5, 2, 30, 0)
    assert runners._exhaustive_masks(ctx, 16).shape == (2**16 - 1, 16)
    with pytest.raises(FFLabError, match="2\\^17 - 1"):
        runners._exhaustive_masks(ctx, 17)


def test_the_sweep_loads_numpy_lazy_modules_before_the_fork():
    # numpy loads numpy.random and numpy.ma on first use.  The sweep loads
    # both before its first group and its fork, so a worker holds them
    # before its first run, and no run's runtime_ms pays for them.
    # Importing fflab loads neither; a fresh process shows both, since
    # this one loaded them long ago.
    script = textwrap.dedent("""\
        import dataclasses, os, sys
        import fflab.cli
        from fflab.harness import REGISTRY, sweep
        lazy = ("numpy.random", "numpy.ma")
        print(sorted(set(lazy) & set(sys.modules)))
        parent = os.getpid()

        def probe(ctx):
            # 0 in a worker that holds both modules, and only there
            yield float(os.getpid() == parent) + sum(
                name not in sys.modules for name in lazy), {}

        REGISTRY["FT-1"] = dataclasses.replace(REGISTRY["FT-1"], runner=probe)
        reports, failed = sweep(["FT-1"], (3, 5), (3,), workers=2)
        print([(r.prime, r.metric) for r in reports], failed)
        """)
    src = str(Path(fflab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[(3, 0.0), (5, 0.0)] False"]


def test_mx1_row_states_the_trials_it_ran():
    # the p^{4n+1} schedule runs a single trial at (13, 5)
    r = run_scenario("MX-1", prime=13, dim=5)
    assert r.status == "pass"
    assert r.trials == 1
    assert run_scenario("MX-1", prime=13, dim=3, trials=4).trials == 4


@pytest.mark.parametrize("dim", [3, 5])
def test_mx1_pair_is_not_coordinate_aligned_at_p3(dim):
    # On the standard p = 3 forms the first isotropic pair is spanned by
    # coordinate vectors, the read index is the identity and both routes
    # do the same products; MX-1's congruent copy must move it off the axes.
    S = _mx1_surface(PrimeField(3), dim)
    W, V = _iso_pair(S)
    read = kk._coset_read_index(S, W, V)
    assert np.array_equal(np.sort(read), np.arange(S.size))  # a permutation
    assert not np.array_equal(read, np.arange(S.size))


def _shift_last_slab(slabs, shift):
    def patched(f, W, V):
        for t, row in enumerate(slabs(f, W, V)):
            if t == f.surface.field.p - 1:
                row[0] += shift
            yield row
    return patched


# Both MX-1 routes stream by height, so a defect confined to the last slab
# must still reach the metric: every slab is compared, and a NaN in any of
# them stays a NaN.
@pytest.mark.parametrize("shift", [1e-6, math.nan])
@pytest.mark.parametrize("dim", [3, 5])
def test_mx1_fails_on_a_defect_at_the_last_height(monkeypatch, shift, dim):
    monkeypatch.setattr(kk, "coset_slabs", _shift_last_slab(kk.coset_slabs, shift))
    r = run_scenario("MX-1", prime=3, dim=dim, trials=3)
    assert r.status == "fail"
    if math.isnan(shift):
        assert np.isnan(r.metric)
    else:
        assert r.metric == pytest.approx(shift, rel=1e-6)
    assert set(r.witness["values"]) == {"trial"}


def _drop_last_slab(slabs):
    def patched(f, W, V):
        for t, row in enumerate(slabs(f, W, V)):
            if t < f.surface.field.p - 1:
                yield row
    return patched


def test_mx1_fails_when_a_route_drops_its_last_height(monkeypatch):
    # p - 1 slabs that match must not pass for p: a route that ends early
    # is a runner fault, with the witness of the error the comparison raises
    monkeypatch.setattr(kk, "coset_slabs", _drop_last_slab(kk.coset_slabs))
    r = run_scenario("MX-1", prime=3, dim=3, trials=3)
    assert r.status == "fail"
    values = r.witness["values"]
    assert values["error"] == "ValueError"
    assert values["raised_in"].startswith("_run_mx1 ")


@pytest.mark.parametrize("prime,dim", [(3, 3), (5, 3)])
def test_mx2_splits_the_base_once_per_run(prime, dim):
    # (3, 3) is the exhaustive 511-mask path, in stacks of 151, (5, 3) the
    # structured one, whose 13 inputs make one stack; the run uses one W,
    # so the base is labelled by its cosets once, and both norms of every
    # stack read that labelling.  The exhaustive run states one trial, so
    # at seed 0 it is the provenance.
    stacks = {3: 4, 5: 1}[prime]
    kk._base_coset_labels.cache_clear()
    r = run_scenario("MX-2", prime=prime, dim=dim, trials=2)
    assert r.status == ("report_only" if prime == 3 else "pass")
    info = kk._base_coset_labels.cache_info()
    assert info.misses == 1 and info.hits == 2 * stacks - 1


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_qf4_reads_every_row_of_the_non_split_table_at_d5(prime):
    # the dot and pairing forms on F_p^4 are split at every p of the grid;
    # only the non-split form brings the Witt index 1 rows into play
    ctx = RunContext("QF-4", prime, 5, REGISTRY["QF-4"].default_trials, 0)
    cases = list(REGISTRY["QF-4"].runner(ctx))
    assert all(metric == 0.0 for metric, _ in cases)
    seen = {tuple(fields["triple"]) for _, fields in cases if fields["witt"] == 1}
    assert seen == qforms.allowed_subsurface_triples(5, 1)


def _shifted_superposition(superposition):
    def shifted(h, x0, field, m):
        out = superposition(h, x0, field, m)
        out.data.flat[0] += 1e-6
        return out
    return shifted


# One planted defect per library function whose output its scenario
# judges: the run must fail through that scenario's own metric and
# witness, not through an error raised inside the library.
@pytest.mark.parametrize("module,name,defect,scenario,dim,keys", [
    # a defect in the line superposition: KK-3 reads both its closed form
    # and its collapse from it
    (kk, "dual_kakeya_apply", _shifted_superposition, "KK-3", 3,
     ("closed_form", "collapse")),
    (qforms, "_nondegenerate_part_witt", lambda witt: lambda R: witt(R) + 1,
     "QF-4", 4, ("triple",)),
    (combinatorics, "incidence_count", lambda count: lambda P, L: 0,
     "IN-1", 3, ("energy", "bound")),
    (surfaces, "char_vector", lambda chars: lambda field: chars(field).conj(),
     "PL-1", 3, ("slope", "offset")),
    (surfaces, "gauss_sum", lambda gauss: lambda field, t: gauss(field, t) * (1 + 1e-6),
     "FT-2", 3, ("index", "closed", "direct")),
    # a defect in the extension: FT-2's direct route and ST-1's pairing
    # both read it, as E 1 and E R f
    (surfaces, "_height_rows", lambda rows: lambda *a: rows(*a) * (1 + 1e-6),
     "FT-2", 3, ("index", "closed", "direct")),
    (surfaces, "_height_rows", lambda rows: lambda *a: rows(*a) * (1 + 1e-6),
     "ST-1", 3, ("pairing",)),
])
def test_each_library_defect_fails_through_its_scenario(
        monkeypatch, module, name, defect, scenario, dim, keys):
    monkeypatch.setattr(module, name, defect(getattr(module, name)))
    r = run_scenario(scenario, prime=3, dim=dim, trials=4)
    assert r.status == "fail"
    assert math.isfinite(r.metric) and r.metric > r.tolerance
    values = r.witness["values"]
    assert "error" not in values
    assert all(key in values for key in keys)


@pytest.mark.parametrize("scenario,prime,dim,calls", [
    # per trial: one forward transform of the function, and one inverse
    # transform of its p extension heights on the base
    ("ST-1", 7, 5, {(-1, 5): 20, (1, 4): 20}),
    ("BR-3", 5, 3, {(-1, 3): 12, (1, 2): 12}),
])
def test_the_kernel_pairing_transforms_each_trial_once(
        monkeypatch, scenario, prime, dim, calls):
    # the pairing <f, f * sigma-vee> reads E R f from the restriction whose
    # norm it is compared with, so no run transforms a function twice
    seen = collections.Counter()
    axis_dft = fourier._axis_dft

    def counted(buf, field, dim, sign):
        seen[sign, dim] += 1
        axis_dft(buf, field, dim, sign)

    for module in (fourier, surfaces):
        monkeypatch.setattr(module, "_axis_dft", counted)
    assert run_scenario(scenario, prime=prime, dim=dim).status == "pass"
    assert seen == calls


def test_eq1_fails_when_its_congruence_is_wrong(monkeypatch):
    # At p = 5 the dot and pairing paraboloids are congruent.  A square
    # root off by one breaks the M that congruence_between assembles; EQ-1
    # must fail on it, not drop its dot_to_pairing route and pass.
    sqrt = PrimeField.sqrt
    monkeypatch.setattr(PrimeField, "sqrt", lambda self, x: sqrt(self, x) + 1)
    r = run_scenario("EQ-1", prime=5, dim=3)
    assert r.status == "fail"
    values = r.witness["values"]
    assert values["error"] == "FFLabError"
    assert values["raised_in"].startswith("congruence_between")


# A sampler that redraws until another library function accepts: with that
# function broken, the run must fail in-process within a second, with
# draw_until's FFLabError as its witness, where it used to hang.
@pytest.mark.parametrize("targets,defect,scenario,prime,dim", [
    ("qforms.det_mod runners.det_mod", lambda M, p: 0, "QF-3", 3, 2),
    ("qforms.det_mod runners.det_mod", lambda M, p: 0, "EQ-1", 5, 3),
    ("qforms.det_mod runners.det_mod", lambda M, p: 0, "QF-2", 3, 4),
    ("qforms.rank_mod", lambda M, p: 0, "QF-3", 3, 2),
    ("Subspace.contains", lambda self, x: True, "EX-3", 3, 3),
])
def test_a_defect_under_a_rejection_draw_fails_the_run_fast(
        monkeypatch, targets, defect, scenario, prime, dim):
    import fflab.harness.runners as runners
    owners = {"qforms": qforms, "runners": runners, "Subspace": qforms.Subspace}
    for target in targets.split():
        owner, _, name = target.partition(".")
        monkeypatch.setattr(owners[owner], name, defect)
    r = run_scenario(scenario, prime=prime, dim=dim)
    assert r.status == "fail" and r.runtime_ms < 1000
    values = r.witness["values"]
    assert values["error"] == "FFLabError"
    assert values["raised_in"].startswith("draw_until")
    assert values["message"].endswith(f" in {core.MAX_DRAWS} draws")


def test_a_cover_step_that_covers_nothing_fails_the_run(monkeypatch):
    # with every VH-plane mask row empty, the greedy cover used to loop forever
    masks = combinatorics.vh_plane_masks
    monkeypatch.setattr(combinatorics, "vh_plane_masks",
                        lambda X, p: np.zeros_like(masks(X, p)))
    r = run_scenario("PL-2", prime=3, dim=3)
    assert r.status == "fail"
    values = r.witness["values"]
    assert values["error"] == "FFLabError"
    assert values["raised_in"].startswith("vh_plane_cover")
    assert values["message"].startswith("no VH plane covers")


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and with them the check
    root = Path(fflab.__file__).resolve().parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(_parsed(path)[1])
             if isinstance(node, ast.Assert)]
    assert found == []


def _unread_imports(tree):
    """Names a module's syntax tree binds by an import and never reads: no
    load of the name, and no entry of __all__ that re-exports it."""
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted(imported - read)


def test_every_imported_name_is_read():
    planted = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
               "import fflab.core\nfrom a import b, c\n__all__ = ['c']\n"
               "np.zeros(fflab.core.POINT_BUDGET)\n")
    assert _unread_imports(ast.parse(planted)) == ["b", "os"]
    root = Path(fflab.__file__).resolve().parent
    files = sorted(root.rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    found = {str(path.relative_to(path.parents[1])): names for path in files
             if (names := _unread_imports(_parsed(path)[1]))}
    assert found == {}


def _functions_holding(tree, match):
    """Qualified names of the functions in a syntax tree whose own bodies
    hold a node that match accepts; a node at module level counts as
    '<module>'."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if match(child):
                found.add(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def _functions_calling(tree, name):
    """The functions of a syntax tree whose own bodies call name(...)."""
    return _functions_holding(tree, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == name))


def _is_lq_root(node):
    """A power whose exponent is 1 / x or 1.0 / x: the root of an L^q norm."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.BinOp) and isinstance(node.right.op, ast.Div)
            and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1)


def test_one_function_builds_every_report():
    # a report built by hand can leave out fields of its kind that the
    # CLI prints; one builder gives every row the same ones
    planted = ("def a():\n    return [ScenarioReport(1) for _ in x]\n"
               "class B:\n    def c(self):\n        def d():\n"
               "            ScenarioReport(2)\n        return d\n")
    assert _functions_calling(ast.parse(planted), "ScenarioReport") == {"a", "B.c.d"}
    root = Path(fflab.__file__).resolve().parent
    found = {f"{path.relative_to(root)}:{fn}" for path in sorted(root.rglob("*.py"))
             for fn in _functions_calling(_parsed(path)[1], "ScenarioReport")}
    assert found == {"harness/scenarios.py:_report"}


def _is_while_true(node):
    """A loop whose test is a true constant: it ends only from its body."""
    return (isinstance(node, ast.While) and isinstance(node.test, ast.Constant)
            and bool(node.test.value))


def _draws_a_trial_but_0(node):
    """A trial_rng(...) call whose argument is not the literal 0."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call)
            and getattr(func, "attr", getattr(func, "id", None)) == "trial_rng"
            and not (len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
                     and node.args[0].value == 0))


def _seeds_a_trial(node):
    """A trial_seed(...) call, by name or as an attribute."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call)
            and getattr(func, "attr", getattr(func, "id", None)) == "trial_seed")


def test_every_draw_is_bounded_and_only_the_context_loops_over_trials():
    # a `while True` draw hangs the sweep when the test it waits on is
    # broken (draw_until bounds it); a trial loop written out by hand is a
    # second copy of RunContext.trial_rngs, and a runner that seeds its
    # own stream from trial_seed goes round RunContext altogether
    planted = ("def a(x):\n    while True:\n        pass\n    while x:\n        x -= 1\n"
               "class RunContext:\n    def trial_rngs(self):\n"
               "        yield self.trial_rng(t)\n"
               "    def trial_rng(self, t):\n        return trial_seed(self.seed, t)\n"
               "def b(ctx):\n    return ctx.trial_rng(0), ctx.trial_rng(t), trial_rng(1)\n"
               "def c(ctx):\n    return rng(h.trial_seed(ctx.seed, 0)), trial_seed(1, 0)\n")
    tree = ast.parse(planted)
    assert _functions_holding(tree, _is_while_true) == {"a"}
    assert _functions_holding(tree, _draws_a_trial_but_0) == {"RunContext.trial_rngs", "b"}
    assert _functions_holding(tree, _seeds_a_trial) == {"RunContext.trial_rng", "c"}
    root = Path(fflab.__file__).resolve().parent
    paths = sorted(root.rglob("*.py"))
    assert [f"{path.relative_to(root)}:{fn}" for path in paths
            for fn in _functions_holding(_parsed(path)[1], _is_while_true)] == []
    assert [f"{path.relative_to(root)}:{fn}" for path in paths
            for fn in _functions_holding(_parsed(path)[1], _draws_a_trial_but_0)] == [
        "harness/scenarios.py:RunContext.trial_rngs"]
    assert [f"{path.relative_to(root)}:{fn}" for path in paths
            for fn in _functions_holding(_parsed(path)[1], _seeds_a_trial)] == [
        "harness/scenarios.py:RunContext.trial_rng"]


def test_one_function_takes_an_lq_root():
    # a norm finished by hand is a second copy of lp_norm's formula
    planted = ("def a(x, q):\n    return x.sum() ** (1 / q)\n"
               "class B:\n    def c(self, q):\n        return self.t ** (1.0 / q)\n"
               "def d(x):\n    return x ** 0.5 + x ** (2 / 3) + x ** (-1 / 4)\n")
    assert _functions_holding(ast.parse(planted), _is_lq_root) == {"a", "B.c"}
    root = Path(fflab.__file__).resolve().parent
    found = {f"{path.relative_to(root)}:{fn}" for path in sorted(root.rglob("*.py"))
             for fn in _functions_holding(_parsed(path)[1], _is_lq_root)}
    assert found == {"core.py:lp_norm"}


def _private_reads(tree):
    """Underscore names that a module's syntax tree imports from, or reads
    as an attribute of, a name bound by an import from within fflab."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fflab"):
            bound.update(a.asname or a.name for a in node.names)
            found += [a.name for a in node.names if private(a.name)]
        elif isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "fflab")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"{root.id}.{node.attr}")
    return found


def test_harness_reads_no_private_name_of_another_module():
    # Scenarios judge the library through its public functions; a private
    # helper may change its signature or meaning with no notice to them.
    planted = ("from .. import kakeya as kk\nfrom ..core import _grid, PrimeField\n"
               "import fflab.surfaces\nkk._split(1); kk.__name__; x._y\n"
               "fflab.surfaces._kernel\n")
    assert sorted(_private_reads(ast.parse(planted))) == ["_grid", "fflab._kernel", "kk._split"]
    harness = Path(fflab.__file__).resolve().parent / "harness"
    found = {path.name: _private_reads(_parsed(path)[1])
             for path in sorted(harness.glob("*.py"))}
    assert all(not names for names in found.values()), found


# The (p, d) of every coordinate_array call and the (p, n) of every
# line_totals call that `fflab sweep --ids all` makes on the default grid
# (primes 3, 5, 7, 11, 13 and dims 2, 3, 4, 5), recorded by wrapping both.
SWEEP_COORDINATE_TABLES = {3: range(6), 5: range(6), 7: range(6),
                           11: range(1, 3), 13: range(5)}
SWEEP_LINE_INDICES = [(p, n) for p in (3, 5, 7, 11, 13) for n in (1, 2)]


def test_cached_grid_tables_of_the_sweep_fit_in_8_mib():
    # the tables stay in memory for the whole sweep, so they count
    # against its peak RSS; a wider cache must not grow them unnoticed
    total = sum(coordinate_array(p, d).nbytes
                for p, dims in SWEEP_COORDINATE_TABLES.items() for d in dims)
    total += sum(table.nbytes for p, n in SWEEP_LINE_INDICES
                 for table in kk._line_index(p, n))
    assert total < 8 * 2**20


def test_report_bytes_do_not_depend_on_blas_threads(tmp_path):
    # ST-1 at (7, 5) takes inner products over 7^5 = 16,807 terms, where
    # a BLAS reduction splits its work, and so its rounding, by thread.
    # MX-1 at (13, 5) sums over W x V pairs of 13^2 points each, where a
    # batched matrix product would split its sums by thread the same way.
    # ST-1 has no p = 13 and MX-1 no p = 7, so one sweep per thread count
    # runs exactly these two points.
    src = str(Path(fflab.__file__).resolve().parent.parent)
    path = os.pathsep.join([src] + os.environ.get("PYTHONPATH", "").split(os.pathsep))
    # the two sweeps run at the same time
    runs = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                   PYTHONPATH=path)
        out = tmp_path / f"threads{n}"
        runs.append((out, subprocess.Popen(
            [sys.executable, "-m", "fflab.cli", "sweep", "--ids", "ST-1,MX-1",
             "--primes", "7,13", "--dims", "5", "--out", str(out)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )))
    reports = []
    for out, proc in runs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
        reports.append((out / "report.json").read_bytes())
    rows = [(r["scenario"], r["prime"], r["dim"])
            for r in json.loads(reports[0])["reports"]]
    assert rows == [("ST-1", 7, 5), ("MX-1", 13, 5)]
    assert reports[0] == reports[1]


def test_regenerate_matches_shipped_store(tmp_path):
    path = tmp_path / "regen.json"
    regenerate_baselines(path=path)
    assert path.read_bytes() == BaselineStore.load().path.read_bytes()


def test_regenerate_unknown_id_names_the_registered_ids(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(UnknownScenario, match="registered ids: BR-1, BR-2"):
        regenerate_baselines(["NOPE"], path=out)
    assert not out.exists()


def test_regenerate_rejects_untracked_ids(tmp_path):
    with pytest.raises(ValueError):
        regenerate_baselines(["FT-1"], path=tmp_path / "x.json")


def test_full_regen_drops_an_entry_for_no_tracked_scenario(tmp_path, monkeypatch, capsys):
    # a tracked scenario that left the registry must not leave its
    # constant behind for `fflab baseline` to exit 2 on: the full regen
    # writes exactly the registered tracked entries, a regen of named ids
    # touches only those
    import fflab.harness.baselines as bl
    shipped = bl._DEFAULT_PATH.read_bytes()
    doc = json.loads(shipped)
    doc["entries"]["XX-1"] = doc["entries"]["EN-2"]
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps(doc))
    assert "XX-1" in regenerate_baselines(["EN-2"], path=path).entries
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    assert cli_main(["baseline", "--regen"]) == 0
    assert "XX-1" not in capsys.readouterr().out
    assert path.read_bytes() == shipped
    assert cli_main(["baseline"]) == 0


def test_benchmark_tracer_finds_every_entry_point():
    """perfbench/tracer.py wraps named library functions and refuses to
    start when one is missing, so renaming or deleting a traced function
    breaks the benchmark; this catches it in the test suite."""
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_pass():
    assert cli_main(["run", "FT-1", "--prime", "5", "--dim", "3",
                     "--seed", "7"]) == 0


def test_cli_run_report_only():
    assert cli_main(["run", "EN-2", "--prime", "3", "--trials", "1"]) == 0


def test_cli_unknown_scenario_exits_2(capsys):
    assert cli_main(["run", "XX-9"]) == 2
    assert "unknown scenario id" in capsys.readouterr().err


def test_cli_bad_prime_exits_2():
    assert cli_main(["run", "FT-1", "--prime", "4"]) == 2


def test_cli_sweep_writes_reports(tmp_path):
    out = tmp_path / "reports"
    code = cli_main(["sweep", "--ids", "FT-1,ST-4", "--primes", "3,5",
                     "--dims", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["schema"] == "fflab-report/1"
    assert len(doc["reports"]) == 4
    csv_lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 5


def test_cli_sweep_empty_ids(tmp_path):
    assert cli_main(["sweep", "--ids", "", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("args,out", [
    (["--ids", ""], "reports"),
    (["--ids", ","], "reports"),
    (["--ids", "FT-1", "--primes", "2", "--dims", "3"], "reports"),
    (["--ids", "FT-1,EN-1", "--dims", "5"], "reports"),
    (["--ids", "FT-1"], "file"),
    (["--ids", "FT-1"], "file/reports"),
], ids=["empty", "commas", "no grid point", "one id off the grid", "out is a file",
        "out under a file"])
def test_cli_sweep_edges_exit_2_before_any_run(args, out, tmp_path, monkeypatch, capsys):
    # These used to exit 0 having run nothing, exit 0 having dropped EN-1
    # in silence, or compute every run and then lose it to a traceback.
    import fflab.harness.scenarios as scenarios

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(scenarios, "_run_checked", no_run)
    (tmp_path / "file").write_text("")
    assert cli_main(["sweep", *args, "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("args,repeat", [
    (["--ids", "FT-1,ST-4,FT-1"], "scenario id FT-1"),
    (["--ids", "FT-1", "--primes", "3,5,3"], "prime 3"),
    (["--ids", "FT-1", "--dims", "3,3"], "dim 3"),
], ids=["repeated id", "repeated prime", "repeated dim"])
def test_cli_sweep_repeats_exit_2_before_any_run(args, repeat, tmp_path, monkeypatch,
                                                 capsys):
    # A repeat used to run its points once per copy and write each row
    # that many times, exiting 0.
    import fflab.harness.scenarios as scenarios

    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(scenarios, "_run_checked", no_run)
    assert cli_main(["sweep", *args, "--out", str(tmp_path / "reports")]) == 2
    assert capsys.readouterr().err == f"error: {repeat} is requested more than once\n"
    assert not (tmp_path / "reports").exists()


def test_cli_list_and_table(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "FT-1" in out and "constant_tracked" in out
    assert cli_main(["table"]) == 0
    assert "Stein-Tomas" in capsys.readouterr().out


def test_cli_baseline_show(capsys, tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    assert cli_main(["baseline"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the provenance printed is the registry's, the store keeps none
    p, d, trials, seed = REGISTRY["EN-2"].provenance
    assert [line for line in lines if line.startswith("EN-2: ")] == [
        f"EN-2: constant=0.733333333333 at p={p} d={d} trials={trials} seed={seed} "
        f"hash={BaselineStore.load().entries['EN-2'].oracle_hash[:12]}"]
    # an entry for no registered scenario has no provenance to print
    doc = json.loads(bl._DEFAULT_PATH.read_text())
    doc["entries"]["XX-1"] = doc["entries"]["EN-2"]
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    assert cli_main(["baseline"]) == 2
    assert "XX-1, which is no registered scenario" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the rendered table


def test_exponent_table_pins_the_landscape():
    table = exponent_table()
    for token in ("18/5", "9/4", "4/10", "47/31", "Stein-Tomas",
                  "(2d+2)/(d-1)", "2d/(d-1)", "measured", "asymptotic",
                  "conjectured"):
        assert token in table, token
