"""Registry integrity, determinism, baselines, reports, and the CLI."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import fflab
from fflab import combinatorics, core, fourier, qforms, surfaces
from fflab import kakeya as kk
from fflab.cli import main as cli_main
from fflab.core import PrimeField, coordinate_array
from fflab.errors import UnknownScenario
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
from fflab.harness.scenarios import RunContext, _iso_pair, _mx1_surface
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


def test_every_tracked_scenario_has_fresh_baseline():
    """The shipped store covers every tracked id, and each stored hash
    matches the current runner source, so no constant is stale."""
    store = BaselineStore.load()
    tracked = {sid for sid, sc in REGISTRY.items()
               if sc.kind == "constant_tracked"}
    assert set(store.entries) == tracked
    for sid in tracked:
        assert store.entries[sid].oracle_hash == oracle_hash(REGISTRY[sid].runner)


# the library modules whose code the reachability gate checks
LIBRARY = (core, fourier, surfaces, qforms, combinatorics, kk)


@pytest.fixture(scope="module")
def default_runs():
    """Every scenario at its defaults, plus KK-1 at (5, 2), whose sampled
    path is the only one that reaches FFunction.indicator (the exhaustive
    default point builds its inputs directly).  Returns the reports, the
    code objects the runs called, and for every defaulted parameter of
    the library the kinds of value it received: "default" or "other".
    The library's table caches are emptied first, so what the runs reach
    does not depend on the tests that ran before them."""
    for mod in LIBRARY:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    options = _defaulted_parameters()
    reached = set()
    received = {key: set() for spec in options.values() for key, _, _ in spec}

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)
            spec = options.get(frame.f_code)
            if spec is not None:
                args = frame.f_locals
                for key, name, default in spec:
                    received[key].add(
                        "default" if _is_default(args[name], default) else "other")

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        reports = [run_scenario(sid) for sid in sorted(REGISTRY)]
        reports.append(run_scenario("KK-1", prime=5, dim=2))
    finally:
        sys.setprofile(previous)
    return reports, reached, received


def test_each_scenario_runs_at_defaults(default_runs):
    reports, _, _ = default_runs
    assert [r.scenario for r in reports] == sorted(REGISTRY) + ["KK-1"]
    for r in reports:
        assert r.status in ("pass", "report_only"), (r.scenario, r.metric, r.witness)


# ---------------------------------------------------------------------------
# reachability: no test-only code in the library

# Library code that no default run reaches and that stays, with the reason.
# An entry names a function as module.qualname, or a class, which covers
# its methods; __repr__ methods are exempt.  Test oracles live in
# fflab/oracles.py, outside the checked modules.
UNREACHED_BY_DESIGN = {
    "kakeya.coset_extension": "perfbench/tracer.py times it as an entry point",
    "qforms.enumerate_subspaces": "perfbench/tracer.py counts its calls",
    "core.FFVector": "perfbench/tracer.py counts FFVector.__post_init__",
    "surfaces.Surface.points": "tests/test_acceptance.py criterion 3 reads it",
    "core.PrimeField.__hash__": "goes with PrimeField.__eq__, which the runs reach",
}


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
            # the hook reads a generator's locals again on every resume
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


def _covers(entry, name):
    """Whether an allowlist entry names this function or its class."""
    return entry in (name, name.rpartition(".")[0])


def _allowlisted(name):
    return name.endswith(".__repr__") or any(
        _covers(entry, name) for entry in UNREACHED_BY_DESIGN)


def test_every_library_function_is_reached_by_the_defaults(default_runs):
    # A function only tests call is either an oracle, and goes to
    # fflab/oracles.py, or dead weight, and goes.
    _, reached, _ = default_runs
    functions = _library_functions()
    assert len(functions) > 150
    unreached = sorted(name for name, fn in functions.items()
                       if fn.__code__ not in reached and not _allowlisted(name))
    assert not unreached, f"no default run reaches {unreached}"


def test_unreached_allowlist_has_no_stale_entry(default_runs):
    _, reached, _ = default_runs
    functions = _library_functions()
    stale = []
    for entry in UNREACHED_BY_DESIGN:
        codes = [fn.__code__ for name, fn in functions.items() if _covers(entry, name)]
        if not codes:
            stale.append(f"{entry} no longer exists")
        elif any(code in reached for code in codes):
            stale.append(f"the defaults now reach {entry}")
    assert not stale, stale


# ---------------------------------------------------------------------------
# option use: no library option that the runs leave at one value

# Defaulted parameters that the default runs set to one kind of value only
# (always the default, or never) and that stay, with the reason.
ONE_VALUE_BY_DESIGN = {
    "combinatorics.additive_energy.method":
        "tests/test_acceptance.py criterion 3 counts with method='fourier'",
    "qforms._echelon_batches.batch":
        "test_isotropic_filter_in_small_batches_matches_per_subspace_loop "
        "shrinks it to 7 to cross batch boundaries",
}


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


def _imports_oracles(source):
    """Whether a module's source imports fflab.oracles in any form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            parts = [part for a in node.names for part in a.name.split(".")]
        else:
            continue
        if "oracles" in parts:
            return True
    return False


def test_library_modules_never_import_the_oracles():
    for planted in ("from .oracles import line_sum\n", "from . import oracles\n",
                    "import fflab.oracles\n", "def f():\n    from fflab import oracles\n"):
        assert _imports_oracles(planted), planted
    assert not _imports_oracles("from .core import encode_point\nimport numpy\n")
    found = [mod.__name__ for mod in LIBRARY
             if _imports_oracles(Path(mod.__file__).read_text())]
    assert found == []


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
    r2, f2 = sweep(ids, [3, 5], [2, 3], seed=0)
    assert not f1 and not f2
    assert reports_to_json(r1) == reports_to_json(r2)
    assert reports_to_csv(r1).split("\n")[0] == ",".join(CSV_COLUMNS)


def test_sweep_skips_combos_outside_validity():
    reports, failed = sweep(["BR-1"], [3, 11], [3, 4], seed=0)
    assert not failed
    assert [(r.prime, r.dim) for r in reports] == [(3, 3)]


def test_sweep_empty_ids():
    reports, failed = sweep([], [3], [3])
    assert reports == [] and failed is False


def test_sweep_unknown_id_raises():
    with pytest.raises(UnknownScenario):
        sweep(["FT-1", "XX-9"], [3], [3])


# ---------------------------------------------------------------------------
# baseline integrity


def test_missing_baseline_fails_actionably(tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    monkeypatch.setattr(bl, "_DEFAULT_PATH", tmp_path / "none.json")
    with pytest.raises(BaselineMissing, match="fflab baseline --regen"):
        run_scenario("EN-2", prime=3)
    reports, failed = sweep(["EN-2", "FT-1"], [3], [3], seed=0)
    assert failed
    by_id = {r.scenario: r for r in reports}
    assert by_id["EN-2"].status == "fail"
    assert "baseline --regen" in by_id["EN-2"].witness["values"]["error"]
    assert by_id["FT-1"].status == "pass"


def test_hash_mismatch_aborts_before_running(tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    store = BaselineStore.load()
    doctored = {}
    for sid, e in store.entries.items():
        doctored[sid] = bl.BaselineEntry(
            constant=e.constant, prime=e.prime, dim=e.dim, trials=e.trials,
            seed=e.seed, oracle_hash="0" * 64)
    path = tmp_path / "baselines.json"
    BaselineStore(doctored, store.slack, path).save()
    monkeypatch.setattr(bl, "_DEFAULT_PATH", path)
    with pytest.raises(BaselineMismatch, match="EN-2"):
        run_scenario("EN-2", prime=3)
    with pytest.raises(BaselineMismatch):
        sweep(["EN-2"], [3], [3])


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
    entry = bl.BaselineEntry(constant=1.0, prime=3, dim=3, trials=1, seed=0,
                             oracle_hash=oracle_hash(_faulty_runner))
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
    entry = bl.BaselineEntry(constant=1.0, prime=7, dim=3, trials=1, seed=0,
                             oracle_hash=oracle_hash(_wrong_constant_runner))
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


def _unit_runner(ctx):
    yield 1.0, {}


def test_sweep_verifies_each_tracked_runner_once(tmp_path, monkeypatch):
    import fflab.harness.baselines as bl
    monkeypatch.setitem(REGISTRY, "ONE-1", Scenario(
        "ONE-1", "constant_tracked", "stub runner that returns its constant",
        _unit_runner, (3, 5, 7), (3,), 1,
        direction="upper", provenance=(3, 3, 1, 0)))
    path = tmp_path / "baselines.json"
    entry = bl.BaselineEntry(constant=1.0, prime=3, dim=3, trials=1, seed=0,
                             oracle_hash=oracle_hash(_unit_runner))
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
    import fflab.harness.scenarios as scenarios
    values = iter(devs)
    monkeypatch.setattr(scenarios, "pseudo_conformal_check",
                        lambda h0, S: next(values))
    r = run_scenario("MT-1", prime=3, dim=3, trials=len(devs))
    assert r.status == "fail"
    assert np.isnan(r.metric)
    assert r.witness == witness_values(trial=first_nan)


def test_drift_check_catches_a_defect_in_an_exhaustive_constant(monkeypatch):
    # Drop the "+ both" term of off_diagonal_energy's inclusion-exclusion.
    # EN-3's exhaustive p = 3 constant falls from 0.5 to 1/9, which is
    # still under twice the baseline; the default sweep catches it only
    # because the exhaustive run states one trial and so meets its
    # provenance, where the drift check compares the constant itself.
    import fflab.harness.scenarios as scenarios
    source = inspect.getsource(combinatorics.off_diagonal_energy)
    both = "\n            + _colliding_pairs(sums + b0 + p * b1)"
    assert both in source
    planted = {}
    exec(source.replace(both, ""), vars(combinatorics), planted)
    monkeypatch.setattr(scenarios, "off_diagonal_energy",
                        planted["off_diagonal_energy"])
    reports, failed = sweep(["EN-3"], [3], [3])
    assert failed
    (r,) = reports
    assert (r.trials, r.status) == (1, "fail")
    assert r.metric == pytest.approx(1 / 9)
    assert r.witness["values"]["drift"] == pytest.approx(0.5 - 1 / 9)


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
        for t, row in slabs(f, W, V):
            if t == f.surface.field.p - 1:
                row[0] += shift
            yield t, row
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


@pytest.mark.parametrize("prime,dim", [(3, 3), (5, 3)])
def test_mx2_splits_the_base_once_per_run(prime, dim):
    # (3, 3) is the exhaustive 511-mask path, (5, 3) the structured one;
    # the run uses one (W, V) pair, so the split is built once.  The
    # exhaustive run states one trial, so at seed 0 it is the provenance.
    kk._v_coset_index.cache_clear()
    r = run_scenario("MX-2", prime=prime, dim=dim, trials=2)
    assert r.status == ("report_only" if prime == 3 else "pass")
    info = kk._v_coset_index.cache_info()
    assert info.misses == 1 and info.hits > 1


@pytest.mark.parametrize("prime", [3, 5, 7])
def test_qf4_reads_every_row_of_the_non_split_table_at_d5(prime):
    # the dot and pairing forms on F_p^4 are split at every p of the grid;
    # only the non-split form brings the Witt index 1 rows into play
    ctx = RunContext("QF-4", prime, 5, REGISTRY["QF-4"].default_trials, 0)
    cases = list(REGISTRY["QF-4"].runner(ctx))
    assert all(metric == 0.0 for metric, _ in cases)
    seen = {tuple(fields["triple"]) for _, fields in cases if fields["witt"] == 1}
    assert seen == qforms.allowed_subsurface_triples(5, 1)


def _shifted_profile(profile):
    def shifted(h, b):
        out = profile(h, b)
        out.data[0] += 1e-6
        return out
    return shifted


# One planted defect per library function whose output its scenario
# judges: the run must fail through that scenario's own metric and
# witness, not through an error raised inside the library.
@pytest.mark.parametrize("module,name,defect,scenario,dim,keys", [
    (kk, "embed_collapse_profile", _shifted_profile, "KK-3", 3, ("collapse",)),
    (qforms, "_nondegenerate_part_witt", lambda witt: lambda R: witt(R) + 1,
     "QF-4", 4, ("triple",)),
    (combinatorics, "incidence_count", lambda count: lambda P, L: 0,
     "IN-1", 3, ("energy", "bound")),
    (surfaces, "char_vector", lambda chars: lambda field: chars(field).conj(),
     "PL-1", 3, ("slope", "offset")),
    (surfaces, "gauss_sum", lambda gauss: lambda field, t: gauss(field, t) * (1 + 1e-6),
     "FT-2", 3, ("index", "closed", "direct")),
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


def test_library_has_no_assert_statements():
    # python -O strips assert statements, and with them the check
    root = Path(fflab.__file__).resolve().parent
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _private_reads(source):
    """Underscore names that a module's source imports from, or reads as an
    attribute of, a name bound by an import from within fflab."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
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
    assert sorted(_private_reads(planted)) == ["_grid", "fflab._kernel", "kk._split"]
    harness = Path(fflab.__file__).resolve().parent / "harness"
    found = {path.name: _private_reads(path.read_text())
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
    reports = []
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
                   PYTHONPATH=path)
        out = tmp_path / f"threads{n}"
        subprocess.run(
            [sys.executable, "-m", "fflab.cli", "sweep", "--ids", "ST-1,MX-1",
             "--primes", "7,13", "--dims", "5", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        reports.append((out / "report.json").read_bytes())
    rows = [(r["scenario"], r["prime"], r["dim"])
            for r in json.loads(reports[0])["reports"]]
    assert rows == [("ST-1", 7, 5), ("MX-1", 13, 5)]
    assert reports[0] == reports[1]


def test_regenerate_matches_shipped_store(tmp_path):
    fresh = regenerate_baselines(path=tmp_path / "regen.json")
    shipped = BaselineStore.load()
    assert set(fresh.entries) == set(shipped.entries)
    for sid, e in fresh.entries.items():
        s = shipped.entries[sid]
        assert e.constant == s.constant, sid
        assert e.oracle_hash == s.oracle_hash, sid
        assert e.provenance() == s.provenance(), sid


def test_regenerate_unknown_id_names_the_registered_ids(tmp_path):
    out = tmp_path / "x.json"
    with pytest.raises(UnknownScenario, match="registered ids: BR-1, BR-2"):
        regenerate_baselines(["NOPE"], path=out)
    assert not out.exists()


def test_regenerate_rejects_untracked_ids(tmp_path):
    with pytest.raises(ValueError):
        regenerate_baselines(["FT-1"], path=tmp_path / "x.json")


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
    assert cli_main(["sweep", "--ids", "", "--out", str(tmp_path)]) == 0


def test_cli_list_and_table(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "FT-1" in out and "constant_tracked" in out
    assert cli_main(["table"]) == 0
    assert "Stein-Tomas" in capsys.readouterr().out


def test_cli_baseline_show(capsys):
    assert cli_main(["baseline"]) == 0
    assert "EN-2" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the rendered table


def test_exponent_table_pins_the_landscape():
    table = exponent_table()
    for token in ("18/5", "9/4", "4/10", "47/31", "Stein-Tomas",
                  "(2d+2)/(d-1)", "2d/(d-1)", "measured", "asymptotic",
                  "conjectured"):
        assert token in table, token
