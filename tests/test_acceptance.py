"""Acceptance gate: fifteen checks, one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Exact identities are held to 1e-9 (1e-6 where a
power iteration sits on one side), tracked constants to the stored
baseline under 2.0x slack, and the two heavyweight checks carry
explicit wall-clock budgets.  Nothing here is allowed to loosen a
tolerance to get green: a red line means the library broke.
"""

import itertools
import json
import time

import pytest

from fflab.combinatorics import (
    PointSet,
    additive_energy,
    closed_form_curve,
    energy_exponent_closed,
    energy_exponent_recurse,
    recursion_curve,
)
from fflab.core import PrimeField
from fflab.errors import OutOfValidityRange
from fflab.harness import exponent_table, run_scenario, sweep, reports_to_json
from fflab.cli import main as cli_main
from fflab.oracles import spectral_energy
from fflab.surfaces import hyperbolic_paraboloid

TOL = 1e-9


def _passes(sid, **kw):
    r = run_scenario(sid, **kw)
    assert r.status == "pass", (sid, kw, r.metric, r.witness)
    return r


def test_criterion_01_pointwise_transform_closed_forms():
    """Closed-form point values of the two surface transforms match the
    direct character sums everywhere, within budget."""
    t0 = time.perf_counter()
    for sid in ("FT-1", "FT-2"):
        for p, d in ((3, 3), (5, 3), (7, 3), (3, 5)):
            r = _passes(sid, prime=p, dim=d)
            assert r.metric < TOL, (sid, p, d, r.metric)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_02_operator_norm_matches_closed_form():
    for p in (3, 5):
        r = _passes("ST-3", prime=p, dim=3)
        assert r.metric < 1e-6, (p, r.metric)


def test_criterion_03_energy_counts_are_integer_exact():
    """The vectorized energy count agrees as an integer with EN-1's
    exhaustive count over every triple (fflab.oracles.brute_energy, which
    test_combinatorics.py checks against the literal triple loop) on 201
    random subsets across p in {3,5,7}, and with the spectral count
    (fflab.oracles.spectral_energy, Parseval over the transform) on every
    one of the 512 subsets of the nine-point saddle surface at p=3."""
    for p in (3, 5, 7):
        r = _passes("EN-1", prime=p, dim=3, trials=67)
        assert r.metric == 0.0, (p, r.metric)
    field = PrimeField(3)
    pts = sorted(map(tuple, hyperbolic_paraboloid(field, 3).point_array().tolist()))
    assert len(pts) == len(set(pts)) == 9
    for mask in range(512):
        subset = [pts[i] for i in range(9) if (mask >> i) & 1]
        E = PointSet.of(field, 3, subset)
        fast = additive_energy(E)
        spectral = spectral_energy(E)
        assert isinstance(fast, int) and isinstance(spectral, int)
        assert fast == spectral, (mask, fast, spectral)


def test_criterion_04_energy_ratio_baselines_hold():
    for sid in ("EN-2", "EN-3"):
        at_prov = run_scenario(sid, prime=3, dim=3, trials=1, seed=0)
        assert at_prov.status == "report_only"
        assert abs(at_prov.metric - at_prov.baseline_constant) <= TOL
        for p in (5, 7):
            _passes(sid, prime=p, dim=3)


def test_criterion_05_single_line_tube_identity_exhaustive():
    r = _passes("BR-1", prime=5, dim=3)
    assert r.metric < TOL


def test_criterion_06_slice_reflection_modulus_identity():
    r = _passes("MT-1", prime=5, dim=3, trials=100)
    assert r.metric < TOL


def test_criterion_07_planar_pushforward_identity():
    r = _passes("PL-1", prime=5, dim=3, trials=100)
    assert r.metric < TOL


def test_criterion_08_isotropy_index_all_diagonal_forms():
    for p, m in itertools.product((3, 5, 7), (2, 3, 4)):
        r = _passes("QF-1", prime=p, dim=m, trials=1)
        assert r.metric == 0.0, (p, m, r.metric)


def test_criterion_09_complement_pairing_gram_identity():
    # 17 trials x 6 parameter points > 100 random pairs
    for p, m in itertools.product((3, 5, 7), (2, 4)):
        r = _passes("QF-2", prime=p, dim=m, trials=17)
        assert r.metric < TOL, (p, m, r.metric)


def test_criterion_10_lifting_embed_closed_form():
    for p in (3, 5):
        r = _passes("KK-3", prime=p, dim=3, trials=50)
        assert r.metric < TOL, (p, r.metric)


def test_criterion_11_direction_maximal_baseline_and_budget():
    t0 = time.perf_counter()
    at_prov = run_scenario("KK-1", prime=3, dim=2, trials=1, seed=0)
    assert at_prov.status == "report_only"
    assert abs(at_prov.metric - at_prov.baseline_constant) <= TOL
    for p, m in itertools.product((5, 7, 11, 13), (2, 3)):
        _passes("KK-1", prime=p, dim=m)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_12_coset_split_extension_identity():
    r = _passes("MX-1", prime=5, dim=3)
    assert r.metric < TOL


def test_criterion_13_exponent_spot_values_and_recursion():
    cubic = closed_form_curve("dim3_witt1")
    quintic = closed_form_curve("dim5_witt2")
    assert cubic(0.75) == 2.5
    assert quintic(0.5625) == 2.875
    assert cubic(1.0) == 3.0 and quintic(1.0) == 3.0
    with pytest.raises(OutOfValidityRange):
        energy_exponent_closed("dim3_witt1", 0.5)
    assert cubic(0.5) == cubic(0.75)  # curve clamps at the window edge
    # degenerate-direction lift: theta(a) = 3a + psi(a) (1 - a)
    a = 0.8
    lifted = energy_exponent_recurse(cubic, a, variant="degenerate_lift")
    assert abs(lifted.value - (3 * a + cubic(a) * (1 - a))) < 1e-12
    # one self-improvement step stays monotone and is pinned at the
    # full-density endpoint
    rec = recursion_curve(cubic)
    vals = rec.psi_values
    assert all(y2 >= y1 - TOL for y1, y2 in zip(vals, vals[1:]))
    assert abs(rec(1.0) - 3.0) <= TOL
    for sid in ("EX-1", "EX-2"):
        r = _passes(sid)
        assert r.metric < TOL


def test_criterion_14_exponent_table_verbatim():
    _passes("MAIN-1")
    table = exponent_table()
    for token in ("18/5", "9/4", "4/10", "47/31", "Stein-Tomas",
                  "(2d+2)/(d-1)", "2d/(d-1)"):
        assert token in table, token


def test_criterion_15_sweeps_are_byte_identical(tmp_path):
    ids = ["FT-1", "ST-4", "EN-2", "EX-1", "KK-4"]
    r1, f1 = sweep(ids, [3, 5], [2, 3], seed=0)
    r2, f2 = sweep(ids, [3, 5], [2, 3], seed=0)
    assert not f1 and not f2
    assert reports_to_json(r1) == reports_to_json(r2)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["sweep", "--ids", ",".join(ids), "--primes", "3,5",
                         "--dims", "2,3", "--out", str(out)])
        assert code == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]
    json.loads(outs[0])  # stays parseable
