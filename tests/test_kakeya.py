"""Kakeya-side operators: maximal function, dual superposition, set audits,
and the two bridges from the restriction side.

Frozen constants and their provenance (each recomputed once by the literal
enumerations in this file, then pinned):

  * sqrt(3/2)    max L^2 maximal-operator ratio over all 511 indicator
                 subsets of F_3^2,
  * p**-0.25     max mixed extension ratio over every single-cap indicator
                 at d = 3, attained by full caps (exact at p = 3 and 5),
  * 3**0.25      restricted-transform norm of one isotropic coset in one
                 slice of the d = 3 bilinear surface at p = 3,
  * 3**(2/3)     the same for one full maximal isotropic coset of the
                 d = 5 bilinear surface at p = 3.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab.core import (
    FFunction,
    PrimeField,
    char_vector,
    coordinate_array,
    encode_point,
    inner,
    lp_norm,
)
from fflab.errors import NotIsotropicPair, SizeOverflow
from fflab.fourier import fourier_transform, inverse_transform
from fflab.harness import run_scenario, runners
from fflab.oracles import line_sum
from fflab.qforms import Subspace, complementary_isotropic, enumerate_max_isotropic
from fflab.surfaces import (
    SurfaceFunction,
    extension,
    hyperbolic_paraboloid,
    paraboloid,
    restriction,
)
from fflab.combinatorics import PointSet
from fflab import kakeya as kk

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def brute_maximal(F):
    """Literal per-direction, per-base line sums; the oracle for F*."""
    p = F.field.p
    n = F.dim - 1
    out = []
    for eta in coordinate_array(p, n):
        best = 0.0
        for b in coordinate_array(p, n):
            s = sum(
                abs(F.data[encode_point(tuple((b + t * eta) % p) + (t,), p)])
                for t in range(p)
            )
            best = max(best, s)
        out.append(best)
    return np.array(out)


def brute_superposition(h, x0, field, m):
    p = field.p
    out = np.zeros(p**m, dtype=complex)
    for di, eta in enumerate(coordinate_array(p, m - 1)):
        for t in range(p):
            x = tuple(int(c) for c in (x0[di] + t * eta) % p) + (t,)
            out[encode_point(x, p)] += h[di]
    return out / p ** (m - 1)


def line_indicator(field, base, direction):
    """Indicator of the line {(base + direction t, t)} in F_p^m."""
    pts = [tuple(b + t * e for b, e in zip(base, direction, strict=True)) + (t,)
           for t in range(field.p)]
    return FFunction.indicator(field, len(base) + 1, pts)


# ---------------------------------------------------------------------------
# lines


def test_affine_line_geometry():
    # the line index puts the point (b + eta t, t) of the line (b, eta)
    # at shift[heights[t, eta], b] + t p^n, reduced mod p
    shift, heights = kk._line_index(5, 2)
    for base, direction in (((3, 7), (1, 2)), ((1, 2), (0, 3))):
        b, eta = encode_point(base, 5), encode_point(direction, 5)
        got = [int(shift[heights[t, eta], b]) + t * 25 for t in range(5)]
        assert got == np.flatnonzero(line_indicator(F5, base, direction).data).tolist()
    assert line_indicator(F5, (3, 7), (1, 2)).data.sum() == 5
    # the origin is not on the line (3, 7) + t (1, 2)
    assert line_indicator(F5, (3, 7), (1, 2)).data[0] == 0


def test_distinct_directions_meet_in_at_most_one_point():
    a = line_indicator(F5, (1, 2), (0, 3))
    b = line_indicator(F5, (4, 0), (1, 3))
    both = a.data * b.data
    assert np.abs(both).sum() <= 1


# ---------------------------------------------------------------------------
# the maximal operator


@pytest.mark.parametrize("field,m", [(F3, 2), (F5, 2), (F3, 3), (F5, 3)])
def test_maximal_of_constant_is_p(field, m):
    star = kk.kakeya_maximal(FFunction.constant(field, m, 1.0))
    assert star.shape == (field.p ** (m - 1),)
    assert np.all(star == field.p)


def test_maximal_of_single_line():
    star = kk.kakeya_maximal(line_indicator(F3, (2,), (1,)))
    # full mass in its own direction, one crossing point in every other
    assert list(star) == [1.0, 3.0, 1.0]


@pytest.mark.parametrize("field,m,seed", [(F3, 2, 0), (F5, 2, 1), (F3, 3, 2), (F5, 3, 3)])
def test_maximal_matches_literal_search(field, m, seed):
    rng = np.random.default_rng(seed)
    F = FFunction.random(field, m, rng)
    assert np.allclose(kk.kakeya_maximal(F), brute_maximal(F))


def test_maximal_scaling_covariance_exact():
    rng = np.random.default_rng(4)
    F = FFunction.random(F5, 2, rng)
    star = kk.kakeya_maximal(F)
    assert np.array_equal(kk.kakeya_maximal(FFunction(F5, 2, F.data * 4.0)), 4.0 * star)
    assert np.allclose(kk.kakeya_maximal(FFunction(F5, 2, F.data * 1.5j)), 1.5 * star)


def test_maximizing_base_map_achieves_the_max():
    rng = np.random.default_rng(5)
    F = FFunction.random(F5, 3, rng)
    star = kk.kakeya_maximal(F)
    bases = kk.maximizing_base_map(F)
    for di, eta in enumerate(coordinate_array(5, 2)):
        assert line_sum(F, bases[di], eta, absolute=True) == pytest.approx(star[di])


@pytest.mark.parametrize("field,m,seed", [(F3, 2, 11), (F5, 3, 12)])
def test_line_totals_match_line_sums(field, m, seed):
    rng = np.random.default_rng(seed)
    F = FFunction.random(field, m, rng)
    totals = kk.line_totals(F)
    coords = coordinate_array(field.p, m - 1)
    assert totals.shape == (len(coords), len(coords))
    for di, eta in enumerate(coords):
        for bi, b in enumerate(coords):
            assert totals[di, bi] == pytest.approx(line_sum(F, b, eta, absolute=True))


def _per_t_line_totals(F: FFunction) -> np.ndarray:
    """Oracle for line_totals: one encode of b + t eta per height t, added
    in order of t."""
    p, n = F.field.p, F.dim - 1
    mags = np.abs(F.data).reshape(p**n, p, order="F")
    coords = coordinate_array(p, n)
    totals = np.zeros((p**n, p**n), dtype=np.float64)
    for t in range(p):
        totals += mags[encode_point(coords[None, :, :] + t * coords[:, None, :], p), t]
    return totals


@pytest.mark.parametrize("p,m", [(3, 2), (5, 3), (13, 3), (3, 5), (5, 5)])
def test_line_totals_bit_identical_to_per_t_gather(p, m):
    field = PrimeField(p)
    F = FFunction.random(field, m, np.random.default_rng(100 * p + m))
    assert np.array_equal(kk.line_totals(F), _per_t_line_totals(F))


def _all_indicators(p, m):
    """Every nonempty subset of F_p^m as a stack of complex indicator rows:
    KK-1's exhaustive family at its provenance (3, 2)."""
    n = p**m
    return ((np.arange(1, 2**n)[:, None] & (1 << np.arange(n))) != 0).astype(complex)


@pytest.mark.parametrize("p,m,c", [(13, 3, 1), (3, 2, 511), (7, 3, 11), (11, 3, 3)])
def test_line_totals_of_a_stack_are_those_of_each_row(p, m, c):
    # a stack of one at (13, 3), the (3, 2) mask family and KK-1's stacks
    # of random indicators: every function of the maximal layer gives each
    # row of a stack the bits of that row alone
    field = PrimeField(p)
    if (p, m) == (3, 2):
        data = _all_indicators(p, m)
    else:
        rng = np.random.default_rng(p * 10 + m)
        data = (rng.random((c, p**m)) < 0.5).astype(complex)
        data[:, 0] = 1.0
    assert data.shape == (c, p**m)
    F = FFunction(field, m, data)
    rows = [FFunction(field, m, row) for row in data]
    totals = kk.line_totals(F)
    assert totals.shape == (c, p ** (m - 1), p ** (m - 1))
    assert np.array_equal(totals, np.stack([kk.line_totals(r) for r in rows]))
    assert np.array_equal(totals[0], _per_t_line_totals(rows[0]))
    assert np.array_equal(kk.kakeya_maximal(F),
                          np.stack([kk.kakeya_maximal(r) for r in rows]))
    assert np.array_equal(kk.maximizing_base_map(F),
                          np.stack([kk.maximizing_base_map(r) for r in rows]))
    assert kk.maximal_ratio(F).tolist() == [kk.maximal_ratio(r) for r in rows]
    with pytest.raises(ValueError):
        kk.maximal_ratio(FFunction(field, m, np.vstack([data, np.zeros(p**m)])))


def test_line_index_is_built_once_and_read_only():
    F = FFunction.random(F5, 3, np.random.default_rng(7))
    first = kk.line_totals(F)
    shift, heights = kk._line_index(5, 2)
    assert kk._line_index(5, 2)[0] is shift and kk._line_index(5, 2)[1] is heights
    for table in (shift, heights):
        with pytest.raises(ValueError):
            table[0, 0] = 1
    # the totals themselves are a fresh array on every call
    again = kk.line_totals(F)
    assert again is not first and again.flags.writeable
    assert np.array_equal(again, first)


def _literal_line_load(sel, p):
    """The most points of {(s % p, s // p) : s in sel} on one affine line
    of F_p^2, by a loop over the p lines u = c and the p^2 lines
    v = a u + b."""
    u, v = sel % p, sel // p
    best = max(int((u == c).sum()) for c in range(p))
    for a in range(p):
        for b in range(p):
            best = max(best, int(((v - a * u - b) % p == 0).sum()))
    return best


@pytest.mark.parametrize("p", [3, 5, 7])
def test_br2_reads_the_largest_load_on_any_planar_line(monkeypatch, p):
    # BR-2 takes its line loads from line_totals, which leaves out the p
    # horizontal lines, plus a bincount for those; its runner is fed
    # random supports and each yielded u must match the literal loop
    rng = np.random.default_rng(p)
    sels = [np.sort(rng.choice(p * p, size=int(rng.integers(1, p * p + 1)),
                               replace=False)) for _ in range(60)]
    fed = iter(sels)
    monkeypatch.setattr(runners, "_random_support", lambda rng, total, k: next(fed))
    ctx = runners.RunContext("BR-2", p, 3, 3 + len(sels), 0)
    fixed = [np.arange(p * p), np.array([0]), np.arange(p)]
    got = [case["u"] for _, case in runners._run_br2(ctx)]
    assert got == [math.log(_literal_line_load(sel, p)) / math.log(p)
                   for sel in fixed + sels]


def test_maximizing_base_map_breaks_ties_on_smallest_base():
    # every line of a constant function carries the same mass
    bases = kk.maximizing_base_map(FFunction.constant(F5, 3, 1.0))
    assert np.array_equal(bases, np.zeros((25, 2), dtype=np.int64))


def test_maximal_guards():
    with pytest.raises(ValueError):
        kk.kakeya_maximal(FFunction.constant(F3, 1, 1.0))
    with pytest.raises(SizeOverflow):
        kk.kakeya_maximal(FFunction.zeros(PrimeField(11), 6))


def test_maximal_ratio_of_constant_is_one():
    for field, m in [(F3, 2), (F5, 2), (F3, 3)]:
        assert kk.maximal_ratio(FFunction.constant(field, m, 1.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        kk.maximal_ratio(FFunction.zeros(F3, 2))


def test_maximal_ratio_averages_over_the_directions():
    # the direction side carries normalized counting measure: the mean of
    # (F*)^m over the p^{m-1} directions, not their sum
    rng = np.random.default_rng(3)
    for field, m in [(F3, 2), (F5, 2), (F3, 3), (F5, 3)]:
        F = FFunction.random(field, m, rng)
        star = kk.kakeya_maximal(F)
        want = np.mean(star ** m) ** (1 / m) / lp_norm(F.data, m)
        assert kk.maximal_ratio(F) == pytest.approx(want, rel=1e-12)


def test_maximal_ratio_exhaustive_baseline_p3():
    grid = [(a, b) for a in range(3) for b in range(3)]
    best = 0.0
    for r in range(1, 10):
        for sub in itertools.combinations(grid, r):
            best = max(best, kk.maximal_ratio(FFunction.indicator(F3, 2, sub)))
    assert best == pytest.approx(math.sqrt(1.5), abs=1e-12)


@pytest.mark.parametrize("field,m", [(F5, 2), (F7, 2), (F3, 3), (F5, 3)])
def test_maximal_ratio_stays_under_protocol_slack(field, m):
    rng = np.random.default_rng(field.p * 10 + m)
    for _ in range(60):
        mask = rng.random(field.p**m) < rng.uniform(0.05, 0.95)
        if not mask.any():
            continue
        F = FFunction(field, m, mask.astype(complex))
        assert kk.maximal_ratio(F) <= 2.0 * math.sqrt(1.5)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.floats(0, 1), min_size=9, max_size=9),
    base=st.tuples(st.integers(0, 2)),
    direction=st.tuples(st.integers(0, 2)),
)
def test_maximal_dominates_every_line_sum(data, base, direction):
    F = FFunction(F3, 2, np.array(data, dtype=complex))
    star = kk.kakeya_maximal(F)
    di = encode_point(direction, 3)
    assert line_sum(F, base, direction, absolute=True) <= star[di] + 1e-12


# ---------------------------------------------------------------------------
# the dual superposition


def test_dual_delta_weight_is_one_line():
    h = np.array([0.0, 1.0, 0.0])
    out = kk.dual_kakeya_apply(h, np.zeros((3, 1), dtype=int), F3, 2)
    assert np.allclose(out.data, line_indicator(F3, (0,), (1,)).data / 3)


def test_dual_constant_weight_counts_directions_through_x():
    # x0 == 0 sends every line through the origin: a bush.  At t = 0 the
    # origin collects all p directions, every other point exactly one.
    out = kk.dual_kakeya_apply(np.ones(3), np.zeros((3, 1), dtype=int), F3, 2)
    grid = out.data.real.reshape(3, 3, order="F")
    assert grid[0, 0] == pytest.approx(1.0)
    assert np.allclose(grid[1:, 0], 0.0)
    assert np.allclose(grid[:, 1:], 1 / 3)


@pytest.mark.parametrize("field,m,seed", [(F3, 2, 6), (F5, 2, 7), (F3, 3, 8),
                                          (F5, 3, 9), (PrimeField(13), 3, 10)])
def test_dual_matches_literal_superposition(field, m, seed):
    # each point adds its weights in direction order, as the literal loop
    # does, so the bits agree, not just the values
    rng = np.random.default_rng(seed)
    n = m - 1
    h = rng.standard_normal(field.p**n) + 1j * rng.standard_normal(field.p**n)
    x0 = rng.integers(0, field.p, size=(field.p**n, n))
    out = kk.dual_kakeya_apply(h, x0, field, m)
    assert out.data.tobytes() == brute_superposition(h, x0, field, m).tobytes()


def test_dual_pairing_reconstructs_line_sums():
    rng = np.random.default_rng(9)
    G = FFunction.random(F5, 2, rng).abs()
    h = rng.random(5)
    x0 = rng.integers(0, 5, size=(5, 1))
    paired = inner(kk.dual_kakeya_apply(h, x0, F5, 2).data, G.data)
    direct = sum(
        h[di] * line_sum(G, x0[di], eta, absolute=True)
        for di, eta in enumerate(coordinate_array(5, 1))
    ) / 5
    assert paired == pytest.approx(direct)


@pytest.mark.parametrize("q,p_exp", [(1.5, 1.5), (2.0, 2.0), (1.25, 3.0)])
def test_dual_consistency_recovers_the_direct_bound(q, p_exp):
    rng = np.random.default_rng(10)
    for field, m in [(F3, 2), (F5, 2), (F3, 3)]:
        F = FFunction.random(field, m, rng)
        (res,) = kk.dual_consistency(F, [(q, p_exp)])
        assert res.paired_lower == pytest.approx(res.direct_lower, abs=1e-6)
        # the superposition's own norm ratio can only be larger (Hölder)
        G = F.abs()
        h = kk.kakeya_maximal(G) ** (1.0 / (q - 1.0))
        superpos = kk.dual_kakeya_apply(h, kk.maximizing_base_map(G), field, m)
        dual_ratio = lp_norm(superpos.data, p_exp) / lp_norm(h, q, "normalized")
        assert dual_ratio >= res.paired_lower - 1e-9


def test_dual_consistency_guards():
    with pytest.raises(ValueError):
        kk.dual_consistency(FFunction.zeros(F3, 2), [(1.5, 1.5)])
    with pytest.raises(ValueError):
        kk.dual_consistency(FFunction.constant(F3, 2, 1.0), [(2.0, 2.0), (1.0, 1.5)])


@pytest.mark.parametrize("field,m,c", [(F3, 2, 5), (F7, 3, 11), (F5, 3, 1)])
def test_dual_consistency_of_a_stack_is_that_of_each_row(field, m, c):
    # KK-2's pairs on a stack share one maximal function and one base map,
    # and give each row the bits of that row alone
    pairs = ((1.5, 1.5), (2.0, 2.0), (1.25, 3.0))
    rng = np.random.default_rng(field.p * 10 + m)
    F = FFunction(field, m, rng.uniform(0.1, 1.0, (c, field.p**m)).astype(complex))
    stacked = kk.dual_consistency(F, pairs)
    assert len(stacked) == len(pairs)
    for i, row in enumerate(F.data):
        for got, want in zip(stacked, kk.dual_consistency(FFunction(field, m, row), pairs)):
            assert (got.direct_lower[i], got.paired_lower[i]) == tuple(want)


def test_dual_kakeya_apply_maps_a_stack_row_by_row():
    rng = np.random.default_rng(21)
    h = rng.random((4, 25)) + 1j * rng.random((4, 25))
    x0 = rng.integers(0, 5, size=(4, 25, 2))
    got = kk.dual_kakeya_apply(h, x0, F5, 3)
    assert np.array_equal(got.data, np.stack(
        [kk.dual_kakeya_apply(w, b, F5, 3).data for w, b in zip(h, x0)]))
    with pytest.raises(ValueError):
        kk.dual_kakeya_apply(h, x0[:3], F5, 3)


def test_dual_endpoint_exhaustive_under_envelope_p3():
    # every indicator weight, every base map on its support, m = 2
    q = 1.5
    best = 0.0
    for r in range(1, 4):
        for D in itertools.combinations(range(3), r):
            for bases in itertools.product(range(3), repeat=r):
                hv = np.zeros(3, dtype=complex)
                x0 = np.zeros((3, 1), dtype=int)
                for d, b in zip(D, bases):
                    hv[d] = 1.0
                    x0[d, 0] = b
                out = kk.dual_kakeya_apply(hv, x0, F3, 2)
                ratio = (lp_norm(out.data, q, "counting")
                         / lp_norm(hv, q, "normalized"))
                best = max(best, ratio)
    assert best <= 2.0 * 3 ** (1 / 3)
    assert best > 3 ** (1 / 3)  # the envelope is not slack by more than 2x


def test_dual_endpoint_random_under_envelope_p5():
    rng = np.random.default_rng(11)
    q = 1.5
    for _ in range(200):
        mask = rng.random(5) < rng.uniform(0.2, 1.0)
        if not mask.any():
            continue
        x0 = rng.integers(0, 5, size=(5, 1))
        out = kk.dual_kakeya_apply(mask.astype(complex), x0, F5, 2)
        ratio = (lp_norm(out.data, q, "counting")
                 / lp_norm(mask.astype(float), q, "normalized"))
        assert ratio <= 2.0 * 5 ** (1 / 3)


# ---------------------------------------------------------------------------
# Kakeya sets


def test_full_grid_is_a_kakeya_set():
    pts = [(a, b) for a in range(3) for b in range(3)]
    audit = kk.kakeya_set_audit(PointSet.of(F3, 2, pts))
    assert audit.is_kakeya and audit.density == 1.0
    assert audit.missing.shape == (0, 2)


@pytest.mark.parametrize("field,m", [(F3, 2), (F3, 3), (F5, 2), (F5, 3)])
def test_standard_construction_is_witnessed_and_small(field, m):
    E = kk.standard_kakeya_set(field, m)
    p = field.p
    assert len(E) == p * ((p + 1) // 2) ** (m - 1)
    audit = kk.kakeya_set_audit(E)
    assert audit.is_kakeya and audit.missing.shape == (0, m)
    assert audit.density == len(E) / p**m < 1.0


@pytest.mark.parametrize("field,m", [(F3, 2), (F3, 3), (F5, 2), (F5, 3), (F7, 3)])
def test_standard_set_contains_the_squared_base_line_in_every_direction(field, m):
    # The construction's certificate, walked point by point: the line
    # based at (eta_1^2, ..., eta_{m-1}^2) with direction eta.
    E = kk.standard_kakeya_set(field, m)
    members = set(E.index.tolist())
    p = field.p
    for eta in itertools.product(range(p), repeat=m - 1):
        for t in range(p):
            pt = tuple((e * e + t * e) % p for e in eta) + (t,)
            assert encode_point(pt, p) in members, (eta, pt)


def test_kakeya_sets_need_two_dimensions():
    with pytest.raises(ValueError):
        kk.standard_kakeya_set(F3, 1)
    with pytest.raises(ValueError):
        kk.kakeya_set_audit(PointSet.of(F3, 1, [(0,)]))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("m", [2, 3])
def test_density_floor_holds_for_standard_sets(p, m):
    E = kk.standard_kakeya_set(PrimeField(p), m)
    assert kk.kakeya_set_audit(E).density >= kk.dvir_envelope(m)


def test_audit_agrees_with_hand_search_on_random_sets():
    rng = np.random.default_rng(12)
    for _ in range(25):
        pts = [tuple(map(int, r)) for r in np.argwhere(rng.random((3, 3)) < 0.5)]
        if not pts:
            continue
        audit = kk.kakeya_set_audit(PointSet.of(F3, 2, pts))
        expected_missing = []
        for eta in range(3):
            if not any(
                all((b + eta * t) % 3 in {x for x, s in pts if s == t} for t in range(3))
                for b in range(3)
            ):
                expected_missing.append((eta, 1))
        assert audit.is_kakeya == (not expected_missing)
        assert audit.missing.tolist() == [list(r) for r in expected_missing]


def test_dvir_envelope_values():
    assert kk.dvir_envelope(2) == 0.5
    assert kk.dvir_envelope(3) == pytest.approx(1 / 6)


# ---------------------------------------------------------------------------
# restriction side -> Kakeya side


def _collapse_profile(h, b):
    """The (x1, t) line profile p^{-n} sum_theta h(theta) 1_{l(b(-theta),-theta)}
    as an (x1, t) array: the dual superposition of the direction-reversed
    weights against b."""
    p, n = h.field.p, h.dim
    rev = encode_point(-coordinate_array(p, n), p)
    out = kk.dual_kakeya_apply(h.data[rev], b, h.field, n + 1)
    return out.data.real.reshape(p**n, p, order="F")


def _embed_deviations(h, f, b):
    """Max deviations of extension(f) from embed_closed_form(h, b) and of
    its squared x2-collapse from the dual superposition of h(-.) on b."""
    p, n = h.field.p, h.dim
    ext = extension(f)
    closed = np.abs(ext.data - kk.embed_closed_form(h, b).data).max()
    cube = np.abs(ext.data.reshape(p**n, p**n, p, order="F")) ** 2
    return closed, np.abs(cube.sum(axis=1) - _collapse_profile(h, b)).max()


def _literal_closed_form(h, b):
    """Oracle: p^{-n} sum_theta sqrt(h(theta)) 1_{l(b(-theta),-theta)}(x1,t)
    e(theta.x2), one line at a time: for each theta and t, the point
    b(-theta) - t theta of x1 gets the ring of characters over x2."""
    field, n = h.field, h.dim
    p = field.p
    hv = h.data.real
    out = FFunction.zeros(field, 2 * n + 1)
    chars = char_vector(field)
    x2_grid = coordinate_array(p, n)
    x2_offsets = encode_point(x2_grid, p) * p**n
    for ti, theta in enumerate(coordinate_array(p, n)):
        w = math.sqrt(hv[ti])
        if w == 0.0:
            continue
        bb = np.asarray(b)[encode_point(-theta, p)]
        ring = chars[(x2_grid @ theta) % p] * w
        for t in range(p):
            start = encode_point(bb - t * theta, p)
            out.data[start + x2_offsets + t * p ** (2 * n)] += ring
    out.data /= p**n
    return out


@pytest.mark.parametrize("p,n", itertools.product((3, 5, 7), (1, 2)))
def test_embed_closed_form_matches_literal_loop(p, n):
    field = PrimeField(p)
    rng = np.random.default_rng(p * 10 + n)
    data = rng.uniform(0.0, 2.0, size=p**n)
    data[rng.random(p**n) < 0.2] = 0.0
    h = FFunction(field, n, data.astype(complex))
    b = rng.integers(0, p, size=(p**n, n))
    got = kk.embed_closed_form(h, b)
    assert got.dim == 2 * n + 1
    assert np.abs(got.data - _literal_closed_form(h, b).data).max() < 1e-12


@pytest.mark.parametrize("p", [3, 5])
def test_embed_certifies_random_weight_and_base(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    theta_of_base = coordinate_array(p, 2)[:, 1]
    for _ in range(100):
        h = FFunction(field, 1, rng.random(p).astype(complex))
        b = rng.integers(0, p, size=(p, 1))
        f = kk.restriction_to_kakeya_embed(h, b)
        want = np.sqrt(h.data.real)[theta_of_base]
        assert np.allclose(np.abs(f.values), want, atol=1e-12)
        closed, collapse = _embed_deviations(h, f, b)
        assert closed < 1e-9 and collapse < 1e-9


def test_embed_certifies_two_base_dimensions():
    rng = np.random.default_rng(13)
    h = FFunction(F3, 2, rng.random(9).astype(complex))
    b = rng.integers(0, 3, size=(9, 2))
    f = kk.restriction_to_kakeya_embed(h, b)
    assert f.surface.ambient_dim == 5
    closed, collapse = _embed_deviations(h, f, b)
    assert closed < 1e-9 and collapse < 1e-9


def test_embed_flat_weight_zero_base_pattern():
    # h == 1, b == 0: the extension concentrates at the origin delta for
    # t = 0 and spreads at modulus 1/p along one line point per (x1, t != 0)
    h = FFunction.constant(F3, 1, 1.0)
    b = np.zeros((3, 1), dtype=int)
    f = kk.restriction_to_kakeya_embed(h, b)
    ext = extension(f)
    mods = np.abs(ext.data).reshape(3, 3, 3, order="F")  # (x1, x2, t)
    assert mods[0, 0, 0] == pytest.approx(1.0)
    assert np.allclose(mods[1:, :, 0], 0.0) and np.allclose(mods[0, 1:, 0], 0.0)
    assert np.allclose(mods[:, :, 1:], 1 / 3)


def test_embed_closed_form_matches_extension_route():
    rng = np.random.default_rng(14)
    for p in (3, 5):
        field = PrimeField(p)
        h = FFunction(field, 1, rng.random(p).astype(complex))
        b = rng.integers(0, p, size=(p, 1))
        f = kk.restriction_to_kakeya_embed(h, b)
        direct = kk.embed_closed_form(h, b)
        assert np.abs(extension(f).data - direct.data).max() < 1e-9


def test_embed_collapse_matches_squared_extension():
    rng = np.random.default_rng(16)
    p = 5
    field = PrimeField(p)
    h = FFunction(field, 1, rng.random(p).astype(complex))
    b = rng.integers(0, p, size=(p, 1))
    ext = extension(kk.restriction_to_kakeya_embed(h, b))
    cube = np.abs(ext.data.reshape(p, p, p, order="F")) ** 2
    assert np.abs(cube.sum(axis=1) - _collapse_profile(h, b)).max() < 1e-9


@pytest.mark.parametrize("p,n,c", [(3, 1, 15), (5, 1, 15), (3, 2, 7)])
def test_embed_maps_a_stack_row_by_row(p, n, c):
    # one surface for the stack, and each row's function and extension
    # with the bits of one call per row
    field = PrimeField(p)
    rng = np.random.default_rng(p * 10 + n)
    h = FFunction(field, n, rng.uniform(0.0, 2.0, (c, p**n)).astype(complex))
    b = rng.integers(0, p, size=(c, p**n, n))
    f = kk.restriction_to_kakeya_embed(h, b)
    rows = [kk.restriction_to_kakeya_embed(FFunction(field, n, w), x)
            for w, x in zip(h.data, b)]
    assert f.surface.ambient_dim == 2 * n + 1
    assert np.array_equal(f.values, np.stack([r.values for r in rows]))
    assert np.array_equal(extension(f).data, np.stack([extension(r).data for r in rows]))
    closed = [kk.embed_closed_form(FFunction(field, n, w), x).data
              for w, x in zip(h.data, b, strict=True)]
    assert np.array_equal(kk.embed_closed_form(h, b).data, np.stack(closed))
    with pytest.raises(ValueError):
        kk.restriction_to_kakeya_embed(h, b[0])
    with pytest.raises(ValueError):
        kk.embed_closed_form(h, b[0])


def test_embed_input_validation():
    with pytest.raises(ValueError):
        kk.restriction_to_kakeya_embed(np.ones(3), np.zeros((3, 1), dtype=int))
    for neg in ([-1.0, 0, 0], [1.0, -1e-13, 0.5]):
        h_neg = FFunction(F3, 1, np.array(neg, dtype=complex))
        with pytest.raises(ValueError):
            kk.restriction_to_kakeya_embed(h_neg, np.zeros((3, 1), dtype=int))
    h_cplx = FFunction(F3, 1, np.array([1j, 0, 0]))
    with pytest.raises(ValueError):
        kk.restriction_to_kakeya_embed(h_cplx, np.zeros((3, 1), dtype=int))


def test_exponent_chain_values():
    ex = kk.restriction_to_kakeya_exponents(2)
    assert ex.dual_q == Fraction(3, 2)
    assert ex.restriction_q == Fraction(3)
    assert ex.prefactor == Fraction(1, 3) and ex.endpoint == Fraction(1, 3)
    ex = kk.restriction_to_kakeya_exponents(3)
    assert ex.dual_q == Fraction(5, 4)
    assert ex.restriction_q == Fraction(5, 2)
    assert ex.prefactor == ex.endpoint == Fraction(2, 5)
    for m in range(2, 9):
        ex = kk.restriction_to_kakeya_exponents(m)
        # consuming the surface estimate at the dual pair leaves exactly the
        # conjectured Kakeya endpoint as the power of p
        assert ex.prefactor == ex.endpoint == Fraction(m - 1, 2 * m - 1)
        assert ex.restriction_q == 2 * ex.dual_q
    with pytest.raises(ValueError):
        kk.restriction_to_kakeya_exponents(1)


# ---------------------------------------------------------------------------
# coset reparameterization


def test_coset_extension_matches_extension_skew_pair():
    S = paraboloid(F5, 3)
    W = Subspace(F5, [[1, 2]])
    V = Subspace(F5, [[1, 3]])
    rng = np.random.default_rng(17)
    for _ in range(20):
        f = SurfaceFunction.random(S, rng)
        err = np.abs(kk.coset_extension(f, W, V).data - extension(f).data).max()
        assert err < 1e-9


@pytest.mark.parametrize("d", [3, 5])
def test_coset_extension_matches_extension_coordinate_pair(d):
    S = hyperbolic_paraboloid(F3, d)
    n = (d - 1) // 2
    eye = np.eye(2 * n, dtype=int)
    W = Subspace(F3, eye[:n])
    V = Subspace(F3, eye[n:])
    rng = np.random.default_rng(18)
    for _ in range(10):
        f = SurfaceFunction.random(S, rng)
        err = np.abs(kk.coset_extension(f, W, V).data - extension(f).data).max()
        assert err < 1e-9


def _iso_pair_surface(p, d):
    F = PrimeField(p)
    S = paraboloid(F, d) if p % 4 == 1 else hyperbolic_paraboloid(F, d)
    W = enumerate_max_isotropic(S.Q)[0]
    return S, W, complementary_isotropic(S.Q, W)


def _coset_extension_oracle(f, W, V):
    """Literal double sum over (xi1, xi2) in W x V, one base point x at a
    time: p^{-2n} sum f(xi1 + xi2) e(xi1 . x + xi2 . x + 2 t B(xi1, xi2))."""
    S = f.surface
    p = S.field.p
    xi1, xi2 = W.point_array(), V.point_array()
    fvals = f.values[encode_point(xi1[:, None, :] + xi2[None, :, :], p)]
    B = xi1 @ S.Q.A @ xi2.T
    base = coordinate_array(p, S.base_dim)
    out = np.zeros(p ** S.ambient_dim, dtype=complex)
    for t in range(p):
        for ix, x in enumerate(base):
            phase = (xi1 @ x)[:, None] + (xi2 @ x)[None, :] + 2 * t * B
            out[t * len(base) + ix] = np.einsum(
                "ij,ij->", fvals, np.exp(2j * np.pi * (phase % p) / p))
    return out / p ** S.base_dim


@pytest.mark.parametrize("p,d", [(3, 3), (3, 5), (5, 3), (5, 5), (7, 3), (13, 3)])
def test_coset_extension_matches_literal_double_sum(p, d):
    S, W, V = _iso_pair_surface(p, d)
    f = SurfaceFunction.random(S, np.random.default_rng(19))
    err = np.abs(kk.coset_extension(f, W, V).data - _coset_extension_oracle(f, W, V)).max()
    assert err < 1e-12


@pytest.mark.parametrize("p,d", [(3, 3), (5, 5), (13, 3)])
def test_coset_slabs_stack_to_coset_extension(p, d):
    S, W, V = _iso_pair_surface(p, d)
    f = SurfaceFunction.random(S, np.random.default_rng(23))
    slabs = list(kk.coset_slabs(f, W, V))
    assert len(slabs) == p
    assert np.array_equal(np.stack(slabs).reshape(-1), kk.coset_extension(f, W, V).data)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coset_extension_allocation_stays_small():
    # At (13, 5) the output grid is 5.7 MiB and the route adds one
    # (p^n, p^n) slice with its transform scratch, about 8 MiB in all.
    # Batched (p, p^n, p^n) matrix products peaked near 25 MiB, and the
    # (|W|, p^{2n}) character tables contracted directly near 230 MiB.
    S, W, V = _iso_pair_surface(13, 5)
    f = SurfaceFunction.random(S, np.random.default_rng(20))
    assert _traced_peak(lambda: kk.coset_extension(f, W, V)) < 10 * 2**20


def test_extension_allocation_stays_small():
    # One 5.7 MiB grid, transformed in place, plus one scratch array of
    # the same size; a transform that copies on every round peaked near
    # 23 MiB.
    S, _, _ = _iso_pair_surface(13, 5)
    f = SurfaceFunction.random(S, np.random.default_rng(21))
    assert _traced_peak(lambda: extension(f)) < 12.5 * 2**20


def test_mx1_allocation_stays_small():
    # Both routes stream the extension one height slab at a time and the
    # run compares one slab pair in place, so it holds no full 5.7 MiB
    # grid; what is left is the two slab generators' buffers.  Comparing
    # two full grids peaked near 16 MiB, and enumerating the isotropic
    # planes in one batch on a surface that held its point rows near 7.2.
    assert _traced_peak(lambda: run_scenario("MX-1", prime=13, dim=5)) < 6.5 * 2**20


def test_transforms_leave_their_inputs_alone():
    S, W, V = _iso_pair_surface(5, 5)
    rng = np.random.default_rng(22)
    F = FFunction.random(S.field, S.ambient_dim, rng)
    f = SurfaceFunction.random(S, rng)
    calls = [
        (F.data, lambda: fourier_transform(F)),
        (F.data, lambda: inverse_transform(F)),
        (f.values, lambda: extension(f)),
        (f.values, lambda: kk.coset_extension(f, W, V)),
    ]
    for data, call in calls:
        before = data.copy()
        out = call().data
        assert np.array_equal(data, before)
        assert not np.shares_memory(out, data)


def test_coset_extension_of_delta_has_flat_modulus():
    S = hyperbolic_paraboloid(F3, 5)
    W = Subspace(F3, np.eye(4, dtype=int)[:2])
    V = Subspace(F3, np.eye(4, dtype=int)[2:])
    delta = SurfaceFunction.from_surface_points(S, [S.lift((1, 2, 0, 1))])
    out = kk.coset_extension(delta, W, V)
    assert np.allclose(np.abs(out.data), 3.0**-4)


def test_coset_extension_rejects_bad_pairs():
    S = paraboloid(F5, 3)
    f = SurfaceFunction(S, np.ones(S.size))
    with pytest.raises(NotIsotropicPair):
        kk.coset_extension(f, Subspace(F5, [[1, 0]]), Subspace(F5, [[0, 1]]))
    with pytest.raises(NotIsotropicPair):
        kk.coset_extension(f, Subspace(F5, [[1, 2]]), Subspace(F5, [[1, 2]]))
    S5 = hyperbolic_paraboloid(F3, 5)
    f5 = SurfaceFunction(S5, np.ones(S5.size))
    with pytest.raises(NotIsotropicPair):
        kk.coset_extension(
            f5, Subspace(F3, [[1, 0, 0, 0]]), Subspace(F3, np.eye(4, dtype=int)[2:])
        )
    with pytest.raises(NotIsotropicPair):
        kk.coset_extension(
            f5,
            Subspace(F3, np.eye(4, dtype=int)[:2], translate=(0, 0, 0, 1)),
            Subspace(F3, np.eye(4, dtype=int)[2:]),
        )


def test_coset_extension_needs_even_base():
    S = paraboloid(F3, 4)  # base dimension 3
    with pytest.raises(ValueError):
        kk.coset_extension(
            SurfaceFunction(S, np.ones(S.size)),
            Subspace(F3, [[1, 0, 0]]),
            Subspace(F3, [[0, 1, 0]]),
        )


# ---------------------------------------------------------------------------
# mixed norms


def brute_mixed(F, W, V, q, pe):
    p = F.field.p
    total = 0.0
    for v in V.point_array():
        for t in range(p):
            s = sum(
                abs(F.data[encode_point(tuple((w + v) % p) + (t,), p)]) ** pe
                for w in W.point_array()
            )
            total += s ** (q / pe)
    return total ** (1 / q)


def _standard_split(p, kV, kW):
    F = PrimeField(p)
    eye = np.eye(kV + kW, dtype=np.int64)
    return Subspace(F, eye[:kV]), Subspace(F, eye[kV:])


def test_mixed_norm_single_point():
    _, W = _standard_split(3, 1, 1)
    f = FFunction.delta(F3, 3, (1, 2, 0))
    for q in (1, 2, 4):
        assert kk.mixed_norm(f, W, q) == pytest.approx(1.0)


def test_mixed_norm_constant_function():
    p = 3
    _, W = _standard_split(p, 1, 2)
    q = 3.0
    one = FFunction.constant(F3, 4, 1.0)
    # (p cosets of W x p heights)^{1/q} |W|^{1/2}
    want = (p * p) ** (1 / q) * (p * p) ** (1 / 2)
    assert kk.mixed_norm(one, W, q) == pytest.approx(want)
    # normalized measure on the surface: both layers average to 1
    ones = SurfaceFunction(paraboloid(F3, 4), np.ones(27))
    assert kk.surface_mixed_norm(ones, W, q) == pytest.approx(1.0)


def test_mixed_norm_collapses_to_lp_when_exponents_match():
    rng = np.random.default_rng(19)
    W = Subspace(F5, [[1, 0]])
    for _ in range(3):
        F = FFunction.random(F5, 3, rng)
        assert kk.mixed_norm(F, W, 2.0) == pytest.approx(lp_norm(F.data, 2.0, "counting"))
    S = hyperbolic_paraboloid(F5, 3)
    f = SurfaceFunction.random(S, rng)
    assert kk.surface_mixed_norm(f, W, 2.0) == pytest.approx(f.norm(2.0))


@pytest.mark.parametrize(
    "wrow,vrow", [([1, 0], [0, 1]), ([1, 2], [1, 3]), ([1, 4], [0, 1])]
)
def test_mixed_norm_matches_literal_loop(wrow, vrow):
    # the norm depends on W alone: the literal loop agrees with it through
    # two different complements of W, V and the line through vrow + wrow
    rng = np.random.default_rng(20)
    W = Subspace(F5, [wrow])
    complements = [Subspace(F5, [vrow]), Subspace(F5, [np.add(vrow, wrow)])]
    assert complements[0] != complements[1]
    for _ in range(3):
        F = FFunction.random(F5, 3, rng)
        got = kk.mixed_norm(F, W, 3.0)
        for V in complements:
            assert got == pytest.approx(brute_mixed(F, W, V, 3.0, 2.0))


def test_surface_mixed_norm_literal():
    rng = np.random.default_rng(21)
    S = hyperbolic_paraboloid(F3, 3)
    W = Subspace(F3, [[1, 0]])
    V = Subspace(F3, [[0, 1]])
    f = SurfaceFunction.random(S, rng)
    p = 3
    total = 0.0
    for v in V.point_array():
        s = sum(abs(f.values[encode_point((w + v) % p, p)]) ** 2 for w in W.point_array())
        total += (s / p) ** (4.0 / 2)
    want = (total / p) ** (1 / 4.0)
    assert kk.surface_mixed_norm(f, W, 4.0) == pytest.approx(want)


def test_mixed_norm_inner_sums_match_a_per_row_loop_bit_for_bit():
    # The inner sums add one base row at a time from 0.0; the finishing
    # powers and reductions are the library's own.  Coset j of W is the
    # one whose member with zero pivot coordinates has free coordinates
    # of index j, found here by shifting W through those members.
    S, W, _ = _iso_pair_surface(5, 5)
    p = 5
    free = [c for c in range(4) if c not in W.pivots]
    reps = np.zeros((p ** len(free), 4), dtype=np.int64)
    reps[:, free] = coordinate_array(p, len(free))
    label = np.full(p**4, -1)
    for j, rep in enumerate(reps):
        label[encode_point(W.point_array() + rep, p)] = j
    assert (label >= 0).all()
    rng = np.random.default_rng(23)
    F = FFunction.random(S.field, 5, rng)
    f = SurfaceFunction.random(S, rng)
    mags = np.abs(F.data).reshape(p**4, p, order="F") ** 2.0
    sums = np.zeros((len(reps), p))
    for i, j in enumerate(label):
        sums[j] += mags[i]
    want = float(((sums ** 0.5) ** 3.0).sum() ** (1 / 3.0))
    assert np.array_equal(kk.mixed_norm(F, W, 3.0), want)
    surf = np.abs(f.values) ** 2.0
    sums = np.zeros(len(reps))
    for i, j in enumerate(label):
        sums[j] += surf[i]
    want = float(np.mean(((sums / p**W.dim) ** 0.5) ** 3.0) ** (1 / 3.0))
    assert np.array_equal(kk.surface_mixed_norm(f, W, 3.0), want)


def test_single_cap_mixed_ratio_baseline_exhaustive():
    # at d = 3 the tracked mixed-norm constant over single-cap indicators
    # is exactly p^{-1/4}, attained by any full cap
    for p in (3, 5):
        field = PrimeField(p)
        S = hyperbolic_paraboloid(field, 3)
        W = Subspace(field, [[1, 0]])
        V = Subspace(field, [[0, 1]])
        best = 0.0
        for shift in V.point_array():
            cap = [tuple(int(c) for c in (w + shift) % p) for w in W.point_array()]
            for r in range(1, p + 1):
                for sub in itertools.combinations(cap, r):
                    f = SurfaceFunction.from_surface_points(
                        S, [S.lift(x) for x in sub]
                    )
                    best = max(best, kk.mixed_extension_ratio(f, W))
        assert best == pytest.approx(p**-0.25, abs=1e-12)


@pytest.mark.parametrize("p", [3, 5])
def test_mixed_extension_ratio_bounded_for_random_functions(p):
    field = PrimeField(p)
    S = hyperbolic_paraboloid(field, 3)
    W = Subspace(field, [[1, 0]])
    rng = np.random.default_rng(p + 22)
    for _ in range(20):
        f = SurfaceFunction.random(S, rng)
        assert kk.mixed_extension_ratio(f, W) <= 2.0


def test_mixed_extension_ratio_splits_once():
    S = hyperbolic_paraboloid(F5, 5)
    W = enumerate_max_isotropic(S.Q)[0]
    f = SurfaceFunction.random(S, np.random.default_rng(31))
    q = (2 * 5 + 2) / (5 - 1)  # the endpoint exponent at d = 5
    kk._base_coset_labels.cache_clear()
    want = kk.mixed_norm(extension(f), W, q) / kk.surface_mixed_norm(f, W, q)
    assert kk.mixed_extension_ratio(f, W) == want
    # one labelling of the base for W; every later norm reads it
    assert kk._base_coset_labels.cache_info().misses == 1
    assert kk._base_coset_labels.cache_info().hits == 3
    assert not kk._base_coset_labels(W).flags.writeable


@pytest.mark.parametrize("p,d,c", [(3, 3, 151), (7, 3, 11), (3, 5, 16)])
def test_mixed_extension_ratio_of_a_stack_is_that_of_each_row(p, d, c):
    # MX-2's stacks of base indicators: one extension and one labelling
    # for the stack, each row's ratio and norms with the bits of its own
    field = PrimeField(p)
    S = hyperbolic_paraboloid(field, d)
    W = enumerate_max_isotropic(S.Q)[0]
    rng = np.random.default_rng(p * 10 + d)
    values = (rng.random((c, S.size)) < 0.5).astype(complex)
    values[:, 0] = 1.0
    f = SurfaceFunction(S, values)
    rows = [SurfaceFunction(S, v) for v in values]
    q = (2 * d + 2) / (d - 1)
    assert kk.surface_mixed_norm(f, W, q).tolist() == [
        kk.surface_mixed_norm(r, W, q) for r in rows]
    assert kk.mixed_norm(extension(f), W, q).tolist() == [
        kk.mixed_norm(extension(r), W, q) for r in rows]
    assert kk.mixed_extension_ratio(f, W).tolist() == [
        kk.mixed_extension_ratio(r, W) for r in rows]


def test_mixed_ratio_guards():
    S = hyperbolic_paraboloid(F3, 3)
    W = Subspace(F3, [[1, 0]])
    zero = SurfaceFunction(S, np.zeros(9, dtype=complex))
    with pytest.raises(ValueError):
        kk.mixed_extension_ratio(zero, W)
    with pytest.raises(ValueError):
        kk.mixed_norm(FFunction.zeros(F3, 3), Subspace(F3, [[1, 0, 0]]), 2.0)


# ---------------------------------------------------------------------------
# slice-structured sets


def test_regular_set_single_coset_frozen_numbers():
    U = Subspace(F3, [[1, 0]], translate=(0, 1))
    S = hyperbolic_paraboloid(F3, 3)
    pts = U.point_array()
    F = FFunction.indicator(F3, 3, np.column_stack([pts, np.zeros(len(pts), dtype=int)]))
    audit = kk.kakeya_regular_set_bound(S, {0: [(U, pts)]})
    assert audit.gamma == pytest.approx(1.0)
    assert audit.e_exp == 0.0
    # the restricted norm at (2d+2)/(d+3) = 4/3 over p^(1/2 + 1/4)
    assert restriction(F, S).norm(4 / 3) == pytest.approx(3**0.25, abs=1e-9)
    assert audit.ratio == pytest.approx(3**-0.5, abs=1e-9)


def test_regular_set_exponent_at_d5():
    # One full maximal isotropic coset at z = 0 on the d = 5 bilinear
    # surface at p = 3: gamma = 2, e = 0, and the restricted norm at
    # q = 3/2 is 3^(2/3), so the ratio is 3^(2/3 - (1 + 1/6 + 1/6)).
    S = hyperbolic_paraboloid(F3, 5)
    U = enumerate_max_isotropic(S.Q)[0]
    pts = U.point_array()
    F = FFunction.indicator(F3, 5, np.column_stack([pts, np.zeros(len(pts), dtype=int)]))
    assert restriction(F, S).norm(1.5) == pytest.approx(3 ** (2 / 3), abs=1e-9)
    audit = kk.kakeya_regular_set_bound(S, {0: [(U, pts)]})
    assert audit.gamma == pytest.approx(2.0) and audit.e_exp == 0.0
    assert audit.ratio == pytest.approx(3 ** (-2 / 3), abs=1e-9)


@pytest.mark.parametrize("p,d", [(3, 3), (5, 3), (3, 5), (5, 5)])
def test_regular_set_random_decompositions_stay_bounded(p, d):
    field = PrimeField(p)
    S = hyperbolic_paraboloid(field, d)
    rng = np.random.default_rng(p * d)
    for _ in range(8):
        audit = kk.kakeya_regular_set_bound(S, kk.random_slice_decomposition(S, rng))
        assert audit.ratio <= 2.0
        assert 0.0 <= audit.e_exp <= audit.gamma + 1e-12


def test_regular_set_validation():
    S = hyperbolic_paraboloid(F3, 3)
    U = Subspace(F3, [[1, 0]], translate=(0, 1))
    pts = U.point_array()
    other = Subspace(F3, [[1, 0]], translate=(0, 2))
    bad = [
        (S, {0: [(Subspace(F3, [[1, 1]]), pts)]}, "isotropic"),
        (S, {0: [(U, pts[:2]), (U, pts[2:])]}, "distinct"),
        (S, {0: [(other, pts)]}, "outside"),
        (S, {0: [(U, pts)], 3: [(U, pts[:1])]}, "disjoint"),
        # an empty piece would count toward e without covering a point
        (S, {0: [(U, pts), (other, pts[:0])]}, "hold a point"),
        (S, {}, "no point"),
        (S, {0: []}, "no point"),
        (hyperbolic_paraboloid(F3, 5), {0: [(U, pts)]}, "isotropic"),  # wrong ambient
    ]
    for S_bad, dec, reason in bad:
        with pytest.raises(ValueError, match=reason):
            kk.kakeya_regular_set_bound(S_bad, dec)


def test_random_slice_builder_is_reproducible():
    S = hyperbolic_paraboloid(F5, 3)
    d1 = kk.random_slice_decomposition(S, np.random.default_rng(99))
    d2 = kk.random_slice_decomposition(S, np.random.default_rng(99))
    assert list(d1.keys()) == list(d2.keys())
    for z, pieces in d1.items():
        for (c1, rows1), (c2, rows2) in zip(pieces, d2[z], strict=True):
            assert c1 == c2 and np.array_equal(rows1, rows2)
            assert rows1.shape[1] == S.base_dim and c1.contains_rows(rows1).all()
