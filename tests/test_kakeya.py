"""Kakeya-side operators: maximal function, dual superposition, set audits,
and the two bridges from the restriction side.

Frozen constants and their provenance (each recomputed once by the literal
enumerations in this file, then pinned):

  * sqrt(3/2)    max L^2 maximal-operator ratio over all 511 indicator
                 subsets of F_3^2,
  * p**-0.25     max mixed extension ratio over every single-cap indicator
                 at d = 3, attained by full caps (exact at p = 3 and 5),
  * 3**0.25      restricted-transform norm of one isotropic coset in one
                 slice of the d = 3 bilinear surface at p = 3.
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
    coordinate_array,
    encode_point,
    inner,
    lp_norm,
)
from fflab.errors import FFLabError, NotIsotropicPair, SizeOverflow
from fflab.fourier import fourier_transform, inverse_transform
from fflab.harness import run_scenario
from fflab.oracles import line_sum
from fflab.qforms import Subspace, complementary_isotropic, enumerate_max_isotropic
from fflab.surfaces import (
    SurfaceFunction,
    extension,
    hyperbolic_paraboloid,
    paraboloid,
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
    pts = kk.line_points(np.array([base]), np.array([direction]), field.p)[0]
    return FFunction.indicator(field, len(base) + 1, pts)


# ---------------------------------------------------------------------------
# lines


def test_affine_line_geometry():
    lines = kk.line_points(np.array([[3, 7], [1, 2]]), np.array([[1, 2], [0, 3]]), 5)
    assert lines.shape == (2, 5, 3)
    pts = lines[0]
    # every row is (b + eta t, t) reduced mod p, and the origin is not on the line
    assert np.array_equal(pts[:, -1], np.arange(5))
    assert np.array_equal(pts[:, :-1], (np.array([3, 2]) + np.outer(pts[:, -1], (1, 2))) % 5)
    assert not (pts == 0).all(axis=1).any()
    assert np.array_equal(lines[1], kk.line_points(np.array([[1, 2]]),
                                                   np.array([[0, 3]]), 5)[0])
    assert line_indicator(F5, (3, 7), (1, 2)).data.sum() == 5


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


def test_direction_norm_averages_and_has_no_sup_norm():
    assert kk.direction_norm(np.array([3.0, -4.0]), 2) == pytest.approx(math.sqrt(12.5))
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            kk.direction_norm(np.array([5.0, 0.0]), bad)


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


@pytest.mark.parametrize("field,m,seed", [(F3, 2, 6), (F5, 2, 7), (F3, 3, 8)])
def test_dual_matches_literal_superposition(field, m, seed):
    rng = np.random.default_rng(seed)
    n = m - 1
    h = rng.standard_normal(field.p**n) + 1j * rng.standard_normal(field.p**n)
    x0 = rng.integers(0, field.p, size=(field.p**n, n))
    out = kk.dual_kakeya_apply(h, x0, field, m)
    assert np.allclose(out.data, brute_superposition(h, x0, field, m))


def test_dual_pairing_reconstructs_line_sums():
    rng = np.random.default_rng(9)
    G = FFunction.random(F5, 2, rng).abs()
    h = rng.random(5)
    x0 = rng.integers(0, 5, size=(5, 1))
    paired = inner(kk.dual_kakeya_apply(h, x0, F5, 2), G)
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
        res = kk.dual_consistency(F, q, p_exp)
        assert res.paired_lower == pytest.approx(res.direct_lower, abs=1e-6)
        assert res.dual_ratio >= res.paired_lower - 1e-9


def test_dual_consistency_guards():
    with pytest.raises(ValueError):
        kk.dual_consistency(FFunction.zeros(F3, 2), 1.5, 1.5)
    with pytest.raises(ValueError):
        kk.dual_consistency(FFunction.constant(F3, 2, 1.0), 1.0, 1.5)


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
                ratio = lp_norm(out, q, "counting") / kk.direction_norm(np.abs(hv), q)
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
        ratio = lp_norm(out, q, "counting") / kk.direction_norm(mask.astype(float), q)
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


def _embed_deviations(h, f, b):
    """Max deviations of extension(f) from embed_closed_form(h, b) and of
    its squared x2-collapse from embed_collapse_profile(h, b)."""
    p, n = h.field.p, h.dim
    ext = extension(f)
    closed = np.abs(ext.data - kk.embed_closed_form(h, b).data).max()
    cube = np.abs(ext.data.reshape(p**n, p**n, p, order="F")) ** 2
    profile = kk.embed_collapse_profile(h, b).data.real.reshape(p**n, p, order="F")
    return closed, np.abs(cube.sum(axis=1) - profile).max()


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


def test_embed_collapse_equals_dual_superposition():
    rng = np.random.default_rng(15)
    for p in (3, 5):
        field = PrimeField(p)
        h = FFunction(field, 1, rng.random(p).astype(complex))
        b = rng.integers(0, p, size=(p, 1))
        neg = (-coordinate_array(p, 1).ravel()) % p
        lhs = kk.embed_collapse_profile(h, b)
        rhs = kk.dual_kakeya_apply(h.data[neg], b, field, 2)
        assert np.abs(lhs.data - rhs.data).max() < 1e-12


def test_embed_collapse_profile_matches_squared_extension():
    rng = np.random.default_rng(16)
    p = 5
    field = PrimeField(p)
    h = FFunction(field, 1, rng.random(p).astype(complex))
    b = rng.integers(0, p, size=(p, 1))
    ext = extension(kk.restriction_to_kakeya_embed(h, b))
    cube = np.abs(ext.data.reshape(p, p, p, order="F")) ** 2
    profile = kk.embed_collapse_profile(h, b).data.real.reshape(p, p, order="F")
    assert np.abs(cube.sum(axis=1) - profile).max() < 1e-9


def test_embed_input_validation():
    with pytest.raises(ValueError):
        kk.restriction_to_kakeya_embed(np.ones(3), np.zeros((3, 1), dtype=int))
    h_neg = FFunction(F3, 1, np.array([-1.0, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        kk.restriction_to_kakeya_embed(h_neg, np.zeros((3, 1), dtype=int))
    h_cplx = FFunction(F3, 1, np.array([1j, 0, 0]))
    with pytest.raises(ValueError):
        kk.restriction_to_kakeya_embed(h_cplx, np.zeros((3, 1), dtype=int))


def test_exponent_chain_values():
    ex = kk.restriction_to_kakeya_exponents(2)
    assert ex.dual_q == Fraction(3, 2) and ex.dual_p == Fraction(3, 2)
    assert ex.restriction_q == Fraction(3) and ex.restriction_p == Fraction(3)
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


def test_kakeya_bound_from_restriction_numeric():
    got = kk.kakeya_bound_from_restriction(F3, 2, Fraction(3, 2), 2.0)
    assert got == pytest.approx(3 ** (1 / 3) * 4.0)
    with pytest.raises(ValueError):
        kk.kakeya_bound_from_restriction(F3, 1, 1.5, 1.0)


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
    assert [t for t, _ in slabs] == list(range(p))
    stacked = np.stack([row for _, row in slabs])
    assert np.array_equal(stacked.reshape(-1), kk.coset_extension(f, W, V).data)


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
    V, W = _standard_split(3, 1, 1)
    f = FFunction.delta(F3, 3, (1, 2, 0))
    for q, pe in [(1, 1), (2, 3), (4, 2)]:
        assert kk.mixed_norm(f, W, V, q, pe) == pytest.approx(1.0)


def test_mixed_norm_constant_function():
    p = 3
    V, W = _standard_split(p, 1, 2)
    q, pe = 3.0, 2.0
    one = FFunction.constant(F3, 4, 1.0)
    want = (p * p) ** (1 / q) * (p * p) ** (1 / pe)  # (|V| p)^{1/q} |W|^{1/p}
    assert kk.mixed_norm(one, W, V, q, pe) == pytest.approx(want)
    # normalized measure on the surface: both layers average to 1
    ones = SurfaceFunction(paraboloid(F3, 4), np.ones(27))
    assert kk.surface_mixed_norm(ones, W, V, q, pe) == pytest.approx(1.0)


def test_mixed_norm_rejects_overlapping_split():
    V = Subspace(F3, [[1, 0]])
    f = FFunction.constant(F3, 3, 1.0)
    with pytest.raises(NotIsotropicPair):
        kk.mixed_norm(f, Subspace(F3, [[2, 0]]), V, 2.0, 2.0)  # same line
    with pytest.raises(NotIsotropicPair):
        kk.mixed_norm(f, Subspace(F3, np.zeros((0, 2), dtype=np.int64)), V, 2.0, 2.0)


def test_mixed_norm_collapses_to_lp_when_exponents_match():
    rng = np.random.default_rng(19)
    W = Subspace(F5, [[1, 0]])
    V = Subspace(F5, [[0, 1]])
    F = FFunction.random(F5, 3, rng)
    for ex in (2.0, 3.0, 4.0):
        assert kk.mixed_norm(F, W, V, ex, ex) == pytest.approx(
            lp_norm(F, ex, "counting")
        )
    S = hyperbolic_paraboloid(F5, 3)
    f = SurfaceFunction.random(S, rng)
    assert kk.surface_mixed_norm(f, W, V, 2.0, 2.0) == pytest.approx(f.norm(2.0))


@pytest.mark.parametrize(
    "wrow,vrow", [([1, 0], [0, 1]), ([1, 2], [1, 3]), ([1, 4], [0, 1])]
)
def test_mixed_norm_matches_literal_loop(wrow, vrow):
    rng = np.random.default_rng(20)
    W = Subspace(F5, [wrow])
    V = Subspace(F5, [vrow])
    for _ in range(3):
        F = FFunction.random(F5, 3, rng)
        got = kk.mixed_norm(F, W, V, 3.0, 2.0)
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
    assert kk.surface_mixed_norm(f, W, V, 4.0, 2.0) == pytest.approx(want)


def test_mixed_norm_inner_sums_match_a_per_row_loop_bit_for_bit():
    # The inner sums add one base row at a time from 0.0; the finishing
    # powers and reductions are the library's own.  The V part of each
    # base point comes from solving x = w + v by brute force.
    S, W, V = _iso_pair_surface(5, 5)
    p = 5
    Wp, Vp = W.point_array(), V.point_array()
    v_idx = np.zeros(p**4, dtype=np.int64)
    for j, v in enumerate(Vp):
        v_idx[encode_point(Wp + v, p)] = j
    rng = np.random.default_rng(23)
    F = FFunction.random(S.field, 5, rng)
    f = SurfaceFunction.random(S, rng)
    mags = np.abs(F.data).reshape(p**4, p, order="F") ** 2.0
    sums = np.zeros((p**V.dim, p))
    for i, v in enumerate(v_idx):
        sums[v] += mags[i]
    want = float(((sums ** 0.5) ** 3.0).sum() ** (1 / 3.0))
    assert np.array_equal(kk.mixed_norm(F, W, V, 3.0, 2.0), want)
    surf = np.abs(f.values) ** 2.0
    sums = np.zeros(p**V.dim)
    for i, v in enumerate(v_idx):
        sums[v] += surf[i]
    want = float(np.mean(((sums / p**W.dim) ** 0.5) ** 3.0) ** (1 / 3.0))
    assert np.array_equal(kk.surface_mixed_norm(f, W, V, 3.0, 2.0), want)


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
                    best = max(best, kk.mixed_extension_ratio(f, W, V))
        assert best == pytest.approx(p**-0.25, abs=1e-12)


@pytest.mark.parametrize("p", [3, 5])
def test_mixed_extension_ratio_bounded_for_random_functions(p):
    field = PrimeField(p)
    S = hyperbolic_paraboloid(field, 3)
    W = Subspace(field, [[1, 0]])
    V = Subspace(field, [[0, 1]])
    rng = np.random.default_rng(p + 22)
    for _ in range(20):
        f = SurfaceFunction.random(S, rng)
        assert kk.mixed_extension_ratio(f, W, V) <= 2.0


def test_mixed_extension_ratio_splits_once():
    S = hyperbolic_paraboloid(F5, 5)
    W = enumerate_max_isotropic(S.Q)[0]
    V = complementary_isotropic(S.Q, W)
    f = SurfaceFunction.random(S, np.random.default_rng(31))
    q = (2 * 5 + 2) / (5 - 1)  # the endpoint exponent at d = 5
    kk._v_coset_index.cache_clear()
    want = kk.mixed_norm(extension(f), W, V, q, 2.0) / kk.surface_mixed_norm(f, W, V, q, 2.0)
    assert kk.mixed_extension_ratio(f, W, V) == want
    # one build for the pair; every later norm reads it
    assert kk._v_coset_index.cache_info().misses == 1
    assert kk._v_coset_index.cache_info().hits == 3
    assert not kk._v_coset_index(W, V).flags.writeable


def test_mixed_ratio_guards():
    S = hyperbolic_paraboloid(F3, 3)
    W = Subspace(F3, [[1, 0]])
    V = Subspace(F3, [[0, 1]])
    zero = SurfaceFunction(S, np.zeros(9, dtype=complex))
    with pytest.raises(ValueError):
        kk.mixed_extension_ratio(zero, W, V)
    with pytest.raises(NotIsotropicPair):
        kk.mixed_norm(FFunction.zeros(F3, 3), W, Subspace(F3, [[1, 0]]), 2.0, 2.0)


# ---------------------------------------------------------------------------
# slice-structured sets


def test_regular_set_single_coset_frozen_numbers():
    U = Subspace(F3, [[1, 0]], translate=(0, 1))
    S = hyperbolic_paraboloid(F3, 3)
    pts = [tuple(int(c) for c in r) for r in U.point_array()]
    F = FFunction.indicator(F3, 3, [t + (0,) for t in pts])
    audit = kk.kakeya_regular_set_bound(F, S, {0: [(U, pts)]})
    assert audit.gamma == pytest.approx(1.0)
    assert audit.e_exp == 0.0
    assert audit.lhs == pytest.approx(3**0.25, abs=1e-9)
    assert audit.rhs_exponent == pytest.approx(0.75)
    assert audit.ratio == pytest.approx(3**-0.5, abs=1e-9)


@pytest.mark.parametrize("p,d", [(3, 3), (5, 3), (3, 5), (5, 5)])
def test_regular_set_random_decompositions_stay_bounded(p, d):
    field = PrimeField(p)
    S = hyperbolic_paraboloid(field, d)
    rng = np.random.default_rng(p * d)
    for _ in range(8):
        F, dec = kk.random_slice_isotropic_function(S, 2, rng)
        audit = kk.kakeya_regular_set_bound(F, S, dec)
        assert audit.ratio <= 2.0
        assert 0.0 <= audit.e_exp <= audit.gamma + 1e-12


def _regular_set_cases(as_rows):
    """The one-coset set of the frozen-numbers test, its valid
    decomposition, and one invalid (F, S, decomposition) per check; the
    pieces hold tuple lists, or row arrays when as_rows is set."""
    S = hyperbolic_paraboloid(F3, 3)
    U = Subspace(F3, [[1, 0]], translate=(0, 1))
    pts = [tuple(int(c) for c in r) for r in U.point_array()]
    F = FFunction.indicator(F3, 3, [t + (0,) for t in pts])
    form = np.array if as_rows else list

    def dec(*pieces, z=0):
        return {z: [(space, form(rows)) for space, rows in pieces]}

    other = Subspace(F3, [[1, 0]], translate=(0, 2))
    bad = [
        (F, S, dec((Subspace(F3, [[1, 1]]), pts))),          # non-isotropic coset
        (F, S, dec((U, pts[:2]))),                            # cover misses points
        (F, S, dec((U, pts[:2]), (U, pts[2:]))),              # duplicate coset
        (F, S, dec((other, pts))),                            # point outside its coset
        (F, S, dec((U, pts)) | dec((U, pts[:1]), z=3)),       # pieces overlap
        (FFunction(F3, 3, 0.5 * F.data), S, dec((U, pts))),   # not an indicator
        (F, hyperbolic_paraboloid(F3, 5), dec((U, pts))),     # wrong ambient
    ]
    return F, S, dec((U, pts)), bad


def test_regular_set_validation():
    _, _, _, bad = _regular_set_cases(as_rows=False)
    for F, S, dec in bad:
        with pytest.raises(ValueError):
            kk.kakeya_regular_set_bound(F, S, dec)


def test_regular_set_bound_takes_row_arrays_and_tuple_lists():
    F, S, rows, bad = _regular_set_cases(as_rows=True)
    _, _, tuples, _ = _regular_set_cases(as_rows=False)
    assert kk.kakeya_regular_set_bound(F, S, rows) == kk.kakeya_regular_set_bound(F, S, tuples)
    for Fb, Sb, dec in bad:
        with pytest.raises(ValueError):
            kk.kakeya_regular_set_bound(Fb, Sb, dec)


def test_random_slice_builder_is_reproducible():
    S = hyperbolic_paraboloid(F5, 3)
    F1, d1 = kk.random_slice_isotropic_function(S, 3, np.random.default_rng(99))
    F2, d2 = kk.random_slice_isotropic_function(S, 3, np.random.default_rng(99))
    assert np.array_equal(F1.data, F2.data)
    assert list(d1.keys()) == list(d2.keys())
    for z, pieces in d1.items():
        for (c1, rows1), (c2, rows2) in zip(pieces, d2[z], strict=True):
            assert c1 == c2 and np.array_equal(rows1, rows2)
            assert rows1.shape[1] == S.base_dim and c1.contains_rows(rows1).all()
