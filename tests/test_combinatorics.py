"""Energy, incidence and exponent machinery against brute-force oracles.

Energies are integers, so the pairwise-sum count, the Fourier route and the
literal four-fold loop must agree on the nose.  The frozen numbers below
(297, 4, 11/15, 1/2, ...) come from one-time exhaustive enumerations over
the 9-point bilinear graph surface at p = 3; they are baselines, not
conjectures, and any drift is a regression.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab.combinatorics import (
    EnergyExponent,
    HyperplaneFamily,
    PointSet,
    additive_energy,
    all_affine_hyperplanes,
    base_projection,
    closed_form_curve,
    energy_exponent_closed,
    energy_exponent_recurse,
    energy_slice_bound,
    energy_to_incidence,
    incidence_bound_audit,
    incidence_count,
    isotropic_slice_alpha,
    max_isotropic_slice,
    off_diagonal_energy,
    random_surface_subset,
    recursion_curve,
    sample_energy_exponents,
    surface_point_set,
    vh_plane_cover,
    vh_plane_masks,
)
from fflab.core import PrimeField, coordinate_array, decode_point, encode_point
from fflab.errors import (
    NotOnSurface,
    OutOfValidityRange,
    SizeOverflow,
)
from fflab.oracles import (
    ENERGY_TRIPLES,
    brute_energy,
    minimum_vh_cover_size,
    spectral_energy,
)
from fflab.qforms import (
    QuadraticSpace,
    Subspace,
    dot_form,
    enumerate_subspaces,
    galilean,
    hyperbolic_pairing_form,
    is_totally_isotropic,
)
from fflab.surfaces import (
    Surface,
    congruence_between,
    hyperbolic_paraboloid,
    paraboloid,
)

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def _add(x, y, p):
    return tuple((a + b) % p for a, b in zip(x, y))


def quadruple_loop(A: PointSet, B: PointSet = None) -> int:
    """Literal O(|A|^2 |B|^2) count of a + b = c + d, the ground truth."""
    if B is None:
        B = A
    p = A.field.p
    total = 0
    for a in A.matrix().tolist():
        for b in B.matrix().tolist():
            sab = _add(a, b, p)
            for c in A.matrix().tolist():
                for d in B.matrix().tolist():
                    if _add(c, d, p) == sab:
                        total += 1
    return total


def off_diagonal_loop(rows, p: int) -> int:
    """Literal count of a + b = c + d with b, d split in both base coords,
    over the given coordinate rows."""
    total = 0
    for a, b, c, d in itertools.product(rows, repeat=4):
        if _add(a, b, p) == _add(c, d, p):
            if b[0] != d[0] and b[1] != d[1]:
                total += 1
    return total


def slice_bound_loop(rows) -> float:
    """|E|^{5/2} + sum_j |E_j|^3 + sum_k |E^k|^3 for the given coordinate
    rows, counting each vertical (x1 = j) and horizontal (x2 = k) slice
    point by point."""
    bound = len(rows) ** 2.5
    bound += sum(sum(1 for r in rows if r[0] == j) ** 3 for j in {r[0] for r in rows})
    bound += sum(sum(1 for r in rows if r[1] == k) ** 3 for k in {r[1] for r in rows})
    return bound


def triple_loop(pts, p) -> int:
    """Oracle for oracles.brute_energy: EN-1's literal loop before it was
    an array program.  For every (a, b, c) over the rows of pts, mod p,
    is a + b - c a row?  Each copy of a repeated row counts."""
    arr = [tuple(int(c) % p for c in row) for row in pts]
    members = set(arr)
    count = 0
    for a in arr:
        for b in arr:
            for c in arr:
                if tuple((ai + bi - ci) % p
                         for ai, bi, ci in zip(a, b, c)) in members:
                    count += 1
    return count


def surface_points(S: Surface) -> list:
    """The points of S as int tuples, in sorted order."""
    return sorted(map(tuple, S.point_array().tolist()))


def every_subset(n):
    """The (2^n - 1, n) bool rows of every nonempty subset of range(n)."""
    return ((np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1).astype(bool)


def random_masks(rng, cases, n, lo, hi):
    """cases bool rows over range(n), each choosing lo <= k < hi entries."""
    masks = np.zeros((cases, n), dtype=bool)
    for row in masks:
        row[rng.choice(n, int(rng.integers(lo, hi)), replace=False)] = True
    return masks


def all_subsets(pts, max_size=None):
    hi = len(pts) if max_size is None else max_size
    for r in range(1, hi + 1):
        yield from itertools.combinations(pts, r)


# ---------------------------------------------------------------------------
# point sets


def test_pointset_dedups_sorts_and_searches():
    E = PointSet.of(F3, 2, [(2, 1), (0, 0), (2, 1), (1, 2), (0, 0)])
    assert len(E) == 3
    # index order: flat indices 0, 2 + 1*3 = 5, 1 + 2*3 = 7
    assert E.index.tolist() == [0, 5, 7]
    assert E.matrix().tolist() == [[0, 0], [2, 1], [1, 2]]
    # coordinates are reduced mod 3: (4, 5) is (1, 2)
    assert PointSet.of(F3, 2, [(4, 5)]).index.tolist() == [7]


def test_pointset_constructor_rejects_disorder():
    PointSet(F3, 2, [1, 3])  # sorted, distinct, inside F_3^2
    with pytest.raises(ValueError):
        PointSet(F3, 2, [3, 1])  # not sorted
    with pytest.raises(ValueError):
        PointSet(F3, 2, [3, 3])  # duplicate
    with pytest.raises(ValueError):
        PointSet(F3, 2, [1, 9])  # out of range: F_3^2 has indices 0..8
    with pytest.raises(ValueError):
        PointSet(F3, 2, [-1, 3])
    with pytest.raises(ValueError):
        PointSet.of(F3, 2, [(0, 1, 2)])  # wrong dimension


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([3, 5, 7]),
    st.integers(1, 3),
    st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), max_size=12),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
)
def test_pointset_matches_set_of_tuples(p, d, raw, probe):
    F = PrimeField(p)
    pts = [tuple(c[:d]) for c in raw]
    oracle = {tuple(c % p for c in pt) for pt in pts}
    E = PointSet.of(F, d, pts)
    assert len(E) == len(oracle)
    assert {tuple(row) for row in E.matrix().tolist()} == oracle
    assert E.index.tolist() == sorted(encode_point(pt, p) for pt in oracle)
    assert np.array_equal(decode_point(E.index, p, d), E.matrix())
    assert np.array_equal(PointSet(F, d, encode_point(E.matrix(), p)).index, E.index)


def test_surface_point_set_validation():
    S = hyperbolic_paraboloid(F3, 3)
    full = surface_point_set(S, S.point_array())
    assert len(full) == 9
    with pytest.raises(NotOnSurface):
        surface_point_set(S, [(1, 1, 0)])
    proj = base_projection(full)
    assert proj.dim == 2 and len(proj) == 9
    rng = np.random.default_rng(3)
    sub = random_surface_subset(S, 4, rng)
    assert len(sub) == 4 and S.contains_rows(sub.matrix()).all()
    with pytest.raises(ValueError):
        random_surface_subset(S, 10, rng)


# ---------------------------------------------------------------------------
# additive energy


def test_energy_matches_literal_loop_small_random():
    rng = np.random.default_rng(17)
    for p, d in [(3, 2), (5, 2), (7, 1), (5, 3)]:
        F = PrimeField(p)
        for _ in range(6):
            pts = {tuple(rng.integers(0, p, size=d)) for _ in range(rng.integers(1, 6))}
            E = PointSet.of(F, d, pts)
            want = quadruple_loop(E)
            assert additive_energy(E) == want
            assert spectral_energy(E) == want


@pytest.mark.parametrize("p", [5, 7])
def test_en1_triple_loop_oracle_matches_quadruple_loop(p):
    # EN-1's oracle fixes d = a + b - c; it must count what the literal
    # four-fold loop counts
    rng = np.random.default_rng(40 + p)
    F = PrimeField(p)
    for k in (1, 2, 3, 5, 8, 12):
        E = PointSet(F, 3, np.sort(rng.choice(p**3, size=k, replace=False)))
        assert brute_energy(E.matrix(), p) == triple_loop(E.matrix(), p) == quadruple_loop(E)


@pytest.mark.parametrize("p,d", [(3, 1), (5, 2), (3, 4), (7, 3)])
def test_brute_energy_matches_triple_loop(p, d):
    # rows in any order, with coordinates outside [0, p)
    rng = np.random.default_rng(10 * p + d)
    for k in sorted({min(k, p**d) for k in (0, 1, 2, 4, 7, 13)}):
        rows = coordinate_array(p, d)[rng.choice(p**d, size=k, replace=False)]
        rows = rows + p * rng.integers(-2, 3, size=rows.shape)
        assert brute_energy(rows, p) == triple_loop(rows, p)


def test_brute_energy_refuses_repeated_rows_and_oversized_sets():
    # the triple loop counts each copy of a point: 2^3 triples where the
    # one distinct point has energy 1
    twice = np.array([[1, 2, 0], [1, 2, 0]])
    assert triple_loop(twice, 5) == 8
    with pytest.raises(ValueError, match="repeats"):
        brute_energy(twice, 5)
    with pytest.raises(ValueError, match="repeats"):
        brute_energy(np.array([[1, 2], [6, 7]]), 5)
    # 65^3 triples pass ENERGY_TRIPLES = 2^18; refused before the block
    # of 65^3 rows of 3 int64 (6.6 MB) is made
    assert ENERGY_TRIPLES == 2 ** 18
    cube = coordinate_array(5, 3)
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow, match="brute_energy's triple block"):
            brute_energy(cube[:65], 5)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    E = PointSet(F5, 3, np.arange(64))
    assert brute_energy(cube[:64], 5) == additive_energy(E)


def test_energy_two_sets_matches_literal_loop():
    rng = np.random.default_rng(23)
    F = PrimeField(5)
    for _ in range(8):
        A = PointSet.of(F, 2, {tuple(rng.integers(0, 5, 2)) for _ in range(4)})
        B = PointSet.of(F, 2, {tuple(rng.integers(0, 5, 2)) for _ in range(3)})
        want = quadruple_loop(A, B)
        assert additive_energy(A, B) == want
        assert spectral_energy(A, B) == want
    with pytest.raises(ValueError):
        additive_energy(A, PointSet.of(F3, 2, [(0, 0)]))


def test_energy_fourier_equals_loop_exhaustively_at_p3():
    S = hyperbolic_paraboloid(F3, 3)
    pts = surface_points(S)
    for combo in all_subsets(pts):
        E = PointSet.of(F3, 3, combo)
        assert additive_energy(E) == spectral_energy(E)


def test_energy_trivia_and_frozen_full_surface_value():
    S = hyperbolic_paraboloid(F3, 3)
    one = surface_point_set(S, [(1, 1, 1)])
    assert additive_energy(one) == 1
    assert additive_energy(PointSet.of(F3, 3, [])) == 0
    # a full affine subspace of size m has energy exactly m^3
    V = Subspace(F3, [(1, 0, 0), (0, 1, 0)], translate=(0, 0, 2))
    cube = PointSet.of(F3, 3, (tuple(r) for r in V.point_array()))
    assert additive_energy(cube) == 9 ** 3
    # whole bilinear surface at p = 3, frozen by exhaustive count
    assert additive_energy(surface_point_set(S, S.point_array())) == 297


def test_energy_invariant_under_translation_and_dilation():
    rng = np.random.default_rng(5)
    E = PointSet.of(F7, 2, {tuple(rng.integers(0, 7, 2)) for _ in range(8)})
    lam = additive_energy(E)
    for t in [(1, 3), (6, 6), (0, 2)]:
        assert additive_energy(PointSet.of(F7, 2, E.matrix() + np.array(t))) == lam
    for unit in range(1, 7):
        D = PointSet.of(F7, 2, unit * E.matrix() % 7)
        assert additive_energy(D) == lam


def test_energy_quasi_triangle_and_fourth_root_subadditive():
    rng = np.random.default_rng(41)
    for _ in range(12):
        pts = list({tuple(rng.integers(0, 5, 2)) for _ in range(rng.integers(4, 12))})
        rng.shuffle(pts)
        k = int(rng.integers(2, 5))
        parts = [pts[i::k] for i in range(k)]
        parts = [q for q in parts if q]
        union = PointSet.of(F5, 2, pts)
        lam = additive_energy(union)
        energies = [additive_energy(PointSet.of(F5, 2, q)) for q in parts]
        assert lam <= len(parts) ** 4 * max(energies)
        assert lam ** 0.25 <= sum(e ** 0.25 for e in energies) + 1e-9
        # piecewise exponent bound: Lambda <= |I|^(4-beta) |E|^beta for any
        # beta with Lambda_i <= |E_i|^beta on every piece
        beta = max(
            (math.log(e) / math.log(len(q)) for e, q in zip(energies, parts) if len(q) > 1),
            default=0.0,
        )
        assert lam <= len(parts) ** (4 - beta) * len(union) ** beta + 1e-6


def test_energy_invariant_under_surface_shear():
    S = hyperbolic_paraboloid(F5, 3)
    pts = surface_points(S)
    rng = np.random.default_rng(29)
    for _ in range(20):
        A = surface_point_set(S, [pts[i] for i in rng.choice(len(pts), 6, replace=False)])
        B = surface_point_set(S, [pts[i] for i in rng.choice(len(pts), 5, replace=False)])
        t = pts[rng.integers(0, len(pts))]
        tA = surface_point_set(S, galilean(S, t, A.matrix()))
        tB = surface_point_set(S, galilean(S, t, B.matrix()))
        t_inv = S.lift(tuple(-c for c in t[:-1]))
        back = surface_point_set(S, galilean(S, t_inv, tA.matrix()))
        assert np.array_equal(back.index, A.index)
        assert additive_energy(tA) == additive_energy(A)
        assert additive_energy(tA, tB) == additive_energy(A, B)


def test_energy_invariant_under_base_congruence():
    # x1^2 + x2^2 and x1 x2 are congruent over F_5; pushing base points
    # through the congruence preserves every pairwise sum pattern
    S1 = paraboloid(F5, 3)
    S2 = hyperbolic_paraboloid(F5, 3)
    M = congruence_between(S1, S2)
    assert M is not None
    assert np.array_equal((M.T @ S1.Q.A @ M) % 5, S2.Q.A)
    pts2 = surface_points(S2)
    rng = np.random.default_rng(101)
    for _ in range(100):
        take = [pts2[i] for i in rng.choice(len(pts2), rng.integers(2, 10), replace=False)]
        E2 = surface_point_set(S2, take)
        mapped = [
            tuple(int(c) for c in (M @ np.array(q[:2])) % 5) + (q[2],) for q in take
        ]
        E1 = surface_point_set(S1, mapped)
        assert additive_energy(E1) == additive_energy(E2)


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([3, 5]),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=5),
)
def test_energy_routes_agree_property(p, pts):
    F = PrimeField(p)
    E = PointSet.of(F, 2, pts)
    want = quadruple_loop(E)
    assert additive_energy(E) == want == spectral_energy(E)


# ---------------------------------------------------------------------------
# off-diagonal energy


def test_off_diagonal_energy_matches_literal_loop():
    X = hyperbolic_paraboloid(F3, 3).point_array()
    masks = every_subset(len(X))
    assert (off_diagonal_energy(X, masks, 3).tolist()
            == [off_diagonal_loop(X[row].tolist(), 3) for row in masks])
    rng = np.random.default_rng(59)
    for F in (F5, F7):
        X = hyperbolic_paraboloid(F, 3).point_array()
        masks = random_masks(rng, 8, len(X), 1, 9)
        assert (off_diagonal_energy(X, masks, F.p).tolist()
                == [off_diagonal_loop(X[row].tolist(), F.p) for row in masks])
    with pytest.raises(ValueError):
        off_diagonal_energy(np.zeros((1, 2), dtype=np.int64), np.ones((1, 1), dtype=bool), 3)


def test_an_all_false_mask_row_has_no_off_diagonal_energy():
    X = hyperbolic_paraboloid(F5, 3).point_array()
    masks = np.zeros((3, len(X)), dtype=bool)
    masks[0, :6] = masks[2, 3:9] = True
    got = off_diagonal_energy(X, masks, 5)
    assert got[1] == 0
    assert got[[0, 2]].tolist() == off_diagonal_energy(X, masks[[0, 2]], 5).tolist()
    assert off_diagonal_energy(X, masks[1:2], 5).tolist() == [0]


def test_off_diagonal_energy_exhaustive_p3_baseline():
    X = hyperbolic_paraboloid(F3, 3).point_array()
    star = (X[:, 0] != 0) & (X[:, 1] != 0)
    assert star.sum() == 4
    assert off_diagonal_energy(X, star[None], 3).tolist() == [4]
    masks = every_subset(len(X))
    lam = off_diagonal_energy(X, masks, 3)
    assert (lam <= [additive_energy(PointSet.of(F3, 3, X[row])) for row in masks]).all()
    # frozen: the extremal ratio over all 511 subsets is exactly 16 / 4^{5/2}
    worst = max(e / n ** 2.5 for e, n in zip(lam.tolist(), masks.sum(axis=1).tolist()))
    assert abs(worst - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# the slice-energy bound


def test_energy_slice_bound_matches_a_literal_slice_count():
    X = hyperbolic_paraboloid(F5, 3).point_array()
    masks = random_masks(np.random.default_rng(7), 6, len(X), 1, len(X) + 1)
    for ratio, row in zip(energy_slice_bound(X, masks, 5).tolist(), masks):
        rows = X[row].tolist()
        assert ratio == additive_energy(PointSet.of(F5, 3, rows)) / slice_bound_loop(rows)
    with pytest.raises(NotOnSurface):
        energy_slice_bound(np.array([[1, 1, 0]]), np.ones((1, 1), dtype=bool), 5)


def test_energy_slice_bound_exhaustive_p3_baseline():
    X = hyperbolic_paraboloid(F3, 3).point_array()
    ratios = energy_slice_bound(X, every_subset(len(X)), 3)
    assert (ratios <= 1.0).all()
    # frozen extremal ratio 297/405 = 11/15, attained by the full surface
    assert abs(ratios.max() - 11.0 / 15.0) < 1e-12
    assert ratios[-1] == ratios.max()


def test_energy_slice_bound_tracked_constant_at_larger_p():
    rng = np.random.default_rng(13)
    for p in (5, 7):
        X = hyperbolic_paraboloid(PrimeField(p), 3).point_array()
        masks = random_masks(rng, 25, len(X), 2, min(len(X), 30))
        # within twice the exhaustive p = 3 constant
        assert (energy_slice_bound(X, masks, p) <= 2.0 * (11.0 / 15.0)).all()


# ---------------------------------------------------------------------------
# hyperplane families and incidences


def test_all_affine_hyperplanes_census():
    L = all_affine_hyperplanes(F3, 2)
    assert len(L) == 12  # 4 directions x 3 offsets
    keys = L.canonical_keys()
    assert len(np.unique(keys, axis=0)) == 12
    # every point of the plane lies on one hyperplane per direction
    P = PointSet.of(F3, 2, itertools.product(range(3), repeat=2))
    rows = L.membership_rows(P)
    assert rows.shape == (12, 9)
    assert rows.sum() == 36
    assert (rows.sum(axis=0) == 4).all()
    # each line of F_3^2 holds exactly 3 points
    assert (rows.sum(axis=1) == 3).all()


def test_hyperplane_family_degenerate_members():
    with pytest.raises(ValueError):
        HyperplaneFamily(F3, 2, [(0, 0)], [1])
    with pytest.raises(ValueError):
        HyperplaneFamily(F3, 2, [(0, 0), (1, 2)], [0])
    with pytest.raises(ValueError):
        HyperplaneFamily(F3, 2, [(0, 0, 1)], [0])
    L = HyperplaneFamily(F3, 2, [(0, 0), (1, 2), (2, 1)], [0, 1, 2])
    assert L.canonical_keys().tolist() == [[0, 0, 0], [1, 2, 1], [1, 2, 1]]
    P = PointSet.of(F3, 2, [(0, 0), (1, 1), (2, 2)])
    rows = L.membership_rows(P)
    assert rows[0].all()  # the full-space member contains everything


@pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (7, 2), (7, 3)])
def test_membership_rows_match_per_hyperplane_loop(p, m):
    # Offsets lie in 1 .. (p-1)/2, so no member has its mirror w.y = -c in
    # the family, and testing w.y = -c in place of w.y = c changes rows.
    F = PrimeField(p)
    rng = np.random.default_rng(10 * p + m)
    normals = rng.integers(0, p, size=(12, m))
    normals[~normals.any(axis=1), 0] = 1
    offsets = rng.integers(1, (p + 1) // 2, size=len(normals))
    L = HyperplaneFamily(F, m, np.vstack([normals, np.zeros((1, m), dtype=np.int64)]),
                         np.append(offsets, 0))  # plus the full-space member
    P = PointSet(F, m, np.arange(p**m))
    literal = [[sum(a * b for a, b in zip(w, y)) % p == c for y in P.matrix().tolist()]
               for w, c in zip(L.normals.tolist(), L.offsets.tolist())]
    assert L.membership_rows(P).tolist() == literal


def test_incidence_audit_frozen_example_and_duplicates():
    P = PointSet.of(F3, 2, itertools.product(range(3), repeat=2))
    L = all_affine_hyperplanes(F3, 2)
    audit = incidence_bound_audit(P, L)
    assert audit == (36, 1, 1, 45.0)
    assert incidence_count(P, L) == 36
    # duplicating a line raises C2 but not C1
    take = [*range(len(L)), 0, 0, 0]
    dup = HyperplaneFamily(F3, 2, L.normals[take], L.offsets[take])
    audit2 = incidence_bound_audit(P, dup)
    assert audit2.c2 == 4 and audit2.c1 == 1
    # a single distinct line has no distinct pair, so C1 = 0
    single = HyperplaneFamily(F3, 2, [(1, 0), (2, 0)], [0, 0])  # same line twice
    audit3 = incidence_bound_audit(P, single)
    assert audit3.c1 == 0 and audit3.c2 == 2
    assert audit3.incidences <= audit3.bound


def test_incidence_audit_rejects_points_from_another_space():
    L = all_affine_hyperplanes(F3, 2)
    for P in (PointSet.of(F5, 2, [(0, 0), (1, 1), (2, 2)]),
              PointSet.of(F3, 3, [(0, 0, 0)]),
              PointSet.of(F5, 2, [])):
        with pytest.raises(ValueError):
            incidence_bound_audit(P, L)
        with pytest.raises(ValueError):
            incidence_count(P, L)


def test_incidence_bound_holds_on_random_instances():
    rng = np.random.default_rng(67)
    for p in (3, 5):
        F = PrimeField(p)
        for _ in range(20):
            P = PointSet.of(
                F, 2, {tuple(rng.integers(0, p, 2)) for _ in range(rng.integers(1, 2 * p))}
            )
            normals = rng.integers(0, p, (int(rng.integers(1, 8)), 2))
            offsets = rng.integers(0, p, len(normals)) * normals.any(axis=1)
            L = HyperplaneFamily(F, 2, normals, offsets)
            audit = incidence_bound_audit(P, L)
            assert audit.incidences <= audit.bound
            assert incidence_count(P, L) == audit.incidences


def test_surface_hyperplanes_collapse_along_isotropic_lines():
    # the hyperplane attached to a surface point x is {y : x o y = Q(x)};
    # two distinct points share a hyperplane exactly when their base parts
    # span the same isotropic line through the origin
    S = hyperbolic_paraboloid(F5, 3)
    pts = surface_points(S)
    fam = HyperplaneFamily.from_surface_points(S, pts)
    keys = fam.canonical_keys()
    grid = PointSet.of(F5, 2, itertools.product(range(5), repeat=2))
    rows = fam.membership_rows(grid)
    for i, j in itertools.combinations(range(len(pts)), 2):
        same_set = bool((rows[i] == rows[j]).all())
        assert same_set == (keys[i] == keys[j]).all()
        xi = np.array(pts[i][:2])
        xj = np.array(pts[j][:2])
        shared_isotropic_line = (
            xi.any()
            and xj.any()
            and any(((xi - k * xj) % 5 == 0).all() for k in range(1, 5))
            and S.Q.q(xi) == 0
        )
        assert same_set == bool(shared_isotropic_line)
    # the origin of the surface contributes the vacuous full-space member
    origin_idx = pts.index((0, 0, 0))
    assert not keys[origin_idx].any()


def test_energy_to_incidence_chain():
    S = hyperbolic_paraboloid(F5, 3)
    pts = surface_points(S)
    rng = np.random.default_rng(211)
    for _ in range(25):
        A = surface_point_set(
            S, [pts[i] for i in rng.choice(len(pts), rng.integers(1, 9), replace=False)]
        )
        B = surface_point_set(
            S, [pts[i] for i in rng.choice(len(pts), rng.integers(1, 9), replace=False)]
        )
        red = energy_to_incidence(A, B, S)
        assert red.energy == additive_energy(A, B)
        # the shear moving any b to the origin preserves both sets' sizes
        # and their joint energy
        for b in B.matrix():
            t = S.lift(-b[:-1])
            a_prime = PointSet.of(F5, 3, galilean(S, t, A.matrix()))
            b_prime = PointSet.of(F5, 3, galilean(S, t, B.matrix()))
            assert len(a_prime) == len(A) and len(b_prime) == len(B)
            assert additive_energy(a_prime, b_prime) == red.energy
        # one hyperplane per sheared b, and the reduction chain itself
        # carries no constant at all
        assert len(red.lines) == len(B)
        assert red.energy <= len(red.lines) * red.incidences


def test_energy_to_incidence_degenerate_inputs():
    S = hyperbolic_paraboloid(F3, 3)
    empty = PointSet.of(F3, 3, [])
    lone = surface_point_set(S, [(0, 0, 0)])
    # no b to shear to the origin: an empty B fails loudly
    with pytest.raises(ValueError):
        energy_to_incidence(lone, empty, S)
    red2 = energy_to_incidence(lone, lone, S)
    assert red2.energy == 1
    assert red2.lines.canonical_keys().tolist() == [[0, 0, 0]]
    assert red2.incidences == 1


# ---------------------------------------------------------------------------
# vertical/horizontal plane covers


def test_vh_plane_cover_single_plane_and_full_grid():
    one = PointSet.of(F3, 3, [(x, (2 * t + 1) % 3, t) for x in range(3) for t in range(3)])
    assert vh_plane_cover(one) == ((1, 2, 1),)
    grid = PointSet.of(F3, 3, itertools.product(range(3), repeat=3))
    assert vh_plane_cover(grid) == ((1, 0, 0), (1, 0, 1), (1, 0, 2))
    assert vh_plane_cover(PointSet.of(F3, 3, [])) == ()
    with pytest.raises(ValueError):
        vh_plane_cover(PointSet.of(F3, 2, [(0, 0)]))


def _literal_vh_planes(p):
    """Oracle: the VH planes in canonical (type, slope, offset) order."""
    return [(ptype, a, b) for ptype in (1, 2) for a in range(p) for b in range(p)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_vh_plane_masks_match_per_plane_membership_loop(p):
    rng = np.random.default_rng(p)
    X = np.concatenate([decode_point(np.arange(p**3), p, 3),
                        rng.integers(0, p, size=(20, 3))])
    got = vh_plane_masks(X, p)
    assert got.shape == (2 * p * p, len(X)) and got.dtype == bool
    for row, (ptype, a, b) in enumerate(_literal_vh_planes(p)):
        for i, (x1, x2, t) in enumerate(X.tolist()):
            coord = x2 if ptype == 1 else x1
            assert got[row, i] == ((coord - a * t - b) % p == 0)


def _dict_loop_greedy_cover(E):
    """Oracle: the greedy VH cover as a loop over a dict of plane masks,
    taking the first plane with the strictly largest gain until E is
    covered."""
    p = E.field.p
    X = E.matrix()
    planes = _literal_vh_planes(p)
    masks = {}
    for ptype, a, b in planes:
        coord = X[:, 1] if ptype == 1 else X[:, 0]
        masks[(ptype, a, b)] = (coord - a * X[:, 2] - b) % p == 0
    alive = np.ones(len(E), dtype=bool)
    chosen = []
    while alive.any():
        best_plane, best_gain = None, 0
        for plane in planes:
            gain = int((masks[plane] & alive).sum())
            if gain > best_gain:
                best_plane, best_gain = plane, gain
        chosen.append(best_plane)
        alive &= ~masks[best_plane]
    return tuple(chosen)


def test_vh_plane_cover_matches_dict_loop_greedy():
    rng = np.random.default_rng(2024)
    for p in (3, 5, 7):
        F = PrimeField(p)
        for _ in range(12):
            k = int(rng.integers(1, min(p**3, 6 * p)))
            E = PointSet(F, 3, np.sort(rng.choice(p**3, size=k, replace=False)))
            planes = vh_plane_cover(E)
            assert planes == _dict_loop_greedy_cover(E)
            assert all(type(c) is int for pl in planes for c in pl)


def test_vh_cover_greedy_within_log_factor_of_optimum():
    rng = np.random.default_rng(97)
    for _ in range(60):
        pts = {tuple(rng.integers(0, 3, 3)) for _ in range(rng.integers(1, 9))}
        E = PointSet.of(F3, 3, pts)
        if len(E) > 8:
            continue
        kmin = minimum_vh_cover_size(E)
        greedy_size = len(vh_plane_cover(E))
        assert kmin <= greedy_size
        assert greedy_size <= math.ceil((math.log(len(E)) + 1) * kmin)


def test_minimum_vh_cover_small_cases_and_guard():
    assert minimum_vh_cover_size(PointSet.of(F3, 3, [])) == 0
    diag = PointSet.of(F3, 3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
    assert minimum_vh_cover_size(diag) == 1  # x2 = t is one type-1 plane
    # two points forcing different plane families still fit one plane each
    pair = PointSet.of(F3, 3, [(0, 1, 0), (1, 0, 0)])
    assert minimum_vh_cover_size(pair) <= 2
    big = PointSet.of(
        F3, 3, [(a, b, (a * b) % 3) for a in range(3) for b in range(3)]
    )
    assert len(big) == 9
    with pytest.raises(SizeOverflow):
        minimum_vh_cover_size(big)


# ---------------------------------------------------------------------------
# exponent calculus


def test_closed_form_exponent_spot_values():
    assert energy_exponent_closed("dim3_witt1", 0.75) == pytest.approx(2.5)
    assert energy_exponent_closed("dim3_witt1", 1.0) == pytest.approx(3.0)
    assert energy_exponent_closed("dim5_witt2", 9 / 16) == pytest.approx(23 / 8)
    assert energy_exponent_closed("dim5_witt2", 1.0) == pytest.approx(3.0)
    with pytest.raises(OutOfValidityRange):
        energy_exponent_closed("dim3_witt1", 0.5)
    with pytest.raises(OutOfValidityRange):
        energy_exponent_closed("dim5_witt2", 1.5)
    with pytest.raises(ValueError):
        energy_exponent_closed("dim4", 0.9)


def test_exponent_curve_invariants_and_clamping():
    for kind in ("dim3_witt1", "dim5_witt2"):
        curve = closed_form_curve(kind)
        assert curve(1.0) == pytest.approx(3.0)
        lo = curve.alpha_grid[0]
        assert curve(0.0) == pytest.approx(curve.psi_values[0])  # clamped
        vals = [curve(a) for a in np.linspace(0, 1, 33)]
        assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))
        assert all(v < 3.0 for v in vals[:-1])
        assert 0.0 <= lo < 1.0


def test_exponent_curve_constructor_rejections():
    with pytest.raises(ValueError):
        EnergyExponent((0.0, 1.0), (2.0, 2.9))  # psi(1) != 3
    with pytest.raises(ValueError):
        EnergyExponent((0.5, 0.25, 1.0), (2.0, 2.5, 3.0))
    with pytest.raises(ValueError):
        EnergyExponent((0.0, 1.0), (3.0, 3.0))  # hits 3 early
    with pytest.raises(ValueError):
        EnergyExponent((0.0, 0.5, 1.0), (2.5, 2.4, 3.0))  # dip
    with pytest.raises(ValueError):
        EnergyExponent((1.0,), (3.0,))


def test_recursion_endpoint_and_balance():
    inner = closed_form_curve("dim5_witt2")
    top = energy_exponent_recurse(inner, 1.0)
    assert top.value == pytest.approx(3.0, abs=1e-9)
    assert top.rho == pytest.approx(1.0)
    for alpha in (0.3, 0.6, 0.9):
        r = energy_exponent_recurse(inner, alpha)
        assert alpha <= r.rho <= 1.0
        # at the root the spread and concentrated exponents agree
        lhs = 2.5 + r.rho / 2.0
        rhs = 4.0 * (1.0 - r.rho) + inner(min(alpha / r.rho, 1.0))
        assert lhs == pytest.approx(rhs, abs=1e-7)
        assert r.value == pytest.approx(lhs)
    # at alpha = 0 the inner curve clamps to 23/8, giving rho = 35/36
    base = energy_exponent_recurse(inner, 0.0)
    assert base.rho == pytest.approx(35 / 36, abs=1e-8)
    assert base.value == pytest.approx((5 + 35 / 36) / 2, abs=1e-8)


def test_recursion_without_a_root_lands_on_the_nearer_endpoint():
    # the spread term dominates on all of [alpha, 1]: the bisection closes
    # in on alpha
    low = energy_exponent_recurse(0.0, 0.5)
    assert abs(low.rho - 0.5) <= 1e-10 and abs(low.value - 2.75) <= 1e-10
    # the concentrated term dominates everywhere: it closes in on 1
    high = energy_exponent_recurse(10.0, 0.5)
    assert abs(high.rho - 1.0) <= 1e-10 and abs(high.value - 3.0) <= 1e-10
    with pytest.raises(ValueError):
        energy_exponent_recurse(2.5, 1.5)
    with pytest.raises(ValueError):
        energy_exponent_recurse(2.5, 0.5, variant="sideways")


def test_degenerate_lift_formula():
    assert energy_exponent_recurse(2.5, 0.0, variant="degenerate_lift").value == 2.5
    assert energy_exponent_recurse(2.5, 1.0, variant="degenerate_lift").value == 3.0
    inner = closed_form_curve("dim3_witt1")
    for alpha in (0.0, 0.4, 0.8):
        got = energy_exponent_recurse(inner, alpha, variant="degenerate_lift").value
        assert got == pytest.approx(3 * alpha + inner(alpha) * (1 - alpha))


def test_recursion_curve_is_a_valid_exponent_curve():
    inner = closed_form_curve("dim5_witt2")
    outer = recursion_curve(inner)
    assert outer(1.0) == pytest.approx(3.0)
    assert outer(0.0) == pytest.approx((5 + 35 / 36) / 2, abs=1e-7)
    # lifting can only weaken: the outer curve dominates the inner one
    for a in np.linspace(0, 1, 21):
        assert outer(float(a)) >= inner(float(a)) - 1e-9


# ---------------------------------------------------------------------------
# isotropic slices and empirical sampling


def test_max_isotropic_slice_against_brute_force():
    Q = hyperbolic_pairing_form(F3, 1)
    pts = list(itertools.product(range(3), repeat=2))
    rng = np.random.default_rng(71)
    for _ in range(15):
        E = PointSet.of(F3, 2, [pts[i] for i in rng.choice(9, 5, replace=False)])
        got = max_isotropic_slice(E, Q)
        brute = 0
        for line in ([(x, 0) for x in range(3)], [(0, y) for y in range(3)]):
            for t in pts:
                coset = {((a + t[0]) % 3, (b + t[1]) % 3) for a, b in line}
                brute = max(brute, sum(1 for v in E.matrix().tolist() if tuple(v) in coset))
        assert got == brute
    # witt index 0: no isotropic line to slice along, so the call is refused
    E = PointSet.of(F3, 2, [(0, 0), (1, 1), (2, 1)])
    with pytest.raises(ValueError):
        max_isotropic_slice(E, dot_form(F3, 2))
    line = PointSet.of(F3, 2, [(0, 0), (1, 0), (2, 0)])
    peak, alpha = isotropic_slice_alpha(line, Q)
    assert peak == 3 and alpha == pytest.approx(1.0)


def test_surface_lift_affine_exactly_over_isotropic_lines():
    # the lift of an affine base line to the graph is itself affine
    # precisely when the direction is isotropic
    for form in (hyperbolic_pairing_form(F3, 1), dot_form(F3, 2)):
        S = Surface(QuadraticSpace(F3, form.A))
        for V in enumerate_subspaces(F3, 2, 1):
            for t in itertools.product(range(3), repeat=2):
                base = [(tuple((np.array(q) + t) % 3)) for q in V.point_array()]
                lifted = [S.lift(tuple(int(c) for c in b)) for b in base]
                u, v, w = (np.array(q) for q in lifted)
                is_affine = ((u + w - 2 * v) % 3 == 0).all() or (
                    (u + v - 2 * w) % 3 == 0
                ).all() or ((v + w - 2 * u) % 3 == 0).all()
                assert bool(is_affine) == is_totally_isotropic(S.Q, V)


def test_sample_energy_exponents_runs_clean():
    # the split surfaces: the saddle at d = 3 and the paraboloid at p = 5,
    # where -1 is a square, and the hyperbolic paraboloid at d = 5
    for S in (
        hyperbolic_paraboloid(F3, 3),
        paraboloid(F5, 3),
        hyperbolic_paraboloid(F5, 3),
        hyperbolic_paraboloid(F3, 5),
    ):
        samples = sample_energy_exponents(S, trials=10, rng=np.random.default_rng(7))
        assert len(samples) >= 10
        for s in samples:
            assert s.exponent <= s.bound
            assert 0.0 <= s.alpha <= 1.0 + 1e-9
    # determinism: generators of the same seed reproduce the same measurements
    S = hyperbolic_paraboloid(F5, 3)
    a = sample_energy_exponents(S, trials=8, rng=np.random.default_rng(3))
    b = sample_energy_exponents(S, trials=8, rng=np.random.default_rng(3))
    assert a == b


def test_sample_energy_exponents_guardrails():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_energy_exponents(hyperbolic_paraboloid(PrimeField(11), 3), 20, rng)
    with pytest.raises(ValueError):
        sample_energy_exponents(Surface(QuadraticSpace(F3, [[1]])), 20, rng)
    # no exponent curve for a non-split surface
    with pytest.raises(ValueError):
        sample_energy_exponents(paraboloid(F3, 3), 20, rng)
