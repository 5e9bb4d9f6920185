"""Quadratic form machinery against brute-force oracles.

The Witt index classification, isotropic enumeration and pairing
construction all get checked against exhaustive searches at small p.
"""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fflab import qforms
from fflab.core import PrimeField
from fflab.errors import (
    DegenerateForm,
    FFLabError,
    FullyDegenerate,
    NotMaximalIsotropic,
    SizeOverflow,
)
from fflab.harness.scenarios import _mx1_surface
from fflab import oracles
from fflab.qforms import (
    QuadraticSpace,
    Subspace,
    allowed_subsurface_triples,
    complement_indicator_character_sum,
    complementary_isotropic,
    det_mod,
    diagonal_form,
    diagonalize,
    dual_pairing_basis,
    echelon_bases,
    enumerate_max_isotropic,
    enumerate_subspaces,
    hyperbolic_pairing_form,
    inv_mod,
    is_totally_isotropic,
    nullspace_mod,
    orthogonal_complement,
    random_invertible,
    random_subspace,
    random_symmetric,
    rank_mod,
    rref_mod,
    solve_mod,
    witt_index,
    classify_subsurface,
)


def brute_witt(Q: QuadraticSpace) -> int:
    """Largest dimension of a totally isotropic subspace, by enumeration."""
    best = 0
    for k in range(1, Q.m + 1):
        if any(
            is_totally_isotropic(Q, V)
            for V in enumerate_subspaces(Q.field, Q.m, k)
        ):
            best = k
        else:
            break
    return best


# ---------------------------------------------------------------------------
# linear algebra


def test_rref_solve_nullspace_roundtrip():
    F = PrimeField(7)
    rng = np.random.default_rng(11)
    for _ in range(25):
        A = rng.integers(0, 7, size=(3, 5))
        R, pivots = rref_mod(A, 7)
        assert rank_mod(A, 7) == len(pivots) == R.shape[0]
        # nullspace really annihilates
        N = nullspace_mod(A, 7)
        assert N.shape[0] == 5 - len(pivots)
        assert not ((A @ N.T) % 7).any()
        # consistent systems solve exactly
        x = rng.integers(0, 7, size=5)
        b = (A @ x) % 7
        sol = solve_mod(A, b, 7)
        assert sol is not None
        assert np.array_equal((A @ sol) % 7, b)


def test_inv_and_det():
    F = PrimeField(5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = random_invertible(F, 4, rng)
        Minv = inv_mod(M, 5)
        assert np.array_equal((M @ Minv) % 5, np.eye(4, dtype=np.int64))
        N = random_invertible(F, 4, rng)
        assert det_mod((M @ N) % 5, 5) == (det_mod(M, 5) * det_mod(N, 5)) % 5
    singular = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert det_mod(singular, 5) == 0
    with pytest.raises(ValueError):
        inv_mod(singular, 5)


def _leibniz_det(M, p: int) -> int:
    """Oracle for det_mod: the permutation expansion, signs by inversions."""
    m = len(M)
    total = 0
    for perm in itertools.permutations(range(m)):
        inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
        total += (-1) ** inversions * math.prod(int(M[i][perm[i]]) for i in range(m))
    return total % p


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_det_mod_matches_leibniz_expansion(p):
    rng = np.random.default_rng(p)
    for m in range(5):
        mats = [rng.integers(-2 * p, 2 * p, size=(m, m)) for _ in range(12)]
        if m >= 2:
            # a zero top-left entry forces a row swap; repeated rows are singular
            M = rng.integers(0, p, size=(m, m))
            M[0, 0] = 0
            mats.append(M)
            N = rng.integers(0, p, size=(m, m))
            N[1] = N[0]
            mats.append(N)
        for M in mats:
            assert det_mod(M, p) == _leibniz_det(M.tolist(), p)


def _row_space(M, p: int) -> set:
    """Oracle: every combination of the rows of M, all p^k of them."""
    k = M.shape[0]
    combos = list(itertools.product(range(p), repeat=k))
    coeffs = np.array(combos, dtype=np.int64).reshape(len(combos), k)
    return {tuple(v) for v in (coeffs @ M % p).tolist()}


def _assert_reduced_echelon(R, pivots, p: int) -> None:
    assert R.dtype == np.int64 and R.shape[0] == len(pivots)
    assert ((0 <= R) & (R < p)).all()
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        nonzero = np.flatnonzero(R[r])
        assert nonzero.size and nonzero[0] == c and R[r, c] == 1
        assert np.flatnonzero(R[:, c]).tolist() == [r]


@pytest.mark.parametrize("p", [3, 5, 7, 13])
@pytest.mark.parametrize("shape", [(0, 3), (2, 3), (4, 2), (2, 4), (3, 3)])
def test_rref_mod_matches_brute_force_row_space(p, shape):
    rng = np.random.default_rng(10 * p + shape[0])
    mats = [np.zeros(shape, dtype=np.int64)]
    mats += [rng.integers(-p, 2 * p, size=shape) for _ in range(4)]
    if shape[0] >= 2:
        low_rank = rng.integers(0, p, size=shape)
        low_rank[-1] = 3 * low_rank[0] % p  # a dependent row
        mats.append(low_rank)
    for M in mats:
        R, pivots = rref_mod(M, p)
        _assert_reduced_echelon(R, pivots, p)
        assert R.shape[1] == shape[1]
        assert _row_space(R, p) == _row_space(M % p, p)


def test_subspace_count_gaussian_binomial():
    # number of 2-dim subspaces of F_3^4 is the Gaussian binomial 130
    F = PrimeField(3)
    subs = list(enumerate_subspaces(F, 4, 2))
    assert len(subs) == 130
    assert len(set(subs)) == 130  # canonical representatives are distinct


def gaussian_binomial(p: int, m: int, k: int) -> int:
    """Number of k-dimensional subspaces of F_p^m."""
    num = math.prod(p ** (m - i) - 1 for i in range(k))
    den = math.prod(p ** (i + 1) - 1 for i in range(k))
    return num // den


@pytest.mark.parametrize(
    "p,m,k", [(3, 4, 0), (3, 4, 2), (3, 4, 4), (5, 3, 1), (5, 3, 2), (7, 2, 1), (2, 5, 3)]
)
def test_echelon_bases_are_distinct_reduced_and_counted(p, m, k):
    B = echelon_bases(p, m, k)
    assert B.shape == (gaussian_binomial(p, m, k), k, m)
    for b in B:
        R, pivots = rref_mod(b, p)
        assert np.array_equal(R, b) and len(pivots) == k
    assert len({b.tobytes() for b in B}) == len(B)


def test_echelon_bases_guard_raises_before_allocating():
    # the first pivot pattern alone has 13^100 candidates
    tracemalloc.start()
    try:
        with pytest.raises(SizeOverflow):
            echelon_bases(13, 20, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_subspace_canonicalization_idempotent():
    F = PrimeField(5)
    rng = np.random.default_rng(7)
    for _ in range(20):
        V = random_subspace(F, 4, 2, rng)
        again = Subspace(F, V.basis)
        assert again == V
        # membership closed under random combinations
        c = rng.integers(0, 5, size=2)
        assert V.contains((c @ V.basis) % 5)


def test_affine_subspace_coset_semantics():
    F = PrimeField(3)
    V = Subspace(F, [[1, 0, 2]], translate=[0, 1, 1])
    same = Subspace(F, [[2, 0, 1]], translate=[1, 1, 0])  # 1*(1,0,2)+(0,1,1)
    assert V == same
    assert V.contains([1, 1, 0]) and V.contains([0, 1, 1])
    assert not V.contains([0, 0, 0])
    assert len(V.point_array()) == 3


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_reduce_and_contains_rows_match_brute_membership(p, m):
    # Oracle: the members of span(B) + t listed from the raw rows B and
    # translate t, over every point of F_p^m.
    F = PrimeField(p)
    rng = np.random.default_rng(10 * p + m)
    grid = np.array(list(itertools.product(range(p), repeat=m)), dtype=np.int64)
    for k in range(m + 1):
        B = rng.integers(0, p, size=(k, m))
        while rank_mod(B, p) != k:
            B = rng.integers(0, p, size=(k, m))
        span = {tuple(int(v) for v in np.array(c, dtype=np.int64) @ B % p)
                for c in itertools.product(range(p), repeat=k)}
        for t in (None, rng.integers(0, p, size=m)):
            V = Subspace(F, B, translate=t)
            shift = np.zeros(m, dtype=np.int64) if t is None else t
            want = [tuple(int(v) for v in (x - shift) % p) in span for x in grid]
            assert V.contains_rows(grid).tolist() == want, (k, t)
            assert [V.contains(x) for x in grid] == want
            # the representative differs from x by a member of the linear
            # part and has zero pivot coordinates, which makes it unique
            reps = V.reduce(grid)
            assert not reps[:, V.pivots].any()
            assert all(tuple(int(v) for v in (x - r) % p) in span
                       for x, r in zip(grid, reps))


# ---------------------------------------------------------------------------
# diagonalization and Witt index


def test_diagonalize_identity_case():
    F = PrimeField(7)
    D0 = diagonal_form(F, [1, 3, 0, 5])
    M, D = diagonalize(D0)
    assert np.array_equal(M, np.eye(4, dtype=np.int64))
    assert np.array_equal(D.A, D0.A)


def test_diagonalize_offdiagonal_form():
    F = PrimeField(5)
    Q = QuadraticSpace(F, [[0, 1], [1, 0]])
    M, D = diagonalize(Q)
    assert np.array_equal((M.T @ Q.A @ M) % 5, D.A)
    assert D.rank == Q.rank == 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_diagonalize_random_preserves_rank(p):
    F = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(30):
        Q = QuadraticSpace(F, random_symmetric(F, 4, rng))
        M, D = diagonalize(Q)
        assert det_mod(M, p) != 0
        assert np.array_equal((M.T @ Q.A @ M) % p, D.A)
        assert D.rank == Q.rank


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_witt_of_single_hyperbolic_plane(p):
    F = PrimeField(p)
    assert witt_index(hyperbolic_pairing_form(F, 1)) == 1


def test_witt_sum_of_two_squares():
    assert witt_index(diagonal_form(PrimeField(5), [1, 1])) == 1
    assert witt_index(diagonal_form(PrimeField(3), [1, 1])) == 0


def test_witt_requires_nondegenerate():
    for entries in ([1, 0], [1, 2, 0]):
        with pytest.raises(DegenerateForm, match=f"form has rank {len(entries) - 1} < "):
            witt_index(diagonal_form(PrimeField(5), entries))


@pytest.mark.parametrize("p,m", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4)])
def test_witt_matches_exhaustive_search(p, m):
    F = PrimeField(p)
    rng = np.random.default_rng(100 * p + m)
    done = 0
    while done < 8:
        Q = QuadraticSpace(F, random_symmetric(F, m, rng))
        if Q.rank < m:
            continue
        assert witt_index(Q) == brute_witt(Q)
        done += 1


@pytest.mark.parametrize("p", [3, 5, 7])
def test_witt_congruence_invariant(p):
    F = PrimeField(p)
    rng = np.random.default_rng(p + 17)
    done = 0
    while done < 100:
        m = int(rng.integers(2, 5))
        Q = QuadraticSpace(F, random_symmetric(F, m, rng))
        if Q.rank < m:
            continue
        M = random_invertible(F, m, rng)
        Q2 = QuadraticSpace(F, (M.T @ Q.A @ M) % p)
        assert witt_index(Q2) == witt_index(Q)
        done += 1


def test_homogeneity_of_q():
    F = PrimeField(7)
    rng = np.random.default_rng(0)
    Q = QuadraticSpace(F, random_symmetric(F, 3, rng))
    for lam in range(7):
        for _ in range(5):
            x = rng.integers(0, 7, size=3)
            assert Q.q((lam * x) % 7) == (lam * lam * Q.q(x)) % 7


# ---------------------------------------------------------------------------
# isotropic subspaces


def test_enumerate_max_isotropic_hyperbolic_plane():
    F = PrimeField(5)
    Q = hyperbolic_pairing_form(F, 1)
    found = enumerate_max_isotropic(Q)
    axes = {Subspace(F, [[1, 0]]), Subspace(F, [[0, 1]])}
    assert set(found) == axes


def test_enumerate_max_isotropic_anisotropic_form_empty():
    assert enumerate_max_isotropic(diagonal_form(PrimeField(3), [1, 1])) == ()


def test_enumerate_max_isotropic_split_four_dim():
    F = PrimeField(3)
    Q = hyperbolic_pairing_form(F, 2)
    found = enumerate_max_isotropic(Q)
    # oracle: filter the full subspace enumeration
    oracle = {
        V
        for V in enumerate_subspaces(F, 4, 2)
        if is_totally_isotropic(Q, V)
    }
    assert set(found) == oracle
    # split 4-dim form has 2(p+1) maximal isotropic planes
    assert len(found) == 2 * (3 + 1)


NONSQUARE = {3: 2, 5: 2, 7: 3}


def max_isotropic_count(p: int, m: int, w: int) -> int:
    """Closed-form number of maximal totally isotropic subspaces of a
    nondegenerate form on F_p^m with Witt index w >= 1 (Taylor, The
    Geometry of the Classical Groups, 1992)."""
    if m == 2 * w + 1:
        exps = range(1, w + 1)
    elif m == 2 * w:
        exps = range(0, w)
    else:
        assert m == 2 * w + 2
        exps = range(2, w + 2)
    return math.prod(p**i + 1 for i in exps)


@pytest.mark.parametrize("twisted", [False, True])
@pytest.mark.parametrize(
    "p,m", [(p, m) for p in (3, 5, 7) for m in (2, 3, 4, 5) if (p, m) != (7, 5)]
)
def test_enumerate_max_isotropic_matches_closed_count(p, m, twisted):
    last = NONSQUARE[p] if twisted else 1
    Q = diagonal_form(PrimeField(p), [1] * (m - 1) + [last])
    # Witt index from the discriminant: odd m is always (m-1)/2; even m is
    # split exactly when (-1)^{m/2} det is a square
    if m % 2:
        w = (m - 1) // 2
    else:
        disc = (-1) ** (m // 2) * last % p
        w = m // 2 if pow(disc, (p - 1) // 2, p) == 1 else m // 2 - 1
    assert Q.witt_index == w
    found = enumerate_max_isotropic(Q)
    if w == 0:
        assert found == ()
    else:
        assert len(found) == max_isotropic_count(p, m, w)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_enumerate_max_isotropic_is_canonically_ordered(p, m):
    F = PrimeField(p)
    rng = np.random.default_rng(100 * p + m)
    for _ in range(3):
        while True:
            A = random_symmetric(F, m, rng)
            if det_mod(A, p):
                break
        Q = QuadraticSpace(F, A)
        found = enumerate_max_isotropic(Q)
        assert isinstance(found, tuple)
        keys = [tuple(V.basis.ravel().tolist()) for V in found]
        assert all(a < b for a, b in zip(keys, keys[1:]))  # strictly increasing
        oracle = {
            V
            for V in enumerate_subspaces(F, m, Q.witt_index)
            if is_totally_isotropic(Q, V)
        } if Q.witt_index else set()
        assert set(found) == oracle and len(found) == len(oracle)


@pytest.mark.parametrize("p,m", [(3, 4), (5, 4), (7, 4), (3, 5)])
def test_isotropic_filter_matches_per_basis_loop(p, m):
    # the batched Gram filter against one is_totally_isotropic call per
    # echelon basis, sorted by the entries of the basis
    F = PrimeField(p)
    rng = np.random.default_rng(1000 + 10 * p + m)
    split_and_not = [1, NONSQUARE[p]]
    forms = [diagonal_form(F, [1] * (m - 1) + [last]) for last in split_and_not]
    while len(forms) < 3:
        A = random_symmetric(F, m, rng)
        if det_mod(A, p):
            forms.append(QuadraticSpace(F, A))
    for Q in forms:
        loop = [V for V in enumerate_subspaces(F, m, Q.witt_index)
                if is_totally_isotropic(Q, V)]
        loop.sort(key=lambda V: V.basis.ravel().tolist())
        assert list(enumerate_max_isotropic(Q)) == loop


@pytest.mark.parametrize("p,m,k", [(3, 4, 2), (5, 3, 1), (5, 4, 2), (2, 5, 3), (3, 4, 0)])
@pytest.mark.parametrize("batch", [1, 7, 64])
def test_echelon_batches_cut_the_same_sequence(p, m, k, batch):
    # full batches, then one shorter tail; joined they are echelon_bases
    batches = list(qforms._echelon_batches(p, m, k, batch))
    assert all(len(B) == batch for B in batches[:-1])
    assert 0 < len(batches[-1]) <= batch
    assert np.array_equal(np.concatenate(batches), echelon_bases(p, m, k))


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("twisted", [False, True])
def test_isotropic_filter_in_small_batches_matches_per_subspace_loop(
        p, m, twisted, monkeypatch):
    # Batches of 7 candidates split large pivot patterns and join the
    # tails of small ones; the survivors, in order, must be those of one
    # is_totally_isotropic call per subspace at the default batch size.
    F = PrimeField(p)
    Q = diagonal_form(F, [1] * (m - 1) + [NONSQUARE[p] if twisted else 1])
    w = Q.witt_index
    loop = [V for V in enumerate_subspaces(F, m, w) if is_totally_isotropic(Q, V)] if w else []
    loop.sort(key=lambda V: V.basis.ravel().tolist())
    if m > 2:
        assert gaussian_binomial(p, m, w) > 7  # the candidates span several batches
    monkeypatch.setattr(qforms, "_echelon_batches",
                        functools.partial(qforms._echelon_batches, batch=7))
    assert list(enumerate_max_isotropic(Q)) == loop


def test_isotropic_enumeration_holds_one_batch():
    # MX-1's (13, 4) form has 31,110 candidate planes (1.9 MiB of bases);
    # filtering them in one product peaked at 4.75 MiB.  A batch of 4,096
    # with its Gram products holds about 0.75 MiB.
    Q = _mx1_surface(PrimeField(13), 5).Q
    tracemalloc.start()
    try:
        found = enumerate_max_isotropic(Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == max_isotropic_count(13, 4, 2)
    assert peak < 2 * 2**20


@pytest.mark.parametrize("p,m", [(3, 4), (5, 4), (7, 4), (3, 6)])
def test_enumerated_subspaces_match_the_eliminating_constructor(p, m):
    # Both enumerations wrap echelon bases without reducing them again;
    # Subspace(...) runs the elimination and finds the pivots itself.
    F = PrimeField(p)
    found = [V for last in (1, NONSQUARE[p])
             for V in enumerate_max_isotropic(diagonal_form(F, [1] * (m - 1) + [last]))]
    found += [V for k in (1, m - 1) for V in enumerate_subspaces(F, m, k)]
    assert found
    for V in found:
        want = Subspace(F, V.basis)
        assert V == want and hash(V) == hash(want)
        assert V.pivots == want.pivots and V.translate is None
        assert V.basis.dtype == want.basis.dtype and V.ambient == m


def test_complementary_isotropic_plane():
    F = PrimeField(7)
    Q = hyperbolic_pairing_form(F, 1)
    W = Subspace(F, [[1, 0]])
    V = complementary_isotropic(Q, W)
    assert is_totally_isotropic(Q, V)
    dual = dual_pairing_basis(Q, W, V)
    assert Q.bilinear(W.basis[0], dual[0]) == 1


@pytest.mark.parametrize("p", [3, 7])
def test_complementary_isotropic_random_split_forms(p):
    F = PrimeField(p)
    rng = np.random.default_rng(p * 31)
    H = hyperbolic_pairing_form(F, 2)
    for _ in range(10):
        M = random_invertible(F, 4, rng)
        Q = QuadraticSpace(F, (M.T @ H.A @ M) % p)
        # push the standard max isotropic span{e1,e2} through M^{-1}
        Minv = inv_mod(M, p)
        W = Subspace(F, Minv[:, :2].T)
        assert is_totally_isotropic(Q, W)
        V = complementary_isotropic(Q, W)
        assert is_totally_isotropic(Q, V)
        # direct sum: stacked bases have full rank
        assert rank_mod(np.concatenate([W.basis, V.basis]), p) == 4
        # exact dual pairing in the canonical W basis
        dual = dual_pairing_basis(Q, W, V)
        gram = (W.basis @ Q.A @ dual.T) % p
        assert np.array_equal(gram, np.eye(2, dtype=np.int64))


def test_complementary_isotropic_rejects_bad_input():
    F = PrimeField(5)
    Q = hyperbolic_pairing_form(F, 2)
    with pytest.raises(NotMaximalIsotropic):
        complementary_isotropic(Q, Subspace(F, [[1, 0, 0, 0]]))  # wrong dim
    aniso = diagonal_form(F, [1, 1, 1, 2])
    W = Subspace(F, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(NotMaximalIsotropic):
        complementary_isotropic(aniso, W)


def test_orthogonal_complement_basics():
    F = PrimeField(5)
    Q = hyperbolic_pairing_form(F, 1)
    zero = Subspace(F, np.zeros((0, 2), dtype=np.int64))
    assert orthogonal_complement(Q, zero) == Subspace(F, np.eye(2, dtype=np.int64))
    W = Subspace(F, [[1, 0]])
    assert orthogonal_complement(Q, W) == W  # maximal isotropic is self-dual


def test_orthogonal_complement_dim_formula():
    F = PrimeField(7)
    rng = np.random.default_rng(23)
    zero = Subspace(F, np.zeros((0, 4), dtype=np.int64))
    done = 0
    while done < 50:
        Q = QuadraticSpace(F, random_symmetric(F, 4, rng))
        if Q.rank < 4:
            continue
        k = int(rng.integers(0, 5))
        W = random_subspace(F, 4, k, rng) if k else zero
        Wp = orthogonal_complement(Q, W)
        assert W.dim + Wp.dim == 4
        done += 1


def test_character_sum_indicator_matches_complement():
    # |W|^{-1} sum_{w in W} e(x o w) is the indicator of W-perp
    F = PrimeField(3)
    rng = np.random.default_rng(5)
    done = 0
    while done < 5:
        Q = QuadraticSpace(F, random_symmetric(F, 4, rng))
        if Q.rank < 4:
            continue
        W = random_subspace(F, 4, int(rng.integers(1, 4)), rng)
        Wp = orthogonal_complement(Q, W)
        for x in itertools.product(range(3), repeat=4):
            want = 1.0 if Wp.contains(x) else 0.0
            got = complement_indicator_character_sum(Q, W, x)
            assert abs(got - want) < 1e-9
        done += 1


def test_coset_intersection_sizes():
    # (x+A) cap (y+B) is empty or a coset of A cap B
    F = PrimeField(3)
    rng = np.random.default_rng(41)
    for _ in range(5):
        A = random_subspace(F, 4, int(rng.integers(1, 4)), rng)
        B = random_subspace(F, 4, int(rng.integers(1, 4)), rng)
        cap_dim = 4 - rank_mod(
            np.concatenate([nullspace_mod(A.basis, 3), nullspace_mod(B.basis, 3)]), 3
        )
        pts_A = {tuple(r) for r in A.point_array()}
        pts_B = {tuple(r) for r in B.point_array()}
        cap = len(pts_A & pts_B)
        assert cap == 3**cap_dim
        hits = misses = 0
        for _ in range(40):
            x = rng.integers(0, 3, size=4)
            y = rng.integers(0, 3, size=4)
            coset_A = {tuple((r + x) % 3) for r in A.point_array()}
            coset_B = {tuple((r + y) % 3) for r in B.point_array()}
            inter = len(coset_A & coset_B)
            assert inter in (0, cap)
            hits += inter > 0
            misses += inter == 0
        assert hits > 0  # x = y = 0 style overlaps do occur


# ---------------------------------------------------------------------------
# subsurface classification


def test_allowed_triples_small_dims():
    assert allowed_subsurface_triples(5, 2) == {(2, 0, 1), (2, 0, 0), (1, 1, 0)}
    assert allowed_subsurface_triples(5, 1) == {(2, 0, 1), (2, 0, 0), (1, 1, 0)}
    assert allowed_subsurface_triples(4, 1) == {(1, 0, 0)}
    with pytest.raises(ValueError):
        allowed_subsurface_triples(5, 0)


@pytest.mark.parametrize("witt_target,entries", [(2, None), (1, [1, 1, 1, 2])])
def test_classify_subsurface_d5_exhaustive(witt_target, entries):
    F = PrimeField(3)
    if entries is None:
        Q = hyperbolic_pairing_form(F, 2)
    else:
        Q = diagonal_form(F, entries)
    assert witt_index(Q) == witt_target
    allowed = allowed_subsurface_triples(5, witt_target)
    seen = set()
    degenerate = 0
    for V in enumerate_subspaces(F, 4, 2):
        if is_totally_isotropic(Q, V):
            with pytest.raises(FullyDegenerate):
                classify_subsurface(Q, V)
            degenerate += 1
            continue
        triple = classify_subsurface(Q, V)
        r, s, w = triple
        assert r + s == 2
        assert triple in allowed
        seen.add(triple)
    assert seen  # at least one valid class appears
    if witt_target == 2:
        assert degenerate == 8  # the maximal isotropic planes of the split form


def _witt_by_full_conjunction(A, p, lines, planes) -> int:
    """QF-1's Witt oracle with all three plane conditions evaluated on
    every plane."""
    a = np.asarray(A, dtype=np.int64).ravel()
    if not (lines @ a % p == 0).any():
        return 0
    uu, vv, uv = planes
    return 2 if ((uu @ a % p == 0) & (vv @ a % p == 0) & (uv @ a % p == 0)).any() else 1


@pytest.mark.parametrize("p", [5, 7])
def test_staged_witt_oracle_matches_full_conjunction(p):
    F = PrimeField(p)
    lines, planes = oracles.witt_monomials(p, 4)
    forms = [np.diag(np.array(diag, dtype=np.int64))
             for diag in itertools.product(range(1, p), repeat=4)]
    rng = np.random.default_rng(p)
    while len(forms) < (p - 1) ** 4 + 100:
        A = random_symmetric(F, 4, rng)
        if det_mod(A, p) != 0:
            forms.append(A)
    seen = set()
    for A in forms:
        w = oracles.brute_witt(A, p, lines, planes)
        assert w == _witt_by_full_conjunction(A, p, lines, planes)
        seen.add(w)
    assert seen == {1, 2}


def test_classify_subsurface_d4():
    F = PrimeField(3)
    Q = diagonal_form(F, [1, 1, 1])
    for V in enumerate_subspaces(F, 3, 1):
        if is_totally_isotropic(Q, V):
            with pytest.raises(FullyDegenerate):
                classify_subsurface(Q, V)
        else:
            assert classify_subsurface(Q, V) == (1, 0, 0)


def test_classify_subsurface_rejects_wrong_dim():
    F = PrimeField(3)
    Q = hyperbolic_pairing_form(F, 2)
    with pytest.raises(ValueError):
        classify_subsurface(Q, Subspace(F, [[1, 0, 0, 0]]))
    with pytest.raises(DegenerateForm, match="base form has rank 2 < 3"):
        classify_subsurface(diagonal_form(F, [1, 1, 0]), Subspace(F, [[1, 0, 0]]))
