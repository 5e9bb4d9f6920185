"""Quadratic and bilinear forms over F_p: diagonalization by congruence,
Witt index, totally isotropic subspaces, hyperbolic (dual) pairs,
orthogonal complements, and shear maps of quadratic surfaces.

Conventions.  A form is given by a symmetric m x m matrix A; the bilinear
product is x o y = x^T A y mod p and the quadratic value is Q(x) = x o x.
Since char > 2 the form and its bilinear product determine each other, so
"totally isotropic" is checked as the vanishing of o on a basis.

Subspaces are stored in reduced row echelon form, which makes them
hashable canonical representatives; affine subspaces additionally reduce
the translate so its pivot coordinates vanish.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (POINT_BUDGET, PrimeField, char_vector, coordinate_array,
                   draw_until, encode_point, grid_size)
from .errors import (
    DegenerateForm,
    FFLabError,
    FullyDegenerate,
    NotMaximalIsotropic,
    SizeOverflow,
)

# ---------------------------------------------------------------------------
# exact linear algebra mod p


def rref_mod(M: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_p.  Returns (R, pivot_columns) with
    zero rows dropped; R is an int64 (rank, ncols) array.

    The matrices here are at most a few rows wide, so the elimination runs
    on lists of Python ints, where one entry costs far less to read than
    an element of a numpy array."""
    A = np.asarray(M, dtype=np.int64)
    if A.ndim != 2:
        raise ValueError("need a 2-d matrix")
    nrows, ncols = A.shape
    R = (A % p).tolist()
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if R[i][c]), None)
        if piv is None:
            continue
        R[r], R[piv] = R[piv], R[r]
        inv = pow(R[r][c], p - 2, p)
        lead = R[r] = [v * inv % p for v in R[r]]
        for i in range(nrows):
            f = R[i][c]
            if i != r and f:
                R[i] = [(a - f * b) % p for a, b in zip(R[i], lead, strict=True)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return np.array(R[:r], dtype=np.int64).reshape(r, ncols), pivots


def rank_mod(M: np.ndarray, p: int) -> int:
    return rref_mod(M, p)[0].shape[0]


def det_mod(M: np.ndarray, p: int) -> int:
    """Determinant over F_p by elimination on Python ints, as in rref_mod."""
    A = (np.asarray(M, dtype=np.int64) % p).tolist()
    n = len(A)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        lead = A[c]
        det = (det * lead[c]) % p
        inv = pow(lead[c], p - 2, p)
        for i in range(c + 1, n):
            f = A[i][c] * inv
            if f:
                A[i] = [(a - f * b) % p for a, b in zip(A[i], lead, strict=True)]
    return det % p


def inv_mod(M: np.ndarray, p: int) -> np.ndarray:
    A = np.array(M, dtype=np.int64) % p
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref_mod(aug, p)
    if pivots[:n] != list(range(n)) or R.shape[0] < n:
        raise ValueError("matrix is singular mod p")
    return R[:, n:]


def solve_mod(A: np.ndarray, b: np.ndarray, p: int) -> Optional[np.ndarray]:
    """One solution of A x = b over F_p, or None if inconsistent.
    Free variables are set to zero."""
    A = np.array(A, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64) % p
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref_mod(aug, p)
    ncols = A.shape[1]
    if ncols in pivots:
        return None  # pivot in the constants column
    x = np.zeros(ncols, dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = R[row, -1]
    # R rows read x_c + sum(free terms) = rhs with free vars zero
    return x


def nullspace_mod(M: np.ndarray, p: int) -> np.ndarray:
    """Rows span the kernel of M over F_p."""
    M = np.array(M, dtype=np.int64) % p
    ncols = M.shape[1]
    R, pivots = rref_mod(M, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, c in enumerate(free):
        basis[k, c] = 1
        for row, pc in enumerate(pivots):
            basis[k, pc] = (-R[row, c]) % p
    return basis


# ---------------------------------------------------------------------------
# quadratic spaces


class QuadraticSpace:
    """A symmetric matrix A over F_p together with the form Q(x) = x^T A x."""

    def __init__(self, field: PrimeField, matrix):
        A = np.array(matrix, dtype=np.int64) % field.p
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if not np.array_equal(A, A.T):
            raise ValueError("matrix must be symmetric")
        self.field = field
        self.A = A
        self.m = A.shape[0]
        self._rank: Optional[int] = None
        self._witt: Optional[int] = None

    @property
    def rank(self) -> int:
        """Rank of A over F_p, computed on first use."""
        if self._rank is None:
            self._rank = rank_mod(self.A, self.field.p)
        return self._rank

    def q(self, x) -> int:
        """Q(x) of one vector: q_batch of a one-row batch."""
        return int(self.q_batch([x])[0])

    def q_batch(self, X: np.ndarray) -> np.ndarray:
        """Q(row) for every row of X at once.  Q(x) mod p does not depend
        on which representatives x holds and the int64 sum is exact, so
        only the result is reduced and an int64 X is not copied."""
        X = np.asarray(X, dtype=np.int64)
        return np.einsum("ij,jk,ik->i", X, self.A, X) % self.field.p

    @property
    def witt_index(self) -> int:
        if self._witt is None:
            self._witt = witt_index(self)
        return self._witt

    def __repr__(self) -> str:
        return f"QuadraticSpace(p={self.field.p}, m={self.m}, rank={self.rank})"


def diagonal_form(field: PrimeField, entries: Sequence[int]) -> QuadraticSpace:
    return QuadraticSpace(field, np.diag(np.array(entries, dtype=np.int64) % field.p))


def dot_form(field: PrimeField, m: int) -> QuadraticSpace:
    """The standard dot product x . x as a quadratic form."""
    return QuadraticSpace(field, np.eye(m, dtype=np.int64))


def hyperbolic_pairing_form(field: PrimeField, n: int) -> QuadraticSpace:
    """Q(x, y) = x . y on F_p^{2n}, coordinates interleaved as
    (x_1,..,x_n, y_1,..,y_n).  Matrix has (1/2) I blocks off-diagonal so
    that x^T A x = x . y exactly."""
    half = (field.p + 1) // 2  # inverse of 2
    A = np.zeros((2 * n, 2 * n), dtype=np.int64)
    A[:n, n:] = half * np.eye(n, dtype=np.int64)
    A[n:, :n] = half * np.eye(n, dtype=np.int64)
    return QuadraticSpace(field, A % field.p)


def diagonalize(Q: QuadraticSpace) -> tuple[np.ndarray, QuadraticSpace]:
    """Congruence diagonalization: returns (M, D) with M invertible and
    M^T A M = D diagonal.  Works for degenerate forms too."""
    p = Q.field.p
    m = Q.m
    A = Q.A.copy()
    M = np.eye(m, dtype=np.int64)

    def add_col(dst, src, c):
        # column op x_dst <- x_dst + c x_src applied congruently
        A[:, dst] = (A[:, dst] + c * A[:, src]) % p
        A[dst, :] = (A[dst, :] + c * A[src, :]) % p
        M[:, dst] = (M[:, dst] + c * M[:, src]) % p

    def swap_cols(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        A[[i, j], :] = A[[j, i], :]
        M[:, [i, j]] = M[:, [j, i]]

    for k in range(m):
        if not A[k:, k:].any():
            break  # remaining block is zero: radical
        if not A[k:, k].any():
            continue  # coordinate k already decoupled; leave it in place
        # find a nonzero diagonal entry, lowest index first
        diag_idx = next((i for i in range(k, m) if A[i, i]), None)
        if diag_idx is None:
            # all diagonal zero: pick lowest (i, j) with A[i, j] != 0 and
            # fold column j into column i; then A[i, i] = 2 A[i, j] != 0
            i, j = next(
                (i, j)
                for i in range(k, m)
                for j in range(i + 1, m)
                if A[i, j]
            )
            add_col(i, j, 1)
            diag_idx = i
        if diag_idx != k:
            swap_cols(k, diag_idx)
        inv = pow(int(A[k, k]), p - 2, p)
        for i in range(k + 1, m):
            if A[k, i]:
                add_col(i, k, (-A[k, i] * inv) % p)
    D = QuadraticSpace(Q.field, A)
    if not np.array_equal((M.T @ Q.A @ M) % p, D.A):
        raise FFLabError("diagonalization lost congruence: M^T A M != D")
    if not np.array_equal(D.A, np.diag(np.diag(D.A))):
        raise FFLabError("diagonalization left an off-diagonal entry")
    return M, D


def witt_index(Q: QuadraticSpace) -> int:
    """Dimension of a maximal totally isotropic subspace of a
    nondegenerate form.

    Even dimension 2n: the index is n when det(A) being a square agrees
    with n(p-1)/2 being even, and n-1 otherwise.  Odd dimension m: the
    index is (m-1)/2 for either equivalence class.  A zero determinant
    raises DegenerateForm.
    """
    p = Q.field.p
    det = det_mod(Q.A, p)
    if det == 0:
        raise DegenerateForm(
            f"form has rank {Q.rank} < {Q.m}; split off the radical first"
        )
    m = Q.m
    if m % 2 == 1:
        return (m - 1) // 2
    n = m // 2
    det_is_square = Q.field.is_square[det]
    parity_even = (n * (p - 1) // 2) % 2 == 0
    return n if det_is_square == parity_even else n - 1


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """A linear or affine subspace of F_p^m in canonical form.

    basis: k x m reduced-echelon matrix (rows independent, k may be 0).
    translate: None for linear subspaces; otherwise the canonical coset
    representative (pivot coordinates zeroed).
    """

    __slots__ = ("field", "basis", "pivots", "translate", "ambient")

    def __init__(self, field: PrimeField, rows, translate=None):
        rows = np.array(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError("basis must be a 2-d array (possibly 0 rows)")
        self.field = field
        self.ambient = rows.shape[1]
        basis, pivots = rref_mod(rows, field.p)
        self.basis = basis
        self.pivots = pivots
        self.translate = None if translate is None else self.reduce(translate)

    @classmethod
    def _reduced(cls, field: PrimeField, basis: np.ndarray) -> "Subspace":
        """A linear subspace from a basis already in reduced row echelon
        form, such as a row of echelon_bases: it skips the elimination and
        takes each row's first nonzero column as its pivot."""
        self = cls.__new__(cls)
        self.field = field
        self.ambient = basis.shape[1]
        self.basis = basis
        self.pivots = [int(c) for c in (basis != 0).argmax(axis=1)]
        self.translate = None
        return self

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def is_affine(self) -> bool:
        return self.translate is not None

    def linear_part(self) -> "Subspace":
        return Subspace(self.field, self.basis)

    def reduce(self, X) -> np.ndarray:
        """Canonical representative of each row of X modulo the linear part:
        the row with its pivot coordinates zeroed.  The echelon basis has
        a 1 at its own pivot and 0 at the others, so one product subtracts
        every pivot's multiple at once.  This is the one coset reducer."""
        p = self.field.p
        X = np.asarray(X, dtype=np.int64) % p
        return (X - X[..., self.pivots] @ self.basis) % p

    def coset_labels(self, X) -> np.ndarray:
        """A label for each row of X, in [0, p^(m-k)), equal for two rows
        exactly when their difference lies in the linear part: the flat
        index of reduce(X) read at the non-pivot coordinates, which are
        all the reduction leaves free."""
        free = [c for c in range(self.ambient) if c not in self.pivots]
        return encode_point(self.reduce(X)[..., free], self.field.p)

    def contains_rows(self, X) -> np.ndarray:
        """Which rows of X lie in the (co)space: their representative is the
        translate (zero for a linear subspace)."""
        t = 0 if self.translate is None else self.translate
        return (self.reduce(X) == t).all(axis=-1)

    def contains(self, x) -> bool:
        return bool(self.contains_rows(x))

    def point_array(self) -> np.ndarray:
        """(p^k, m) array of all points of the (co)space."""
        p = self.field.p
        base = coordinate_array(p, self.dim) @ self.basis % p
        if self.translate is not None:
            base = (base + self.translate) % p
        return base

    def _key(self):
        t = None if self.translate is None else tuple(int(v) for v in self.translate)
        return (self.field.p, self.ambient, self.basis.tobytes(), t)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        tag = f", translate={tuple(self.translate)}" if self.is_affine else ""
        return f"Subspace(p={self.field.p}, dim={self.dim}, ambient={self.ambient}{tag})"


ECHELON_BATCH = 4096  # bases per array of _echelon_batches


def _echelon_batches(p: int, m: int, k: int) -> Iterator[np.ndarray]:
    """Every k x m reduced row echelon basis over F_p, in echelon_bases
    order, as (n, k, m) int64 arrays of ECHELON_BATCH bases each (the last
    may hold fewer).  Consecutive pivot patterns share a batch and a large
    pattern spans several, so one batch array is filled at a time and a
    space with no more candidates than a batch gives one array.  Every
    pattern is counted first: SizeOverflow is raised at the first one that
    takes the running count past the point budget, before any allocation."""
    patterns = []
    count = 0
    for pivots in itertools.combinations(range(m), k):
        # free entries sit at (row i, col c) with c not a pivot, c > pivots[i]
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, m)
                if c not in pivots]
        count += p ** len(free)
        if count > POINT_BUDGET:
            raise SizeOverflow(count, POINT_BUDGET, what="subspace enumeration")
        patterns.append((pivots, free))
    # from here count is the number of candidates not yet given a batch
    out, filled = None, 0
    for pivots, free in patterns:
        coords = coordinate_array(p, len(free))
        rows, cols = np.array(free, dtype=np.int64).reshape(-1, 2).T
        start = 0
        while start < len(coords):
            if out is None:
                out, filled = np.zeros((min(ECHELON_BATCH, count), k, m), dtype=np.int64), 0
                count -= len(out)
            n = min(len(coords) - start, len(out) - filled)
            piece = out[filled:filled + n]
            piece[:, range(k), pivots] = 1
            piece[:, rows, cols] = coords[start:start + n]
            start += n
            filled += n
            if filled == len(out):
                yield out
                out = None


def echelon_bases(p: int, m: int, k: int) -> np.ndarray:
    """(N, k, m) int64 array of every k x m reduced row echelon basis over
    F_p, pivot patterns in lexicographic order: the batches of
    _echelon_batches joined.  Each row of the result spans a distinct
    k-dimensional subspace of F_p^m; k = 0 gives one empty basis and
    k > m none.  Raises SizeOverflow before allocating a block that would
    take the running candidate count past the point budget."""
    return np.concatenate([np.zeros((0, k, m), dtype=np.int64),
                           *_echelon_batches(p, m, k)])


def enumerate_subspaces(field: PrimeField, m: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional linear subspaces of F_p^m, one canonical
    representative each, in echelon_bases order, one batch held at a time."""
    for batch in _echelon_batches(field.p, m, k):
        for B in batch:
            yield Subspace._reduced(field, B.copy())


def random_subspace(
    field: PrimeField, m: int, k: int, rng: np.random.Generator
) -> Subspace:
    B = draw_until(lambda: rng.integers(0, field.p, size=(k, m)),
                   lambda B: rank_mod(B, field.p) == k, f"rank-{k} basis")
    return Subspace(field, B)


def random_invertible(field: PrimeField, m: int, rng: np.random.Generator) -> np.ndarray:
    return draw_until(lambda: rng.integers(0, field.p, size=(m, m)),
                      lambda M: det_mod(M, field.p) != 0, "invertible matrix")


def random_symmetric(field: PrimeField, m: int, rng: np.random.Generator) -> np.ndarray:
    M = rng.integers(0, field.p, size=(m, m))
    return np.array((M + M.T) % field.p, dtype=np.int64)


# ---------------------------------------------------------------------------
# isotropic structure


def is_totally_isotropic(Q: QuadraticSpace, W: Subspace) -> bool:
    """True iff the bilinear product vanishes identically on W x W."""
    B = W.basis
    return not ((B @ Q.A @ B.T) % Q.field.p).any()


def enumerate_max_isotropic(Q: QuadraticSpace) -> tuple[Subspace, ...]:
    """All totally isotropic subspaces of the maximal dimension
    witt_index(Q), in canonical order: lexicographic in the entries of
    their reduced echelon bases.  Index 0 gives () (no nontrivial ones).

    The echelon bases of that dimension are tested through their Gram
    matrices B A B^T in batches of at most ECHELON_BATCH candidates, so
    the filter never holds more than one batch; only the survivors are
    kept, and only they become Subspace objects, which keep their echelon
    bases as they are."""
    w = witt_index(Q)
    if w == 0:
        return ()
    p = Q.field.p
    grid_size(p, Q.m)
    kept = [np.zeros((0, w, Q.m), dtype=np.int64)]
    for B in _echelon_batches(p, Q.m, w):
        gram = (B @ Q.A) @ B.transpose(0, 2, 1) % p  # exact: integer matmul
        kept.append(B[~gram.reshape(len(B), -1).any(axis=1)])
    B = np.concatenate(kept)
    flat = B.reshape(len(B), -1)
    return tuple(Subspace._reduced(Q.field, b) for b in B[np.lexsort(flat.T[::-1])])


def complementary_isotropic(Q: QuadraticSpace, W: Subspace) -> Subspace:
    """Given a maximal totally isotropic W in a split form of dimension 2n,
    build a totally isotropic complement V with dual pairing
    w_i o v_j = delta_ij against W's basis rows.

    The construction solves, for each i, the linear system
        w_j o u = delta_ij (all j),   v_j o u = 0 (j < i)
    and corrects u to v_i = u - (u o u)/2 * w_i, which keeps the pairing
    and kills the self-product.
    """
    p = Q.field.p
    if Q.rank < Q.m:
        raise NotMaximalIsotropic("form must be nondegenerate")
    if Q.m % 2 != 0:
        raise NotMaximalIsotropic("ambient dimension must be even")
    n = Q.m // 2
    if witt_index(Q) != n:
        raise NotMaximalIsotropic(f"form is not split: witt index != {n}")
    if W.dim != n or not is_totally_isotropic(Q, W):
        raise NotMaximalIsotropic("W must be totally isotropic of dimension n")

    half = (p + 1) // 2
    WB = W.basis  # n x m
    rows_w = (WB @ Q.A) % p  # row j gives the functional u -> w_j o u
    v_rows: list[np.ndarray] = []
    for i in range(n):
        lhs = [rows_w]
        rhs = [np.eye(n, dtype=np.int64)[i]]
        if v_rows:
            V_so_far = np.array(v_rows, dtype=np.int64)
            lhs.append((V_so_far @ Q.A) % p)
            rhs.append(np.zeros(len(v_rows), dtype=np.int64))
        u = solve_mod(np.concatenate(lhs), np.concatenate(rhs), p)
        if u is None:
            raise NotMaximalIsotropic("pairing system unsolvable; W not maximal")
        quu = Q.q(u)
        v = (u - quu * half % p * WB[i]) % p
        v_rows.append(v)
    V = np.array(v_rows, dtype=np.int64)
    if not np.array_equal((WB @ Q.A @ V.T) % p, np.eye(n, dtype=np.int64)):
        raise FFLabError("complement does not pair with W as the identity")
    if ((V @ Q.A @ V.T) % p).any():
        raise FFLabError("complement is not totally isotropic")
    return Subspace(Q.field, V)


def dual_pairing_basis(Q: QuadraticSpace, W: Subspace, V: Subspace) -> np.ndarray:
    """Rows v_i of V with w_i o v_j = delta_ij against W's canonical basis.

    Exists whenever the pairing W x V -> F_p is nondegenerate (so in
    particular for the output of complementary_isotropic)."""
    p = Q.field.p
    G = (W.basis @ Q.A @ V.basis.T) % p  # n x n pairing Gram matrix
    if W.dim != V.dim or det_mod(G, p) == 0:
        raise NotMaximalIsotropic("pairing between W and V is degenerate")
    C = inv_mod(G, p)  # coefficients: v_i = sum_j C[j, i] * basis_j
    return (C.T @ V.basis) % p


def orthogonal_complement(Q: QuadraticSpace, W: Subspace) -> Subspace:
    """W-perp with respect to the bilinear product of Q."""
    if Q.rank < Q.m:
        raise DegenerateForm("orthogonal complement needs a nondegenerate form")
    M = (W.basis @ Q.A) % Q.field.p
    return Subspace(Q.field, nullspace_mod(M, Q.field.p))


def complement_indicator_character_sum(Q: QuadraticSpace, W: Subspace, x) -> float:
    """|W|^{-1} sum over w in W of e(x o w).  Equals 1 when x is in
    W-perp and 0 otherwise; used as an independent membership oracle."""
    p = Q.field.p
    pts = W.point_array()
    vals = char_vector(Q.field)[(pts @ Q.A @ np.array(x, dtype=np.int64)) % p]
    return float(np.real(vals.mean()))


# ---------------------------------------------------------------------------
# shears of quadratic surfaces and subsurface classification


def galilean(S, t, E) -> np.ndarray:
    """Shear of surface points by a surface point t: the map sending
    (x, Q(x)) to (x + t, Q(x + t)), applied to every point of E.

    S is a Surface; t is one point and E an (n, d) array or an iterable of
    points of it.  Returns the (n, d) int64 image rows in E's order.
    Bijective on the surface; t = 0 gives the identity.  Raises
    NotOnSurface when t or a point of E is off the surface.
    """
    base_t = S.require_on_surface([t])[0, :-1]
    base = (S.require_on_surface(E)[:, :-1] + base_t) % S.field.p
    return np.column_stack([base, S.Q.q_batch(base)])


def restriction_gram(Q: QuadraticSpace, V: Subspace) -> QuadraticSpace:
    """The form Q pulled back to V via its canonical basis."""
    G = (V.basis @ Q.A @ V.basis.T) % Q.field.p
    return QuadraticSpace(Q.field, G)


def _nondegenerate_part_witt(R: QuadraticSpace) -> int:
    """Witt index of the nondegenerate quotient of a possibly degenerate
    form, via diagonalization and dropping zero diagonal entries."""
    _, D = diagonalize(R)
    entries = [int(v) for v in np.diag(D.A) if v % R.field.p]
    return witt_index(diagonal_form(R.field, entries))


def allowed_subsurface_triples(d: int, ambient_witt: int) -> set[tuple[int, int, int]]:
    """The permitted (rank, degenerate dim, witt) triples for the form of a
    d-dimensional quadratic surface restricted to a generic (d-3)-dim
    subspace, by ambient parity and split type.  Rows that a dimension
    count rules out are excluded."""
    if d % 2 == 1:
        if ambient_witt == (d - 1) // 2:  # split ("plus") ambient form
            raw = [
                (d - 3, 0, (d - 3) // 2),
                (d - 3, 0, (d - 5) // 2),
                (d - 4, 1, (d - 5) // 2),
                (d - 5, 2, (d - 5) // 2),
                (d - 5, 2, (d - 7) // 2),
                (d - 6, 3, (d - 7) // 2),
                (d - 7, 4, (d - 9) // 2),
            ]
        elif ambient_witt == (d - 3) // 2:  # non-split ("minus") ambient form
            raw = [
                (d - 3, 0, (d - 3) // 2),
                (d - 3, 0, (d - 5) // 2),
                (d - 4, 1, (d - 5) // 2),
                (d - 5, 2, (d - 7) // 2),
            ]
        else:
            raise ValueError(
                f"odd ambient of dimension {d - 1} must have witt index "
                f"{(d - 1) // 2} or {(d - 3) // 2}, got {ambient_witt}"
            )
    else:
        if ambient_witt != (d - 2) // 2:
            raise ValueError(
                f"even-d ambient of dimension {d - 1} must have witt index "
                f"{(d - 2) // 2}, got {ambient_witt}"
            )
        raw = [
            (d - 3, 0, (d - 4) // 2),
            (d - 4, 1, (d - 4) // 2),
            (d - 4, 1, (d - 6) // 2),
            (d - 5, 2, (d - 6) // 2),
            (d - 6, 3, (d - 8) // 2),
        ]
    lo = max(1, d - 7)
    return {(r, s, w) for (r, s, w) in raw if r >= lo and s >= 0 and w >= 0}


def classify_subsurface(Q: QuadraticSpace, V: Subspace) -> tuple[int, int, int]:
    """Classify the restriction of the base form of a d-dimensional
    quadratic surface to a (d-3)-dimensional subspace V.

    Returns (rank, degenerate dim, witt index of the nondegenerate part).
    Scenario QF-4 checks the triple against allowed_subsurface_triples.
    Raises DegenerateForm when Q itself is degenerate.
    """
    d = Q.m + 1
    if Q.rank < Q.m:
        raise DegenerateForm(f"base form has rank {Q.rank} < {Q.m}")
    if V.dim != d - 3:
        raise ValueError(f"V must have dimension d-3 = {d - 3}, got {V.dim}")
    if V.is_affine:
        raise ValueError("classification takes a linear subspace")
    R = restriction_gram(Q, V)
    r = R.rank
    if r == 0:
        raise FullyDegenerate("form vanishes identically on V")
    return r, V.dim - r, _nondegenerate_part_witt(R)
