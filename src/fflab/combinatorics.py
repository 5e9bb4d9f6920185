"""Additive energy and incidence machinery for subsets of quadratic surfaces.

Everything in this module is exact integer counting at heart: energies are
quadruple counts, incidences are point-in-hyperplane counts, and floating
point only enters through the exponent curves at the end of the file.

The central objects:

  * PointSet            -- a set of points stored as the sorted, duplicate-
                           free int64 array of their flat indices in core's
                           encoding; index order is the canonical order
  * HyperplaneFamily    -- a multiset of affine hyperplanes {y : w.y = c}
  * EnergyExponent      -- a sampled curve alpha -> Psi(alpha) bounding
                           log_{|E|} Lambda(E) for slice-constrained sets

plus the operations that tie them together: the energy-to-incidence
reduction, the double-counting incidence bound, vertical/horizontal plane
covers in F_p^3, and the closed-form / recursive exponent calculus.  Most
of them work on PointSet.index or PointSet.matrix(); off_diagonal_energy
and energy_slice_bound judge a whole family of subsets at once, given as
point rows and one bool mask row per subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

import numpy as np

from .core import (
    PrimeField,
    coordinate_array,
    decode_point,
    draw_until,
    encode_point,
    grid_size,
    point_rows,
)
from .errors import (
    FFLabError,
    NotOnSurface,
    OutOfValidityRange,
)
from .qforms import (
    QuadraticSpace,
    Subspace,
    enumerate_max_isotropic,
    galilean,
)
from .surfaces import Surface

__all__ = [
    "CURVE_SAMPLES",
    "ENERGY_SLACK",
    "PointSet",
    "HyperplaneFamily",
    "EnergyExponent",
    "EnergyIncidence",
    "IncidenceAudit",
    "RecursedExponent",
    "EnergySample",
    "additive_energy",
    "off_diagonal_energy",
    "energy_slice_bound",
    "energy_to_incidence",
    "incidence_count",
    "incidence_bound_audit",
    "all_affine_hyperplanes",
    "vh_plane_masks",
    "vh_plane_cover",
    "energy_exponent_closed",
    "closed_form_curve",
    "energy_exponent_recurse",
    "recursion_curve",
    "max_isotropic_slice",
    "isotropic_slice_alpha",
    "sample_energy_exponents",
    "surface_point_set",
    "base_projection",
    "random_surface_subset",
]


# ---------------------------------------------------------------------------
# point sets


class PointSet:
    """A finite set of points of F_p^dim.

    Stored as `index`, the sorted, duplicate-free int64 array of the
    points' flat indices in core's encoding (encode_point), so index order
    is the canonical order and every downstream tie-break follows it.
    matrix() decodes the (n, dim) coordinate rows once and caches them.
    """

    __slots__ = ("field", "dim", "index", "_matrix")

    def __init__(self, field: PrimeField, dim: int, index):
        index = np.array(index, dtype=np.int64)
        if index.ndim != 1:
            raise ValueError("index must be a 1-d array of flat indices")
        if index.size and (index[0] < 0 or index[-1] >= grid_size(field.p, dim)
                           or (index[1:] <= index[:-1]).any()):
            raise ValueError(
                "index must be strictly increasing flat indices of F_p^dim "
                "(use PointSet.of)")
        index.flags.writeable = False
        self.field = field
        self.dim = dim
        self.index = index
        self._matrix = None

    @classmethod
    def of(cls, field: PrimeField, dim: int, pts: Iterable) -> "PointSet":
        """Deduplicated set of the given points: an (n, dim) array, or any
        iterable of coordinate sequences, reduced mod p."""
        rows = point_rows(pts.matrix() if isinstance(pts, PointSet) else pts, dim)
        return cls(field, dim, np.unique(encode_point(rows, field.p)))

    def __len__(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return f"PointSet(p={self.field.p}, dim={self.dim}, size={len(self)})"

    def matrix(self) -> np.ndarray:
        """(n, dim) int64 array of the points in index order (read-only)."""
        if self._matrix is None:
            m = decode_point(self.index, self.field.p, self.dim)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix


def surface_point_set(S: Surface, pts: Iterable) -> PointSet:
    """PointSet of surface points; rejects anything off the surface."""
    E = PointSet.of(S.field, S.ambient_dim, pts)
    S.require_on_surface(E.matrix())
    return E


def base_projection(E: PointSet) -> PointSet:
    """Drop the last coordinate of every point (surface -> base)."""
    return PointSet(E.field, E.dim - 1,
                    np.unique(E.index % E.field.p ** (E.dim - 1)))


def random_surface_subset(S: Surface, size: int, rng: np.random.Generator) -> PointSet:
    if size > S.size:
        raise ValueError(f"surface has only {S.size} points")
    rows = rng.choice(S.size, size=size, replace=False)
    return PointSet(S.field, S.ambient_dim, np.sort(S.flat_indices[rows]))


# ---------------------------------------------------------------------------
# additive energy


def additive_energy(A: PointSet, B: Optional[PointSet] = None) -> int:
    """Number of quadruples a + b = c + d with a, c in A and b, d in B.

    B defaults to A.  The count is exact: it groups the |A||B| pairwise
    sums by flat index and adds the squared group sizes.
    """
    if B is None:
        B = A
    if A.field != B.field or A.dim != B.dim:
        raise ValueError("A and B must share their ambient space")
    sums = encode_point(A.matrix()[:, None, :] + B.matrix()[None, :, :], A.field.p)
    return int(_colliding_pairs(sums, 0, 1)[0])


def _colliding_pairs(keys: np.ndarray, case, cases: int) -> np.ndarray:
    """For each case 0 ... cases - 1, the number of ordered pairs of equal
    entries among the nonnegative keys of that case.

    case is an int array of keys' shape, or one int for all of them.  One
    np.unique over case * span + keys groups every case at once.
    """
    span = keys.max(initial=0) + 1
    groups, counts = np.unique(case * span + keys, return_counts=True)
    pairs = np.zeros(cases, dtype=np.int64)
    np.add.at(pairs, groups // span, counts * counts)
    return pairs


def _chosen_pair_sums(X: np.ndarray, masks: np.ndarray, p: int) -> tuple:
    """(sums, case, j): for every row case of the bool (cases, n) array
    masks and every ordered pair (i, j) of the rows of X it chooses, the
    flat index of X[i] + X[j], with its case and its j, as flat arrays."""
    case, i, j = np.nonzero(masks[:, :, None] & masks[:, None, :])
    return encode_point(X[i] + X[j], p), case, j


def off_diagonal_energy(X: np.ndarray, masks: np.ndarray, p: int) -> np.ndarray:
    """For each row of the bool (cases, n) array masks, the quadruples
    a + b = c + d among the rows of the (n, 3) array X it chooses whose
    b, d differ in BOTH of the first two coordinates.

    This is the part of the energy of a 3-dimensional set not explained by
    vertical/horizontal slices.  Counted by inclusion-exclusion inside
    each class of equal sums: all (b, d) pairs, minus those with b0 = d0,
    minus those with b1 = d1, plus those with both.
    """
    if X.shape[1] != 3:
        raise ValueError("off_diagonal_energy expects points in F_p^3")
    sums, case, j = _chosen_pair_sums(X, masks, p)
    sums *= p * p  # room for a key below p^2
    b0, b1 = X[j, 0], X[j, 1]
    cases = len(masks)
    return (_colliding_pairs(sums, case, cases) - _colliding_pairs(sums + b0, case, cases)
            - _colliding_pairs(sums + p * b1, case, cases)
            + _colliding_pairs(sums + b0 + p * b1, case, cases))


def energy_slice_bound(X: np.ndarray, masks: np.ndarray, p: int) -> np.ndarray:
    """For each nonempty row of the bool (cases, n) array masks, the energy
    of the set E of rows of X it chooses over the bound
    |E|^{5/2} + sum_j |E_j|^3 + sum_k |E^k|^3, where E_j is the vertical
    slice x1 = j and E^k the horizontal slice x2 = k.

    Every row of X must lie on the 3-dim bilinear graph surface t = x1 x2.
    The bound combines the off-diagonal estimate with the slice terms;
    scenario EN-2 tracks the ratio against a committed exhaustive
    baseline.
    """
    off = (X[:, 0] * X[:, 1] - X[:, 2]) % p != 0
    if off.any():
        raise NotOnSurface(
            f"{tuple(X[off][0].tolist())} is not on the bilinear graph surface")
    sums, case, _ = _chosen_pair_sums(X, masks, p)
    energy = _colliding_pairs(sums, case, len(masks))
    onehot = (X[:, :2, None] == np.arange(p)).reshape(len(X), 2 * p)
    slices = masks.astype(np.int64) @ onehot  # [case, (axis, value)]
    vertical, horizontal = (slices ** 3).reshape(len(masks), 2, p).sum(axis=2).T
    # Python's float power: numpy's vectorized power can differ in the
    # last bit, and the tracked ratios keep the bits of the scalar bound
    root = np.array([float(n) ** 2.5 for n in range(len(X) + 1)])
    return energy / (root[masks.sum(axis=1)] + vertical + horizontal)


# ---------------------------------------------------------------------------
# hyperplane families and incidences


def _leading(rows: np.ndarray) -> np.ndarray:
    """Leading nonzero entry of each row; 0 for a zero row."""
    return rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]


class HyperplaneFamily:
    """A multiset of affine hyperplanes {y in F_p^m : w . y = c}.

    Member i has normal normals[i] (a (k, m) int64 array) and offset
    offsets[i] (a (k,) int64 array), both reduced mod p; members are kept
    with multiplicity.  A zero normal with zero offset is the degenerate
    full-space member: it is the hyperplane attached to the origin of a
    surface, where the defining condition is vacuous.
    """

    __slots__ = ("field", "ambient", "normals", "offsets")

    def __init__(self, field: PrimeField, ambient: int, normals, offsets):
        p = field.p
        normals = point_rows(normals, ambient) % p
        offsets = np.asarray(offsets, dtype=np.int64) % p
        if offsets.shape != (len(normals),):
            raise ValueError("need exactly one offset per normal")
        if offsets[~normals.any(axis=1)].any():
            raise ValueError("zero normal with nonzero offset is the empty set")
        self.field = field
        self.ambient = ambient
        self.normals = normals
        self.offsets = offsets

    @classmethod
    def from_surface_points(cls, S: Surface, pts: Iterable) -> "HyperplaneFamily":
        """One hyperplane per surface point x: {y : x o y = x o x} where o is
        the bilinear pairing of the base form.  Stored in dot-product form
        (A x, Q(x)); the origin contributes the full-space member."""
        X = S.require_on_surface(pts)
        return cls(S.field, S.base_dim, X[:, :-1] @ S.Q.A.T, X[:, -1])

    def __len__(self) -> int:
        return len(self.offsets)

    def membership_rows(self, P: PointSet) -> np.ndarray:
        """Boolean (len(self), |P|) matrix: item i contains point j.

        The full-space member (zero normal, zero offset) contains every
        point.  Raises ValueError when P lives in another space.
        """
        if P.field != self.field or P.dim != self.ambient:
            raise ValueError("points and hyperplanes must share their ambient space")
        rows = self.normals @ P.matrix().T
        return np.remainder(rows, self.field.p, out=rows) == self.offsets[:, None]

    def canonical_keys(self) -> np.ndarray:
        """(len(self), m + 1) int64 rows identifying each member as a point
        set: (normal, offset) scaled so the leading nonzero coefficient of
        the normal is 1.  The full-space member's row is all zeros."""
        # inv[0] = 0, so the full-space member scales to the zero row
        scale = self.field.inv[_leading(self.normals)]
        rows = np.column_stack([self.normals, self.offsets]) * scale[:, None]
        return rows % self.field.p


def all_affine_hyperplanes(field: PrimeField, m: int) -> HyperplaneFamily:
    """Every affine hyperplane of F_p^m, once: (p^m - 1)/(p - 1) directions
    with leading coefficient 1 in index order, each with the p offsets."""
    p = field.p
    W = coordinate_array(p, m)
    W = W[_leading(W) == 1]
    return HyperplaneFamily(field, m, np.repeat(W, p, axis=0),
                            np.tile(np.arange(p), len(W)))


class IncidenceAudit(NamedTuple):
    incidences: int
    c1: int       # max |l ∩ l' ∩ P| over distinct hyperplanes l, l'
    c2: int       # max multiplicity in the family
    bound: float  # sqrt(c1 |P|) |L| + c2 |P|


def incidence_bound_audit(P: PointSet, L: HyperplaneFamily) -> IncidenceAudit:
    """Exact incidences plus the double-counting bound with measured C1, C2.

    The bound sqrt(C1) sqrt(|P|) |L| + C2 |P| is constant-free; scenario
    IN-2 checks that the incidences stay under it.
    """
    rows = L.membership_rows(P)
    count = int(rows.sum())
    # one canonical key per item: C2 is the largest key count, and C1 reads
    # the pairwise overlaps of the first membership row of each key
    _, first, mult = np.unique(L.canonical_keys(), axis=0,
                               return_index=True, return_counts=True)
    c2 = int(mult.max())
    c1 = 0
    if len(first) > 1:
        M = rows[first].astype(np.float64)
        gram = M @ M.T  # exact: entries are at most |P| <= p^m < 2^53
        np.fill_diagonal(gram, -1)
        c1 = int(gram.max())
    bound = math.sqrt(c1) * math.sqrt(len(P)) * len(L) + c2 * len(P)
    return IncidenceAudit(count, c1, c2, bound)


def incidence_count(P: PointSet, L: HyperplaneFamily) -> int:
    """Exact number of (point, hyperplane) incidences, multiset-weighted."""
    return int(L.membership_rows(P).sum())


# ---------------------------------------------------------------------------
# energy -> incidence reduction


class EnergyIncidence(NamedTuple):
    energy: int
    lines: HyperplaneFamily
    incidences: int


def energy_to_incidence(A: PointSet, B: PointSet, S: Surface) -> EnergyIncidence:
    """Reduce the energy of A, B on S to a point/hyperplane incidence count.

    Picks the b in B maximizing #{(a, d) : a - d + b on S} (the first in
    index order on ties), shears the surface
    so that b moves to the origin, attaches to every sheared b' the hyperplane
    {y : b' o y = b' o b'} (the origin contributing the full space), and counts
    incidences of the sheared A-bases against that multiset.  The chain gives
    Lambda(A, B) <= |L| * I exactly; scenario IN-1 checks the factor-2 form
    Lambda(A, B) <= 2 |L| I.
    """
    A_surf = surface_point_set(S, A)
    B_surf = surface_point_set(S, B)
    energy = additive_energy(A_surf, B_surf)
    A_mat, B_mat = A_surf.matrix(), B_surf.matrix()
    diffs = (A_mat[:, None, :] - B_mat[None, :, :]).reshape(-1, S.ambient_dim)
    counts = [int(S.contains_rows(diffs + b).sum()) for b in B_mat]
    best_b = B_mat[int(np.argmax(counts))]

    t = S.lift(-best_b[:-1])
    a_prime = PointSet.of(S.field, S.ambient_dim, galilean(S, t, A_mat))
    b_prime = PointSet.of(S.field, S.ambient_dim, galilean(S, t, B_mat))
    lines = HyperplaneFamily.from_surface_points(S, b_prime.matrix())
    return EnergyIncidence(energy, lines, incidence_count(base_projection(a_prime), lines))


# ---------------------------------------------------------------------------
# vertical/horizontal plane covers in F_p^3

# A VH plane is {x2 = a t + b} (type 1: swept by lines with x1 free) or
# {x1 = a t + b} (type 2: x2 free).  Constant-t planes are excluded.


def vh_plane_masks(X: np.ndarray, p: int) -> np.ndarray:
    """Membership of the rows of the (n, 3) array X in every VH plane.

    Returns a (2p^2, n) bool array whose row (type - 1) p^2 + a p + b is
    the plane (type, a, b), so rows run in the canonical (type, slope,
    offset) order.
    """
    coord = np.stack([X[:, 1], X[:, 0]])                # (2, n) by type
    slopes = np.arange(p)[:, None] * X[:, 2]            # (p, n)
    offset = (coord[:, None, :] - slopes[None]) % p     # (2, p, n)
    hits = offset[:, :, None, :] == np.arange(p)[:, None]
    return hits.reshape(2 * p * p, len(X))


def vh_plane_cover(E: PointSet) -> tuple:
    """Greedy cover of E in F_p^3 by VH planes: the chosen (type, slope,
    offset) triples, in pick order.

    Each step takes the plane covering the most uncovered points (ties by
    canonical (type, slope, offset) order) until E is covered; every point
    lies on a VH plane, so a step that covers none raises FFLabError.
    """
    if E.dim != 3:
        raise ValueError("vh_plane_cover expects points in F_p^3")
    p = E.field.p
    masks = vh_plane_masks(E.matrix(), p)
    alive = np.ones(len(E), dtype=bool)
    chosen = []
    while alive.any():
        k = int((masks & alive).sum(axis=1).argmax())  # the first maximum: canonical tie order
        if not (masks[k] & alive).any():
            raise FFLabError(f"no VH plane covers the {int(alive.sum())} points left")
        ptype, a, b = np.unravel_index(k, (2, p, p))
        chosen.append((int(ptype) + 1, int(a), int(b)))
        alive &= ~masks[k]
    return tuple(chosen)


# ---------------------------------------------------------------------------
# energy exponent curves

# Points on every tabulated exponent curve.
CURVE_SAMPLES = 65

_CLOSED_FORMS = {
    "dim3_witt1": (0.75, lambda a: 1.0 + 2.0 * a),
    "dim5_witt2": (0.5625, lambda a: (19.0 + 2.0 * a) / 7.0),
}


def energy_exponent_closed(kind: str, alpha: float) -> float:
    """Closed-form exponent bound Psi(alpha) for the given surface class.

    Raises OutOfValidityRange when alpha is outside the class's stated
    window; callers that want the safe clamped value should evaluate the
    corresponding curve from closed_form_curve instead.
    """
    if kind not in _CLOSED_FORMS:
        raise ValueError(f"unknown exponent kind {kind!r}")
    lo, formula = _CLOSED_FORMS[kind]
    if not lo <= alpha <= 1.0:
        raise OutOfValidityRange(
            f"{kind} requires alpha in [{lo}, 1], got {alpha}"
        )
    return formula(alpha)


@dataclass(frozen=True)
class EnergyExponent:
    """A sampled curve alpha -> Psi(alpha) with linear interpolation.

    The grid must end at alpha = 1 with Psi(1) = 3, stay strictly below 3
    before that, and be nondecreasing.  Evaluation below the grid start
    clamps to the first value: a smaller alpha is a stronger hypothesis, so
    the bound at the validity edge still applies.
    """

    alpha_grid: tuple
    psi_values: tuple

    def __post_init__(self):
        grid, psi = self.alpha_grid, self.psi_values
        if len(grid) != len(psi) or len(grid) < 2:
            raise ValueError("grid and values must match with at least 2 samples")
        if any(b - a <= 0 for a, b in itertools.pairwise(grid)):
            raise ValueError("alpha grid must be strictly increasing")
        if grid[0] < 0.0 or abs(grid[-1] - 1.0) > 1e-12:
            raise ValueError("alpha grid must sit in [0, 1] and end at 1")
        if any(b - a < -1e-9 for a, b in itertools.pairwise(psi)):
            raise ValueError("psi values must be nondecreasing")
        if abs(psi[-1] - 3.0) > 1e-9:
            raise ValueError("psi(1) must equal 3")
        if any(a < 1.0 - 1e-12 and v >= 3.0 for a, v in zip(grid, psi, strict=True)):
            raise ValueError("psi must stay below 3 for alpha < 1")

    def __call__(self, alpha: float) -> float:
        if alpha < 0.0 or alpha > 1.0 + 1e-12:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        if alpha <= self.alpha_grid[0]:
            return self.psi_values[0]
        return float(np.interp(alpha, self.alpha_grid, self.psi_values))


def closed_form_curve(kind: str) -> EnergyExponent:
    """Tabulate a closed-form class over its validity window as a curve of
    CURVE_SAMPLES points."""
    lo, formula = _CLOSED_FORMS[kind]
    grid = np.linspace(lo, 1.0, CURVE_SAMPLES)
    return EnergyExponent(
        tuple(float(a) for a in grid),
        tuple(float(formula(a)) for a in grid),
    )


class RecursedExponent(NamedTuple):
    value: float
    rho: float


# an exponent curve, or a constant exponent
InnerCurve = Union[EnergyExponent, float]


def _eval_inner(inner: InnerCurve, alpha: float) -> float:
    if isinstance(inner, EnergyExponent):
        return inner(alpha)
    return float(inner)


def energy_exponent_recurse(
    inner: InnerCurve, alpha: float, variant: str = "dim_induct"
) -> RecursedExponent:
    """Lift an inner exponent curve one step up the dimension recursion.

    dim_induct balances the spread-set and concentrated-set exponents by
    solving 5/2 + rho/2 = 4(1 - rho) + Psi(alpha/rho) for rho in [alpha, 1]
    (bisection to 1e-10) and returns Psi'(alpha) = (5 + rho)/2.  If no root
    exists the bisection closes in on the nearer endpoint, whose bound it
    returns to within 1e-10.  degenerate_lift returns
    3 alpha + Psi(alpha)(1 - alpha), the exponent after absorbing fully
    degenerate directions.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if variant == "degenerate_lift":
        psi = _eval_inner(inner, alpha)
        return RecursedExponent(3.0 * alpha + psi * (1.0 - alpha), alpha)
    if variant != "dim_induct":
        raise ValueError(f"unknown variant {variant!r}")

    def gap(rho: float) -> float:
        arg = 0.0 if alpha == 0.0 else alpha / rho
        return 4.5 * rho - 1.5 - _eval_inner(inner, min(arg, 1.0))

    lo, hi = alpha, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    return RecursedExponent((5.0 + rho) / 2.0, rho)


def recursion_curve(inner: InnerCurve) -> EnergyExponent:
    """The curve alpha -> Psi'(alpha) produced by the dim_induct step, at
    CURVE_SAMPLES points of [0, 1]."""
    grid = np.linspace(0.0, 1.0, CURVE_SAMPLES)
    values = [energy_exponent_recurse(inner, float(a)).value for a in grid]
    return EnergyExponent(tuple(float(a) for a in grid), tuple(values))


# ---------------------------------------------------------------------------
# empirical exponent sampling


def max_isotropic_slice(E: PointSet, Q: QuadraticSpace) -> int:
    """Largest intersection of E (in the base space of Q) with a maximal
    totally isotropic affine subspace, for a nonempty E and a form of Witt
    index at least 1."""
    if Q.m != E.dim:
        raise ValueError("Q must live on the ambient of E")
    subspaces = enumerate_max_isotropic(Q)
    if not subspaces:
        raise ValueError("Q has Witt index 0: no isotropic subspace to slice along")
    X = E.matrix()
    return max(int(np.bincount(V.coset_labels(X)).max()) for V in subspaces)


def isotropic_slice_alpha(E: PointSet, Q: QuadraticSpace) -> tuple[int, float]:
    """(max slice, alpha) where max slice = |E|^alpha, for |E| >= 2."""
    peak = max_isotropic_slice(E, Q)
    return peak, math.log(peak) / math.log(len(E))


# How far a sampled energy exponent may sit above its curve at desk scale.
ENERGY_SLACK = 0.2


class EnergySample(NamedTuple):
    label: str
    size: int
    alpha: float
    exponent: float
    bound: float


def _exponent_curve_for(S: Surface) -> EnergyExponent:
    """The closed-form curve of a split surface of dimension 3 or 5."""
    d, w = S.ambient_dim, S.Q.witt_index
    if (d, w) == (3, 1):
        return closed_form_curve("dim3_witt1")
    if (d, w) == (5, 2):
        return closed_form_curve("dim5_witt2")
    raise ValueError(f"no exponent curve for dimension {d} and Witt index {w}")


def _lifted_coset(S: Surface, V: Subspace, t: np.ndarray) -> np.ndarray:
    """Flat indices of the surface lift of the coset V + t."""
    return S.flat_indices[encode_point(V.point_array() + t, S.field.p)]


def sample_energy_exponents(S: Surface, trials: int,
                            rng: np.random.Generator) -> list:
    """Measure (alpha, energy exponent) pairs for structured and random
    subsets of S, drawn from rng, and check each against the surface's
    exponent curve.

    Every sample must sit on or below its bound Psi(alpha) + ENERGY_SLACK,
    which each EnergySample records; a violation raises
    FFLabError with the offending set's statistics.  Split surfaces of
    dimension 3 and 5 at p <= 7 only, the ones with a closed-form curve:
    below p = 3 the diagonal term drowns the curve, above p = 7 the
    quadruple counts stop being desk-size.
    """
    if S.field.p > 7:
        raise ValueError("sampling is limited to p <= 7")
    curve = _exponent_curve_for(S)
    samples: list = []

    def record(label: str, index: np.ndarray) -> None:
        E = PointSet(S.field, S.ambient_dim, np.unique(index))
        n = len(E)
        lam = additive_energy(E)
        exponent = math.log(lam) / math.log(n)
        _, alpha = isotropic_slice_alpha(base_projection(E), S.Q)
        bound = curve(alpha) + ENERGY_SLACK
        if exponent > bound:
            raise FFLabError(
                f"{label}: exponent {exponent:.4f} exceeds bound {bound:.4f} "
                f"(n={n}, alpha={alpha:.4f})"
            )
        samples.append(EnergySample(label, n, alpha, exponent, bound))

    p = S.field.p
    V = enumerate_max_isotropic(S.Q)[0]
    t0 = rng.integers(0, p, size=S.base_dim)
    coset0 = _lifted_coset(S, V, t0)
    record("isotropic_coset", coset0)
    # a second, disjoint translate of the same subspace; crossing cosets
    # of different directions carry too large a constant at desk scale
    t1 = draw_until(lambda: rng.integers(0, p, size=S.base_dim),
                    lambda t1: not V.contains((t1 - t0) % p), "disjoint second coset")
    record("two_isotropic_cosets",
           np.concatenate([coset0, _lifted_coset(S, V, t1)]))
    # the lexicographically first half of the coset's points
    rows = decode_point(coset0, p, S.ambient_dim)
    half = coset0[np.lexsort(rows.T[::-1])][: max(2, len(coset0) // 2)]
    extra = random_surface_subset(S, min(4, S.size), rng)
    record("half_coset_plus_random", np.concatenate([half, extra.index]))

    lo, hi = 8, min(S.size, 24)
    for i in range(trials):
        size = int(rng.integers(lo, hi + 1)) if hi > lo else hi
        record(f"random_{i}", random_surface_subset(S, size, rng).index)
    return samples
