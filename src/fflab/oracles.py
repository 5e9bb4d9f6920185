"""Test oracles: literal implementations kept only to be compared against.

Each function here computes a quantity the library also computes, by the
defining formula or an exhaustive search instead of the fast route, so
that a test or a scenario has an independent target.  They are slow by
design and only sensible at small sizes.  The library modules never
import this one; scenarios and tests do.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import FFunction, char_vector, coordinate_array, encode_point
from .errors import FFLabError, SizeOverflow
from .combinatorics import PointSet, vh_plane_masks
from .kakeya import line_points
from .qforms import echelon_bases

__all__ = [
    "naive_fourier_transform",
    "naive_convolve",
    "line_sum",
    "minimum_vh_cover_size",
    "brute_energy",
    "witt_monomials",
    "brute_witt",
]


def naive_fourier_transform(f: FFunction) -> FFunction:
    """The defining double sum, O(p^{2d}).  Oracle for the axis-wise
    transform."""
    p = f.field.p
    X = coordinate_array(p, f.dim)
    vals = char_vector(f.field)
    phases = vals[(-X @ X.T) % p]  # phases[xi_idx, x_idx] = e(-x.xi)
    return FFunction(f.field, f.dim, phases @ f.data)


def naive_convolve(f: FFunction, g: FFunction) -> FFunction:
    """The defining double sum; O(p^{2d}) memory.  Oracle for the
    Fourier-side convolve."""
    p = f.field.p
    X = coordinate_array(p, f.dim)
    diff_idx = encode_point(X[:, None, :] - X[None, :, :], p)  # [x, y] -> x - y
    return FFunction(f.field, f.dim, g.data[diff_idx] @ f.data)


def line_sum(F: FFunction, base, direction, absolute: bool = False) -> complex:
    """Sum of F (or |F|) over the line with the given base and direction.

    Oracle for line_totals, kakeya_maximal and maximizing_base_map: it
    walks one line's points directly instead of gathering all lines.
    """
    p = F.field.p
    line = line_points(np.array([base], dtype=np.int64),
                       np.array([direction], dtype=np.int64), p)[0]
    vals = F.data[encode_point(line, p)]
    if absolute:
        return float(np.abs(vals).sum())
    return complex(vals.sum())


def minimum_vh_cover_size(E: PointSet) -> int:
    """Exact minimum number of VH planes covering E, by exhaustive search.

    Oracle for the greedy vh_plane_cover, which must stay within a
    logarithmic factor of this optimum.  Only the planes meeting E matter.
    Guarded to tiny instances.
    """
    if E.dim != 3:
        raise ValueError("minimum_vh_cover_size expects points in F_p^3")
    if len(E) == 0:
        return 0
    relevant = []
    seen = set()
    for mask in vh_plane_masks(E.matrix(), E.field.p):
        key = mask.tobytes()
        if mask.any() and key not in seen:
            seen.add(key)
            relevant.append(mask)
    if len(E) > 8 or len(relevant) > 24:
        raise SizeOverflow(
            len(relevant) * len(E), 24 * 8, "exhaustive VH cover search"
        )
    for k in range(1, len(relevant) + 1):
        for combo in itertools.combinations(relevant, k):
            if np.logical_or.reduce(combo).all():
                return k
    raise FFLabError("VH planes failed to cover E")  # unreachable: planes cover F_p^3


def brute_energy(pts: np.ndarray, p: int) -> int:
    """EN-1's oracle: the literal count of a + b = c + d over the distinct
    rows of pts, an (n, d) array.  For every (a, b, c) the fourth point
    d = a + b - c is fixed, so count the triples whose d lies in the set."""
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


def witt_monomials(p: int, m: int):
    """Degree-two monomial rows for brute_witt, built once per run.

    Returns (lines, planes): x_i x_j for every projective vector x, as an
    (N, m^2) array, and the (u_i u_j, v_i v_j, u_i v_j) arrays for every
    echelon plane basis (u, v), or None below ambient dimension 4 (planes
    are enough for ambient dimension at most 4).  A form's value on a row
    is the row's dot product with A.ravel().
    """
    def outer(a, b):
        return (a[:, :, None] * b[:, None, :]).reshape(len(a), m * m)

    x = echelon_bases(p, m, 1)[:, 0]
    if m < 4:
        return outer(x, x), None
    planes = echelon_bases(p, m, 2)
    u, v = planes[:, 0, :], planes[:, 1, :]
    return outer(x, x), (outer(u, u), outer(v, v), outer(u, v))


def brute_witt(A: np.ndarray, p: int, lines: np.ndarray, planes) -> int:
    """QF-1's oracle: the largest dimension of a totally isotropic
    subspace, by direct search over every projective vector and every
    echelon plane basis, given as the monomial rows of witt_monomials."""
    a = np.asarray(A, dtype=np.int64).ravel()
    w = 1 if bool((lines @ a % p == 0).any()) else 0
    if w and planes is not None:
        # u.u = 0, then v.v = 0, then u.v = 0, each tested only on the
        # planes that passed the conditions before it
        uu, vv, uv = planes
        rows = np.flatnonzero(uu @ a % p == 0)
        rows = rows[vv[rows] @ a % p == 0]
        if bool((uv[rows] @ a % p == 0).any()):
            w = 2
    return w
