"""Test oracles: independent routes kept only to be compared against.

Each function here computes a quantity the library also computes, by the
defining formula or an exhaustive search instead of the fast route, so
that a test or a scenario has an independent target.  They are only
sensible at small sizes; EN-1's and QF-1's exhaustive searches are array
programs, judged in the tests by the literal loops they replaced.  The
library modules never import this one; scenarios and tests do.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import FFunction, char_vector, coordinate_array, encode_point, grid_size
from .errors import FFLabError, SizeOverflow
from .combinatorics import PointSet, vh_plane_masks
from .fourier import fourier_transform

__all__ = [
    "naive_fourier_transform",
    "naive_convolve",
    "line_sum",
    "minimum_vh_cover_size",
    "brute_energy",
    "spectral_energy",
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
    writes out the line's points (base + t direction, t), t = 0 .. p-1,
    instead of reading the library's line index.
    """
    p = F.field.p
    ts = np.arange(p)
    heads = np.asarray(base) + ts[:, None] * np.asarray(direction)
    vals = F.data[encode_point(np.column_stack([heads, ts]), p)]
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


ENERGY_TRIPLES = 2 ** 18  # brute_energy's (n, n, n, d) block: 6 MB at n = 64, d = 3


def brute_energy(pts: np.ndarray, p: int) -> int:
    """EN-1's oracle: the count of a + b = c + d over the rows of pts, an
    (n, d) array of distinct points mod p.  Each (a, b, c) fixes d, so
    every a + b - c is formed at once and looked up in a boolean cube
    indexed by coordinates.  Raises ValueError on a repeated row and
    SizeOverflow above ENERGY_TRIPLES triples."""
    pts = np.asarray(pts, dtype=np.int64) % p
    n, d = pts.shape
    if n ** 3 > ENERGY_TRIPLES:
        raise SizeOverflow(n ** 3, ENERGY_TRIPLES, "brute_energy's triple block")
    members = np.zeros((p,) * d, dtype=bool)
    members[tuple(pts.T)] = True
    if int(members.sum()) != n:
        raise ValueError("brute_energy counts distinct points; a row of pts repeats")
    fourth = (pts[:, None, None] + pts[None, :, None] - pts[None, None, :]) % p
    return int(members[tuple(np.moveaxis(fourth, -1, 0))].sum())


def spectral_energy(A: PointSet, B: PointSet | None = None) -> int:
    """The additive energy of A and B (B defaults to A) by Parseval:
    p^{-d} sum_xi |1A^(xi)|^2 |1B^(xi)|^2, rounded to the integer it
    must be.  Oracle for additive_energy's quadruple count."""
    if B is None:
        B = A

    def spectrum(E: PointSet) -> np.ndarray:
        f = FFunction.zeros(E.field, E.dim)
        f.data[E.index] = 1.0
        return np.abs(fourier_transform(f).data) ** 2

    raw = float(np.dot(spectrum(A), spectrum(B))) / grid_size(A.field.p, A.dim)
    count = int(round(raw))
    if abs(raw - count) > 1e-6 * max(1.0, raw):
        raise FFLabError(f"fourier energy {raw} is not close to an integer")
    return count


def brute_witt(forms: np.ndarray, p: int, points: np.ndarray) -> np.ndarray:
    """QF-1's oracle: the Witt indices of a (k, m, m) stack of
    nondegenerate symmetric forms mod p, m <= 4, by search over the (N, m)
    projective points echelon_bases(p, m, 1)[:, 0].  Index 1: some point
    is isotropic (one float64 product over all forms and points, exact
    below 2^53).  Index 2: two distinct isotropic points are orthogonal,
    so they span a totally isotropic plane; tested on a (k, c, c) Gram
    block of each form's isotropic points, padded to the largest count c,
    with the padding and the diagonal masked out."""
    forms = np.asarray(forms, dtype=np.int64) % p
    k, m, _ = forms.shape
    if m > 4:
        raise ValueError(f"brute_witt stops at planes, which settles m <= 4, not m = {m}")
    if m * m * (p - 1) ** 3 >= 2 ** 53:
        raise ValueError(f"form values at p = {p}, m = {m} can pass 2^53 in float64")
    x = np.asarray(points, dtype=np.int64)
    monomials = (x[:, :, None] * x[:, None, :]).reshape(len(x), m * m)
    values = forms.reshape(k, m * m).astype(np.float64) @ monomials.T.astype(np.float64)
    isotropic = values.astype(np.int64) % p == 0
    counts = isotropic.sum(axis=1)
    c = int(counts.max(initial=0))
    # each form's isotropic points first, in point order, then padding
    iso = x[np.argsort(~isotropic, axis=1, kind="stable")[:, :c]].astype(np.float64)
    real = np.arange(c) < counts[:, None]
    # B(u, v) = u.A.v, an integer below 2^53, is 0 mod p iff B = p floor(B / p)
    gram = (iso @ forms % p) @ iso.transpose(0, 2, 1)
    orthogonal = (gram == p * np.floor(gram / p)) & real[:, None, :] & ~np.eye(c, dtype=bool)
    return np.where((orthogonal.any(axis=2) & real).any(axis=1), 2, np.minimum(counts, 1))
