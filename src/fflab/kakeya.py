"""Kakeya maximal operator over F_p^m and its bridges to surface restriction.

The geometry here lives one dimension below the surfaces: lines in F_p^m
are parameterized by a base and a direction in F_p^{m-1}, and every line
sweeps the last coordinate.  Horizontal lines are deliberately out of the
model.

Measure conventions, fixed once:

  * functions on F_p^m ("physical side") carry counting measure,
  * functions on the direction set F_p^{m-1} carry normalized counting
    measure (each direction weighs p^{-(m-1)}).

The two bridges at the end of the file are exact identities, not bounds:
the quadratic-surface extension of a suitably modulated function collapses
to a superposition of line indicators, and the extension operator factors
through any complementary pair of totally isotropic subspaces.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Union

import numpy as np

from .core import (
    FFunction,
    PrimeField,
    char_kernel,
    char_vector,
    coordinate_array,
    encode_point,
    grid_size,
    inner,
    lp_norm,
    point_rows,
)
from .errors import NotIsotropicPair
from .qforms import (
    Subspace,
    enumerate_max_isotropic,
    inv_mod,
    is_totally_isotropic,
    rank_mod,
)
from .fourier import _axis_dft
from .surfaces import (
    Surface,
    SurfaceFunction,
    extension,
    hyperbolic_paraboloid,
    restriction,
)
from .combinatorics import PointSet

__all__ = [
    "line_points",
    "KakeyaAudit",
    "DualConsistency",
    "KakeyaExponents",
    "RegularSetAudit",
    "line_totals",
    "kakeya_maximal",
    "maximizing_base_map",
    "direction_norm",
    "maximal_ratio",
    "dual_kakeya_apply",
    "dual_consistency",
    "kakeya_set_audit",
    "standard_kakeya_set",
    "dvir_envelope",
    "restriction_to_kakeya_embed",
    "embed_closed_form",
    "embed_collapse_profile",
    "restriction_to_kakeya_exponents",
    "kakeya_bound_from_restriction",
    "coset_slabs",
    "coset_extension",
    "mixed_norm",
    "surface_mixed_norm",
    "mixed_extension_ratio",
    "kakeya_regular_set_bound",
    "random_slice_isotropic_function",
]


# ---------------------------------------------------------------------------
# lines


def line_points(bases: np.ndarray, directions: np.ndarray, p: int) -> np.ndarray:
    """(k, p, m) array: [i, t] is the point (b_i + t eta_i, t) of the
    non-horizontal line with base b_i and direction eta_i, reduced mod p.

    bases and directions are (k, m-1) int arrays, one line per row; the
    last coordinate sweeps the field, so every line has exactly p points,
    ordered by it.
    """
    ts = np.arange(p, dtype=np.int64)
    head = (bases[:, None, :] + ts[None, :, None] * directions[:, None, :]) % p
    return np.concatenate(
        [head, np.broadcast_to(ts[None, :, None], head.shape[:2] + (1,))], axis=2)


# ---------------------------------------------------------------------------
# the maximal operator


def line_totals(F: FFunction) -> np.ndarray:
    """(p^{m-1}, p^{m-1}) array of the |F|-mass on every non-horizontal line.

    Entry [i, j] sums |F| over the line with direction i and base j (both
    in index order).  Every base of every direction is summed, so maxima
    taken from this array are exact.
    """
    m = F.dim
    if m < 2:
        raise ValueError("the maximal operator needs ambient dimension >= 2")
    p = F.field.p
    n = m - 1
    grid_size(p, 2 * n)  # p^{m-1} directions x p^{m-1} bases
    mags = np.abs(F.data).reshape(p**n, p, order="F")
    shift, heights = _line_index(p, n)
    totals = np.zeros((p**n, p**n), dtype=np.float64)
    # one t at a time, so each entry adds its p terms in order of t
    for t in range(p):
        totals += mags[:, t][shift[heights[t]]]
    return totals


@functools.lru_cache(maxsize=None)
def _line_index(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only line index of line_totals on F_p^n x F_p, built once
    per (p, n): shift[i, j] is the index of e_i + e_j, and heights[t] the
    row indices of t eta for every direction eta, so shift[heights[t]]
    holds the points of every line (eta, .) at height t."""
    coords = coordinate_array(p, n)
    shift = encode_point(coords[None, :, :] + coords[:, None, :], p)
    heights = encode_point(np.arange(p)[:, None, None] * coords, p)
    for table in (shift, heights):
        table.flags.writeable = False
    return shift, heights


def kakeya_maximal(F: FFunction) -> np.ndarray:
    """F*(eta) = max over bases b of the |F|-mass on the line (b, eta).

    Returns one value per direction of F_p^{m-1}, in index order.
    """
    return line_totals(F).max(axis=1)


def maximizing_base_map(F: FFunction) -> np.ndarray:
    """(p^{m-1}, m-1) array: row i is the base achieving F* for direction i.

    Ties resolve to the smallest base index, so the map is deterministic.
    """
    return coordinate_array(F.field.p, F.dim - 1)[line_totals(F).argmax(axis=1)]


def direction_norm(values: np.ndarray, q: float) -> float:
    """L^q norm on the direction set with normalized counting measure;
    q must be finite."""
    if not 1 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 1, got {q}")
    values = np.abs(np.asarray(values, dtype=np.float64))
    return float(np.mean(values**q) ** (1.0 / q))


def maximal_ratio(F: FFunction) -> float:
    """||F*||_{L^m(directions)} / ||F||_{L^m(counting)}, m the ambient
    dimension: the endpoint at which the maximal inequality holds with a
    dimensional constant."""
    m = float(F.dim)
    denom = lp_norm(F, m, "counting")
    if denom == 0.0:
        raise ValueError("maximal ratio of the zero function")
    return direction_norm(kakeya_maximal(F), m) / denom


# ---------------------------------------------------------------------------
# the dual superposition


def _as_base_map(x0, field: PrimeField, n: int) -> np.ndarray:
    """Reduce a base map, a (p^n, n) int array indexed by direction, mod p."""
    p = field.p
    arr = np.asarray(x0, dtype=np.int64) % p
    if arr.shape != (p**n, n):
        raise ValueError(f"x0 must map all {p ** n} directions to bases")
    return arr


def dual_kakeya_apply(h, x0, field: PrimeField, m: int) -> FFunction:
    """The normalized line superposition p^{-(m-1)} sum_v h(v) 1_{l(x0(v),v)}.

    h assigns a weight to each direction, as an array in direction-index
    order; x0 picks one base per direction as a (p^{m-1}, m-1) array in
    the same order.
    """
    if m < 2:
        raise ValueError("ambient dimension must be >= 2")
    p = field.p
    n = m - 1
    hv = np.asarray(h, dtype=np.complex128)
    if hv.shape != (p**n,):
        raise ValueError(f"h must have {p ** n} entries")
    bases = _as_base_map(x0, field, n)
    out = FFunction.zeros(field, m)
    lines = encode_point(line_points(bases, coordinate_array(p, n), p), p)
    for di, idx in enumerate(lines):
        if hv[di] != 0:
            out.data[idx] += hv[di]
    out.data /= p**n
    return out


class DualConsistency(NamedTuple):
    direct_lower: float   # ||F*||_{q'} / ||F||_{p'}
    paired_lower: float   # the same number recovered through the dual pairing
    dual_ratio: float     # ||dual superposition||_p / ||h||_q, >= paired_lower


def dual_consistency(F: FFunction, q: float, p_exp: float) -> DualConsistency:
    """Rebuild the maximal-side operator lower bound on the dual side.

    Given the dual-side exponent pair (q, p), the maximal inequality at the
    conjugate pair (p', q') and the superposition inequality share their
    optimal constant.  This realizes the equality constructively: take the
    maximizing bases of |F| as x0, the conjugate power of F* as h, and pair
    the superposition against |F|.  The first two numbers agree to within
    floating point; the third can only be larger.
    """
    if q <= 1 or p_exp <= 1:
        raise ValueError("dual exponents must exceed 1")
    field, m = F.field, F.dim
    n = m - 1
    G = F.abs()
    q_c = q / (q - 1.0)
    p_c = p_exp / (p_exp - 1.0)
    star = kakeya_maximal(G)
    g_norm = lp_norm(G, p_c, "counting")
    if g_norm == 0.0:
        raise ValueError("dual consistency of the zero function")
    direct = direction_norm(star, q_c) / g_norm
    h = star ** (q_c / q)
    h_norm = direction_norm(h, q)
    bases = maximizing_base_map(G)
    superpos = dual_kakeya_apply(h, bases, field, m)
    pairing = inner(superpos, G).real
    paired = pairing / (h_norm * g_norm)
    dual_ratio = lp_norm(superpos, p_exp, "counting") / h_norm
    return DualConsistency(direct, paired, dual_ratio)


# ---------------------------------------------------------------------------
# Kakeya sets


class KakeyaAudit(NamedTuple):
    is_kakeya: bool
    density: float
    missing: np.ndarray  # (k, m) directions with no fully contained line


def kakeya_set_audit(E: PointSet) -> KakeyaAudit:
    """Search every direction for a line inside E and report the density.

    A direction eta of the line model holds a line exactly when the
    maximal function of E's indicator reaches p there; the search is
    exhaustive over bases.  A missing direction eta is reported as
    (eta, 1).
    """
    field = E.field
    p = field.p
    m = E.dim
    ind = np.zeros(p**m, dtype=bool)
    ind[E.index] = True

    star = kakeya_maximal(FFunction(field, m, ind.astype(np.complex128)))
    heads = coordinate_array(p, m - 1)[star < p - 0.5]
    missing = np.hstack([heads, np.ones((len(heads), 1), dtype=np.int64)])
    return KakeyaAudit(not len(missing), len(E) / p**m, missing)


def standard_kakeya_set(field: PrimeField, m: int) -> PointSet:
    """The classical small Kakeya set: lines based at the squared direction.

    Taking b(eta) = (eta_1^2, ..., eta_{m-1}^2) makes the union of lines
    cover only about (p+1)/2 values per head coordinate on each horizontal
    slice, so the density decays like 2^{-(m-1)} while every direction
    still carries a full line by construction.
    """
    if m < 2:
        raise ValueError("Kakeya sets need ambient dimension >= 2")
    p = field.p
    directions = coordinate_array(p, m - 1)
    lines = line_points(directions * directions % p, directions, p)
    return PointSet(field, m, np.unique(encode_point(lines, p)))


def dvir_envelope(m: int) -> float:
    """The 1/m! density floor every Kakeya set in F_p^m satisfies."""
    return 1.0 / math.factorial(m)


# ---------------------------------------------------------------------------
# restriction side -> Kakeya side


def restriction_to_kakeya_embed(h, b) -> SurfaceFunction:
    """Modulate sqrt(h) into a surface function whose extension is a line
    superposition.

    h is a nonnegative weight on F_p^n and b an arbitrary base map on
    F_p^n.  The returned function on the 2n+1 dimensional bilinear graph
    surface is f(xi, theta) = sqrt(h(theta)) e(-b(-theta) . xi); its
    extension equals embed_closed_form(h, b) pointwise, and its squared
    modulus summed over the middle coordinates collapses to the line
    profile embed_collapse_profile(h, b).  Scenario KK-3 checks both
    identities.
    """
    if not isinstance(h, FFunction):
        raise ValueError("pass h as an FFunction on F_p^n so the field is unambiguous")
    field, n = h.field, h.dim
    hv = h.data
    if np.any(np.abs(hv.imag) > 1e-12) or np.any(hv.real < -1e-12):
        raise ValueError("h must be nonnegative")
    hv = hv.real.astype(np.float64)
    p = field.p

    b_arr = _as_base_map(b, field, n)
    base = coordinate_array(p, 2 * n)
    xi = base[:, :n]
    theta = base[:, n:]
    theta_idx = encode_point(theta, p)
    neg_theta_idx = encode_point(-theta, p)
    chars = char_vector(field)
    phase_idx = (-np.einsum("ij,ij->i", xi, b_arr[neg_theta_idx])) % p
    values = np.sqrt(hv[theta_idx]) * chars[phase_idx]
    return SurfaceFunction(hyperbolic_paraboloid(field, 2 * n + 1), values)


def embed_closed_form(h: FFunction, b) -> FFunction:
    """p^{-n} sum_theta sqrt(h(theta)) 1_{l(b(-theta),-theta)}(x1,t) e(theta.x2),
    assembled directly from lines and characters, never through a transform.
    Oracle for the extension of restriction_to_kakeya_embed in scenario KK-3."""
    field, n = h.field, h.dim
    p = field.p
    hv = h.data.real.astype(np.float64)
    b_arr = _as_base_map(b, field, n)
    d = 2 * n + 1
    out = FFunction.zeros(field, d)
    chars = char_vector(field)
    x2_grid = coordinate_array(p, n)
    x2_offsets = encode_point(x2_grid, p) * p**n
    for ti, theta in enumerate(coordinate_array(p, n)):
        w = math.sqrt(hv[ti])
        if w == 0.0:
            continue
        bb = b_arr[encode_point(-theta, p)]
        ring = chars[(x2_grid @ theta) % p] * w
        for t in range(p):
            start = encode_point(bb - t * theta, p)
            block = start + x2_offsets + t * p ** (2 * n)
            out.data[block] += ring
    out.data /= p**n
    return out


def embed_collapse_profile(h: FFunction, b) -> FFunction:
    """The (x1, t) line profile p^{-n} sum_theta h(theta) 1_{l(b(-theta),-theta)}.

    Equals dual_kakeya_apply of the direction-reversed weights against the
    base map b, which the tests verify.  Oracle for the collapse identity
    of restriction_to_kakeya_embed that scenario KK-3 checks: it is
    assembled from lines directly, so that check has an independent
    target.
    """
    field, n = h.field, h.dim
    p = field.p
    hv = h.data.real.astype(np.float64)
    b_arr = _as_base_map(b, field, n)
    out = FFunction.zeros(field, n + 1)
    thetas = coordinate_array(p, n)
    lines = encode_point(line_points(b_arr[encode_point(-thetas, p)], -thetas, p), p)
    for ti, idx in enumerate(lines):
        if hv[ti] != 0.0:
            out.data[idx] += hv[ti]
    out.data /= p**n
    return out


class KakeyaExponents(NamedTuple):
    m: int
    dual_q: Fraction          # exponent pair for the superposition bound
    dual_p: Fraction
    restriction_q: Fraction   # the surface estimate consumed by the chain
    restriction_p: Fraction
    prefactor: Fraction       # power of p multiplying the squared constant
    endpoint: Fraction        # power of p in the resulting Kakeya bound


def restriction_to_kakeya_exponents(m: int) -> KakeyaExponents:
    """The exponent bookkeeping of the embedding chain at the set endpoint.

    The dual pair q = p = (2m-1)/(2m-2) consumes the surface estimate at
    (2q -> 2p); the chain then bounds the superposition constant by
    p^{prefactor} times the squared surface constant, and the conjectural
    endpoint for the surface side turns that into p^{(m-1)/(2m-1)}.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    q = Fraction(2 * m - 1, 2 * m - 2)
    pre = (m - 1) * (1 - Fraction(1, q))
    return KakeyaExponents(
        m=m,
        dual_q=q,
        dual_p=q,
        restriction_q=2 * q,
        restriction_p=2 * q,
        prefactor=pre,
        endpoint=Fraction(m - 1, 2 * m - 1),
    )


def kakeya_bound_from_restriction(
    field: PrimeField, m: int, p_exp: Union[float, Fraction], rstar: float
) -> float:
    """Numeric superposition-constant bound p^{(m-1)(1-1/p_exp)} rstar^2."""
    if m < 2:
        raise ValueError("m must be at least 2")
    exponent = (m - 1) * (1.0 - 1.0 / float(p_exp))
    return field.p**exponent * rstar**2


# ---------------------------------------------------------------------------
# coset reparameterization and mixed norms


def _coset_read_index(S: Surface, W: Subspace, V: Subspace) -> np.ndarray:
    """Validate (W, V) and return where the coset route reads each point.

    For xi1 = c1 W and xi2 = c2 V, the phase (xi1 + xi2) . x is
    c1 . (W x) + c2 . (V x), so the result holds for every base point x
    (by index) the flat index in F_p^{2n} of (V x, W x), V x the fast
    coordinates.
    """
    p = S.field.p
    n2 = S.base_dim
    if n2 % 2:
        raise ValueError("the base dimension must be even")
    n = n2 // 2
    for U in (W, V):
        if U.field != S.field or U.basis.shape[1] != n2:
            raise NotIsotropicPair("subspace lives in the wrong ambient space")
        if U.dim != n:
            raise NotIsotropicPair(f"need dimension {n}, got {U.dim}")
        if U.is_affine:
            raise NotIsotropicPair("subspaces must pass through the origin")
        if not is_totally_isotropic(S.Q, U):
            raise NotIsotropicPair("subspace is not totally isotropic for the form")
    # xi1 + xi2 runs over the base exactly once iff W and V are complementary
    if rank_mod(np.vstack([W.basis, V.basis]), p) != n2:
        raise NotIsotropicPair("subspaces are not complementary")
    # encode_point reduces mod p itself
    return encode_point(coordinate_array(p, n2) @ np.hstack([V.basis.T, W.basis.T]), p)


def coset_slabs(f: SurfaceFunction, W: Subspace, V: Subspace
                ) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, row) for t = 0 .. p-1: the extension of f on the height-t
    slab, evaluated through the W + V coordinates.

    The surface frequency splits as xi = xi1 + xi2 with xi1 = c1 W and
    xi2 = c2 V; total isotropy kills the pure-square phases and leaves
    e(c1 . (W x) + c2 . (V x) + 2 t B(xi1, xi2)) with B the form's pairing.
    So for each t the double sum over (c1, c2) is the unnormalised inverse
    transform, on F_p^{2n} with c2 as the fast coordinates, of
    M_t = f(xi1 + xi2) e(2 t B), read at (V x, W x).  No d-dimensional
    transform is used: the route differs from the direct extension in the
    split, the cross-term phase and the change of coordinates, so
    agreement is a two-route identity, not a refactoring.  The read index
    is built once per call; every height reuses one M_t buffer and its
    transform scratch, and each row is a fresh array.  The pair is
    validated when the first slab is asked for.
    """
    S = f.surface
    p = S.field.p
    read = _coset_read_index(S, W, V)
    xi1, xi2 = W.point_array(), V.point_array()
    E = char_kernel(S.field, +1)

    fvals = f.values[encode_point(xi1[:, None, :] + xi2[None, :, :], p)]
    B2 = 2 * (xi1 @ S.Q.A @ xi2.T) % p
    M = np.empty(fvals.shape, dtype=np.complex128)    # c2 varies fastest
    work = np.empty_like(M)
    for t in range(p):
        E[t].take(B2, out=M)
        M *= fvals
        _axis_dft(M, S.field, S.base_dim, +1, work)
        row = M.reshape(-1)[read]
        row /= p ** S.base_dim
        yield t, row


def coset_extension(f: SurfaceFunction, W: Subspace, V: Subspace) -> FFunction:
    """The extension of f through the W + V coordinates: the p slabs of
    coset_slabs stacked by height.  The call holds the output grid and
    one slab's buffers."""
    S = f.surface
    out = np.empty((S.field.p, S.size), dtype=np.complex128)
    for t, row in coset_slabs(f, W, V):
        out[t] = row
    return FFunction(S.field, S.ambient_dim, out.reshape(-1))


@functools.lru_cache(maxsize=16)
def _v_coset_index(W: Subspace, V: Subspace) -> np.ndarray:
    """The read-only split of the base as x = w + v, built once per (W, V):
    entry i is the index in V of the V part of the base point with index i.
    Pairs, unlike the (p, n) keys of _line_index, are unbounded in number,
    so only the most recent 16 are kept; a caller uses one at a time.

    Solves x = a W + b V for every point at once; raises NotIsotropicPair
    when W and V together do not form a basis.
    """
    p = W.field.p
    stacked = np.vstack([W.basis, V.basis])
    n = stacked.shape[1]
    if rank_mod(stacked, p) != n:
        raise NotIsotropicPair("subspaces are not complementary")
    coeff = coordinate_array(p, n) @ inv_mod(stacked.T % p, p).T % p
    v_idx = encode_point(coeff[:, W.dim :], p)
    v_idx.flags.writeable = False
    return v_idx


def mixed_norm(F: FFunction, W: Subspace, V: Subspace,
               outer_q: float, inner_p: float) -> float:
    """Counting-measure mixed norm of a function on base x last coordinate:
    inner L^{inner_p} over W cosets, outer L^{outer_q} over (V, t)."""
    if W.basis.shape[1] != F.dim - 1:
        raise ValueError("subspaces must live on the base of F's domain")
    # bincount adds each cell's terms in input order from 0.0, row by row
    p = F.field.p
    mags = np.abs(F.data).reshape(p ** (F.dim - 1), p, order="F") ** inner_p
    cells = (_v_coset_index(W, V)[:, None] * p + np.arange(p)).ravel()
    inner_sums = np.bincount(cells, weights=mags.ravel(), minlength=p ** (V.dim + 1))
    inner_vals = inner_sums.reshape(p**V.dim, p) ** (1.0 / inner_p)
    return float((inner_vals**outer_q).sum() ** (1.0 / outer_q))


def surface_mixed_norm(f: SurfaceFunction, W: Subspace, V: Subspace,
                       outer_q: float, inner_p: float) -> float:
    """Normalized mixed norm on the surface: both layers average."""
    p = f.surface.field.p
    mags = np.abs(f.values) ** inner_p
    inner_sums = np.bincount(_v_coset_index(W, V), weights=mags, minlength=p**V.dim)
    inner_vals = (inner_sums / p**W.dim) ** (1.0 / inner_p)
    return float((np.mean(inner_vals**outer_q)) ** (1.0 / outer_q))


def mixed_extension_ratio(f: SurfaceFunction, W: Subspace, V: Subspace) -> float:
    """The tracked constant of the mixed-norm extension inequality:
    ||ext f||_{L^{(2d+2)/(d-1)}_{V,t} L^2_W} over the matching surface norm.

    Both norms read the one cached (W, V) split of the base, so a caller
    holding one pair splits it once for many f."""
    d = f.surface.ambient_dim
    q = (2 * d + 2) / (d - 1)
    denom = surface_mixed_norm(f, W, V, q, 2.0)
    if denom == 0.0:
        raise ValueError("mixed ratio of the zero function")
    return mixed_norm(extension(f), W, V, q, 2.0) / denom


# ---------------------------------------------------------------------------
# slice-structured sets


class RegularSetAudit(NamedTuple):
    lhs: float            # restricted-transform norm at (2d+2)/(d+3)
    gamma: float          # log_p of the support size
    e_exp: float          # log_p of the max number of pieces per slice
    rhs_exponent: float   # gamma/2 + (e+1)/(d+1) + (d-3)/(2d+2)
    ratio: float          # lhs / p^{rhs_exponent}


def kakeya_regular_set_bound(F: FFunction, S: Surface, decomposition: dict
                             ) -> RegularSetAudit:
    """Audit the restricted-transform bound for slice-structured indicators.

    F must be the indicator of a set E; decomposition maps each last
    coordinate z to a list of (affine subspace, points) pieces that
    partition the slice of E, every piece inside its own maximal totally
    isotropic affine subspace (pairwise distinct within the slice).  The
    points of a piece are base rows: an (n, d-1) array or a list of
    coordinate sequences.
    """
    field = F.field
    p = field.p
    d = F.dim
    if S.ambient_dim != d:
        raise ValueError("F must live on the ambient space of S")
    vals = F.data
    if not np.all(np.isclose(vals, 0) | np.isclose(vals, 1)):
        raise ValueError("F must be a set indicator")
    support = np.flatnonzero(np.abs(vals) > 0.5)
    if not len(support):
        raise ValueError("empty support")
    witt = S.Q.witt_index
    max_pieces = 1
    covered = [np.zeros(0, dtype=np.int64)]
    for z, pieces in decomposition.items():
        spaces = []
        for space, pts in pieces:
            if space.dim != witt or not is_totally_isotropic(S.Q, space.linear_part()):
                raise ValueError("pieces must sit in maximal totally isotropic cosets")
            if any(space == other for other in spaces):
                raise ValueError("pieces of one slice must use distinct cosets")
            spaces.append(space)
            rows = point_rows(pts, d - 1)
            outside = ~space.contains_rows(rows)
            if outside.any():
                raise ValueError(f"{rows[outside][0] % p} is outside its claimed coset")
            covered.append(encode_point(rows, p) + int(z) % p * p ** (d - 1))
        max_pieces = max(max_pieces, len(pieces))
    covered = np.concatenate(covered)
    distinct = np.unique(covered)
    if len(distinct) != len(covered):
        raise ValueError("pieces must be disjoint")
    if not np.array_equal(distinct, support):
        raise ValueError("decomposition does not cover the support exactly")

    gamma = math.log(len(support), p)
    e_exp = math.log(max_pieces, p)
    q = (2 * d + 2) / (d + 3)
    lhs = restriction(F, S).norm(q)
    rhs_exponent = gamma / 2 + (e_exp + 1) / (d + 1) + (d - 3) / (2 * d + 2)
    return RegularSetAudit(lhs, gamma, e_exp, rhs_exponent, lhs / p**rhs_exponent)


def random_slice_isotropic_function(
    S: Surface, pieces_per_slice: int, rng: np.random.Generator
) -> tuple[FFunction, dict]:
    """A random slice-structured indicator together with its decomposition.

    Every last-coordinate slice gets up to pieces_per_slice random subsets
    of distinct maximal totally isotropic affine cosets (later pieces drop
    points already used, keeping the pieces disjoint).  The decomposition
    maps each nonempty slice z to its (coset, rows) pieces, rows the
    (n, d-1) base points of the piece.
    """
    field = S.field
    p = field.p
    subspaces = enumerate_max_isotropic(S.Q)
    if not subspaces:
        raise ValueError("the base form has no isotropic subspaces to structure by")
    decomposition = {}
    for z in range(p):
        used = np.zeros(S.size, dtype=bool)
        pieces = []
        count = int(rng.integers(1, pieces_per_slice + 1))
        for _ in range(count):
            U = subspaces[int(rng.integers(0, len(subspaces)))]
            shift = rng.integers(0, p, size=S.base_dim)
            coset = Subspace(field, U.basis, translate=shift)
            if any(coset == c for c, _ in pieces):
                continue
            rows = coset.point_array()
            idx = encode_point(rows, p)
            keep = (rng.random(len(rows)) < 0.6) & ~used[idx]
            used[idx[keep]] = True
            pieces.append((coset, rows[keep]))
        pieces = [(c, rows) for c, rows in pieces if len(rows)]
        if pieces:
            decomposition[z] = pieces
    if not decomposition:
        # force one deterministic piece so the audit never sees emptiness
        coset = Subspace(field, subspaces[0].basis,
                         translate=np.zeros(S.base_dim, dtype=np.int64))
        decomposition[0] = [(coset, coset.point_array())]
    F = FFunction.zeros(field, S.ambient_dim)
    for z, pieces in decomposition.items():
        for _, rows in pieces:
            F.data[encode_point(rows, p) + z * S.size] = 1.0
    return F, decomposition
