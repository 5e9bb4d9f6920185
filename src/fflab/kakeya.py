"""Kakeya maximal operator over F_p^m and its bridges to surface restriction.

The geometry here lives one dimension below the surfaces: lines in F_p^m
are parameterized by a base and a direction in F_p^{m-1}, and every line
sweeps the last coordinate.  Horizontal lines are deliberately out of the
model.

Measure conventions, fixed once:

  * functions on F_p^m ("physical side") carry counting measure,
  * functions on the direction set F_p^{m-1} carry normalized counting
    measure (each direction weighs p^{-(m-1)}).

The maximal operator, the dual superposition, the embedding and the mixed
norms take one function or a stack of them, and give each row of a stack
the bits of that row alone.

The two bridges at the end of the file are exact identities, not bounds:
the quadratic-surface extension of a suitably modulated function collapses
to a superposition of line indicators, and the extension operator factors
through any complementary pair of totally isotropic subspaces.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

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
)
from .errors import NotIsotropicPair
from .qforms import (
    Subspace,
    enumerate_max_isotropic,
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
    "KakeyaAudit",
    "DualConsistency",
    "KakeyaExponents",
    "RegularSetAudit",
    "line_totals",
    "kakeya_maximal",
    "maximizing_base_map",
    "maximal_ratio",
    "dual_kakeya_apply",
    "dual_consistency",
    "kakeya_set_audit",
    "standard_kakeya_set",
    "dvir_envelope",
    "restriction_to_kakeya_embed",
    "embed_closed_form",
    "restriction_to_kakeya_exponents",
    "coset_slabs",
    "coset_extension",
    "mixed_norm",
    "surface_mixed_norm",
    "mixed_extension_ratio",
    "kakeya_regular_set_bound",
    "random_slice_decomposition",
]


# ---------------------------------------------------------------------------
# the maximal operator


def line_totals(F: FFunction) -> np.ndarray:
    """(p^{m-1}, p^{m-1}) array of the |F|-mass on every non-horizontal
    line, or a (c, p^{m-1}, p^{m-1}) stack of them for a stack of c
    functions, each with the bits of its function alone.

    Entry [i, j] sums |F| over the line with direction i and base j (both
    in index order).  Every base of every direction is summed, so maxima
    taken from this array are exact.
    """
    m = F.dim
    if m < 2:
        raise ValueError("the maximal operator needs ambient dimension >= 2")
    p = F.field.p
    n = m - 1
    # mags[..., t, j] is |F| at base point j and height t
    mags = np.abs(F.data).reshape(F.data.shape[:-1] + (p, p**n))
    shift, heights = _line_index(p, n)
    totals = np.zeros(F.data.shape[:-1] + (p**n, p**n), dtype=np.float64)
    # one t at a time, so each entry adds its p terms in order of t
    for t in range(p):
        totals += mags[..., t, :].take(shift[heights[t]], axis=-1)
    return totals


@functools.lru_cache(maxsize=None)
def _line_index(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only line index on F_p^n x F_p, the one line table of
    this module, built once per (p, n): shift[i, j] is the index of
    e_i + e_j, and heights[t] the row indices of t eta for every
    direction eta, so shift[heights[t], b] + t p^n is the point at
    height t of the line with base b and direction eta."""
    grid_size(p, 2 * n)  # p^n directions x p^n bases
    coords = coordinate_array(p, n)
    shift = encode_point(coords[None, :, :] + coords[:, None, :], p)
    heights = encode_point(np.arange(p)[:, None, None] * coords, p)
    for table in (shift, heights):
        table.flags.writeable = False
    return shift, heights


def kakeya_maximal(F: FFunction) -> np.ndarray:
    """F*(eta) = max over bases b of the |F|-mass on the line (b, eta).

    Returns one value per direction of F_p^{m-1}, in index order, and
    one such row per function of a stack.
    """
    return line_totals(F).max(axis=-1)


def maximizing_base_map(F: FFunction) -> np.ndarray:
    """(p^{m-1}, m-1) array: row i is the base achieving F* for direction
    i; a (c, p^{m-1}, m-1) stack of them for a stack of functions.

    Ties resolve to the smallest base index, so the map is deterministic.
    """
    return coordinate_array(F.field.p, F.dim - 1)[line_totals(F).argmax(axis=-1)]


def maximal_ratio(F: FFunction) -> float:
    """||F*||_{L^m(directions)} / ||F||_{L^m(counting)}, m the ambient
    dimension: the endpoint at which the maximal inequality holds with a
    dimensional constant.  A float for one function, an array of one per
    row for a stack."""
    m = float(F.dim)
    denom = lp_norm(F.data, m, "counting")
    if np.any(denom == 0.0):
        raise ValueError("maximal ratio of the zero function")
    return lp_norm(kakeya_maximal(F), m, "normalized") / denom


# ---------------------------------------------------------------------------
# the dual superposition


def _as_base_map(x0, field: PrimeField, n: int) -> np.ndarray:
    """Reduce a base map, a (p^n, n) int array indexed by direction, or a
    stack of them, mod p."""
    p = field.p
    arr = np.asarray(x0, dtype=np.int64) % p
    if arr.shape[-2:] != (p**n, n):
        raise ValueError(f"x0 must map all {p ** n} directions to bases")
    return arr


def _row_bincount(index: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """np.bincount into n bins of each row of a stack of weights; index
    gives the bin of each entry, in one row that every weight row shares
    or in one row per weight row.  Flat weights are one row.  Each bin
    adds its terms in order from 0.0, as bincount of that row alone does."""
    rows = weights.reshape(-1, weights.shape[-1])
    bins = index + n * np.arange(len(rows))[:, None]
    sums = np.bincount(bins.ravel(), rows.ravel(), len(rows) * n)
    return sums.reshape(weights.shape[:-1] + (n,))


def dual_kakeya_apply(h, x0, field: PrimeField, m: int) -> FFunction:
    """The normalized line superposition p^{-(m-1)} sum_v h(v) 1_{l(x0(v),v)}.

    h assigns a weight to each direction, as an array in direction-index
    order; x0 picks one base per direction as a (p^{m-1}, m-1) array in
    the same order.  A (c, p^{m-1}) stack of weights with a stack of c
    base maps gives the stack of c superpositions.
    """
    if m < 2:
        raise ValueError("ambient dimension must be >= 2")
    p = field.p
    n = m - 1
    hv = np.asarray(h, dtype=np.complex128)
    bases = _as_base_map(x0, field, n)
    if hv.shape[-1:] != (p**n,) or bases.shape[:-1] != hv.shape:
        raise ValueError(f"h must have {p ** n} entries, one per base")
    # the lines are direction-major, then t, so bincount adds each
    # point's weights in direction order
    shift, heights = _line_index(p, n)
    idx = shift[heights.T, encode_point(bases, p)[..., None]] + np.arange(p) * p**n
    idx = idx.reshape(hv.shape[:-1] + (-1,))
    w = np.repeat(hv, p, axis=-1)
    out = (_row_bincount(idx, w.real, p**m)
           + 1j * _row_bincount(idx, w.imag, p**m)) / p**n
    return FFunction(field, m, out)


class DualConsistency(NamedTuple):
    direct_lower: float   # ||F*||_{q'} / ||F||_{p'}
    paired_lower: float   # the same number recovered through the dual pairing


def dual_consistency(F: FFunction, pairs) -> list[DualConsistency]:
    """Rebuild the maximal-side operator lower bound on the dual side, for
    each dual-side exponent pair (q, p) of pairs.

    Given (q, p), the maximal inequality at the conjugate pair (p', q')
    and the superposition inequality share their optimal constant.  This
    realizes the equality constructively: take the maximizing bases of |F|
    as x0, the conjugate power of F* as h, and pair the superposition
    against |F|.  The two numbers agree to within floating point.  F* and
    the bases are found once for all the pairs.  For a stack of functions
    each field holds an array of one number per row.
    """
    G = F.abs()
    star = kakeya_maximal(G)
    bases = maximizing_base_map(G)
    rows = G.data.reshape(-1, G.data.shape[-1])
    found = []
    for q, p_exp in pairs:
        if q <= 1 or p_exp <= 1:
            raise ValueError("dual exponents must exceed 1")
        q_c = q / (q - 1.0)
        p_c = p_exp / (p_exp - 1.0)
        g_norm = lp_norm(G.data, p_c, "counting")
        if np.any(g_norm == 0.0):
            raise ValueError("dual consistency of the zero function")
        direct = lp_norm(star, q_c, "normalized") / g_norm
        h = star ** (q_c / q)
        h_norm = lp_norm(h, q, "normalized")
        superpos = dual_kakeya_apply(h, bases, F.field, F.dim).data.reshape(rows.shape)
        pairing = np.array([inner(s, g).real
                            for s, g in zip(superpos, rows, strict=True)])
        found.append(DualConsistency(
            direct, pairing.reshape(G.data.shape[:-1]) / (h_norm * g_norm)))
    return found


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
    still carries a full line by construction.  The union is the support
    of the dual superposition of unit weights against that base map:
    positive weights never cancel.
    """
    directions = coordinate_array(field.p, m - 1)
    lines = dual_kakeya_apply(np.ones(len(directions)), directions * directions, field, m)
    return PointSet(field, m, np.flatnonzero(lines.data))


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
    modulus summed over the middle coordinates collapses to the dual
    superposition dual_kakeya_apply(h(-.), b).  Scenario KK-3 checks both
    identities.  A stack of c weights with a stack of c base maps gives
    the stack of c functions on the one surface, built once per call.
    """
    if not isinstance(h, FFunction):
        raise ValueError("pass h as an FFunction on F_p^n so the field is unambiguous")
    field, n = h.field, h.dim
    hv = h.data
    if np.any(np.abs(hv.imag) > 1e-12) or np.any(hv.real < 0):
        raise ValueError("h must be nonnegative")
    hv = hv.real.astype(np.float64)
    p = field.p

    b_arr = _as_base_map(b, field, n)
    if b_arr.shape[:-1] != hv.shape:
        raise ValueError("pass one base map per weight")
    base = coordinate_array(p, 2 * n)
    xi = base[:, :n]
    theta = base[:, n:]
    theta_idx = encode_point(theta, p)
    neg_theta_idx = encode_point(-theta, p)
    chars = char_vector(field)
    phase_idx = (-np.einsum("ij,...ij->...i", xi, b_arr[..., neg_theta_idx, :])) % p
    values = np.sqrt(hv[..., theta_idx]) * chars[phase_idx]
    return SurfaceFunction(hyperbolic_paraboloid(field, 2 * n + 1), values)


def embed_closed_form(h: FFunction, b) -> FFunction:
    """p^{-n} sum_theta sqrt(h(theta)) 1_{l(b(-theta),-theta)}(x1,t) e(theta.x2),
    assembled from lines and characters, never through a transform.

    At each x2 this is the dual superposition of the weights
    v -> sqrt(h(-v)) e(-v.x2) against the base map b, so one
    dual_kakeya_apply call makes every x2 at once, one row per x2 with b
    repeated, and its (x2; x1, t) rows are reordered into the (x1, x2, t)
    grid.  Oracle for the extension of restriction_to_kakeya_embed in
    scenario KK-3.  A stack of c weights with a stack of c base maps gives
    the stack of c closed forms.
    """
    field, n = h.field, h.dim
    p = field.p
    lead = h.data.shape[:-1]
    coords = coordinate_array(p, n)
    roots = np.sqrt(h.data.real[..., encode_point(-coords, p)])
    weights = roots[..., None, :] * char_vector(field)[(-coords @ coords.T) % p]
    bases = np.repeat(_as_base_map(b, field, n)[..., None, :, :], p**n, axis=-3)
    rows = dual_kakeya_apply(weights.reshape(-1, p**n), bases.reshape(-1, p**n, n),
                             field, n + 1).data
    grid = rows.reshape(lead + (p**n, p, p**n)).swapaxes(-3, -2)
    return FFunction(field, 2 * n + 1, grid.reshape(lead + (-1,)))


class KakeyaExponents(NamedTuple):
    dual_q: Fraction          # q = p of the dual pair for the superposition bound
    restriction_q: Fraction   # the surface estimate consumed by the chain
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
        dual_q=q,
        restriction_q=2 * q,
        prefactor=pre,
        endpoint=Fraction(m - 1, 2 * m - 1),
    )


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
                ) -> Iterator[np.ndarray]:
    """Yield, for t = 0 .. p-1 in order, the extension of f on the
    height-t slab, evaluated through the W + V coordinates.

    The surface frequency splits as xi = xi1 + xi2 with xi1 = c1 W and
    xi2 = c2 V; total isotropy kills the pure-square phases and leaves
    e(c1 . (W x) + c2 . (V x) + 2 t B(xi1, xi2)) with B the form's pairing.
    So for each t the double sum over (c1, c2) is the unnormalised inverse
    transform, on F_p^{2n} with c2 as the fast coordinates, of
    M_t = f(xi1 + xi2) e(2 t B), read at (V x, W x).  No d-dimensional
    transform is used: the route differs from the direct extension in the
    split, the cross-term phase and the change of coordinates, so
    agreement is a two-route identity, not a refactoring.  The read index
    is built once per call; every height reuses one M_t buffer, the
    transform allocates its scratch per height, and each row is a fresh
    array.  The pair is validated when the first slab is asked for.
    """
    S = f.surface
    p = S.field.p
    read = _coset_read_index(S, W, V)
    xi1, xi2 = W.point_array(), V.point_array()
    E = char_kernel(S.field, +1)

    fvals = f.values[encode_point(xi1[:, None, :] + xi2[None, :, :], p)]
    B2 = 2 * (xi1 @ S.Q.A @ xi2.T) % p
    M = np.empty(fvals.shape, dtype=np.complex128)    # c2 varies fastest
    for t in range(p):
        E[t].take(B2, out=M)
        M *= fvals
        _axis_dft(M, S.field, S.base_dim, +1)
        row = M.reshape(-1)[read]
        row /= p ** S.base_dim
        yield row


def coset_extension(f: SurfaceFunction, W: Subspace, V: Subspace) -> FFunction:
    """The extension of f through the W + V coordinates: the p slabs of
    coset_slabs stacked by height.  The call holds the output grid and
    one slab's buffers."""
    S = f.surface
    out = np.empty((S.field.p, S.size), dtype=np.complex128)
    for t, row in enumerate(coset_slabs(f, W, V)):
        out[t] = row
    return FFunction(S.field, S.ambient_dim, out.reshape(-1))


@functools.lru_cache(maxsize=16)
def _base_coset_labels(W: Subspace) -> np.ndarray:
    """The read-only W.coset_labels of every base point, in index order,
    built once per W; the base meets every coset, so the labels fill
    their range.  Subspaces, unlike the (p, n) keys of _line_index, are
    unbounded in number, so only the most recent 16 are kept; a caller
    uses one at a time."""
    labels = W.coset_labels(coordinate_array(W.field.p, W.ambient))
    labels.flags.writeable = False
    return labels


def mixed_norm(F: FFunction, W: Subspace, outer_q: float):
    """Counting-measure mixed norm of a function on base x last coordinate:
    inner L^2 over each coset of W in the base, outer L^{outer_q} over W's
    cosets and t.  A float, or an array of one per row of a stack."""
    if W.ambient != F.dim - 1:
        raise ValueError("W must live on the base of F's domain")
    p = F.field.p
    # the values run over the base points within each height t, so each
    # (coset, t) cell adds its terms in base order
    cells = (_base_coset_labels(W) * p + np.arange(p)[:, None]).ravel()
    inner_sums = _row_bincount(cells, np.abs(F.data) ** 2.0,
                               p ** (W.ambient - W.dim + 1))
    return lp_norm(inner_sums**0.5, outer_q, "counting")


def surface_mixed_norm(f: SurfaceFunction, W: Subspace, outer_q: float):
    """Normalized mixed norm on the surface: inner L^2 over each coset of
    W, outer L^{outer_q} over W's cosets; both layers average.  A float,
    or an array of one per row of a stack."""
    p = f.surface.field.p
    mags = np.abs(f.values) ** 2.0
    inner_sums = _row_bincount(_base_coset_labels(W), mags, p ** (W.ambient - W.dim))
    return lp_norm((inner_sums / p**W.dim) ** 0.5, outer_q, "normalized")


def mixed_extension_ratio(f: SurfaceFunction, W: Subspace):
    """The tracked constant of the mixed-norm extension inequality:
    ||ext f||_{L^{(2d+2)/(d-1)}_{W cosets, t} L^2_W} over the matching
    surface norm; a float, or an array of one per row of a stack.

    Both norms read the one cached coset labelling of the base by W, so a
    caller holding one W labels the base once for many f."""
    d = f.surface.ambient_dim
    q = (2 * d + 2) / (d - 1)
    denom = surface_mixed_norm(f, W, q)
    if np.any(denom == 0.0):
        raise ValueError("mixed ratio of the zero function")
    return mixed_norm(extension(f), W, q) / denom


# ---------------------------------------------------------------------------
# slice-structured sets


class RegularSetAudit(NamedTuple):
    gamma: float          # log_p of the support size
    e_exp: float          # log_p of the max number of pieces per slice
    ratio: float          # restricted-transform norm at (2d+2)/(d+3), over
                          # p^(gamma/2 + (e+1)/(d+1) + (d-3)/(2d+2))


def kakeya_regular_set_bound(S: Surface, decomposition: dict) -> RegularSetAudit:
    """Audit the restricted-transform bound for the slice-structured set
    E that a decomposition gives.

    decomposition maps each last coordinate z to a list of (affine
    subspace, rows) pieces, rows the (n, d-1) int array of a nonempty
    piece of the slice of E at z, every piece inside its own maximal
    totally isotropic affine subspace (pairwise distinct within the
    slice) and disjoint from the others.  E is their union, and the
    audit takes the restriction of its indicator.
    """
    field = S.field
    p = field.p
    d = S.ambient_dim
    witt = S.Q.witt_index
    max_pieces = 1
    covered = [np.zeros(0, dtype=np.int64)]
    for z, pieces in decomposition.items():
        spaces = []
        for space, rows in pieces:
            if space.dim != witt or not is_totally_isotropic(S.Q, space.linear_part()):
                raise ValueError("pieces must sit in maximal totally isotropic cosets")
            if any(space == other for other in spaces):
                raise ValueError("pieces of one slice must use distinct cosets")
            if not len(rows):
                raise ValueError("every piece must hold a point")
            spaces.append(space)
            outside = ~space.contains_rows(rows)
            if outside.any():
                raise ValueError(f"{rows[outside][0] % p} is outside its claimed coset")
            covered.append(encode_point(rows, p) + int(z) % p * p ** (d - 1))
        max_pieces = max(max_pieces, len(pieces))
    covered = np.concatenate(covered)
    if not len(covered):
        raise ValueError("the decomposition covers no point")
    if len(np.unique(covered)) != len(covered):
        raise ValueError("pieces must be disjoint")
    F = FFunction.zeros(field, d)
    F.data[covered] = 1.0

    gamma = math.log(len(covered), p)
    e_exp = math.log(max_pieces, p)
    q = (2 * d + 2) / (d + 3)
    lhs = restriction(F, S).norm(q)
    rhs_exponent = gamma / 2 + (e_exp + 1) / (d + 1) + (d - 3) / (2 * d + 2)
    return RegularSetAudit(gamma, e_exp, lhs / p**rhs_exponent)


def random_slice_decomposition(S: Surface, rng: np.random.Generator) -> dict:
    """The decomposition of a random slice-structured set.

    Every last-coordinate slice gets one or two random subsets
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
        count = int(rng.integers(1, 3))
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
    return decomposition
