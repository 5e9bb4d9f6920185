"""Quadratic graph surfaces in F_p^d and the operators that live on them:
extension/restriction with normalized surface measure, the closed-form
inverse Fourier transform of the measure, convolution against the
surface kernel, pseudo-conformal slice transport, plane-supported
transforms, and norm transfer along congruences.

A surface is the graph {(xi, Q(xi))} of a nondegenerate quadratic form Q
on F_p^{d-1}; its normalized measure gives each of the p^{d-1} points
mass |S|^{-1}.  Functions on the surface are indexed by the base point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    FFunction,
    PrimeField,
    char_kernel,
    char_vector,
    coordinate_array,
    encode_point,
    grid_size,
    lp_norm,
    point_rows,
)
from .errors import NotCongruent, NotOnSurface
from .fourier import _axis_dft, fourier_transform, inverse_transform
from .qforms import (
    QuadraticSpace,
    diagonalize,
    dot_form,
    hyperbolic_pairing_form,
    inv_mod,
)

# ---------------------------------------------------------------------------
# surfaces and functions on them


class Surface:
    """Graph surface {(xi, Q(xi)) : xi in F_p^{d-1}} inside F_p^d.

    Points are indexed by their base point xi, in coordinate_array order.
    The surface stores heights (Q of every base point) and flat_indices,
    the index of each lifted point in F_p^d, which is the base index plus
    p^{d-1} times the height; point_array() builds the (p^{d-1}, d) rows
    on demand from the shared coordinate table.
    """

    def __init__(self, Q: QuadraticSpace, kind: str = "general"):
        if Q.rank < Q.m:
            raise ValueError("surface base form must be nondegenerate")
        if kind not in ("paraboloid", "hyperbolic_paraboloid", "general"):
            raise ValueError(f"unknown surface kind {kind!r}")
        self.Q = Q
        self.field = Q.field
        self.kind = kind
        self.base_dim = Q.m
        self.ambient_dim = Q.m + 1
        self.size = grid_size(self.field.p, self.base_dim)
        self.heights = Q.q_batch(coordinate_array(self.field.p, self.base_dim))
        self.flat_indices = np.arange(self.size) + self.size * self.heights

    def point_array(self) -> np.ndarray:
        """(p^{d-1}, d) int64 rows (xi, Q(xi)), in base-index order; a
        fresh array on every call."""
        base = coordinate_array(self.field.p, self.base_dim)
        return np.concatenate([base, self.heights[:, None]], axis=1)

    @property
    def points(self) -> set[tuple[int, ...]]:
        return {tuple(int(v) for v in row) for row in self.point_array()}

    def lift(self, xi) -> tuple[int, ...]:
        p = self.field.p
        xi = tuple(int(c) % p for c in xi)
        return xi + (self.Q.q(np.array(xi, dtype=np.int64)),)

    def contains_rows(self, X: np.ndarray) -> np.ndarray:
        """Which rows of the (n, d) int array X are points of the surface."""
        return self.Q.q_batch(X[:, :-1]) == X[:, -1] % self.field.p

    def require_on_surface(self, pts) -> np.ndarray:
        """(n, d) int64 rows of the given points, reduced mod p, in their
        order; raises NotOnSurface naming the first one off the surface."""
        X = point_rows(pts, self.ambient_dim) % self.field.p
        off = ~self.contains_rows(X)
        if off.any():
            raise NotOnSurface(f"{tuple(X[off][0].tolist())} is not on {self!r}")
        return X

    def indicator(self) -> FFunction:
        f = FFunction.zeros(self.field, self.ambient_dim)
        f.data[self.flat_indices] = 1.0
        return f

    def __repr__(self) -> str:
        return f"Surface({self.kind}, p={self.field.p}, d={self.ambient_dim})"


def paraboloid(field: PrimeField, d: int) -> Surface:
    """{(xi, xi . xi)} in F_p^d."""
    return Surface(dot_form(field, d - 1), kind="paraboloid")


def hyperbolic_paraboloid(field: PrimeField, d: int) -> Surface:
    """{(xi_1, xi_2, xi_1 . xi_2)} in F_p^d, d = 2n+1 odd."""
    if d % 2 == 0 or d < 3:
        raise ValueError("hyperbolic paraboloid needs odd ambient dimension >= 3")
    return Surface(hyperbolic_pairing_form(field, (d - 1) // 2), kind="hyperbolic_paraboloid")


class SurfaceFunction:
    """Complex function on a surface, stored by base point index."""

    __slots__ = ("surface", "values")

    def __init__(self, surface: Surface, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (surface.size,):
            raise ValueError(f"expected {surface.size} values, got {values.shape}")
        self.surface = surface
        self.values = values

    @classmethod
    def from_surface_points(
        cls, surface: Surface, pts: Iterable[Sequence[int]]
    ) -> "SurfaceFunction":
        """Indicator of a subset E of the surface, given by full d-tuples."""
        X = surface.require_on_surface(pts)
        vals = np.zeros(surface.size, dtype=np.complex128)
        vals[encode_point(X[:, :-1], surface.field.p)] = 1.0
        return cls(surface, vals)

    @classmethod
    def random(cls, surface: Surface, rng: np.random.Generator) -> "SurfaceFunction":
        """iid standard complex gaussians, as FFunction.random on the base."""
        return cls(surface, FFunction.random(surface.field, surface.base_dim, rng).data)

    def as_base_function(self) -> FFunction:
        return FFunction(self.surface.field, self.surface.base_dim, self.values.copy())

    def norm(self, q: float) -> float:
        """L^q(S, dsigma) with the normalized surface measure."""
        return lp_norm(self.as_base_function(), q, "normalized")


# ---------------------------------------------------------------------------
# extension and restriction


def _height_rows(f: SurfaceFunction, ts, work: Optional[np.ndarray] = None
                 ) -> np.ndarray:
    """The extension of f on the heights t selected by ts, one row each.

    On the graph the last-axis phase is the single term e(t Q(xi)), so
    height t of the extension is |S|^{-1} times the unnormalised base
    inverse transform of f(xi) e(t Q(xi)).  The phase rows are gathered
    from the inverse character kernel with take, which returns a fresh
    C-contiguous stack for the in-place transform (a fancy-indexed
    E[:, S.heights] is not C-contiguous); work is the transform's optional
    reusable scratch, of the stack's size.
    """
    S = f.surface
    rows = char_kernel(S.field, +1)[ts].take(S.heights, axis=1)
    rows *= f.values
    _axis_dft(rows, S.field, S.base_dim, +1, work)
    rows /= S.size
    return rows


def extension(f: SurfaceFunction) -> FFunction:
    """(f dsigma)-vee (x) = |S|^{-1} sum_{xi} f(xi) e(x . (xi, Q(xi))).

    Computed height by height: the slab at last coordinate t is the base
    inverse transform of f(xi) e(t Q(xi)), divided by |S|, and all p
    slabs run as one stacked transform over the d-1 base coordinates.
    The call holds the output grid and the transform's scratch.
    """
    S = f.surface
    return FFunction(S.field, S.ambient_dim, _height_rows(f, slice(None)).reshape(-1))


def extension_slabs(f: SurfaceFunction) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, row) for t = 0 .. p-1, where row is the extension of f on
    the height-t slab.  It matches that slab of extension(f) bit for bit
    only as far as the BLAS build gives a row of a stacked product the
    bits of the same row inside a larger one (see fourier._axis_dft);
    test_stacked_transform_equals_separate_calls guards it.

    Each row is a fresh array; the transform scratch is shared across
    heights, so a consumer holds one slab at a time instead of the grid.
    """
    work = np.empty(f.surface.size, dtype=np.complex128)
    for t in range(f.surface.field.p):
        yield t, _height_rows(f, slice(t, t + 1), work)[0]


def restriction(F: FFunction, S: Surface) -> SurfaceFunction:
    """Fhat sampled on the surface: the adjoint of extension under
    <extension(g), F>_dx = <g, restriction(F, S)>_dsigma."""
    if F.dim != S.ambient_dim:
        raise ValueError("function dimension does not match the surface ambient")
    Fh = fourier_transform(F)
    return SurfaceFunction(S, Fh.data[S.flat_indices].copy())


# ---------------------------------------------------------------------------
# closed forms for the measure's inverse transform


def gauss_sum(field: PrimeField, t: int) -> complex:
    """sum over u of e(t u^2); modulus sqrt(p) for t != 0."""
    p = field.p
    sq = (t * np.arange(p) ** 2) % p
    return complex(char_vector(field)[sq].sum())


def surface_measure_inverse_ft(S: Surface) -> FFunction:
    """(dsigma)-vee on all of F_p^d.

    Closed forms for the two graph models; any other surface raises
    ValueError.

    Paraboloid (base form xi . xi), writing G(t) for the quadratic Gauss
    sum and n2 = x . x on the base part:
        t = 0:  delta_0(x)
        t != 0: p^{-(d-1)} G(t)^{d-1} e(-n2 / (4t))
    Hyperbolic paraboloid (base (xi_1, xi_2) -> xi_1 . xi_2):
        t = 0:  delta_0(x)
        t != 0: p^{-n} e(-(x_1 . x_2) / t)
    """
    if S.kind not in ("paraboloid", "hyperbolic_paraboloid"):
        raise ValueError(f"no closed form for the measure of {S!r}")
    p = S.field.p
    d = S.ambient_dim
    X = coordinate_array(p, d)
    xbar = X[:, :-1]
    t = X[:, -1]
    vals = char_vector(S.field)
    out = np.zeros(p**d, dtype=np.complex128)

    if S.kind == "paraboloid":
        G = np.array([gauss_sum(S.field, tt) for tt in range(p)])
        n2 = np.einsum("ij,ij->i", xbar, xbar) % p
        inv4 = np.array(
            [0] + [S.field.inverse((4 * tt) % p) for tt in range(1, p)],
            dtype=np.int64,
        )
        nz = t != 0
        phase = (-n2[nz] * inv4[t[nz]]) % p
        out[nz] = float(p) ** (-(d - 1)) * G[t[nz]] ** (d - 1) * vals[phase]
        zero_slice = ~nz
        out[zero_slice] = (xbar[zero_slice] == 0).all(axis=1).astype(np.complex128)
    else:
        n = (d - 1) // 2
        dots = np.einsum("ij,ij->i", xbar[:, :n], xbar[:, n:]) % p
        inv = np.array([0] + [S.field.inverse(tt) for tt in range(1, p)], dtype=np.int64)
        nz = t != 0
        phase = (-dots[nz] * inv[t[nz]]) % p
        out[nz] = float(p) ** (-n) * vals[phase]
        zero_slice = ~nz
        out[zero_slice] = (xbar[zero_slice] == 0).all(axis=1).astype(np.complex128)
    return FFunction(S.field, d, out)


# ---------------------------------------------------------------------------
# surface kernel convolution


def bochner_riesz(F: FFunction, S: Surface, variant: str = "with_delta") -> FFunction:
    """Convolution with the surface kernel.

    kernel_only convolves with (dsigma)-vee; with_delta subtracts the
    identity, i.e. convolves with (dsigma)-vee - delta_0.  Computed on
    the Fourier side where the kernel multiplier is (p^d/|S|) 1_S.
    """
    if variant not in ("with_delta", "kernel_only"):
        raise ValueError(f"unknown variant {variant!r}")
    if F.dim != S.ambient_dim:
        raise ValueError("function dimension does not match the surface ambient")
    Fh = fourier_transform(F)
    mh = np.zeros_like(Fh.data)
    scale = S.field.p**S.ambient_dim / S.size
    mh[S.flat_indices] = Fh.data[S.flat_indices] * scale
    out = inverse_transform(FFunction(F.field, F.dim, mh))
    if variant == "with_delta":
        out = out - F
    return out


# ---------------------------------------------------------------------------
# tubes (d = 3)


@dataclass(frozen=True)
class Tube:
    """Support of the shifted line kernel in F_p^3: all (x1, x2, t) with
    x2 - x2_0 = -m (t - t_0).  A union of p parallel full x1-lines whose
    (x2, t) projection is a line of slope -m through (x2_0, t_0)."""

    field: PrimeField
    m: int
    x2_0: int
    t_0: int

    def indicator(self) -> FFunction:
        p = self.field.p
        X = coordinate_array(p, 3)
        mask = (X[:, 1] - self.x2_0 + self.m * (X[:, 2] - self.t_0)) % p == 0
        return FFunction(self.field, 3, mask.astype(np.complex128))


# ---------------------------------------------------------------------------
# pseudo-conformal slice transport (d = 3)


def pseudo_conformal_check(h0: FFunction, S: Surface) -> float:
    """Max over t != 0 of | |(h0*K)(x1,x2,t)| - p |(h0~ dsigma)-vee at the
    transformed point | for real-valued h0 supported on the slice t = 0.

    The transformed point is w = (-x2/t, -x1/t), t' = 1/t.  K is the
    surface kernel minus the identity; on t != 0 output slices the delta
    term never contributes.  The two sides are conjugate character sums,
    so real input is required for the moduli to match.
    """
    if S.ambient_dim != 3:
        raise ValueError("slice transport is a d=3 statement")
    p = S.field.p
    X = coordinate_array(p, 3)
    off_slice = X[:, 2] != 0
    if np.abs(h0.data[off_slice]).max() > 0:
        raise ValueError("h0 must vanish off the slice t = 0")
    if np.abs(h0.data.imag).max() > 1e-12:
        raise ValueError("h0 must be real-valued")

    conv = bochner_riesz(h0, S, "with_delta")
    # h0 read as a function on the surface through the base identification;
    # the slice t=0 occupies the first p^2 flat indices
    ext = extension(SurfaceFunction(S, h0.data[: p * p].copy()))

    X = X[off_slice]
    tp = S.field.inv[X[:, 2]]
    moved = np.stack([-X[:, 1] * tp, -X[:, 0] * tp, tp], axis=1)
    lhs = conv.data[off_slice]
    rhs = ext.data[encode_point(moved, p)]
    # np.hypot is the libm hypot behind Python's abs(complex); np.abs on
    # complex input rounds differently in the last bit
    diff = np.hypot(lhs.real, lhs.imag) - p * np.hypot(rhs.real, rhs.imag)
    return float(np.abs(diff).max())


# ---------------------------------------------------------------------------
# plane-supported functions (d = 3)


def plane_embed(f: FFunction, a: int, b: int) -> FFunction:
    """F(x1, x2, x3) = [x2 = a x3 + b] f(x1, x3) on F_p^3."""
    if f.dim != 2:
        raise ValueError("need a function on F_p^2")
    p = f.field.p
    X = coordinate_array(p, 3)
    mask = (X[:, 1] - a * X[:, 2] - b) % p == 0
    planar_idx = encode_point(X[:, [0, 2]], p)
    data = np.where(mask, f.data[planar_idx], 0.0)
    return FFunction(f.field, 3, data)


def plane_embed_ft(f: FFunction, a: int, b: int) -> FFunction:
    """Transform of the plane-supported embedding, by reindexing the 2-d
    transform:  Fhat(xi1, xi2, xi3) = fhat(xi1, xi3 + a xi2) e(-xi2 b).

    Scenario PL-1 checks it against the direct 3-d transform of
    plane_embed(f, a, b).
    """
    p = f.field.p
    fh = fourier_transform(f)
    X = coordinate_array(p, 3)
    src = encode_point(np.stack([X[:, 0], X[:, 2] + a * X[:, 1]], axis=1), p)
    phases = char_vector(f.field)[(-X[:, 1] * b) % p]
    return FFunction(f.field, 3, fh.data[src] * phases)


# ---------------------------------------------------------------------------
# congruence transfer


def equivalence_transfer(
    f: SurfaceFunction, M: np.ndarray, target: Optional[Surface] = None
) -> SurfaceFunction:
    """Carry f to the surface whose base form is M^T A M via g(xi) = f(M xi).

    Extension norms in every L^p(dx) and surface norms in every
    L^q(dsigma) are preserved because the extension of g is the extension
    of f precomposed with an invertible linear change of the spatial
    variables.
    """
    S = f.surface
    p = S.field.p
    M = np.array(M, dtype=np.int64) % p
    B = (M.T @ S.Q.A @ M) % p
    if target is None:
        target = Surface(QuadraticSpace(S.field, B))
    elif not np.array_equal(target.Q.A, B):
        raise NotCongruent("M^T A M does not equal the target base form")
    base = coordinate_array(p, S.base_dim)
    src = encode_point(base @ M.T, p)  # row xi -> index of M xi
    return SurfaceFunction(target, f.values[src].copy())


def congruence_between(S1: Surface, S2: Surface) -> Optional[np.ndarray]:
    """Some M with M^T A1 M = A2, or None if the forms are inequivalent.

    Diagonalize both, then scale and pair diagonal entries by square
    class; possible iff ranks match and discriminants agree up to squares
    (odd p, nondegenerate)."""
    F = S1.field
    p = F.p
    if S1.base_dim != S2.base_dim or F.p != S2.field.p:
        return None
    M1, D1 = diagonalize(S1.Q)
    M2, D2 = diagonalize(S2.Q)
    d1 = np.diag(D1.A)
    d2 = np.diag(D2.A)
    # match square classes entry by entry, greedily
    used = [False] * len(d2)
    perm = []
    for a in d1:
        found = None
        for j, b in enumerate(d2):
            if not used[j] and F.is_square[(a * F.inverse(int(b))) % p]:
                found = j
                break
        if found is None:
            return None
        used[found] = True
        perm.append(found)
    n = len(d1)
    Pm = np.zeros((n, n), dtype=np.int64)
    scales = np.zeros(n, dtype=np.int64)
    for i, j in enumerate(perm):
        c = F.sqrt((d1[i] * F.inverse(int(d2[j]))) % p)
        Pm[i, j] = F.inverse(c)
    M = (M1 @ Pm @ inv_mod(M2, p)) % p
    if not np.array_equal((M.T @ S1.Q.A @ M) % p, S2.Q.A):
        return None
    return M
