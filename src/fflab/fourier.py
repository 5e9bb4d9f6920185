"""Fourier analysis on F_p^d.

Normalization is fixed once and for all here: the forward transform sums
against e(-x.xi) with counting measure on space, and the inverse averages
against e(+x.xi) with the normalized measure p^{-d} on the dual.  Under
this pairing Plancherel reads

    sum_x |f(x)|^2  =  p^{-d} sum_xi |fhat(xi)|^2.

Every norm call site names its measure explicitly; there are no defaults
to misremember.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .core import FFunction, PrimeField, char_kernel
from .errors import FFLabError

# ---------------------------------------------------------------------------
# transforms


def _axis_dft(buf: np.ndarray, field: PrimeField, dim: int, sign: int,
              work: Optional[np.ndarray] = None) -> None:
    """Transform every row of a stack along each of its axes, in place.

    buf is a C-contiguous complex128 stack of c functions on F_p^dim,
    shape (c, p^dim) or flat, each row in F order (coordinate 0 fastest);
    every row is overwritten with its unnormalised transform.  sign -1
    gives the forward kernel e(-ab), +1 the inverse kernel e(ab).  Each of
    the dim rounds multiplies the (c p^{dim-1}, p) row view by the kernel
    into a scratch array, which transforms coordinate 0 of every function,
    and copies each function's transpose back into its row, which makes
    that coordinate the slowest; after dim rounds each row is back in F
    order.  c = 1 is the single-function transform.  Cost is c dim
    p^{dim+1} multiplies in dim flat products on the per-p kernel; memory
    is buf plus one scratch of its size, which a caller looping over
    same-sized stacks may pass as work.

    Whether a stack gives each row the same bits as separate calls is a
    property of the BLAS zgemm kernels, not of this code: a kernel that
    splits a product by its row count may round a row of a small product
    differently from the same row inside a larger one.  With OpenBLAS
    0.3.31 the bits match at the row counts c p^{dim-1} the sweep uses;
    test_stacked_transform_equals_separate_calls guards that on stacks
    shaped like the sweep's.
    """
    if not buf.flags.c_contiguous:
        raise ValueError("the transform works in place on C-contiguous data")
    p = field.p
    E = char_kernel(field, sign)
    rows = buf.reshape(-1, p)
    if dim == 1:
        # BLAS takes a one-row product down its vector path, which rounds
        # differently from its matrix path, so give every function its own
        for row in rows:
            row[...] = np.dot(row, E)
        return
    R = p ** (dim - 1)
    cols = buf.reshape(-1, p, R)
    work = np.empty_like(rows) if work is None else work.reshape(rows.shape)
    tiles = work.reshape(-1, R, p).transpose(0, 2, 1)
    for _ in range(dim):
        # the same BLAS product as np.matmul, whose out= handling adds
        # about 2 us per call, a cost every height slab pays
        np.dot(rows, E, out=work)
        cols[...] = tiles


def fourier_transform(f: FFunction) -> FFunction:
    """fhat(xi) = sum_x f(x) e(-x.xi)."""
    out = f.data.copy()
    _axis_dft(out, f.field, f.dim, -1)
    return FFunction(f.field, f.dim, out)


def inverse_transform(g: FFunction) -> FFunction:
    """f(x) = p^{-d} sum_xi g(xi) e(x.xi); inverts fourier_transform."""
    out = g.data.copy()
    _axis_dft(out, g.field, g.dim, +1)
    out *= float(g.field.p) ** (-g.dim)
    return FFunction(g.field, g.dim, out)


def convolve(f: FFunction, g: FFunction) -> FFunction:
    """Counting-measure convolution (f*g)(x) = sum_y f(y) g(x-y), computed
    on the Fourier side where it is a pointwise product."""
    fh = fourier_transform(f)
    gh = fourier_transform(g)
    return inverse_transform(FFunction(f.field, f.dim, fh.data * gh.data))


# ---------------------------------------------------------------------------
# exponent arithmetic


def stein_tomas_transfer(alpha: float, theta: float, d_tilde: float) -> float:
    """Log-constant produced by interpolating an extension bound of
    strength alpha at exponent q against the trivial L^2 estimate, landing
    at exponent q/theta: max(0, theta*alpha - d_tilde*(1-theta)/4)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    if d_tilde <= 0:
        raise ValueError("d_tilde must be positive")
    return max(0.0, theta * alpha - d_tilde * (1.0 - theta) / 4.0)


def exact_r22(S) -> float:
    """The optimal L^2 -> L^2 extension constant (p^d/|S|)^{1/2} for a
    surface S given by a graph over a codimension-1 base."""
    p = S.field.p
    return math.sqrt(p**S.ambient_dim / S.size)


# ---------------------------------------------------------------------------
# operator-norm estimation


def _dot(g: np.ndarray, h: np.ndarray) -> float:
    """Re sum(conj(g) h) as a numpy reduction: unlike BLAS vdot, its bits do
    not depend on the BLAS thread count."""
    return float(np.sum(np.conj(g) * h).real)


def power_iteration_norm(
    gram_apply: Callable[[np.ndarray], np.ndarray],
    dim: int,
    rng: np.random.Generator,
) -> float:
    """Largest singular value of T from power iteration on T*T.

    gram_apply must implement g -> T*(T g), self-adjoint and PSD in the
    inner product sum(g conj(h)) (a constant weight on it cancels in the
    Rayleigh quotient).  Stops when successive Rayleigh quotients agree to
    relative 1e-10; raises FFLabError after 2,000 steps without that.
    """
    g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    g /= math.sqrt(_dot(g, g))
    lam_prev = 0.0
    for _ in range(2000):
        h = gram_apply(g)
        lam = _dot(g, h)
        hn = math.sqrt(_dot(h, h))
        if hn == 0.0:
            return 0.0
        g = h / hn
        if lam > 0 and abs(lam - lam_prev) <= 1e-10 * lam:
            return math.sqrt(lam)
        lam_prev = lam
    raise FFLabError(f"power iteration did not converge in 2000 steps (last {lam})")
