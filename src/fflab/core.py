"""Arithmetic substrate: prime fields, points of F_p^d, the additive
character, and dense complex-valued functions on the grid.

Everything downstream (Fourier transforms, surface measures, energy
counts) is built on the three conventions fixed here:

* field elements are plain ints in [0, p);
* a point of F_p^d is encoded as the little-endian base-p integer
  index = sum(coords[k] * p**k), so index 0 is the origin and the
  first coordinate varies fastest (encode_point, for one point or for
  an array of rows);
* a function on F_p^d is a flat complex128 array of length p^d in
  that index order.  Reshaping with Fortran order gives a d-axis
  grid whose axis k is coordinate k.  A stack of c functions is a
  (c, p^d) array, one function per row; the transform layer maps a
  stack to a stack, lp_norm a stack to its row norms, and inner takes
  two functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FFLabError, SizeOverflow

# Hard ceiling on the number of points any single enumeration may touch.
POINT_BUDGET = 2**31

# Rejections draw_until allows before it raises; every sampler in the
# package accepts a draw at p = 3 with probability above 1/2.
MAX_DRAWS = 1000


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """F_p for an odd prime p, with inverse and square tables precomputed.

    The tables make scalar field ops O(1) and let vectorized code index
    straight into numpy arrays.
    """

    def __init__(self, p: int):
        if not _is_prime(p) or p < 3:
            raise ValueError(f"p must be an odd prime >= 3, got {p}")
        self.p = p
        inv = np.zeros(p, dtype=np.int64)
        for x in range(1, p):
            inv[x] = pow(x, p - 2, p)
        self.inv = inv
        # is_square[x] is True iff x = y^2 for some y (0 included).
        sq = np.zeros(p, dtype=bool)
        for y in range(p):
            sq[(y * y) % p] = True
        self.is_square = sq

    def inverse(self, x: int) -> int:
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv[x])

    def sqrt(self, x: int) -> int:
        """Some square root of x, or ValueError if x is a non-square."""
        x %= self.p
        for y in range(self.p):
            if (y * y) % self.p == x:
                return y
        raise ValueError(f"{x} is not a square mod {self.p}")

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class CharacterTable:
    """The additive character e(k) = exp(2*pi*i*k/p), tabulated once,
    with the two p x p transform kernels e(-ab) and e(+ab) built from it.
    The kernels are shared read-only by every transform at this p."""

    def __init__(self, p: int):
        self.p = p
        self.values = np.exp(2j * np.pi * np.arange(p) / p)
        # values[0] is exactly 1.0 by construction; keep it that way.
        self.values[0] = 1.0
        ab = np.outer(np.arange(p), np.arange(p)) % p
        self.kernels = {sign: self.values[(sign * ab) % p] for sign in (-1, 1)}
        for E in self.kernels.values():
            E.flags.writeable = False


@functools.lru_cache(maxsize=None)
def _char_table(p: int) -> CharacterTable:
    return CharacterTable(p)


def char_vector(field: PrimeField) -> np.ndarray:
    """All p character values as an array; char_vector(F)[k] = e(k)."""
    return _char_table(field.p).values


def char_kernel(field: PrimeField, sign: int) -> np.ndarray:
    """The read-only p x p kernel E[a, b] = e(sign * a * b), sign -1 or +1."""
    return _char_table(field.p).kernels[sign]


# ---------------------------------------------------------------------------
# points


def encode_point(coords, p: int):
    """Flat index of a point, reduced mod p first.

    A sequence (or 1-d array) gives one int.  An array whose last axis
    holds the coordinates, such as an (n, d) row matrix, gives the int64
    array of the flat indices of its rows.  This is the one encoding of
    points as integers; every module computes indices through it.
    """
    if isinstance(coords, np.ndarray) and coords.ndim > 1:
        d = coords.shape[-1]
        return (coords % p) @ (p ** np.arange(d, dtype=np.int64))
    return sum((c % p) * p**k for k, c in enumerate(coords))


def decode_point(index: np.ndarray, p: int, d: int) -> np.ndarray:
    """Inverse of encode_point on a 1-d index array: the (n, d) int64
    coordinate rows."""
    X = index[:, None] // p ** np.arange(d, dtype=np.int64)
    X %= p  # in place: the quotient array is fresh
    return X


def grid_size(p: int, d: int) -> int:
    """p^d, or SizeOverflow if that exceeds POINT_BUDGET."""
    n = p**d
    if n > POINT_BUDGET:
        raise SizeOverflow(n, POINT_BUDGET, what=f"F_{p}^{d}")
    return n


@dataclass(frozen=True)
class FFVector:
    """A point of F_p^d.  Immutable; arithmetic is coordinatewise mod p."""

    coords: tuple[int, ...]
    field: PrimeField

    def __post_init__(self):
        p = self.field.p
        object.__setattr__(self, "coords", tuple(c % p for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def index(self) -> int:
        return encode_point(self.coords, self.field.p)

    def dot(self, other: "FFVector") -> int:
        if len(other.coords) != len(self.coords):
            raise ValueError("dot product of vectors of different lengths")
        return sum(a * b for a, b in zip(self.coords, other.coords)) % self.field.p

    def __add__(self, other: "FFVector") -> "FFVector":
        return FFVector(
            tuple(a + b for a, b in zip(self.coords, other.coords)), self.field
        )

    def __sub__(self, other: "FFVector") -> "FFVector":
        return FFVector(
            tuple(a - b for a, b in zip(self.coords, other.coords)), self.field
        )

    def __neg__(self) -> "FFVector":
        return FFVector(tuple(-a for a in self.coords), self.field)

    def scale(self, c: int) -> "FFVector":
        return FFVector(tuple(c * a for a in self.coords), self.field)


def point_rows(points, dim: int) -> np.ndarray:
    """(n, dim) int64 array of points given as an array or as an iterable
    of coordinate sequences.  Order and repeats are kept; the entries are
    not reduced mod p."""
    if not isinstance(points, np.ndarray):
        points = list(points)
    rows = (np.array(points, dtype=np.int64) if len(points)
            else np.zeros((0, dim), dtype=np.int64))
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(f"points must have {dim} coordinates")
    return rows


def coordinate_array(p: int, d: int) -> np.ndarray:
    """(p^d, d) int array; row i is decode_point(i, p, d).

    The workhorse for vectorized surface/energy code: column k is
    coordinate k of every grid point at once.  Built once per (p, d) and
    shared read-only; copy it before writing.
    """
    grid_size(p, d)
    return _coordinate_table(p, d)


@functools.lru_cache(maxsize=None)
def _coordinate_table(p: int, d: int) -> np.ndarray:
    X = decode_point(np.arange(p**d, dtype=np.int64), p, d)
    X.flags.writeable = False
    return X


# ---------------------------------------------------------------------------
# functions on the grid


class FFunction:
    """Dense complex function on F_p^d, stored flat in index order: data
    of shape (p^d,), or (c, p^d) for a stack of c functions."""

    __slots__ = ("field", "dim", "data")

    def __init__(self, field: PrimeField, dim: int, data: np.ndarray):
        n = grid_size(field.p, dim)
        if data.shape[-1:] != (n,) or data.ndim > 2:
            raise ValueError(f"expected flat array of length {n}, or a stack of "
                             f"them, got {data.shape}")
        self.field = field
        self.dim = dim
        self.data = np.asarray(data, dtype=np.complex128)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field: PrimeField, dim: int) -> "FFunction":
        return cls(field, dim, np.zeros(grid_size(field.p, dim), dtype=np.complex128))

    @classmethod
    def constant(cls, field: PrimeField, dim: int, value: complex) -> "FFunction":
        f = cls.zeros(field, dim)
        f.data[:] = value
        return f

    @classmethod
    def delta(cls, field: PrimeField, dim: int, point: Sequence[int]) -> "FFunction":
        f = cls.zeros(field, dim)
        f.data[encode_point(point, field.p)] = 1.0
        return f

    @classmethod
    def indicator(
        cls, field: PrimeField, dim: int, points: Iterable[Sequence[int]]
    ) -> "FFunction":
        f = cls.zeros(field, dim)
        f.data[encode_point(point_rows(points, dim), field.p)] = 1.0
        return f

    @classmethod
    def random(cls, field: PrimeField, dim: int, rng: np.random.Generator
               ) -> "FFunction":
        """Random test function of iid standard complex gaussians."""
        n = grid_size(field.p, dim)
        return cls(field, dim, rng.standard_normal(n) + 1j * rng.standard_normal(n))

    # -- pointwise algebra ---------------------------------------------------

    def abs(self) -> "FFunction":
        return FFunction(self.field, self.dim, np.abs(self.data).astype(np.complex128))


def lp_norm(values: np.ndarray, p_exp: float, measure: str = "counting"):
    """L^p norm of one function's 1-d array of values, such as
    FFunction.data, as a float; a (c, n) stack gives the array of its c
    row norms, each with the bits of lp_norm of that row, never one norm
    summed across its functions.

    measure 'counting' sums |values|^p; 'normalized' divides the sum by
    n first.  p_exp must be finite: there is no sup norm here.
    """
    if values.ndim not in (1, 2):
        raise ValueError(f"a norm takes a function or a stack, got shape {values.shape}")
    if measure not in ("counting", "normalized"):
        raise ValueError(f"unknown measure {measure!r}")
    if not 1 <= p_exp < math.inf:
        raise ValueError(f"p_exp must be finite and >= 1, got {p_exp}")
    # numpy sums a row pairwise only along a contiguous axis, so an
    # F-ordered stack (a restriction's) is summed from a C-ordered copy
    totals = np.ascontiguousarray(np.abs(values) ** p_exp).sum(axis=-1)
    if measure == "normalized":
        totals = totals / values.shape[-1]
    # Python's float power: numpy's array power rounds otherwise
    roots = [total ** (1.0 / p_exp) for total in np.atleast_1d(totals).tolist()]
    return roots[0] if values.ndim == 1 else np.array(roots)


def inner(f: np.ndarray, g: np.ndarray) -> complex:
    """<f, g> = sum f * conj(g) over two 1-d arrays of one shape, with
    counting measure; a stack raises ValueError."""
    if f.ndim != 1 or g.ndim != 1:
        raise ValueError(f"an inner product takes two functions, got shapes "
                         f"{f.shape} and {g.shape}")
    # a numpy reduction, not BLAS: its bits do not depend on the thread count
    return complex(np.sum(f * np.conj(g)))


def draw_until(draw: Callable, accept: Callable, what: str):
    """The first draw() that accept() takes.  Raises FFLabError naming
    what was wanted after MAX_DRAWS rejections, so a defect in the test
    cannot turn a rejection loop into a hang."""
    for _ in range(MAX_DRAWS):
        x = draw()
        if accept(x):
            return x
    raise FFLabError(f"no {what} in {MAX_DRAWS} draws")
