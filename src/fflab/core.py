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
  grid whose axis k is coordinate k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SizeOverflow

# Hard ceiling on the number of points any single enumeration may touch.
POINT_BUDGET = 2**31


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

    def legendre(self, x: int) -> int:
        """Legendre symbol: 0 at 0, +1 on nonzero squares, -1 otherwise."""
        x %= self.p
        if x == 0:
            return 0
        return 1 if self.is_square[x] else -1

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
    """Dense complex function on F_p^d, stored flat in index order."""

    __slots__ = ("field", "dim", "data")

    def __init__(self, field: PrimeField, dim: int, data: np.ndarray):
        n = grid_size(field.p, dim)
        if data.shape != (n,):
            raise ValueError(f"expected flat array of length {n}, got {data.shape}")
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

    def _like(self, data: np.ndarray) -> "FFunction":
        return FFunction(self.field, self.dim, data)

    def __sub__(self, other: "FFunction") -> "FFunction":
        return self._like(self.data - other.data)

    def abs(self) -> "FFunction":
        return self._like(np.abs(self.data).astype(np.complex128))


def lp_norm(f: FFunction, p_exp: float, measure: str = "counting") -> float:
    """L^p norm of f.

    measure 'counting' sums |f|^p over the grid; 'normalized' divides the
    sum by p^d first.  p_exp must be finite: there is no sup norm here.
    """
    if measure not in ("counting", "normalized"):
        raise ValueError(f"unknown measure {measure!r}")
    if not 1 <= p_exp < math.inf:
        raise ValueError(f"p_exp must be finite and >= 1, got {p_exp}")
    total = float(np.sum(np.abs(f.data) ** p_exp))
    if measure == "normalized":
        total /= f.field.p**f.dim
    return total ** (1.0 / p_exp)


def inner(f: FFunction, g: FFunction) -> complex:
    """<f, g> = sum f * conj(g), with counting measure."""
    # a numpy reduction, not BLAS: its bits do not depend on the thread count
    return complex(np.sum(f.data * np.conj(g.data)))
