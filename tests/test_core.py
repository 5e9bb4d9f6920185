"""Substrate checks: field tables, character sums, point encoding, norms,
and the package's exported names."""

import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fflab.core import (
    FFunction,
    FFVector,
    PrimeField,
    char_vector,
    coordinate_array,
    decode_point,
    encode_point,
    grid_size,
    inner,
    lp_norm,
)
from fflab.errors import SizeOverflow

PRIMES = [3, 5, 7, 11, 13]


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15])
def test_prime_field_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_table_exact(p):
    F = PrimeField(p)
    for x in range(1, p):
        assert (F.inverse(x) * x) % p == 1
    with pytest.raises(ZeroDivisionError):
        F.inverse(0)


@pytest.mark.parametrize("p", PRIMES)
def test_square_table_matches_exhaustive_squaring(p):
    F = PrimeField(p)
    squares = {(y * y) % p for y in range(p)}
    for x in range(p):
        assert F.is_square[x] == (x in squares)
        if x in squares:
            assert (F.sqrt(x) ** 2) % p == x
    # exactly (p+1)/2 squares counting zero
    assert int(F.is_square.sum()) == (p + 1) // 2


@pytest.mark.parametrize("p", PRIMES)
def test_character_basics(p):
    F = PrimeField(p)
    vals = char_vector(F)
    assert vals[0] == 1
    assert np.all(np.abs(np.abs(vals) - 1.0) < 1e-12)
    # non-principal character sums to zero
    assert abs(vals.sum()) < 1e-9
    # multiplicative in the exponent
    for a in range(p):
        for b in range(p):
            assert abs(vals[a] * vals[b] - vals[(a + b) % p]) < 1e-12


@pytest.mark.parametrize("p,d", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_character_orthogonality_on_grid(p, d):
    # sum over x of e(x . xi) vanishes for every nonzero xi
    F = PrimeField(p)
    pts = coordinate_array(p, d)
    vals = char_vector(F)
    for xi in pts[1:]:
        s = vals[(pts @ xi) % p].sum()
        assert abs(s) < 1e-9 * p**d


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 3), (5, 2), (5, 3), (7, 3)])
def test_encode_decode_roundtrip_exhaustive(p, d):
    # row i holds the base-p digits of i, least significant first
    rows = decode_point(np.arange(p**d), p, d)
    assert rows.tolist() == [[i // p**k % p for k in range(d)] for i in range(p**d)]
    for idx, coords in enumerate(rows.tolist()):
        assert encode_point(coords, p) == idx
    assert encode_point(rows, p).tolist() == list(range(p**d))


@given(st.integers(0, 4), st.lists(st.integers(-20, 20), min_size=1, max_size=5))
def test_encode_decode_roundtrip_random(which, coords):
    p = PRIMES[which]
    reduced = tuple(c % p for c in coords)
    one = np.array([encode_point(coords, p)])
    assert decode_point(one, p, len(coords)).tolist() == [list(reduced)]
    # the array form reduces and encodes each row the same way
    rows = np.array([coords, reduced])
    idx = encode_point(rows, p)
    assert idx.tolist() == [encode_point(coords, p)] * 2
    assert decode_point(idx, p, len(coords)).tolist() == [list(reduced)] * 2


def test_coordinate_array_order():
    assert coordinate_array(3, 1).tolist() == [[0], [1], [2]]
    pts2 = coordinate_array(3, 2).tolist()
    assert len(pts2) == 9
    assert pts2[0] == [0, 0]
    assert pts2[-1] == [2, 2]
    # little-endian: first coordinate varies fastest
    assert pts2[1] == [1, 0]


def test_coordinate_array_is_one_read_only_table_per_size():
    X = coordinate_array(5, 3)
    assert coordinate_array(5, 3) is X
    assert X.tolist() == [[i % 5, i // 5 % 5, i // 25] for i in range(125)]
    with pytest.raises(ValueError):
        X[0, 0] = 1
    # the budget is checked on every call, not only when the table is built
    for _ in range(2):
        with pytest.raises(SizeOverflow):
            coordinate_array(13, 9)


def test_ffvector_dot_bilinear():
    F = PrimeField(7)
    x = FFVector((1, 2, 3), F)
    y = FFVector((4, 5, 6), F)
    z = FFVector((2, 0, 1), F)
    assert x.dot(y) == y.dot(x) == (4 + 10 + 18) % 7
    assert (x + z).dot(y) == (x.dot(y) + z.dot(y)) % 7
    assert x.scale(3).dot(y) == (3 * x.dot(y)) % 7


def test_grid_axis_convention():
    # reshaped in Fortran order, axis k of the flat data is coordinate k
    F = PrimeField(5)
    f = FFunction.delta(F, 3, (1, 2, 3))
    grid = f.data.reshape((5,) * 3, order="F")
    assert grid[1, 2, 3] == 1.0 and np.count_nonzero(grid) == 1
    assert np.array_equal(grid.reshape(-1, order="F"), f.data)


def test_lp_norm_examples():
    F = PrimeField(3)
    point = FFunction.delta(F, 2, (1, 2))
    assert lp_norm(point, 2, "counting") == pytest.approx(1.0)
    one = FFunction.constant(F, 2, 1.0)
    assert lp_norm(one, 2, "counting") == pytest.approx(3.0)
    for q in (1, 2, 4):
        assert lp_norm(one, q, "normalized") == pytest.approx(1.0)
    assert inner(one, one) == pytest.approx(9.0)
    # there is no sup norm: a non-finite exponent raises instead of
    # returning sum(|f|^inf) ** 0 = 1.0
    five = FFunction.delta(F, 2, (1, 2))
    five.data *= 5
    for bad in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            lp_norm(five, bad)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.5, 2.0, 3.0, 4.0]))
def test_holder_sanity(seed, p_exp):
    # |<f,g>| <= ||f||_p ||g||_{p'}
    F = PrimeField(5)
    rng = np.random.default_rng(seed)
    f = FFunction.random(F, 2, rng)
    g = FFunction.random(F, 2, rng)
    q = p_exp / (p_exp - 1)
    lhs = abs(inner(f, g))
    rhs = lp_norm(f, p_exp) * lp_norm(g, q)
    assert lhs <= rhs + 1e-9


# a base-p weight vector, or a sum with a term times p and a later term
# times p * p (or p**2) on the same line
HAND_ENCODING = re.compile(
    r"\*\* np\.arange\(|\*\s*p\s*\+[^\n]*\*\s*p\s*(\*\s*p|\*\*\s*2)\b")


def test_flat_index_encoding_lives_only_in_core():
    """Every flat index is computed by core.encode_point; a hand-made
    base-p encoding elsewhere would be a second one."""
    for planted in ("w = p ** np.arange(d, dtype=np.int64)",
                    "idx = x1 + int(u) * p + int(v) * p * p",
                    "flat = coords[:, 0] + coords[:, 1] * p + coords[:, 2] * p * p",
                    "flat = x + y * p + z * p**2"):
        assert HAND_ENCODING.search(planted), planted
    for fine in ("flat = encode_point(coords, p)", "hits.reshape(2 * p * p, n)",
                 "k = int(rng.integers(1, p * p + 1))"):
        assert not HAND_ENCODING.search(fine), fine
    src = Path(importlib.import_module("fflab").__file__).parent
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if path != src / "core.py" and HAND_ENCODING.search(path.read_text())
    ]
    assert offenders == []


def test_no_blas_inner_products_in_the_library():
    """np.vdot goes through BLAS, whose reduction order, and so its bits,
    depends on the thread count; report bytes must not."""
    src = Path(importlib.import_module("fflab").__file__).parent
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if "np.vdot" in path.read_text()
    ]
    assert offenders == []


def test_isotropic_subspace_order_lives_only_in_qforms():
    """enumerate_max_isotropic returns its subspaces in canonical order; a
    caller re-sorting them by basis bytes would be a second owner."""
    src = Path(importlib.import_module("fflab").__file__).parent
    offenders = [
        str(path.relative_to(src))
        for path in sorted(src.rglob("*.py"))
        if path != src / "qforms.py" and "basis.tobytes()" in path.read_text()
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "module", ["fflab", "fflab.combinatorics", "fflab.kakeya", "fflab.harness"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
