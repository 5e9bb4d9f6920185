"""Transform normalization, exponent arithmetic, operator norm estimation."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fflab.core import FFunction, PrimeField, char_kernel, char_vector, lp_norm
from fflab.errors import FFLabError
from fflab.fourier import (
    _axis_dft,
    convolve,
    fourier_transform,
    inverse_transform,
    power_iteration_norm,
    stein_tomas_transfer,
)
from fflab.oracles import naive_convolve, naive_fourier_transform


def test_transform_of_delta_is_one():
    F = PrimeField(5)
    fh = fourier_transform(FFunction.delta(F, 3, (0, 0, 0)))
    assert np.allclose(fh.data, 1.0, atol=1e-12)


def test_transform_of_constant_is_scaled_delta():
    F = PrimeField(3)
    fh = fourier_transform(FFunction.constant(F, 1, 1.0))
    expect = np.zeros(3, dtype=complex)
    expect[0] = 3.0
    assert np.allclose(fh.data, expect, atol=1e-9)


# d rounds of flat products: a wrong axis order shows only at d >= 2 and
# a wrong layout cycle only at d >= 3
@pytest.mark.parametrize(
    "p,d",
    [(3, d) for d in range(1, 6)] + [(5, d) for d in range(1, 5)] + [(7, 3), (13, 2)],
)
def test_fast_transform_matches_naive(p, d):
    F = PrimeField(p)
    rng = np.random.default_rng(42)
    for _ in range(5):
        f = FFunction.random(F, d, rng)
        a = fourier_transform(f)
        b = naive_fourier_transform(f)
        assert np.abs(a.data - b.data).max() < 1e-9 * max(1, np.abs(b.data).max())
        # the inverse sums against e(+x.xi): the conjugated naive sum of
        # conj(f), divided by p^d
        a = inverse_transform(f)
        b = naive_fourier_transform(FFunction(F, d, f.data.conj())).data.conj() / p**d
        assert np.abs(a.data - b).max() < 1e-9 * max(1, np.abs(b).max())


# A stacked transform must give every row the bits of a separate call.  BLAS
# may round a product differently by its row count, so this pins it on
# stacks shaped like the sweep's: an extension's p heights and MX-1's slabs,
# the stacked runners' trials (FT-3, ST-1 and BR-1 at (3, 3), (5, 3), (7, 3),
# (3, 5) and (7, 2); PL-1's planar transforms at p = 3, 5, 7), and the
# heights of their extension stacks (MT-1 at p = 3, 5, 7, EN-4 at (3, 5),
# KK-3 at (3, 3), (5, 3) and (3, 5), MX-2's exhaustive, structured and
# random stacks, and the E R f of ST-1 and BR-1, from (3, 2, 60) on).  The
# last 25 are every other multi-row stack that a seed-0 or seed-7 sweep of
# every id makes, collected by wrapping _axis_dft.  No run transforms on
# F_p^1, where a separate call is a one-row product that BLAS rounds on
# another path.
@pytest.mark.parametrize("p,dim,c", [(3, 3, 3), (3, 4, 5), (3, 5, 2),
                                     (5, 2, 5), (5, 4, 5), (7, 3, 2), (11, 2, 11),
                                     (13, 2, 13), (13, 3, 1), (13, 4, 2),
                                     (3, 3, 20), (5, 3, 20), (7, 3, 11), (3, 5, 16),
                                     (7, 2, 20), (3, 3, 27), (5, 3, 32),
                                     (3, 2, 75), (5, 2, 125), (7, 2, 77), (3, 4, 24),
                                     (3, 2, 25), (5, 2, 25), (7, 2, 11), (7, 2, 3),
                                     (3, 2, 45), (5, 2, 75), (3, 4, 45),
                                     (3, 2, 453), (3, 2, 174), (3, 4, 48), (3, 4, 21),
                                     (5, 2, 155), (7, 2, 14),
                                     (3, 2, 60), (3, 2, 81), (3, 4, 12), (5, 2, 100),
                                     (5, 2, 145), (5, 2, 160), (7, 2, 63),
                                     (3, 2, 3), (3, 2, 20), (3, 2, 21), (3, 2, 24),
                                     (3, 3, 12), (3, 3, 25), (3, 4, 3), (3, 4, 20),
                                     (3, 5, 4), (3, 5, 12), (5, 2, 20), (5, 2, 35),
                                     (5, 2, 40), (5, 3, 12), (5, 3, 25), (5, 3, 29),
                                     (5, 4, 2), (5, 4, 6), (7, 2, 7), (7, 2, 21),
                                     (7, 2, 35), (7, 2, 42), (7, 3, 3), (7, 3, 9),
                                     (7, 4, 7)])
def test_stacked_transform_equals_separate_calls(p, dim, c):
    F = PrimeField(p)
    rng = np.random.default_rng(p * 100 + dim * 10 + c)
    stack = rng.standard_normal((c, p**dim)) + 1j * rng.standard_normal((c, p**dim))
    for sign in (-1, 1):
        rows = [row.copy() for row in stack]
        for row in rows:
            _axis_dft(row, F, dim, sign)
        stacked = stack.copy()
        _axis_dft(stacked, F, dim, sign)
        assert np.array_equal(stacked, np.stack(rows))
        flat = stack.reshape(-1).copy()
        _axis_dft(flat, F, dim, sign)
        assert np.array_equal(flat, stacked.reshape(-1))


@pytest.mark.parametrize("p,d,c", [(3, 3, 20), (5, 3, 20), (7, 3, 11), (3, 5, 16),
                                   (7, 2, 20)])
def test_stacked_operators_equal_per_row_calls(p, d, c):
    # each transform maps a stack row by row, to the bits of one call per
    # row; convolve also takes a stack against one function
    F = PrimeField(p)
    rng = np.random.default_rng(p * 100 + d * 10 + c)
    fs = [FFunction.random(F, d, rng) for _ in range(c)]
    gs = [FFunction.random(F, d, rng) for _ in range(c)]
    f = FFunction(F, d, np.stack([x.data for x in fs]))
    g = FFunction(F, d, np.stack([x.data for x in gs]))
    for op in (fourier_transform, inverse_transform):
        assert np.array_equal(op(f).data, np.stack([op(x).data for x in fs]))
    assert np.array_equal(convolve(f, g).data,
                          np.stack([convolve(a, b).data for a, b in zip(fs, gs)]))
    assert np.array_equal(convolve(f, gs[0]).data,
                          np.stack([convolve(a, gs[0]).data for a in fs]))


def test_stacked_transform_refuses_a_strided_buffer():
    # reshaping a strided view copies it, so the in-place result would be
    # lost without a word
    F = PrimeField(3)
    grid = np.zeros((9, 3), dtype=complex)
    with pytest.raises(ValueError):
        _axis_dft(grid[:, 0], F, 2, +1)


@pytest.mark.parametrize("p", [3, 7])
def test_transform_kernels_are_shared_and_read_only(p):
    F = PrimeField(p)
    for sign in (-1, 1):
        E = char_kernel(F, sign)
        assert E is char_kernel(PrimeField(p), sign)
        assert not E.flags.writeable
        with pytest.raises(ValueError):
            E[0, 0] = 0.0
        ab = np.outer(np.arange(p), np.arange(p))
        assert np.array_equal(E, char_vector(F)[(sign * ab) % p])


def test_plancherel_exhaustive_basis_p3_d2():
    F = PrimeField(3)
    for i in range(9):
        f = FFunction.zeros(F, 2)
        f.data[i] = 1.0
        fh = fourier_transform(f)
        assert lp_norm(fh.data, 2, "normalized") == pytest.approx(
            lp_norm(f.data, 2, "counting"), abs=1e-9
        )


def test_plancherel_random_p7_d3():
    F = PrimeField(7)
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = FFunction.random(F, 3, rng)
        fh = fourier_transform(f)
        assert lp_norm(fh.data, 2, "normalized") == pytest.approx(
            lp_norm(f.data, 2, "counting"), rel=1e-9
        )


def test_inverse_roundtrip_and_linearity():
    F = PrimeField(5)
    rng = np.random.default_rng(1)
    for _ in range(100):
        f = FFunction.random(F, 3, rng)
        back = inverse_transform(fourier_transform(f))
        assert np.abs(back.data - f.data).max() < 1e-9
    g = FFunction.random(F, 3, rng)
    h = FFunction.random(F, 3, rng)
    lin = inverse_transform(FFunction(F, 3, 2.0 * g.data + (1 - 3j) * h.data))
    split = 2.0 * inverse_transform(g).data + (1 - 3j) * inverse_transform(h).data
    assert np.abs(lin.data - split).max() < 1e-9


def test_inverse_of_constant_is_delta():
    F = PrimeField(3)
    inv = inverse_transform(FFunction.constant(F, 2, 1.0))
    expect = np.zeros(9, dtype=complex)
    expect[0] = 1.0
    assert np.allclose(inv.data, expect, atol=1e-9)


def test_convolution_fourier_path_matches_naive():
    F = PrimeField(5)
    rng = np.random.default_rng(9)
    f = FFunction.random(F, 2, rng)
    g = FFunction.random(F, 2, rng)
    a = convolve(f, g)
    b = naive_convolve(f, g)
    assert np.abs(a.data - b.data).max() < 1e-9
    # transform turns convolution into product
    lhs = fourier_transform(a)
    rhs = fourier_transform(f).data * fourier_transform(g).data
    assert np.abs(lhs.data - rhs).max() < 1e-7


# ---------------------------------------------------------------------------
# exponent arithmetic


@given(
    st.lists(st.floats(0, 100), min_size=1, max_size=8),
    st.floats(0.05, 0.95),
)
def test_subadditivity_of_small_powers(parts, r):
    # (sum a_i)^r <= sum a_i^r for 0 < r < 1
    total = sum(parts)
    assert total**r <= sum(a**r for a in parts) + 1e-7


def test_stein_tomas_transfer_values():
    # max(0, theta/2 - d_tilde (1 - theta)/4)
    assert stein_tomas_transfer(0.5, 2.0) == pytest.approx(0.0)
    assert stein_tomas_transfer(1.0, 2.0) == pytest.approx(0.5)
    assert stein_tomas_transfer(0.8, 1.0) == pytest.approx(0.35)
    # clamped at zero when the L2 gain dominates
    assert stein_tomas_transfer(0.5, 4.0) == 0.0
    with pytest.raises(ValueError):
        stein_tomas_transfer(0.0, 2.0)
    with pytest.raises(ValueError):
        stein_tomas_transfer(1.5, 2.0)
    with pytest.raises(ValueError):
        stein_tomas_transfer(0.5, -1.0)


# ---------------------------------------------------------------------------
# operator norm estimation


def test_power_iteration_matches_svd():
    rng = np.random.default_rng(17)
    T = rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8))
    gram = lambda g: T.conj().T @ (T @ g)
    sigma = power_iteration_norm(gram, 8, rng)
    top = np.linalg.svd(T, compute_uv=False)[0]
    assert sigma == pytest.approx(top, rel=1e-6)


def test_power_iteration_raises_when_it_does_not_converge():
    # a stub Gram that scales by 1, 2, 3, ...: its Rayleigh quotient moves
    # by a relative 1/k at step k, far above 1e-10 for all 2,000 steps
    steps = itertools.count(1)
    with pytest.raises(FFLabError, match="did not converge"):
        power_iteration_norm(lambda g: g * next(steps), 4, np.random.default_rng(0))
    assert next(steps) == 2001


def test_power_iteration_on_the_zero_operator_fails_loudly():
    # the iterate becomes 0 / 0 and never converges
    with np.errstate(invalid="ignore"), pytest.raises(FFLabError, match="did not converge"):
        power_iteration_norm(lambda g: 0.0 * g, 4, np.random.default_rng(0))
