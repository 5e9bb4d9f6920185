"""Surface operators: extension/restriction duality, closed-form kernel
transforms, surface convolution, slice transport, plane embeddings,
congruence transfer."""

import math

import numpy as np
import pytest

from fflab.combinatorics import PointSet, vh_plane_masks
from fflab.core import (
    FFunction,
    PrimeField,
    char_vector,
    coordinate_array,
    encode_point,
    inner,
    lp_norm,
)
from fflab.errors import NotCongruent, NotOnSurface
from fflab.fourier import (
    exact_r22,
    fourier_transform,
    power_iteration_norm,
)
from fflab.oracles import naive_convolve
from fflab.qforms import QuadraticSpace, det_mod, galilean, random_symmetric
from fflab.surfaces import (
    Surface,
    SurfaceFunction,
    bochner_riesz,
    congruence_between,
    equivalence_transfer,
    extension,
    extension_slabs,
    gauss_sum,
    hyperbolic_paraboloid,
    paraboloid,
    plane_embed,
    plane_embed_ft,
    pseudo_conformal_check,
    restriction,
    surface_measure_inverse_ft,
)


def test_surface_basics():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    assert S.size == 25
    assert len(np.unique(S.point_array(), axis=0)) == 25
    assert len(set(S.flat_indices.tolist())) == 25
    assert S.lift((2, 3)) == (2, 3, 6 % 5)
    assert S.contains_rows(np.array([(2, 3, 1), (2, 3, 2)])).tolist() == [True, False]
    P = paraboloid(F, 3)
    assert P.lift((2, 3)) == (2, 3, 13 % 5)
    with pytest.raises(ValueError):
        Surface(QuadraticSpace(F, [[1, 0], [0, 0]]))


@pytest.mark.parametrize("p", [3, 5])
def test_surface_stores_heights_and_flat_indices(p):
    # a surface keeps Q of every base point and the flat index of every
    # lifted point; the point rows are rebuilt from them on demand
    F = PrimeField(p)
    rng = np.random.default_rng(60 + p)
    A = random_symmetric(F, 3, rng)
    while not det_mod(A, p):
        A = random_symmetric(F, 3, rng)
    surfaces = [paraboloid(F, 3), paraboloid(F, 4), hyperbolic_paraboloid(F, 3),
                hyperbolic_paraboloid(F, 5), Surface(QuadraticSpace(F, A))]
    for S in surfaces:
        base = coordinate_array(p, S.base_dim)
        X = S.point_array()
        assert X.shape == (S.size, S.ambient_dim)
        assert np.array_equal(X[:, :-1], base)
        assert np.array_equal(S.heights, S.Q.q_batch(base))
        assert np.array_equal(S.flat_indices, encode_point(X, p))
        assert S.contains_rows(X).all()


def test_surface_function_constructors():
    F = PrimeField(3)
    S = paraboloid(F, 3)
    ind = SurfaceFunction.from_surface_points(S, [(1, 2, S.Q.q([1, 2]))])
    assert ind.values.sum() == 1.0
    assert ind.values[encode_point((1, 2), 3)] == 1.0
    with pytest.raises(NotOnSurface):
        SurfaceFunction.from_surface_points(S, [(1, 2, (S.Q.q([1, 2]) + 1) % 3)])


# ---------------------------------------------------------------------------
# stacks


def _stack_cases():
    # surfaces and stack heights of the stacked runners: ST-1 at (3, 3),
    # (5, 3), (7, 3) and (3, 5), EN-4's two surfaces, MT-1 and BR-1 at d = 3
    return [(paraboloid(PrimeField(3), 3), 20), (paraboloid(PrimeField(5), 3), 20),
            (paraboloid(PrimeField(7), 3), 11), (paraboloid(PrimeField(3), 5), 16),
            (hyperbolic_paraboloid(PrimeField(3), 5), 8),
            (hyperbolic_paraboloid(PrimeField(3), 3), 25),
            (hyperbolic_paraboloid(PrimeField(5), 3), 32),
            (hyperbolic_paraboloid(PrimeField(7), 3), 11)]


@pytest.mark.parametrize("S,c", _stack_cases(), ids=repr)
def test_stacked_surface_operators_equal_per_row_calls(S, c):
    p, d = S.field.p, S.ambient_dim
    rng = np.random.default_rng(p * 10 + d + c)
    fs = [SurfaceFunction.random(S, rng) for _ in range(c)]
    Fs = [FFunction.random(S.field, d, rng) for _ in range(c)]
    f = SurfaceFunction(S, np.stack([x.values for x in fs]))
    F = FFunction(S.field, d, np.stack([x.data for x in Fs]))
    assert np.array_equal(extension(f).data, np.stack([extension(x).data for x in fs]))
    rest = restriction(F, S)
    assert np.array_equal(rest.values, np.stack([restriction(x, S).values for x in Fs]))
    assert rest.norm(2.0).tolist() == [restriction(x, S).norm(2.0) for x in Fs]
    assert np.array_equal(bochner_riesz(F, S).data, np.stack(
        [bochner_riesz(x, S).data for x in Fs]))
    if d == 3:
        # real slices t = 0, as MT-1 draws them
        slices = np.zeros((c, p**3), dtype=complex)
        slices[:, : p * p] = rng.standard_normal((c, p * p))
        devs = pseudo_conformal_check(FFunction(S.field, 3, slices), S)
        assert devs.shape == (c,)
        assert devs.tolist() == [
            float(pseudo_conformal_check(FFunction(S.field, 3, h), S)) for h in slices]


def test_a_stack_gives_one_surface_norm_per_row():
    # SurfaceFunction.norm goes through lp_norm: a stack gives one norm per
    # function, with the bits of that function's own norm, never one
    # summed across them.  The restriction of a stack is F-ordered, so its
    # rows are strided; their norms still match row by row.
    S = paraboloid(PrimeField(3), 3)
    f = SurfaceFunction(S, np.ones((2, S.size)))
    assert f.norm(2.0).tolist() == [1.0, 1.0]
    assert SurfaceFunction(S, f.values[1]).norm(2.0) == 1.0
    rng = np.random.default_rng(8)
    for p, d, c in ((3, 3, 20), (7, 3, 11), (3, 5, 16)):
        S = paraboloid(PrimeField(p), d)
        F = FFunction(S.field, d, rng.standard_normal((c, p**d))
                      + 1j * rng.standard_normal((c, p**d)))
        rest = restriction(F, S)
        assert not rest.values.flags.c_contiguous
        for q in (1.5, 2.0, 4.0):
            assert rest.norm(q).tolist() == [
                SurfaceFunction(S, row).norm(q) for row in rest.values]
            assert rest.norm(q).tolist() == [
                restriction(FFunction(S.field, d, row), S).norm(q) for row in F.data]
    for shape in ((S.size + 1,), (2, S.size - 1), (1, 2, S.size)):
        with pytest.raises(ValueError):
            SurfaceFunction(S, np.ones(shape))


# ---------------------------------------------------------------------------
# extension / restriction


@pytest.mark.parametrize("p", [3, 5])
def test_extension_of_one_matches_closed_form_hyperbolic(p):
    F = PrimeField(p)
    S = hyperbolic_paraboloid(F, 3)
    ext = extension(SurfaceFunction(S, np.ones(S.size)))
    closed = surface_measure_inverse_ft(S)
    assert np.abs(ext.data - closed.data).max() < 1e-9


@pytest.mark.parametrize("p", [3, 5])
def test_extension_of_one_matches_closed_form_paraboloid(p):
    F = PrimeField(p)
    S = paraboloid(F, 3)
    ext = extension(SurfaceFunction(S, np.ones(S.size)))
    closed = surface_measure_inverse_ft(S)
    assert np.abs(ext.data - closed.data).max() < 1e-9


def test_closed_form_pointwise_values():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    k = surface_measure_inverse_ft(S)
    # value at the origin is 1; t = 0 slice vanishes off 0
    assert k.data[0] == pytest.approx(1.0)
    assert abs(k.data[encode_point((1, 2, 0), 5)]) < 1e-12
    assert abs(k.data[encode_point((0, 1, 0), 5)]) < 1e-12
    # spot value: (1,2,3) -> p^{-1} e(-x1 x2 / t), inverse of 3 is 2
    want = (1 / 5) * char_vector(F)[(-1 * 2 * 2) % 5]
    assert k.data[encode_point((1, 2, 3), 5)] == pytest.approx(want, abs=1e-12)
    # modulus p^{-1} everywhere off the t = 0 slice
    X = coordinate_array(5, 3)
    nz = X[:, 2] != 0
    assert np.abs(np.abs(k.data[nz]) - 1 / 5).max() < 1e-12


def test_gauss_sum_modulus():
    F = PrimeField(7)
    for t in range(1, 7):
        assert abs(gauss_sum(F, t)) == pytest.approx(math.sqrt(7), rel=1e-12)
    assert gauss_sum(F, 0) == pytest.approx(7.0)


@pytest.mark.parametrize(
    "maker,p,d",
    [
        (hyperbolic_paraboloid, 3, 3),
        (hyperbolic_paraboloid, 5, 3),
        (hyperbolic_paraboloid, 3, 5),
        (paraboloid, 3, 3),
        (paraboloid, 5, 3),
        (paraboloid, 3, 5),
        (paraboloid, 3, 4),
    ],
)
def test_fourier_dimension_bound(maker, p, d):
    S = maker(PrimeField(p), d)
    k = surface_measure_inverse_ft(S)
    assert abs(k.data[0] - 1.0) < 1e-9
    mags = np.abs(k.data)
    mags[0] = 0.0
    assert mags.max() <= float(p) ** (-(d - 1) / 2) + 1e-9


def _general_surface(p, d, seed):
    F = PrimeField(p)
    rng = np.random.default_rng(seed)
    while True:
        Q = QuadraticSpace(F, random_symmetric(F, d - 1, rng))
        if Q.rank == d - 1:
            return Surface(Q)


def test_general_surface_has_no_closed_form_measure():
    # only the two graph models have one; the extension of 1 on any
    # surface is test_extension_matches_literal_sum's business
    with pytest.raises(ValueError, match="no closed form"):
        surface_measure_inverse_ft(_general_surface(3, 3, 2))


def _extension_surfaces():
    # d = 2 runs the one-coordinate base transform
    out = [paraboloid(PrimeField(5), 2),
           paraboloid(PrimeField(3), 3), hyperbolic_paraboloid(PrimeField(5), 3),
           hyperbolic_paraboloid(PrimeField(3), 5), paraboloid(PrimeField(13), 3)]
    return out + [_general_surface(3, 3, 2), _general_surface(5, 4, 3)]


@pytest.mark.parametrize("S", _extension_surfaces(), ids=repr)
def test_extension_matches_literal_sum(S):
    # |S|^{-1} sum over xi of f(xi) e(x . (xi, Q(xi))) at every x
    p = S.field.p
    f = SurfaceFunction.random(S, np.random.default_rng(p + S.ambient_dim))
    X = coordinate_array(p, S.ambient_dim)
    literal = char_vector(S.field)[(X @ S.point_array().T) % p] @ f.values / S.size
    assert np.abs(extension(f).data - literal).max() < 1e-12


# A slab is a one-row product, which BLAS rounds on another path than the
# stacked rows at d = 2; no run builds a surface with a one-coordinate base.
@pytest.mark.parametrize("S", [S for S in _extension_surfaces() if S.ambient_dim > 2],
                         ids=repr)
def test_extension_slabs_stack_to_extension(S):
    f = SurfaceFunction.random(S, np.random.default_rng(5))
    slabs = list(extension_slabs(f))
    assert len(slabs) == S.field.p
    assert np.array_equal(np.stack(slabs).reshape(-1), extension(f).data)


def test_extension_of_point_mass():
    F = PrimeField(5)
    S = paraboloid(F, 3)
    xi0 = (2, 4)
    lifted = S.lift(xi0)
    ext = extension(SurfaceFunction.from_surface_points(S, [lifted]))
    for x in [(0, 0, 0), (1, 2, 3), (4, 4, 4)]:
        phase = sum(a * b for a, b in zip(x, lifted)) % 5
        assert ext.data[encode_point(x, 5)] == pytest.approx(
            char_vector(F)[phase] / S.size, abs=1e-12)
    assert np.abs(np.abs(ext.data) - 1 / S.size).max() < 1e-12


def test_restriction_of_delta_is_one():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    r = restriction(FFunction.delta(F, 3, (0, 0, 0)), S)
    assert np.allclose(r.values, 1.0, atol=1e-12)


def test_restriction_of_character_is_point_mass():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    eta = S.lift((1, 3))
    X = coordinate_array(5, 3)
    phases = (X @ np.array(eta)) % 5
    Ffn = FFunction(F, 3, np.exp(2j * np.pi * phases / 5))
    r = restriction(Ffn, S)
    want = np.zeros(S.size, dtype=complex)
    want[np.where((S.point_array() == np.array(eta)).all(axis=1))[0][0]] = 5**3
    assert np.abs(r.values - want).max() < 1e-8


def test_extension_restriction_duality():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    rng = np.random.default_rng(13)
    for _ in range(100):
        g = SurfaceFunction.random(S, rng)
        Ffn = FFunction.random(F, 3, rng)
        lhs = inner(extension(g).data, Ffn.data)
        # the normalized surface measure: the base sum over |S|
        rhs = inner(g.values, restriction(Ffn, S).values) / S.size
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_exact_r22_values_and_power_iteration():
    F3 = PrimeField(3)
    assert exact_r22(paraboloid(F3, 3)) == pytest.approx(math.sqrt(3))
    F5 = PrimeField(5)
    S = hyperbolic_paraboloid(F5, 3)
    rng = np.random.default_rng(31)

    def gram(vec):
        g = SurfaceFunction(S, vec)
        return restriction(extension(g), S).values

    sigma = power_iteration_norm(gram, S.size, rng)
    assert sigma == pytest.approx(exact_r22(S), rel=1e-6)


# ---------------------------------------------------------------------------
# surface kernel convolution


def test_bochner_riesz_delta_gives_kernel():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    out = bochner_riesz(FFunction.delta(F, 3, (0, 0, 0)), S)
    k = surface_measure_inverse_ft(S)
    assert np.abs(out.data - k.data).max() < 1e-9


def test_bochner_riesz_matches_direct_convolution():
    F = PrimeField(5)
    S = paraboloid(F, 3)
    rng = np.random.default_rng(4)
    Ffn = FFunction.random(F, 3, rng)
    fast = bochner_riesz(Ffn, S)
    direct = naive_convolve(Ffn, surface_measure_inverse_ft(S))
    assert np.abs(fast.data - direct.data).max() < 1e-9


def _tube(X, p, m, x2p, tp):
    """Oracle: the tube {x2 - x2p = -m (t - tp)} of the line through
    (x2p, tp) whose character has slope m, by its literal formula."""
    return (X[:, 1] - x2p + m * (X[:, 2] - tp)) % p == 0


@pytest.mark.parametrize("p", [3, 5])
def test_line_input_identity_exhaustive(p):
    # input concentrated on one spatial line with a character in x1 maps to
    # that character spread along the matching tube, exactly
    F = PrimeField(p)
    S = hyperbolic_paraboloid(F, 3)
    X = coordinate_array(p, 3)
    for m in range(p):
        for x2p in range(p):
            for tp in range(p):
                data = np.where(
                    (X[:, 1] == x2p) & (X[:, 2] == tp),
                    np.exp(2j * np.pi * (m * X[:, 0] % p) / p),
                    0,
                )
                Ffn = FFunction(F, 3, data)
                out = bochner_riesz(Ffn, S)
                want = np.exp(2j * np.pi * (m * X[:, 0] % p) / p) * _tube(X, p, m, x2p, tp)
                assert np.abs(out.data - want).max() < 1e-9


@pytest.mark.parametrize("p", [3, 5, 7])
def test_vh_plane_masks_are_the_literal_tubes(p):
    # the tube of slope m through (x2p, tp) is the type-1 VH plane of slope
    # -m and offset x2p + m tp, the row BR-1 reads as its target
    X = coordinate_array(p, 3)
    planes = vh_plane_masks(X, p).reshape(2, p, p, p**3)[0]
    for m in range(p):
        for x2p in range(p):
            for tp in range(p):
                assert np.array_equal(planes[-m % p, (x2p + m * tp) % p],
                                      _tube(X, p, m, x2p, tp))


# ---------------------------------------------------------------------------
# pseudo-conformal slice transport


def test_pseudo_conformal_point_mass():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    h0 = FFunction.delta(F, 3, (2, 3, 0))
    assert pseudo_conformal_check(h0, S) < 1e-9


def test_pseudo_conformal_random_real_slices():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    rng = np.random.default_rng(77)
    for _ in range(25):
        h0 = FFunction.zeros(F, 3)
        h0.data[:25] = rng.standard_normal(25)
        assert pseudo_conformal_check(h0, S) < 1e-9


def _pseudo_conformal_loop(h0, S):
    """Oracle: the per-point loop over t != 0 with Python's abs(complex)."""
    p = S.field.p
    conv = bochner_riesz(h0, S).data - h0.data  # the kernel minus the identity
    ext = extension(SurfaceFunction(S, h0.data[: p * p].copy()))
    worst = 0.0
    X = coordinate_array(p, 3)
    for x1, x2, t in X[X[:, 2] != 0]:
        tp = S.field.inverse(t)
        w1 = (-x2 * tp) % p
        w2 = (-x1 * tp) % p
        lhs = abs(complex(conv[encode_point((x1, x2, t), p)]))
        rhs = p * abs(complex(ext.data[encode_point((w1, w2, tp), p)]))
        worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_pseudo_conformal_gather_equals_per_point_loop(p):
    F = PrimeField(p)
    S = hyperbolic_paraboloid(F, 3)
    rng = np.random.default_rng(p)
    for kind in ("gaussian", "indicator", "delta"):
        h0 = FFunction.zeros(F, 3)
        if kind == "gaussian":
            h0.data[: p * p] = rng.standard_normal(p * p)
        elif kind == "indicator":
            h0.data[: p * p] = rng.random(p * p) < 0.4
        else:
            h0.data[int(rng.integers(p * p))] = 1.0
        assert pseudo_conformal_check(h0, S) == _pseudo_conformal_loop(h0, S)


def test_pseudo_conformal_zero_and_validation():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    assert pseudo_conformal_check(FFunction.zeros(F, 3), S) == 0.0
    off_slice = FFunction.delta(F, 3, (0, 0, 1))
    with pytest.raises(ValueError):
        pseudo_conformal_check(off_slice, S)
    complex_h = FFunction.zeros(F, 3)
    complex_h.data[0] = 1j
    with pytest.raises(ValueError):
        pseudo_conformal_check(complex_h, S)


# ---------------------------------------------------------------------------
# plane embeddings


def test_plane_embed_support():
    F = PrimeField(5)
    rng = np.random.default_rng(5)
    f = FFunction.random(F, 2, rng)
    emb = plane_embed(f, 2, 1)
    X = coordinate_array(5, 3)
    on = (X[:, 1] - 2 * X[:, 2] - 1) % 5 == 0
    assert np.abs(emb.data[~on]).max() == 0.0
    assert emb.data[encode_point((3, (2 * 4 + 1) % 5, 4), 5)] == pytest.approx(
        f.data[encode_point((3, 4), 5)])


def test_plane_embed_ft_identity_random():
    F = PrimeField(5)
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = FFunction.random(F, 2, rng)
        a = int(rng.integers(0, 5))
        b = int(rng.integers(0, 5))
        got = plane_embed_ft(f, a, b)
        want = fourier_transform(plane_embed(f, a, b))
        scale = max(1.0, float(np.abs(want.data).max()))
        assert np.abs(got.data - want.data).max() < 1e-9 * scale


@pytest.mark.parametrize("p,c", [(3, 25), (5, 25), (7, 11), (7, 3)])
def test_plane_embed_ft_maps_a_stack_row_by_row(p, c):
    # one plane per row, and one 2-d transform for the stack, with the
    # bits of one call per row
    F = PrimeField(p)
    rng = np.random.default_rng(p * 100 + c)
    fs = [FFunction.random(F, 2, rng) for _ in range(c)]
    a = rng.integers(0, p, size=c)
    b = rng.integers(0, p, size=c)
    got = plane_embed_ft(FFunction(F, 2, np.stack([f.data for f in fs])), a, b)
    assert got.data.shape == (c, p**3)
    assert np.array_equal(got.data, np.stack(
        [plane_embed_ft(f, int(s), int(o)).data for f, s, o in zip(fs, a, b)]))


def test_plane_embed_ft_a0_b0_constant_in_xi2():
    F = PrimeField(5)
    rng = np.random.default_rng(61)
    f = FFunction.random(F, 2, rng)
    Fh = plane_embed_ft(f, 0, 0)
    g = Fh.data.reshape((5,) * 3, order="F")
    for xi2 in range(1, 5):
        assert np.abs(g[:, xi2, :] - g[:, 0, :]).max() < 1e-9


def test_plane_embed_ft_delta_unit_modulus():
    F = PrimeField(3)
    f = FFunction.delta(F, 2, (1, 2))
    Fh = plane_embed_ft(f, 1, 2)
    assert np.abs(np.abs(Fh.data) - 1.0).max() < 1e-9


# ---------------------------------------------------------------------------
# congruence transfer


def test_equivalence_transfer_identity():
    F = PrimeField(5)
    S = paraboloid(F, 3)
    rng = np.random.default_rng(3)
    f = SurfaceFunction.random(S, rng)
    g = equivalence_transfer(f, np.eye(2, dtype=np.int64), target=S)
    assert np.array_equal(g.values, f.values)


def test_congruence_paraboloid_hyperbolic_p5():
    # -1 is a square mod 5 so the two model surfaces are congruent
    F = PrimeField(5)
    P = paraboloid(F, 3)
    H = hyperbolic_paraboloid(F, 3)
    M = congruence_between(P, H)
    assert M is not None
    assert np.array_equal((M.T @ P.Q.A @ M) % 5, H.Q.A)
    rng = np.random.default_rng(50)
    for _ in range(50):
        f = SurfaceFunction.random(P, rng)
        g = equivalence_transfer(f, M, target=H)
        for q in (2.0, 4.0):
            assert g.norm(q) == pytest.approx(f.norm(q), rel=1e-9)
        assert np.abs(g.values).max() == pytest.approx(np.abs(f.values).max(), rel=1e-9)
        for pe in (2.0, 4.0):
            assert lp_norm(extension(g).data, pe, "counting") == pytest.approx(
                lp_norm(extension(f).data, pe, "counting"), rel=1e-9
            )


def test_congruence_absent_p3():
    F = PrimeField(3)
    assert congruence_between(paraboloid(F, 3), hyperbolic_paraboloid(F, 3)) is None


def test_congruence_rejects_mismatched_spaces():
    with pytest.raises(ValueError):
        congruence_between(paraboloid(PrimeField(5), 3), paraboloid(PrimeField(3), 3))
    with pytest.raises(ValueError):
        congruence_between(paraboloid(PrimeField(5), 3), paraboloid(PrimeField(5), 4))


def test_equivalence_transfer_random_congruence_p7():
    F = PrimeField(7)
    rng = np.random.default_rng(70)
    from fflab.qforms import random_invertible

    S = paraboloid(F, 4)
    for _ in range(10):
        M = random_invertible(F, 3, rng)
        B = (M.T @ S.Q.A @ M) % 7
        T = Surface(QuadraticSpace(F, B))
        f = SurfaceFunction.random(S, rng)
        g = equivalence_transfer(f, M, target=T)
        assert lp_norm(extension(g).data, 3.0, "counting") == pytest.approx(
            lp_norm(extension(f).data, 3.0, "counting"), rel=1e-9
        )
        assert g.norm(2) == pytest.approx(f.norm(2), rel=1e-9)


def test_equivalence_transfer_rejects_wrong_target():
    F = PrimeField(5)
    P = paraboloid(F, 3)
    H = hyperbolic_paraboloid(F, 3)
    with pytest.raises(NotCongruent):
        equivalence_transfer(
            SurfaceFunction(P, np.ones(P.size)), np.eye(2, dtype=np.int64), target=H
        )


# ---------------------------------------------------------------------------
# shears act on surfaces


def test_galilean_identity_and_inverse():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    rng = np.random.default_rng(11)
    pts = S.point_array()
    E = PointSet.of(F, 3, pts[rng.choice(len(pts), size=8, replace=False)])
    zero = S.lift((0, 0))
    assert np.array_equal(galilean(S, zero, E.matrix()), E.matrix())  # E's order
    t = S.lift((2, 3))
    t_inv = S.lift((3, 2))  # -(2,3) mod 5
    back = PointSet.of(F, 3, galilean(S, t_inv, galilean(S, t, E.matrix())))
    assert np.array_equal(back.index, E.index)
    image = PointSet.of(F, 3, galilean(S, t, S.point_array()))
    assert len(image) == S.size  # bijective
    assert np.array_equal(image.index, np.sort(S.flat_indices))


def test_galilean_rejects_off_surface():
    F = PrimeField(5)
    S = hyperbolic_paraboloid(F, 3)
    with pytest.raises(NotOnSurface):
        galilean(S, (1, 1, 0), {S.lift((0, 0))})
