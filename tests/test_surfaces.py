"""Surface operators: extension/restriction duality, closed-form kernel
transforms, surface convolution, slice transport, plane embeddings,
congruence transfer."""

import cmath
import math

import numpy as np
import pytest

from fflab.combinatorics import PointSet
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
    Tube,
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
    assert len(S.points) == 25
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


@pytest.mark.parametrize("S", _extension_surfaces(), ids=repr)
def test_extension_slabs_stack_to_extension(S):
    f = SurfaceFunction.random(S, np.random.default_rng(5))
    slabs = list(extension_slabs(f))
    assert [t for t, _ in slabs] == list(range(S.field.p))
    stacked = np.stack([row for _, row in slabs])
    assert np.array_equal(stacked.reshape(-1), extension(f).data)


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
        lhs = inner(extension(g), Ffn)
        # the normalized surface measure: the base sum over |S|
        rhs = inner(g.as_base_function(),
                    restriction(Ffn, S).as_base_function()) / S.size
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
    out = bochner_riesz(FFunction.delta(F, 3, (0, 0, 0)), S, "kernel_only")
    k = surface_measure_inverse_ft(S)
    assert np.abs(out.data - k.data).max() < 1e-9


def test_bochner_riesz_matches_direct_convolution():
    F = PrimeField(5)
    S = paraboloid(F, 3)
    rng = np.random.default_rng(4)
    Ffn = FFunction.random(F, 3, rng)
    fast = bochner_riesz(Ffn, S, "kernel_only")
    direct = naive_convolve(Ffn, surface_measure_inverse_ft(S))
    assert np.abs(fast.data - direct.data).max() < 1e-9
    shifted = bochner_riesz(Ffn, S, "with_delta")
    assert np.abs((fast.data - Ffn.data) - shifted.data).max() < 1e-12


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
                out = bochner_riesz(Ffn, S, "kernel_only")
                tube = Tube(F, m, x2p, tp)
                want = np.exp(2j * np.pi * (m * X[:, 0] % p) / p) * tube.indicator().data
                assert np.abs(out.data - want).max() < 1e-9


def test_tube_geometry():
    F = PrimeField(5)
    t1 = Tube(F, 2, 1, 3)
    ind = t1.indicator()
    assert ind.data.sum() == pytest.approx(25)
    on_tube = encode_point(np.array([(0, 1, 3), (4, (1 - 2 * 2) % 5, 0)]), 5)
    assert ind.data[on_tube].tolist() == [1, 1]
    # parallel distinct tubes are disjoint
    t2 = Tube(F, 2, 2, 3)
    assert not np.any((t1.indicator().data > 0) & (t2.indicator().data > 0))
    # through any fixed (x2, t) there is exactly one tube per direction:
    # the p translate parameterizations hitting it all carve the same set
    probe = encode_point((0, 1, 3), 5)
    for m in range(5):
        tubes = [Tube(F, m, x2p, tp).indicator().data
                 for x2p in range(5) for tp in range(5)]
        hits = [data for data in tubes if data[probe] == 1]
        assert len(hits) == 5
        for other in hits[1:]:
            assert np.array_equal(hits[0], other)
    assert Tube(F, 1, 0, 0).indicator().data.sum() == pytest.approx(25)


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
    conv = bochner_riesz(h0, S, "with_delta")
    ext = extension(SurfaceFunction(S, h0.data[: p * p].copy()))
    worst = 0.0
    X = coordinate_array(p, 3)
    for x1, x2, t in X[X[:, 2] != 0]:
        tp = S.field.inverse(t)
        w1 = (-x2 * tp) % p
        w2 = (-x1 * tp) % p
        lhs = abs(complex(conv.data[encode_point((x1, x2, t), p)]))
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
            assert lp_norm(extension(g), pe, "counting") == pytest.approx(
                lp_norm(extension(f), pe, "counting"), rel=1e-9
            )


def test_congruence_absent_p3():
    F = PrimeField(3)
    assert congruence_between(paraboloid(F, 3), hyperbolic_paraboloid(F, 3)) is None


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
        assert lp_norm(extension(g), 3.0, "counting") == pytest.approx(
            lp_norm(extension(f), 3.0, "counting"), rel=1e-9
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
