"""Scenario registry: every checkable statement in the package as an
executable entry with a stable id.

Three kinds:

- exact_identity: chains that hold with constant exactly 1 at every
  size (transform closed forms, norm identities, operator-norm
  formulas, geometric transport identities).  The metric is the worst
  deviation across trials; pass iff it stays under the tolerance.
- constant_tracked: inequalities whose constant is bounded but not 1.
  The runner measures the constant over a deterministic family and the
  value is compared against the stored baseline (baselines.py).  At the
  baseline's own provenance parameters the run re-derives the constant
  and reports it (report_only), failing only on drift.
- exponent_arith: closed-form exponent bookkeeping, checked by rational
  arithmetic; the metric is the worst residual.

The runner contract: a runner is a generator function of one RunContext
that yields one (metric, fields) pair per case it checks, where fields
is a plain dict of named witness scalars.  The harness alone reduces the
cases (_measure): it keeps the first strictly largest metric, a NaN
beats every number and is never replaced, and only the kept case's
fields become the witness.  A run that yields no case fails.  A runner
that checks fewer trials than it was asked for (an exhaustive family,
or MX-1's schedule) sets ctx.trials to the count it ran, so the report
row, and the drift check of a tracked scenario, state it.

All randomness flows through RunContext.trial_rng, which hashes
(master seed, scenario id, trial index), so per-trial results are
independent of execution order and worker count.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from ..core import (
    FFunction,
    PrimeField,
    coordinate_array,
    encode_point,
    inner,
    lp_norm,
)
from ..errors import (
    FFLabError,
    FullyDegenerate,
    OutOfValidityRange,
    UnknownScenario,
)
from ..fourier import (
    convolve,
    exact_r22,
    fourier_transform,
    inverse_transform,
    power_iteration_norm,
    stein_tomas_transfer,
)
from ..qforms import (
    QuadraticSpace,
    allowed_subsurface_triples,
    classify_subsurface,
    complementary_isotropic,
    complement_indicator_character_sum,
    det_mod,
    diagonal_form,
    dot_form,
    dual_pairing_basis,
    enumerate_max_isotropic,
    hyperbolic_pairing_form,
    orthogonal_complement,
    random_invertible,
    random_subspace,
    random_symmetric,
)
from ..surfaces import (
    Surface,
    SurfaceFunction,
    Tube,
    bochner_riesz,
    congruence_between,
    equivalence_transfer,
    extension,
    extension_slabs,
    hyperbolic_paraboloid,
    paraboloid,
    plane_embed,
    plane_embed_ft,
    pseudo_conformal_check,
    restriction,
    surface_measure_inverse_ft,
)
from ..combinatorics import (
    HyperplaneFamily,
    PointSet,
    all_affine_hyperplanes,
    additive_energy,
    ENERGY_SLACK,
    closed_form_curve,
    energy_exponent_closed,
    energy_exponent_recurse,
    energy_slice_bound,
    energy_to_incidence,
    incidence_bound_audit,
    off_diagonal_energy,
    random_surface_subset,
    recursion_curve,
    sample_energy_exponents,
    vh_plane_cover,
    vh_plane_masks,
)
from .. import kakeya as kk
from ..oracles import brute_energy, brute_witt, witt_monomials
from .baselines import BaselineEntry, BaselineStore, BaselineMissing, oracle_hash
from .reporting import ScenarioReport, witness_values


def trial_seed(master: int, scenario_id: str, trial: int) -> int:
    """Fixed fan-out hash: the per-trial seed depends only on these three."""
    h = hashlib.sha256(f"{master}:{scenario_id}:{trial}".encode()).hexdigest()
    return int(h[:8], 16)


@dataclass
class RunContext:
    scenario_id: str
    prime: int
    dim: int
    trials: int
    seed: int

    def __post_init__(self):
        self.field = PrimeField(self.prime)

    def trial_rng(self, trial: int) -> np.random.Generator:
        return np.random.default_rng(
            trial_seed(self.seed, self.scenario_id, trial)
        )


# ---------------------------------------------------------------------------
# small helpers


def _scale(f: FFunction, c: complex) -> FFunction:
    return FFunction(f.field, f.dim, f.data * c)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _pos(x: float) -> float:
    return max(0.0, x)


def _logp(p: int, n: float) -> float:
    return math.log(n) / math.log(p)


def _nondegenerate_symmetric(field: PrimeField, m: int,
                             rng: np.random.Generator) -> np.ndarray:
    """A random symmetric m x m matrix over the field, drawn again until
    its determinant is nonzero."""
    while True:
        A = random_symmetric(field, m, rng)
        if det_mod(A, field.p) != 0:
            return A


def _indicator_masks(n: int):
    """Every nonempty subset of range(n) as (mask, row) for mask = 1 ...
    2^n - 1 in order, where row is the length-n bool array of its bits."""
    bits = 1 << np.arange(n)
    for mask in range(1, 2**n):
        yield mask, (mask & bits) != 0


def _direct_sigma(S: Surface) -> FFunction:
    """|S|^{-1} sum over surface points of e(x.xi), by direct transform."""
    scale = S.field.p**S.ambient_dim / S.size
    return _scale(inverse_transform(S.indicator()), scale)


def _random_support(rng: np.random.Generator, total: int, k: int) -> np.ndarray:
    return np.sort(rng.choice(total, size=k, replace=False))


def _sparse(field: PrimeField, d: int, idx: np.ndarray, vals) -> FFunction:
    """The function on F_p^d equal to vals at the flat indices idx and 0
    elsewhere."""
    data = np.zeros(field.p**d, dtype=complex)
    data[idx] = vals
    return FFunction(field, d, data)


# ---------------------------------------------------------------------------
# FT: transform layer


def _run_measure_ft(make_surface, ctx: RunContext):
    # FT-1 and FT-2 differ only in the surface; the registry binds it
    S = make_surface(ctx.field, ctx.dim)
    closed = surface_measure_inverse_ft(S).data
    direct = _direct_sigma(S).data
    gap = np.abs(closed - direct)
    i = int(np.argmax(gap))
    yield float(gap[i]), dict(index=i, closed=complex(closed[i]),
                              direct=complex(direct[i]))


def _run_ft3(ctx: RunContext):
    p, d = ctx.prime, ctx.dim
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        f = FFunction.random(ctx.field, d, rng)
        g = FFunction.random(ctx.field, d, rng)
        fh = fourier_transform(f)
        energy_hat = float(np.sum(np.abs(fh.data) ** 2))
        energy = float(np.sum(np.abs(f.data) ** 2))
        dev_plancherel = _rel(energy_hat, p**d * energy)
        dev_inversion = float(np.abs(inverse_transform(fh).data - f.data).max())
        lhs = fourier_transform(convolve(f, g)).data
        rhs = fh.data * fourier_transform(g).data
        dev_conv = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max()))
        yield max(dev_plancherel, dev_inversion, dev_conv), dict(
            trial=t, plancherel=dev_plancherel, inversion=dev_inversion,
            convolution=dev_conv)


# ---------------------------------------------------------------------------
# ST: the restriction chain with constant 1


def _run_st1(ctx: RunContext):
    # Support-size step: for |f| >= lam on its support and
    # ||f||_{(q/theta)'} = 1, the squared L2(dsigma) transform norm equals
    # the pairing <f, f * sigma-vee>, is at most ||f||_2^2 + p^{-dt/2}||f||_1^2,
    # and the final bound 1 + p^{-dt/4} lam^{-theta/(q-theta)} holds with
    # constant exactly 1.
    p, d = ctx.prime, ctx.dim
    S = paraboloid(ctx.field, d)
    sig = surface_measure_inverse_ft(S)
    dt = d - 1
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        q = float(rng.choice([2.0, 2.5, 3.0, 4.0]))
        theta = float(rng.uniform(0.2, 0.9))
        k = int(rng.integers(1, max(2, p**d // 3)))
        idx = _random_support(rng, p**d, k)
        vals = rng.uniform(1.0, 2.0, size=k) * np.exp(2j * np.pi * rng.random(k))
        f = _sparse(ctx.field, d, idx, vals)
        f = _scale(f, 1.0 / lp_norm(f, q / (q - theta)))
        lam = float(np.abs(f.data[idx]).min())
        lhs = restriction(f, S).norm(2.0) ** 2
        pairing = abs(inner(f, convolve(f, sig)))
        dev_id = _rel(lhs, pairing)
        bound = lp_norm(f, 2.0) ** 2 + p ** (-dt / 2) * lp_norm(f, 1.0) ** 2
        dev_chain = _pos(lhs - bound) / max(1.0, bound)
        final = 1.0 + p ** (-dt / 4) * lam ** (-theta / (q - theta))
        dev_final = _pos(math.sqrt(lhs) - final) / max(1.0, final)
        yield max(dev_id, dev_chain, dev_final), dict(
            trial=t, pairing=dev_id, chain=dev_chain, final=dev_final, q=q,
            theta=theta)


def _run_st2(ctx: RunContext):
    # Height step: for ||f||_inf <= lam and ||f||_{(q/theta)'} = 1,
    # ||f||_{q'} <= lam^{(1-theta)/(q-theta)}; at q = 2 chaining through the
    # exact sharp transform norm gives
    # ||f-hat||_{L2(dsigma)} <= r22 lam^{(1-theta)/(2-theta)}.
    p, d = ctx.prime, ctx.dim
    S = paraboloid(ctx.field, d)
    r22 = exact_r22(S)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        theta = float(rng.uniform(0.2, 0.9))
        k = int(rng.integers(1, max(2, p**d // 2)))
        idx = _random_support(rng, p**d, k)
        f = _sparse(ctx.field, d, idx,
                    rng.uniform(0.2, 1.0, size=k) * np.exp(2j * np.pi * rng.random(k)))
        q = 2.0
        f = _scale(f, 1.0 / lp_norm(f, q / (q - theta)))
        lam = float(np.abs(f.data).max())
        lam_pow = lam ** ((1.0 - theta) / (q - theta))
        dev_norm = _pos(lp_norm(f, 2.0) - lam_pow) / max(1.0, lam_pow)
        lhs = restriction(f, S).norm(2.0)
        dev_rest = _pos(lhs - r22 * lam_pow) / max(1.0, r22 * lam_pow)
        yield max(dev_norm, dev_rest), dict(
            trial=t, height_norm=dev_norm, restricted=dev_rest, theta=theta)


def _run_st3(ctx: RunContext):
    # The sharp L2(dsigma) -> L2(dx) extension norm is exactly
    # sqrt(p^d / |S|): the composition restriction-after-extension is that
    # constant squared times the identity, and power iteration on the
    # honest two-transform composition converges to the same number.
    for maker, label in ((paraboloid, "paraboloid"),
                         (hyperbolic_paraboloid, "hyperbolic")):
        S = maker(ctx.field, ctx.dim)
        want = exact_r22(S)
        scale = ctx.prime**ctx.dim / S.size

        def gram(vec, S=S):
            return restriction(extension(SurfaceFunction(S, vec)), S).values

        rng = ctx.trial_rng(0)
        sigma = power_iteration_norm(gram, S.size, rng)
        dev_pi = abs(sigma - want) / want
        v = rng.standard_normal(S.size) + 1j * rng.standard_normal(S.size)
        dev_scalar = float(np.abs(gram(v) - scale * v).max()) / scale
        yield max(dev_pi, dev_scalar), dict(
            surface=label, power_iteration=dev_pi, gram_scalar=dev_scalar)


def _run_st4(ctx: RunContext):
    # Interpolation bookkeeping: with transform decay exponent dt = d - 1
    # and the sharp alpha = 1/2 at q = 2, the transferred exponent
    # max(0, theta alpha - dt (1 - theta)/4) crosses zero exactly at
    # theta = (d-1)/(d+1), which is where q/theta = (2d+2)/(d-1).
    d = ctx.dim
    devs = {}
    th = Fraction(d - 1, d + 1)
    devs["zero_at_threshold"] = abs(stein_tomas_transfer(0.5, float(th), d - 1))
    devs["threshold_exponent"] = float(abs(Fraction(2, 1) / th - Fraction(2 * d + 2, d - 1)))
    above = stein_tomas_transfer(0.5, float(th) + 0.05, d - 1)
    devs["positive_above"] = _pos(1e-15 - above)
    th2 = float(th) + 0.1
    want = 0.5 * th2 - (d - 1) * (1 - th2) / 4
    devs["linear_branch"] = abs(stein_tomas_transfer(0.5, th2, d - 1) - max(0.0, want))
    devs["identity_at_one"] = abs(stein_tomas_transfer(0.5, 1.0, d - 1) - 0.5)
    yield max(devs.values()), devs


def _run_st5(ctx: RunContext):
    # Decay step: the inverse transform of the surface measure is 1 at the
    # origin and at most p^{-(d-1)/2} in modulus elsewhere; consequently a
    # unimodular function on a set E satisfies
    # ||f-hat||^2_{L2(dsigma)} <= |E| + p^{-(d-1)/2} |E|^2 with constant 1.
    p, d = ctx.prime, ctx.dim
    for maker, label in ((paraboloid, "paraboloid"),
                         (hyperbolic_paraboloid, "hyperbolic")):
        S = maker(ctx.field, d)
        sig = surface_measure_inverse_ft(S)
        off = np.abs(sig.data).copy()
        off[0] = 0.0
        dev_decay = _pos(float(off.max()) - p ** (-(d - 1) / 2))
        dev_origin = abs(sig.data[0] - 1.0)
        yield max(dev_decay, dev_origin), dict(
            surface=label, decay=dev_decay, origin=dev_origin)
        for t in range(ctx.trials):
            rng = ctx.trial_rng(t)
            k = int(rng.integers(1, p**d))
            idx = _random_support(rng, p**d, k)
            f = _sparse(ctx.field, d, idx, np.exp(2j * np.pi * rng.random(k)))
            lhs = restriction(f, S).norm(2.0) ** 2
            bound = k + p ** (-(d - 1) / 2) * k**2
            yield _pos(lhs - bound) / max(1.0, bound), dict(
                surface=label, trial=t, support=k)


def _run_st6(ctx: RunContext):
    # Norm bookkeeping for indicators: with alpha = log_p r22 and
    # |E| = p^gamma, the L^{2 gamma/(gamma + 2 alpha)} norm of the indicator
    # equals p^{alpha + gamma/2} exactly, and the restricted transform obeys
    # the exact-r22 height bound.
    p, d = ctx.prime, ctx.dim
    S = paraboloid(ctx.field, d)
    r22 = exact_r22(S)
    alpha = _logp(p, r22)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        # gamma >= 1 keeps the derived exponent a genuine Lebesgue index
        k = int(rng.integers(p, p**d))
        idx = _random_support(rng, p**d, k)
        f = _sparse(ctx.field, d, idx, 1.0)
        gamma = _logp(p, k)
        r = 2 * gamma / (gamma + 2 * alpha)
        dev_norm = _rel(lp_norm(f, r), p ** (alpha + gamma / 2))
        lhs = restriction(f, S).norm(2.0)
        bound = r22 * math.sqrt(k)
        dev_rest = _pos(lhs - bound) / max(1.0, bound)
        yield max(dev_norm, dev_rest), dict(
            trial=t, support=k, norm_identity=dev_norm, height=dev_rest)


def _run_eq1(ctx: RunContext):
    # Transport across congruent base forms: carrying f through an
    # invertible change of variables preserves every extension L^q(dx)
    # norm and every surface L^q(dsigma) norm exactly.
    field = ctx.field
    d = ctx.dim
    P = paraboloid(field, d)
    H = hyperbolic_paraboloid(field, d)
    M_ph = congruence_between(P, H)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        routes = []
        if M_ph is not None:
            routes.append((SurfaceFunction.random(P, rng), M_ph, H, "dot_to_pairing"))
        B = _nondegenerate_symmetric(field, d - 1, rng)
        M = random_invertible(field, d - 1, rng)
        S_from = Surface(QuadraticSpace(field, B))
        routes.append((SurfaceFunction.random(S_from, rng), M, None, "random_pair"))
        for f, M0, target, label in routes:
            g = equivalence_transfer(f, M0, target)
            ext_f, ext_g = extension(f), extension(g)
            for qe in (2.0, 8.0 / 3.0, 4.0):
                dev = max(
                    _rel(lp_norm(ext_f, qe), lp_norm(ext_g, qe)),
                    _rel(f.norm(qe), g.norm(qe)),
                )
                yield dev, dict(trial=t, route=label, q=qe)


# ---------------------------------------------------------------------------
# BR: kernel geometry


def _run_br1(ctx: RunContext):
    # A character along a full horizontal line maps, under convolution
    # with the surface kernel, to the same character spread with
    # coefficient 1 over the slope-matched tube.  Exhaustive over all
    # (slope, offset, time) triples.
    p = ctx.prime
    field = ctx.field
    S = hyperbolic_paraboloid(field, 3)
    X = coordinate_array(p, 3)
    for m in range(p):
        char = np.exp(2j * np.pi * (m * X[:, 0] % p) / p)
        for x2o in range(p):
            for to in range(p):
                data = np.where((X[:, 1] == x2o) & (X[:, 2] == to), char, 0)
                F = FFunction(field, 3, data)
                out = bochner_riesz(F, S, "kernel_only")
                want = char * Tube(field, m, x2o, to).indicator().data
                yield float(np.abs(out.data - want).max()), dict(
                    slope=m, offset=x2o, time=to)


def _line_loads(I_pts: np.ndarray, p: int) -> int:
    """Largest intersection of a planar point set with any affine line."""
    best = 0
    u, v = I_pts[:, 0], I_pts[:, 1]
    for c in range(p):
        best = max(best, int((u == c).sum()))
    for a in range(p):
        for b in range(p):
            best = max(best, int(((v - a * u - b) % p == 0).sum()))
    return best


def _run_br2(ctx: RunContext):
    # Slice-superposition bound: F = sum over i in I of a one-line piece
    # delta-slice times a character combination; if every planar line
    # meets I in at most p^u points then ||TF||_2 <= C p^{(1+u)/2} ||F||_2
    # where T convolves with the surface kernel.  C is the tracked
    # constant, measured with u taken from the actual worst line load.
    p = ctx.prime
    field = ctx.field
    S = hyperbolic_paraboloid(field, 3)
    x1 = np.arange(p)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        if t == 0:
            sel = np.arange(p * p)
        elif t == 1:
            sel = np.array([0])
        elif t == 2:
            sel = np.arange(p)  # one vertical line in the (x2, t) plane
        else:
            k = int(rng.integers(1, p * p + 1))
            sel = _random_support(rng, p * p, k)
        I_pts = np.stack([sel % p, sel // p], axis=1)
        data = np.zeros(p**3, dtype=complex)
        for u, v in I_pts:
            n_char = int(rng.integers(1, 4))
            for m in rng.choice(p, size=min(n_char, p), replace=False):
                a = complex(rng.standard_normal(), rng.standard_normal())
                idx = encode_point(np.column_stack([x1, np.full((p, 2), (u, v))]), p)
                data[idx] += a * np.exp(2j * np.pi * (int(m) * x1 % p) / p)
        F = FFunction(field, 3, data)
        l2 = lp_norm(F, 2.0)
        if l2 == 0.0:
            continue
        u_exp = _logp(p, max(1, _line_loads(I_pts, p)))
        TF = bochner_riesz(F, S, "kernel_only")
        ratio = lp_norm(TF, 2.0) / (p ** ((1 + u_exp) / 2) * l2)
        yield ratio, dict(trial=t, pieces=len(I_pts), u=u_exp, ratio=ratio)


def _run_br3(ctx: RunContext):
    # Restricted-norm version: for a unimodular function on a union of
    # horizontal-line pieces of size at least p^beta, with every
    # vertical-horizontal plane holding at most p^alpha points of the
    # support, the surface-restricted transform obeys
    # ||F-hat||_{L2(dsigma)} <= C p^{(1+alpha-beta)/4} ||F||_2.  The exact
    # pairing ||F-hat||^2_{L2(dsigma)} = <F, TF> is certified on the way.
    p = ctx.prime
    field = ctx.field
    S = hyperbolic_paraboloid(field, 3)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        n_lines = int(rng.integers(1, p + 1))
        sel = _random_support(rng, p * p, n_lines)
        pts = []
        sizes = []
        for s in sel:
            u, v = int(s % p), int(s // p)
            size = int(rng.integers(2, p + 1))
            xs = _random_support(rng, p, size)
            sizes.append(size)
            pts.extend((int(x), u, v) for x in xs)
        data = np.zeros(p**3, dtype=complex)
        coords = np.array(pts)
        data[encode_point(coords, p)] = np.exp(2j * np.pi * rng.random(len(pts)))
        F = FFunction(field, 3, data)
        alpha = _logp(p, int(vh_plane_masks(coords, p).sum(axis=1).max()))
        beta = _logp(p, min(sizes))
        rest = restriction(F, S)
        pair = abs(inner(F, bochner_riesz(F, S, "kernel_only")))
        if _rel(rest.norm(2.0) ** 2, pair) > 1e-9:
            raise FFLabError("restricted norm does not match the kernel pairing")
        ratio = rest.norm(2.0) / (p ** ((1 + alpha - beta) / 4) * lp_norm(F, 2.0))
        yield ratio, dict(trial=t, lines=n_lines, alpha=alpha, beta=beta,
                          ratio=ratio)


# ---------------------------------------------------------------------------
# EN: additive energy


def _run_en1(ctx: RunContext):
    # The vectorized sum-multiset energy count equals the literal
    # count of quadruples, as integers.
    p = ctx.prime
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        maker = hyperbolic_paraboloid if t % 2 else paraboloid
        S = maker(ctx.field, 3)
        k = int(rng.integers(2, min(S.size, 12) + 1))
        E = random_surface_subset(S, k, rng)
        fast = additive_energy(E)
        slow = brute_energy(E.matrix(), p)
        yield float(abs(fast - slow)), dict(trial=t, vectorized=fast,
                                            quadruple_loop=slow)


def _graph_subsets(ctx: RunContext):
    """EN-2's and EN-3's inputs, as (subset, witness fields) pairs on the
    bilinear-graph surface: every nonempty subset at p = 3, where the run
    is exhaustive and states one trial, else one random subset per
    trial."""
    S = hyperbolic_paraboloid(ctx.field, 3)
    if ctx.prime == 3:
        ctx.trials = 1
        pts = S.point_array()
        for _, row in _indicator_masks(len(pts)):
            yield PointSet.of(ctx.field, 3, pts[row]), {}
    else:
        for t in range(ctx.trials):
            rng = ctx.trial_rng(t)
            k = int(rng.integers(2, S.size + 1))
            yield random_surface_subset(S, k, rng), {"trial": t}


def _run_en2(ctx: RunContext):
    # Slice-controlled energy: Lambda(E) against
    # |E|^{5/2} + sum_j |E_j|^3 + sum_k |E^k|^3 on the bilinear-graph
    # surface.  Exhaustive over every subset at the baseline prime, one
    # random subset per trial elsewhere.
    for E, fields in _graph_subsets(ctx):
        sb = energy_slice_bound(E)
        ratio = sb.energy / sb.bound
        yield ratio, dict(fields, size=len(E), ratio=ratio)


def _run_en3(ctx: RunContext):
    # Spread-pair energy: quadruples whose b, d entries differ in both
    # base coordinates, against |E|^{5/2}.
    for E, fields in _graph_subsets(ctx):
        ratio = off_diagonal_energy(E) / len(E) ** 2.5
        yield ratio, dict(fields, size=len(E), ratio=ratio)


def _run_en4(ctx: RunContext):
    # Fourth-moment identity: for an indicator on the surface,
    # ||extension||_4^4 equals p^d Lambda(E) / |S|^4 exactly, tying the
    # transform side to the quadruple count.
    p, d = ctx.prime, ctx.dim
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        maker = hyperbolic_paraboloid if t % 2 else paraboloid
        S = maker(ctx.field, d)
        k = int(rng.integers(2, min(S.size, 40) + 1))
        E = random_surface_subset(S, k, rng)
        f = SurfaceFunction.from_surface_points(S, E.matrix())
        lhs = lp_norm(extension(f), 4.0) ** 4
        lam = additive_energy(E)
        rhs = p**d * lam / S.size**4
        yield _rel(lhs, rhs), dict(trial=t, size=k, energy=lam)


# ---------------------------------------------------------------------------
# IN: incidence reductions


def _run_in1(ctx: RunContext):
    # Shear the surface so a maximizing point moves to the origin; the
    # energy of (A, B) is at most twice the resulting point-hyperplane
    # incidence count times the number of hyperplanes.
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        maker = hyperbolic_paraboloid if t % 2 else paraboloid
        S = maker(ctx.field, 3)
        A = random_surface_subset(S, int(rng.integers(2, 9)), rng)
        B = random_surface_subset(S, int(rng.integers(2, 9)), rng)
        r = energy_to_incidence(A, B, S)
        bound = 2 * len(r.lines) * r.incidences
        yield _pos(r.energy - bound) / max(1.0, bound), dict(
            trial=t, energy=r.energy, bound=bound)


def _run_in2(ctx: RunContext):
    # Double counting: incidences of P against a hyperplane multiset L
    # stay under sqrt(c1 |P|) |L| + c2 |P| with the audited c1, c2.
    p, m = ctx.prime, ctx.dim
    full = all_affine_hyperplanes(ctx.field, m)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        k = int(rng.integers(1, p**m))
        idx = _random_support(rng, p**m, k)
        X = coordinate_array(p, m)[idx]
        P = PointSet.of(ctx.field, m, X)
        if t % 2:
            L = full
        else:
            take = _random_support(rng, len(full), int(rng.integers(1, len(full))))
            L = HyperplaneFamily(ctx.field, m, full.normals[take], full.offsets[take])
        audit = incidence_bound_audit(P, L)
        yield _pos(audit.incidences - audit.bound) / max(1.0, audit.bound), dict(
            trial=t, incidences=audit.incidences, bound=audit.bound)


# ---------------------------------------------------------------------------
# MT: slicing machine


def _run_mt1(ctx: RunContext):
    # Pseudo-conformal transport: convolving a one-slice function with
    # the surface kernel has, after inverting time and swapping the base
    # coordinates, the same pointwise modulus as p times the extension of
    # the slice transplanted onto the surface.
    p = ctx.prime
    S = hyperbolic_paraboloid(ctx.field, 3)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        data = np.zeros(p**3, dtype=complex)
        data[: p * p] = rng.standard_normal(p * p)  # the slice t = 0
        h0 = FFunction(ctx.field, 3, data)
        yield pseudo_conformal_check(h0, S), dict(trial=t)


def _run_mt2(ctx: RunContext):
    # Slice transfer: for an indicator stacked from slices E_z with
    # |Z| = p^s and per-slice extension growth p^alpha at L4, the
    # surface-restricted transform is at most
    # C (p^{3 gamma/8 + n/2 + alpha/2 + s/2} + p^{gamma/2}).  C is tracked.
    p, d = ctx.prime, ctx.dim
    n = (d - 1) // 2
    S = paraboloid(ctx.field, d)
    base_n = p ** (d - 1)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        zc = int(rng.integers(1, p + 1))
        zs = sorted(int(z) for z in rng.choice(p, size=zc, replace=False))
        h = FFunction.zeros(ctx.field, d)
        alpha = 0.0
        for z in zs:
            size = int(rng.integers(2, max(3, base_n // 2 + 1)))
            sel = _random_support(rng, base_n, min(size, base_n))
            # the slice point (base point i, last coordinate z) has flat
            # index i + z p^(d-1); the slice lifted to S is base indices sel
            h.data[sel + z * base_n] = 1.0
            fz = np.zeros(base_n, dtype=complex)
            fz[sel] = 1.0
            ext = extension(SurfaceFunction(S, fz))
            alpha = max(alpha, _logp(p, lp_norm(ext, 4.0)))
        gamma = _logp(p, np.count_nonzero(h.data))
        s_exp = _logp(p, zc)
        lhs = restriction(h, S).norm(2.0)
        rhs = p ** (3 * gamma / 8 + n / 2 + alpha / 2 + s_exp / 2) + p ** (gamma / 2)
        ratio = lhs / rhs
        yield ratio, dict(trial=t, slices=zc, gamma=gamma, alpha=alpha, ratio=ratio)


# ---------------------------------------------------------------------------
# PL: plane-supported functions


def _run_pl1(ctx: RunContext):
    # Embedding a bivariate function on the plane x2 = a x3 + b and
    # transforming equals shearing its own transform and twisting by the
    # offset character.
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        f = FFunction.random(ctx.field, 2, rng)
        a = int(rng.integers(0, ctx.prime))
        b = int(rng.integers(0, ctx.prime))
        got = plane_embed_ft(f, a, b)
        want = fourier_transform(plane_embed(f, a, b))
        dev = float(np.abs(got.data - want.data).max()) / max(
            1.0, float(np.abs(want.data).max()))
        yield dev, dict(trial=t, slope=a, offset=b)


def _run_pl2(ctx: RunContext):
    # Cover-controlled restriction: for an indicator with |E| = p^gamma
    # coverable by p^e vertical-horizontal planes, the surface-restricted
    # L^q norm stays under C (p^{gamma - 1/q} + p^{gamma/2 + e/2}) when
    # gamma <= 2 and C (p^{2 + (gamma-2)/q - 1/q} + p^{gamma/2 + e/2})
    # when gamma > 2.  The greedy cover supplies the entropy witness.
    p = ctx.prime
    S = hyperbolic_paraboloid(ctx.field, 3)
    planes = vh_plane_masks(coordinate_array(p, 3), p).reshape(2, p, p, p**3)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        n_planes = int(rng.integers(1, 5))
        support = np.zeros(p**3, dtype=bool)
        for _ in range(n_planes):
            ptype = int(rng.integers(1, 3))
            a = int(rng.integers(0, p))
            b = int(rng.integers(0, p))
            rows = np.flatnonzero(planes[ptype - 1, a, b])
            keep = rng.random(len(rows)) < 0.7
            if not keep.any():
                keep[int(rng.integers(0, len(rows)))] = True
            support[rows[keep]] = True
        E = PointSet(ctx.field, 3, np.flatnonzero(support))
        e_exp = _logp(p, max(1, len(vh_plane_cover(E))))
        gamma = _logp(p, len(E))
        F = FFunction(ctx.field, 3, support.astype(complex))
        q = 1.5 if t % 2 else 2.0
        lhs = restriction(F, S).norm(q)
        if gamma <= 2:
            main = p ** (gamma - 1 / q)
        else:
            main = p ** (2 + (gamma - 2) / q - 1 / q)
        rhs = main + p ** (gamma / 2 + e_exp / 2)
        ratio = lhs / rhs
        yield ratio, dict(trial=t, gamma=gamma, entropy=e_exp, q=q, ratio=ratio)


def _run_pl3(ctx: RunContext):
    # Sharpness of the plane bounds at the dual exponent pair
    # q = 2r/(2r-1): a point mass and a normalized full plane both attain
    # the restricted estimate with constant exactly 1, and the normalized
    # full space lands exactly at p^{-1/(2r)}.
    p = ctx.prime
    field = ctx.field
    S = hyperbolic_paraboloid(field, 3)
    X = coordinate_array(p, 3)
    rng = ctx.trial_rng(0)
    for r_exp in (1.6, 1.75, 1.8):
        q = 2 * r_exp / (2 * r_exp - 1)
        x0 = rng.integers(0, p, size=3)
        f1 = FFunction.delta(field, 3, x0)
        dev1 = max(abs(restriction(f1, S).norm(r_exp) - 1.0),
                   abs(lp_norm(f1, q) - 1.0))
        b = int(rng.integers(0, p))
        plane = np.where(X[:, 1] == b, p ** (-2.0 / q), 0.0).astype(complex)
        f2 = FFunction(field, 3, plane)
        dev2 = max(abs(restriction(f2, S).norm(r_exp) - 1.0),
                   abs(lp_norm(f2, q) - 1.0))
        f3 = FFunction.constant(field, 3, p ** (-3.0 / q))
        dev3 = max(abs(restriction(f3, S).norm(r_exp) - p ** (-1 / (2 * r_exp))),
                   abs(lp_norm(f3, q) - 1.0))
        yield max(dev1, dev2, dev3), dict(r=r_exp, point_mass=dev1, plane=dev2,
                                          full_space=dev3)


# ---------------------------------------------------------------------------
# QF: quadratic form classification


def _run_qf1(ctx: RunContext):
    # Computed isotropy index against exhaustive subspace search, for
    # every diagonal nondegenerate form and a batch of random symmetric
    # nondegenerate forms.
    p, m = ctx.prime, ctx.dim
    field = ctx.field
    lines, planes = witt_monomials(p, m)
    for diag in itertools.product(range(1, p), repeat=m):
        A = np.diag(np.array(diag, dtype=np.int64))
        got = QuadraticSpace(field, A).witt_index
        want = brute_witt(A, p, lines, planes)
        yield float(got != want), dict(diagonal=list(diag), computed=got, brute=want)
    rng = ctx.trial_rng(0)
    for t in range(ctx.trials):
        A = _nondegenerate_symmetric(field, m, rng)
        got = QuadraticSpace(field, A).witt_index
        want = brute_witt(A, p, lines, planes)
        yield float(got != want), dict(matrix=[int(x) for x in A.ravel()],
                                       computed=got, brute=want)


def _run_qf2(ctx: RunContext):
    # A complementary isotropic pair admits a dual basis: rows of the
    # pairing basis lie in the complement and pair against the chosen
    # basis of W through the form as exactly the identity matrix.
    p, m = ctx.prime, ctx.dim
    field = ctx.field
    n = m // 2
    Q0 = hyperbolic_paraboloid(field, m + 1).Q
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        M = random_invertible(field, m, rng)
        A = (M.T @ Q0.A @ M) % p
        Q = QuadraticSpace(field, A)
        iso = enumerate_max_isotropic(Q)
        W = iso[int(rng.integers(0, len(iso)))]
        V = complementary_isotropic(Q, W)
        pair = dual_pairing_basis(Q, W, V)
        gram = (W.basis @ Q.A @ pair.T) % p
        dev = float(np.abs(gram - np.eye(n, dtype=np.int64)).max())
        for row in pair:
            if not V.contains(row):
                dev = max(dev, 1.0)
        yield dev, dict(trial=t)


def _run_qf3(ctx: RunContext):
    # Averaging the pairing character over a subspace yields exactly the
    # indicator of the orthogonal complement.
    p, m = ctx.prime, ctx.dim
    field = ctx.field
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        Q = QuadraticSpace(field, _nondegenerate_symmetric(field, m, rng))
        W = random_subspace(field, m, int(rng.integers(1, m)), rng)
        comp = orthogonal_complement(Q, W)
        for _ in range(4):
            x = rng.integers(0, p, size=m)
            got = complement_indicator_character_sum(Q, W, x)
            want = 1.0 if comp.contains(x) else 0.0
            yield abs(got - want), dict(trial=t, point=x.tolist())


def _run_qf4(ctx: RunContext):
    # Restricting the base form to a random (d-3)-dimensional subspace
    # lands in the allowed (rank, degenerate dim, isotropy) table for the
    # ambient class; fully vanishing restrictions are excluded by the
    # classifier and skipped here.  At odd d the dot and pairing forms are
    # split at every p of the grid, so diag(1, ..., 1, g), g the least
    # non-square, stands for the non-split class.
    d = ctx.dim
    field = ctx.field
    forms = [dot_form(field, d - 1)]
    if d % 2:
        g = next(x for x in range(2, ctx.prime) if not field.is_square[x])
        forms += [hyperbolic_pairing_form(field, (d - 1) // 2),
                  diagonal_form(field, [1] * (d - 2) + [g])]
    for Q in forms:
        allowed = allowed_subsurface_triples(d, Q.witt_index)
        for t in range(ctx.trials):
            rng = ctx.trial_rng(t)
            V = random_subspace(field, d - 1, d - 3, rng)
            try:
                trip = classify_subsurface(Q, V)
            except FullyDegenerate:
                continue
            yield float(trip not in allowed), dict(triple=list(trip),
                                                   witt=Q.witt_index)


# ---------------------------------------------------------------------------
# KK: maximal operator and bridges


def _run_kk1(ctx: RunContext):
    # Directional maximal ratio ||F*||_m(normalized) / ||F||_m(counting)
    # over indicator inputs, exhaustive at the baseline prime.
    p, m = ctx.prime, ctx.dim
    field = ctx.field
    total = p**m

    def family():
        if (p, m) == (3, 2):
            ctx.trials = 1
            for mask, row in _indicator_masks(total):
                yield FFunction(field, m, row.astype(complex)), {"mask": mask}
            return
        for t in range(ctx.trials):
            rng = ctx.trial_rng(t)
            if t == 0:
                line = kk.line_points(np.zeros((1, m - 1), dtype=np.int64),
                                      np.arange(1, m)[None], p)[0]
                F = FFunction.indicator(field, m, line)
            elif t == 1:
                F = FFunction.constant(field, m, 1.0)
            else:
                density = rng.uniform(0.1, 0.9)
                vals = (rng.random(total) < density).astype(complex)
                if not vals.any():
                    vals[0] = 1.0
                F = FFunction(field, m, vals)
            yield F, {"trial": t}

    for F, fields in family():
        r = kk.maximal_ratio(F)
        yield r, dict(fields, ratio=r)


def _run_kk2(ctx: RunContext):
    # Duality consistency: the direct maximal-ratio lower bound equals
    # the paired lower bound built from the dual superposition with the
    # conjugate-power weight and the maximizing base map.
    p, m = ctx.prime, ctx.dim
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        vals = rng.uniform(0.1, 1.0, size=p**m).astype(complex)
        F = FFunction(ctx.field, m, vals)
        for q, pe in ((1.5, 1.5), (2.0, 2.0), (1.25, 3.0)):
            r = kk.dual_consistency(F, q, pe)
            yield _rel(r.direct_lower, r.paired_lower), dict(trial=t, q=q, p_in=pe)


def _run_kk3(ctx: RunContext):
    # Weighted base-map embedding: square-root weights with base-map
    # phases extend to a line-and-character assembly whose squared
    # absolute x2-average is the dual line superposition; the exponent
    # chain ties the endpoint pair to the dual pair exactly.
    p, d = ctx.prime, ctx.dim
    n = (d - 1) // 2
    m = n + 1
    field = ctx.field
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        data = rng.uniform(0.0, 2.0, size=p**n)
        data[rng.random(p**n) < 0.2] = 0.0
        if not data.any():
            data[0] = 1.0
        h = FFunction(field, n, data.astype(complex))
        b = rng.integers(0, p, size=(p**n, n))
        ext = extension(kk.restriction_to_kakeya_embed(h, b))
        closed = float(np.abs(ext.data - kk.embed_closed_form(h, b).data).max())
        cube = np.abs(ext.data.reshape(p**n, p**n, p, order="F")) ** 2
        profile = kk.embed_collapse_profile(h, b).data.real.reshape(p**n, p, order="F")
        collapse = float(np.abs(cube.sum(axis=1) - profile).max())
        yield max(closed, collapse), dict(trial=t, closed_form=closed,
                                          collapse=collapse)
    ex = kk.restriction_to_kakeya_exponents(m)
    target = Fraction(m - 1, 2 * m - 1)
    chain_dev = 0.0
    if not (ex.prefactor == ex.endpoint == target
            and ex.restriction_q == 2 * ex.dual_q):
        chain_dev = 1.0
    want = p ** ((m - 1) * (1 - 1 / float(ex.dual_p))) * 1.3**2
    got = kk.kakeya_bound_from_restriction(field, m, float(ex.dual_p), 1.3)
    yield max(chain_dev, _rel(got, want)), dict(check="exponent_chain")


def _run_kk4(ctx: RunContext):
    # The parabolic base-map set contains a full line in every direction
    # and its density p ((p+1)/2)^{m-1} / p^m stays above the tracked
    # grid floor (and above the 1/m! envelope).
    m = ctx.dim
    field = ctx.field
    K = kk.standard_kakeya_set(field, m)
    audit = kk.kakeya_set_audit(K)
    density = audit.density
    ok = audit.is_kakeya and density >= kk.dvir_envelope(m) - 1e-12
    if ok:
        yield density, dict(density=density)
    else:
        yield 0.0, dict(is_kakeya=audit.is_kakeya, density=density,
                        missing=len(audit.missing))


# ---------------------------------------------------------------------------
# MX: mixed norms through isotropic pairs


def _iso_pair(S: Surface):
    W = enumerate_max_isotropic(S.Q)[0]
    return W, complementary_isotropic(S.Q, W)


def _mx1_surface(field: PrimeField, d: int) -> Surface:
    """MX-1's surface: the dot form (p = 1 mod 4) or the hyperbolic
    pairing form, seen through the fixed change of coordinates x -> M x, M
    the identity with its first row set to ones; only the congruent
    surface is built.  On the standard forms at p = 3 the first isotropic
    pair is coordinate-aligned, so the coset route would read the
    transform in the direct route's own layout; the congruent copy moves
    the pair off the axes at every grid point."""
    p = field.p
    Q = dot_form(field, d - 1) if p % 4 == 1 else hyperbolic_pairing_form(field, (d - 1) // 2)
    M = np.eye(d - 1, dtype=np.int64)
    M[0] = 1
    return Surface(QuadraticSpace(field, M.T @ Q.A @ M % p))


def _run_mx1(ctx: RunContext):
    # Splitting the frequency sum over a complementary isotropic pair
    # and using the cross-term phase reproduces the extension exactly.
    # The coset route evaluates the double sum over W x V as p transforms
    # of p^{2n} points, one per height t (about 2n p^{2n+2} multiplies).
    # The trial count scales down deterministically at the largest combos,
    # keyed on p^{4n+1}, the number of (pair, output point) terms; the
    # context carries the lowered count so the report row states it.  Both
    # routes stream the extension one height slab at a time, p slabs each,
    # and every point of each slab is compared in place (a -= b gives the
    # bits of a - b); the pair is dropped before the next one is computed,
    # so at most one slab pair is held.  np.max over the per-slab maxima
    # keeps a NaN, where Python's max may drop it.
    p, d = ctx.prime, ctx.dim
    S = _mx1_surface(ctx.field, d)
    W, V = _iso_pair(S)
    cost = p ** (4 * ((d - 1) // 2) + 1)
    if cost > 2e7:
        ctx.trials = min(ctx.trials, 3 if cost <= 5e8 else 1)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        f = SurfaceFunction.random(S, rng)
        direct, coset = extension_slabs(f), kk.coset_slabs(f, W, V)
        devs = []
        for _ in range(p):
            a, b = next(direct)[1], next(coset)[1]
            a -= b
            devs.append(np.abs(a).max())
            del a, b
        yield float(np.max(devs)), dict(trial=t)


def _run_mx2(ctx: RunContext):
    # Mixed-norm extension constant at the endpoint pair
    # ((2d+2)/(d-1) outer, 2 inner): ratio of output to input mixed norms
    # over indicator inputs, exhaustive at the baseline prime.  The base
    # splits once into W + V (kakeya caches the split per pair); every
    # input reads that one split.
    p, d = ctx.prime, ctx.dim
    S = hyperbolic_paraboloid(ctx.field, d)
    W, V = _iso_pair(S)
    base_total = p ** (d - 1)

    def family():
        # indicators on the base, as bool masks
        if (p, d) == (3, 3):
            ctx.trials = 1
            for mask, row in _indicator_masks(base_total):
                yield row, {"mask": mask}
            return
        # structured inputs: the cosets W+v and V+w, then the whole base
        Wp, Vp = W.point_array(), V.point_array()
        structured = [encode_point(Vp + w, p) for w in Wp]
        structured += [encode_point(Wp + v, p) for v in Vp]
        structured.append(np.arange(base_total))
        for i, idx in enumerate(structured):
            row = np.zeros(base_total, dtype=bool)
            row[idx] = True
            yield row, {"structured": i}
        for t in range(ctx.trials):
            rng = ctx.trial_rng(t)
            row = rng.random(base_total) < rng.uniform(0.2, 0.8)
            if not row.any():
                row[0] = True
            yield row, {"trial": t}

    for row, fields in family():
        r = kk.mixed_extension_ratio(SurfaceFunction(S, row.astype(complex)), W, V)
        yield r, dict(fields, ratio=r)


def _run_mx3(ctx: RunContext):
    # Slice-regular sets: indicators split into per-slice isotropic
    # pieces obey the restricted-norm exponent
    # gamma/2 + (e+1)/(d+1) + (d-3)/(2d+2); the measured ratio against
    # that exponent is tracked.
    S = hyperbolic_paraboloid(ctx.field, ctx.dim)
    for t in range(ctx.trials):
        rng = ctx.trial_rng(t)
        F, dec = kk.random_slice_isotropic_function(S, 2, rng)
        audit = kk.kakeya_regular_set_bound(F, S, dec)
        yield audit.ratio, dict(trial=t, gamma=audit.gamma, pieces=audit.e_exp,
                                ratio=audit.ratio)


# ---------------------------------------------------------------------------
# EX: energy exponent curves


def _run_ex1(ctx: RunContext):
    # Closed-form exponent spots: the three-dimensional curve gives 5/2
    # at 3/4, the five-dimensional curve gives 23/8 at 9/16, both hit 3
    # at 1, the degenerate lift equals 3a + Psi(a)(1-a), and arguments
    # below a validity window are rejected.
    devs = {}
    devs["dim3_spot"] = abs(energy_exponent_closed("dim3_witt1", 0.75) - 2.5)
    devs["dim5_spot"] = abs(energy_exponent_closed("dim5_witt2", 0.5625) - 23 / 8)
    devs["dim3_end"] = abs(energy_exponent_closed("dim3_witt1", 1.0) - 3.0)
    devs["dim5_end"] = abs(energy_exponent_closed("dim5_witt2", 1.0) - 3.0)
    curve = closed_form_curve("dim3_witt1")
    for a in (0.75, 0.875, 1.0):
        got = energy_exponent_recurse(curve, a, variant="degenerate_lift").value
        want = 3 * a + curve(a) * (1 - a)
        devs[f"lift_{a}"] = abs(got - want)
    try:
        energy_exponent_closed("dim3_witt1", 0.5)
        devs["window_guard"] = 1.0
    except OutOfValidityRange:
        devs["window_guard"] = 0.0
    yield max(devs.values()), devs


def _run_ex2(ctx: RunContext):
    # The dimension-recursion output is nondecreasing in the isotropy
    # exponent and pinned to 3 at the right endpoint; against a constant
    # inner curve the balance point solves 4.5 rho = 1.5 + psi exactly.
    devs = {}
    cur = recursion_curve(closed_form_curve("dim3_witt1"))
    vals = cur.psi_values
    devs["monotone"] = max(_pos(a - b) for a, b in zip(vals, vals[1:]))
    devs["endpoint"] = abs(cur(1.0) - 3.0)
    r = energy_exponent_recurse(2.5, 0.8)
    devs["constant_rho"] = abs(r.rho - 8 / 9)
    devs["constant_value"] = abs(r.value - 53 / 18)
    devs["no_root_flag"] = 1.0 if r.no_root else 0.0
    yield max(devs.values()), devs


def _run_ex3(ctx: RunContext):
    # Empirical scatter: structured and random surface subsets have
    # measured energy exponents; the tracked constant is the worst
    # multiplicative overshoot of a sample's energy over size^psi(alpha).
    S = hyperbolic_paraboloid(ctx.field, ctx.dim)
    seed_int = trial_seed(ctx.seed, ctx.scenario_id, 0)
    for s in sample_energy_exponents(S, ctx.trials, seed_int):
        yield s.size ** (s.exponent - (s.bound - ENERGY_SLACK)), dict(
            label=s.label, size=s.size, alpha=s.alpha, exponent=s.exponent)


def _run_main1(ctx: RunContext):
    # The rendered exponent landscape carries the pinned values: the
    # d = 3 improved pair (18/5, 9/4) with gain 4/10, the d = 5 threshold
    # 47/31, the Stein-Tomas rows, the conjectured endpoints, and
    # measured sharp transform norms labeled against their asymptotic.
    table = exponent_table()
    required = ["Stein-Tomas", "18/5", "9/4", "4/10", "47/31",
                "(2d+2)/(d-1)", "2d/(d-1)", "measured", "asymptotic",
                "conjectured"]
    missing = [tok for tok in required if tok not in table]
    for p in (3, 5):
        v = exact_r22(paraboloid(PrimeField(p), 3))
        if f"{v:.12g}" not in table:
            missing.append(f"r22(p={p})")
    yield float(len(missing)), dict(missing=", ".join(missing))


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Scenario:
    id: str
    kind: str
    claim: str
    runner: Callable
    primes: tuple
    dims: tuple
    default_trials: int
    tolerance: float = 1e-9
    direction: Optional[str] = None      # constant_tracked: upper | floor
    provenance: Optional[tuple] = None   # constant_tracked: (p, d, trials, seed)

    def __post_init__(self):
        if self.kind not in ("exact_identity", "constant_tracked",
                             "exponent_arith"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "constant_tracked":
            if self.direction not in ("upper", "floor") or self.provenance is None:
                raise ValueError(f"{self.id}: tracked scenarios need a "
                                 "direction and provenance")


def _registry() -> dict:
    scns = [
        Scenario(
            "FT-1", "exact_identity",
            "inverse transform of the hyperbolic-paraboloid surface measure "
            "matches its closed form (1 at the origin, 0 on the rest of the "
            "time-zero slice, p^{-n} times a ratio character elsewhere) at "
            "every point",
            functools.partial(_run_measure_ft, hyperbolic_paraboloid),
            (3, 5, 7), (3, 5), 1),
        Scenario(
            "FT-2", "exact_identity",
            "inverse transform of the dot-form paraboloid surface measure "
            "matches its quadratic Gauss sum closed form at every point",
            functools.partial(_run_measure_ft, paraboloid),
            (3, 5, 7), (3, 5), 1),
        Scenario(
            "FT-3", "exact_identity",
            "Plancherel, inversion, and the convolution product rule hold "
            "for the transform pair on random inputs",
            _run_ft3, (3, 5, 7), (2, 3, 4), 20),
        Scenario(
            "ST-1", "exact_identity",
            "support-size step with constant 1: the squared restricted "
            "transform norm equals the kernel pairing, is controlled by "
            "||f||_2^2 + p^{-(d-1)/2} ||f||_1^2, and obeys "
            "1 + p^{-(d-1)/4} lam^{-theta/(q-theta)} under the height floor "
            "and unit dual normalization",
            _run_st1, (3, 5, 7), (3, 5), 20),
        Scenario(
            "ST-2", "exact_identity",
            "height step with constant 1: under unit dual normalization and "
            "||f||_inf <= lam, the dual norm is at most "
            "lam^{(1-theta)/(q-theta)} and the restricted transform is at "
            "most the sharp two-norm constant times that height power",
            _run_st2, (3, 5, 7), (3, 5), 20),
        Scenario(
            "ST-3", "exact_identity",
            "the sharp L2(dsigma) to L2(dx) extension norm is exactly "
            "sqrt(p^d/|S|): the restriction-after-extension composition is "
            "that constant squared times the identity and power iteration "
            "converges to the formula",
            _run_st3, (3, 5), (3, 5), 1, tolerance=1e-6),
        Scenario(
            "ST-4", "exponent_arith",
            "interpolation bookkeeping: the transferred decay exponent "
            "max(0, theta/2 - (d-1)(1-theta)/4) vanishes exactly at "
            "theta = (d-1)/(d+1), where the widened exponent equals "
            "(2d+2)/(d-1)",
            _run_st4, (3, 5, 7), (3, 5, 7), 1, tolerance=1e-12),
        Scenario(
            "ST-5", "exact_identity",
            "decay step: the surface kernel is 1 at the origin and at most "
            "p^{-(d-1)/2} elsewhere, so unimodular functions on E obey "
            "||f-hat||^2_{L2(dsigma)} <= |E| + p^{-(d-1)/2}|E|^2",
            _run_st5, (3, 5, 7), (3, 5), 12),
        Scenario(
            "ST-6", "exact_identity",
            "indicator bookkeeping: with alpha = log_p of the sharp "
            "two-norm constant and |E| = p^gamma, the "
            "L^{2 gamma/(gamma+2 alpha)} norm equals p^{alpha + gamma/2} "
            "exactly and the restricted transform obeys the height bound",
            _run_st6, (3, 5, 7), (3, 5), 20),
        Scenario(
            "EQ-1", "exact_identity",
            "congruent base forms give isometric restriction problems: "
            "composing with the change of variables preserves extension "
            "L^q(dx) norms and surface L^q(dsigma) norms exactly",
            _run_eq1, (5, 7, 13), (3,), 10),
        Scenario(
            "BR-1", "exact_identity",
            "a character along a horizontal line convolves with the "
            "surface kernel to the same character with coefficient 1 on "
            "the slope-matched tube, for every slope, offset, and time",
            _run_br1, (3, 5, 7), (3,), 1),
        Scenario(
            "BR-2", "constant_tracked",
            "slice superposition: when every planar line meets the index "
            "set in at most p^u points, the kernel convolution of the "
            "line-character stack has L2 norm at most C p^{(1+u)/2} times "
            "the input L2 norm; C is tracked",
            _run_br2, (3, 5), (3,), 12,
            direction="upper", provenance=(3, 3, 12, 0)),
        Scenario(
            "BR-3", "constant_tracked",
            "restricted version: unimodular functions on unions of "
            "horizontal-line pieces of size at least p^beta with "
            "vertical-horizontal plane loads at most p^alpha obey "
            "||F-hat||_{L2(dsigma)} <= C p^{(1+alpha-beta)/4} ||F||_2, "
            "certifying the exact kernel pairing on the way; C is tracked",
            _run_br3, (3, 5), (3,), 12,
            direction="upper", provenance=(3, 3, 12, 0)),
        Scenario(
            "EN-1", "exact_identity",
            "the vectorized additive-energy count equals the literal "
            "quadruple count as integers on random surface subsets",
            _run_en1, (3, 5, 7), (3,), 30),
        Scenario(
            "EN-2", "constant_tracked",
            "slice-controlled energy on the bilinear graph: Lambda(E) "
            "against |E|^{5/2} + sum of cubed slice sizes in both "
            "directions; tracked ratio, exhaustive at the baseline prime",
            _run_en2, (3, 5, 7), (3,), 40,
            direction="upper", provenance=(3, 3, 1, 0)),
        Scenario(
            "EN-3", "constant_tracked",
            "spread-pair energy against |E|^{5/2}: quadruples whose "
            "second pair differs in both base coordinates; tracked ratio, "
            "exhaustive at the baseline prime",
            _run_en3, (3, 5, 7), (3,), 40,
            direction="upper", provenance=(3, 3, 1, 0)),
        Scenario(
            "EN-4", "exact_identity",
            "fourth-moment identity: ||extension of an indicator||_4^4 "
            "equals p^d Lambda(E) / |S|^4 exactly",
            _run_en4, (3, 5, 7), (3, 5), 15),
        Scenario(
            "IN-1", "exact_identity",
            "energy-to-incidence reduction: after shearing a maximizing "
            "point to the origin, Lambda(A, B) is at most twice the "
            "hyperplane count times the incidence count",
            _run_in1, (3, 5, 7), (3,), 15),
        Scenario(
            "IN-2", "exact_identity",
            "double counting: point-hyperplane incidences stay under "
            "sqrt(c1 |P|) |L| + c2 |P| with the audited overlap and "
            "multiplicity constants",
            _run_in2, (3, 5, 7), (2, 3), 15),
        Scenario(
            "MT-1", "exact_identity",
            "pseudo-conformal transport: kernel convolution of a one-slice "
            "function matches p times the extension of the transplanted "
            "slice in pointwise modulus after inverting time",
            _run_mt1, (3, 5, 7), (3,), 25),
        Scenario(
            "MT-2", "constant_tracked",
            "slice transfer at the 4/3-4 duality pair: stacked slice "
            "indicators with measured per-slice extension growth p^alpha "
            "obey ||h-hat||_{L2(dsigma)} <= C (p^{3 gamma/8 + n/2 + "
            "alpha/2 + s/2} + p^{gamma/2}); C is tracked",
            _run_mt2, (3, 5), (3, 5), 10,
            direction="upper", provenance=(3, 3, 10, 0)),
        Scenario(
            "PL-1", "exact_identity",
            "plane embedding transform identity: embedding f on the plane "
            "x2 = a x3 + b and transforming equals shearing the planar "
            "transform and twisting by the offset character",
            _run_pl1, (3, 5, 7), (3,), 25),
        Scenario(
            "PL-2", "constant_tracked",
            "cover-controlled restriction: indicators coverable by p^e "
            "vertical-horizontal planes obey the two-branch bound "
            "p^{gamma-1/q} (or p^{2+(gamma-2)/q-1/q}) + p^{gamma/2+e/2}; "
            "the tracked constant uses the greedy cover as the entropy "
            "witness",
            _run_pl2, (3, 5, 7), (3,), 15,
            direction="upper", provenance=(3, 3, 15, 0)),
        Scenario(
            "PL-3", "exact_identity",
            "sharpness at the dual pair q = 2r/(2r-1): a point mass and a "
            "normalized full plane attain the restricted estimate with "
            "constant exactly 1, and the normalized full space lands at "
            "p^{-1/(2r)}",
            _run_pl3, (3, 5, 7), (3,), 1),
        Scenario(
            "QF-1", "exact_identity",
            "computed isotropy index matches exhaustive subspace search "
            "for every diagonal nondegenerate form and random symmetric "
            "forms",
            _run_qf1, (3, 5, 7), (2, 3, 4), 10),
        Scenario(
            "QF-2", "exact_identity",
            "complementary isotropic pairs admit a dual basis whose form "
            "pairing against the chosen basis is exactly the identity "
            "matrix",
            _run_qf2, (3, 5, 7), (2, 4), 25),
        Scenario(
            "QF-3", "exact_identity",
            "averaging the pairing character over a subspace equals the "
            "indicator of its orthogonal complement",
            _run_qf3, (3, 5, 7), (2, 3, 4), 20),
        Scenario(
            "QF-4", "exact_identity",
            "every (d-3)-dimensional subspace restriction of a base form "
            "lands in the allowed (rank, degenerate dim, isotropy) "
            "classification table",
            _run_qf4, (3, 5, 7), (4, 5), 20),
        Scenario(
            "KK-1", "constant_tracked",
            "directional maximal ratio over indicator inputs at the "
            "m-norm pair; exhaustive over all indicators at the baseline "
            "prime, structured plus random families elsewhere",
            _run_kk1, (3, 5, 7, 11, 13), (2, 3), 30,
            direction="upper", provenance=(3, 2, 1, 0)),
        Scenario(
            "KK-2", "exact_identity",
            "duality consistency: the direct maximal-ratio lower bound "
            "equals the paired bound built from the conjugate-power dual "
            "superposition at the maximizing bases",
            _run_kk2, (3, 5, 7), (2, 3), 15),
        Scenario(
            "KK-3", "exact_identity",
            "base-map embedding: the extension of the square-root-weight "
            "embed equals its line-and-character closed form, the "
            "x2-collapse equals the dual superposition, and the exponent "
            "chain ties the endpoint pair (m-1)/(2m-1) to the dual pair",
            _run_kk3, (3, 5), (3, 5), 15),
        Scenario(
            "KK-4", "constant_tracked",
            "direction-complete audit: the parabolic base-map set covers "
            "every direction and its density p((p+1)/2)^{m-1}/p^m stays "
            "at or above the tracked grid floor (and the 1/m! envelope)",
            _run_kk4, (3, 5, 7, 11, 13), (2, 3), 1,
            direction="floor", provenance=(13, 3, 1, 0)),
        Scenario(
            "MX-1", "exact_identity",
            "coset reparameterization: splitting frequencies over a "
            "complementary isotropic pair with the cross-term phase "
            "reproduces the extension exactly",
            _run_mx1, (3, 5, 13), (3, 5), 15),
        Scenario(
            "MX-2", "constant_tracked",
            "mixed-norm extension constant at the endpoint pair "
            "((2d+2)/(d-1) outer, 2 inner) over indicator inputs; "
            "exhaustive at the baseline prime",
            _run_mx2, (3, 5, 7), (3, 5), 20,
            direction="upper", provenance=(3, 3, 1, 0)),
        Scenario(
            "MX-3", "constant_tracked",
            "slice-regular indicators against the exponent "
            "gamma/2 + (e+1)/(d+1) + (d-3)/(2d+2): tracked worst ratio "
            "over seeded slice-isotropic decompositions",
            _run_mx3, (3, 5), (3, 5), 8,
            direction="upper", provenance=(3, 3, 8, 0)),
        Scenario(
            "EX-1", "exponent_arith",
            "energy exponent closed forms: 5/2 at 3/4 (three dimensions), "
            "23/8 at 9/16 (five dimensions), 3 at the right endpoint, the "
            "degenerate lift 3a + psi(a)(1-a), and validity-window guards",
            _run_ex1, (3,), (3, 5), 1, tolerance=1e-12),
        Scenario(
            "EX-2", "exponent_arith",
            "the dimension recursion is nondecreasing, pinned to 3 at the "
            "right endpoint, and balances 4.5 rho = 1.5 + psi exactly "
            "against a constant inner curve",
            _run_ex2, (3,), (3, 5), 1, tolerance=1e-9),
        Scenario(
            "EX-3", "constant_tracked",
            "empirical energy scatter: worst multiplicative overshoot of "
            "measured energy over size^psi(alpha) across structured and "
            "random surface subsets; tracked",
            _run_ex3, (3, 5, 7), (3, 5), 20,
            direction="upper", provenance=(3, 3, 20, 0)),
        Scenario(
            "MAIN-1", "exponent_arith",
            "the rendered exponent landscape pins the improved pair "
            "(18/5, 9/4) with gain 4/10, the five-dimensional threshold "
            "47/31, the Stein-Tomas rows, the conjectured endpoints, and "
            "measured sharp two-norm constants labeled against their "
            "asymptotics",
            _run_main1, (3, 5), (3,), 1, tolerance=0.5),
    ]
    reg = {}
    for sc in scns:
        if sc.id in reg:
            raise ValueError(f"duplicate scenario id {sc.id}")
        reg[sc.id] = sc
    return reg


REGISTRY = _registry()


# ---------------------------------------------------------------------------
# execution


def _scenario(sid: str) -> Scenario:
    if sid not in REGISTRY:
        raise UnknownScenario(f"unknown scenario id {sid!r}; registered ids: "
                              + ", ".join(sorted(REGISTRY)))
    return REGISTRY[sid]


def run_scenario(scenario_id: str, prime: Optional[int] = None,
                 dim: Optional[int] = None, trials: Optional[int] = None,
                 seed: int = 0) -> ScenarioReport:
    """Execute one scenario at one parameter point.

    Results are deterministic in (scenario_id, prime, dim, trials, seed):
    randomness flows through the per-trial fan-out hash only.  Bad
    parameters and baseline problems raise before the runner starts; a
    runner that raises gives a failing report naming the exception.
    """
    sc = _scenario(scenario_id)
    prime = sc.primes[0] if prime is None else prime
    dim = sc.dims[0] if dim is None else dim
    trials = sc.default_trials if trials is None else trials
    if prime not in sc.primes:
        raise ValueError(f"{scenario_id} runs at primes {sc.primes}, not {prime}")
    if dim not in sc.dims:
        raise ValueError(f"{scenario_id} runs at dims {sc.dims}, not {dim}")
    if trials < 1:
        raise ValueError("trials must be at least 1")

    entry = slack = None
    if sc.kind == "constant_tracked":
        store = BaselineStore.load()
        entry, slack = store.entry(scenario_id), store.slack
        store.verify(scenario_id, sc.runner)
    return _run_checked(sc, prime, dim, trials, seed, entry, slack)


def _measure(sc: Scenario, ctx: RunContext):
    """Run sc's runner at ctx and reduce its cases to (metric, witness).

    The first strictly largest metric is kept; a NaN beats every number
    and is never replaced.  Only the kept case's fields are built into a
    witness, None when they are empty.  A run that yields no case
    raises, so it cannot pass on a metric nothing produced."""
    metric = fields = None
    for value, kw in sc.runner(ctx):
        if fields is None or value > metric or (
                math.isnan(value) and not math.isnan(metric)):
            metric, fields = value, kw
    if fields is None:
        raise FFLabError(f"{sc.id} yielded no case at p = {ctx.prime}, "
                         f"d = {ctx.dim}")
    return metric, witness_values(**fields) if fields else None


def _run_checked(sc: Scenario, prime: int, dim: int, trials: int, seed: int,
                 entry: Optional[BaselineEntry],
                 slack: Optional[float]) -> ScenarioReport:
    """Run sc at one validated point and judge the result.  A tracked
    scenario comes with its verified baseline entry and slack; its drift
    check runs when the point, with the trials the run states, is the
    baseline's provenance."""
    ctx = RunContext(sc.id, prime, dim, trials, seed)
    tracked = sc.kind == "constant_tracked"
    start = time.perf_counter()
    error = None
    try:
        metric, wit = _measure(sc, ctx)
    except Exception as exc:  # a runner fault fails this run, not the sweep
        where = traceback.extract_tb(exc.__traceback__)[-1]
        metric, wit, error = math.nan, None, witness_values(
            error=type(exc).__name__, message=str(exc),
            raised_in=f"{where.name} ({Path(where.filename).name}:{where.lineno})")
    runtime_ms = (time.perf_counter() - start) * 1e3

    status, witness = "pass", None
    if error is not None:
        status, witness = "fail", error
    elif not tracked:
        if not (math.isfinite(metric) and metric <= sc.tolerance):
            status, witness = "fail", wit or witness_values(max_deviation=float(metric))
    elif not math.isfinite(metric):
        status, witness = "fail", witness_values(measured=metric, stored=entry.constant)
    elif (prime, dim, ctx.trials, seed) == entry.provenance():
        drift = abs(metric - entry.constant)
        if drift > 1e-9:
            status, witness = "fail", witness_values(
                measured=metric, stored=entry.constant, drift=drift)
        else:
            status = "report_only"
    else:
        ok = (metric <= slack * entry.constant + 1e-12 if sc.direction == "upper"
              else metric >= entry.constant - 1e-12)
        if not ok:
            status, witness = "fail", wit or witness_values(
                measured=metric, baseline=entry.constant)
    return ScenarioReport(
        scenario=sc.id, kind=sc.kind, prime=prime, dim=dim,
        trials=ctx.trials, seed=seed, status=status,
        metric_name="measured_constant" if tracked else "max_deviation",
        metric=float(metric), tolerance=None if tracked else sc.tolerance,
        baseline_constant=entry.constant if tracked else None,
        baseline_slack=slack if tracked else None,
        witness=witness, runtime_ms=runtime_ms)


def sweep(ids, primes, dims, trials: Optional[int] = None, seed: int = 0):
    """Run the cross product of ids with the primes and dims each
    scenario supports.  Returns (reports, any_failed).

    Baseline integrity for every tracked id in the list is checked
    before any scenario executes; a missing baseline becomes a failing
    report with an actionable message rather than an abort.
    """
    ids = list(ids)
    if trials is not None and trials < 1:
        raise ValueError("trials must be at least 1")
    store = BaselineStore.load()
    missing: dict = {}
    for sid in ids:
        sc = _scenario(sid)
        if sc.kind == "constant_tracked":
            try:
                store.entry(sid)
            except BaselineMissing as exc:
                missing[sid] = str(exc)
                continue
            store.verify(sid, sc.runner)

    reports = []
    for sid in ids:
        sc = REGISTRY[sid]
        ps = [p for p in primes if p in sc.primes]
        ds = [d for d in dims if d in sc.dims]
        if sid in missing:
            reports.append(ScenarioReport(
                scenario=sid, kind=sc.kind, prime=ps[0] if ps else sc.primes[0],
                dim=ds[0] if ds else sc.dims[0],
                trials=trials or sc.default_trials, seed=seed, status="fail",
                metric_name="measured_constant", metric=0.0,
                witness=witness_values(error=missing[sid])))
            continue
        entry = store.entries.get(sid) if sc.kind == "constant_tracked" else None
        for p in ps:
            for d in ds:
                reports.append(_run_checked(
                    sc, p, d, sc.default_trials if trials is None else trials,
                    seed, entry, store.slack))
    failed = any(r.status == "fail" for r in reports)
    return reports, failed


def regenerate_baselines(ids=None, path=None) -> BaselineStore:
    """Recompute tracked constants at their provenance parameters and
    rewrite the store (constants plus runner source hashes)."""
    store = BaselineStore.load(path)
    tracked = [sid for sid, sc in REGISTRY.items()
               if sc.kind == "constant_tracked"]
    todo = list(ids) if ids else tracked
    for sid in todo:
        sc = _scenario(sid)
        if sc.kind != "constant_tracked":
            raise ValueError(f"{sid} is {sc.kind}, not constant_tracked")
        p, d, tr, sd = sc.provenance
        metric, _ = _measure(sc, RunContext(sid, p, d, tr, sd))
        store.entries[sid] = BaselineEntry(
            constant=float(metric), prime=p, dim=d, trials=tr, seed=sd,
            oracle_hash=oracle_hash(sc.runner))
    store.save(path)
    return store


def exponent_table() -> str:
    """Rendered exponent landscape with measured sharp constants."""
    lines = []
    lines.append("restriction exponent landscape, paraboloid family, d = 2n+1")
    lines.append("R*(q -> r) means: extension maps L^r(dsigma) into L^q(dx)")
    lines.append("")
    lines.append("d = 3")
    lines.append("  Stein-Tomas            q = 4       r = 2")
    lines.append("  tracked improvement    q = 18/5    r = 9/4   "
                 "(gain delta_3 = 4/10 off the q = 4 row)")
    lines.append("  conjectured            q = 3       r = 3")
    lines.append("d = 5")
    lines.append("  Stein-Tomas            q = 3       r = 2")
    lines.append("  tracked improvement    q < 47/31   r = 2")
    lines.append("  conjectured            q = 5/2     r = 5/2")
    lines.append("general odd d")
    lines.append("  Stein-Tomas            q = (2d+2)/(d-1)")
    lines.append("  conjectured            q = 2d/(d-1)")
    lines.append("")
    lines.append("sharp R*(2 -> 2), measured at desk scale vs the "
                 "asymptotic sqrt(p):")
    for p in (3, 5):
        v = exact_r22(paraboloid(PrimeField(p), 3))
        lines.append(f"  p = {p}, d = 3:  measured = {v:.12g}   "
                     f"asymptotic = {math.sqrt(p):.12g}")
    return "\n".join(lines) + "\n"
