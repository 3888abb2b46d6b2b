"""The certified Gauss-Kronrod kernel of `rearrange` against mpmath.

Every analytic modular and cross integral is checked against an
independent `mpmath.quad` (tanh-sinh) oracle that evaluates the profiles
and Young functions in multiple precision, or against a closed form.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import InconclusiveQuadratureError

D = rr.DecreasingProfile
L, I = rr.LogSingularity, rr.InvPowerSingularity
E, P = rr.ExponentialTail, rr.PowerTail

MP_PSI = {
    "power:2": lambda s: s**2,
    "power:2.5": lambda s: s**2.5,
    "cosh-1": lambda s: mp.cosh(s) - 1,
    "xlog1p": lambda s: s * mp.log1p(s),
    "llogl": lambda s: s * mp.log(s) if s > 1 else mp.mpf(0),
}


def mp_value(prof, t):
    """The profile at t in multiple precision (1 for the Lebesgue weight)."""
    if prof is None:
        return mp.mpf(1)
    front = prof.front
    if front is not None and t < front.width:
        if isinstance(front, L):
            return front.coeff * mp.log(1 / t)
        return front.coeff * t ** (-front.exponent)
    edge = mp.mpf(prof.front_width)
    for level, length in prof.steps:
        edge += length
        if t < edge:
            return mp.mpf(level)
    back, u = prof.back, t - edge
    if isinstance(back, E):
        return back.amplitude * mp.exp(-back.rate * u)
    if isinstance(back, P):
        return back.amplitude * (back.offset + u) ** (-back.exponent)
    return mp.mpf(0)


def mp_integral(fn, prof, weight, end=math.inf):
    """integral_0^end fn(t) over the pieces between the breakpoints of the
    profile and the weight; the first piece in y = log(1/t)."""
    end = min(end, prof.support_end, math.inf if weight is None else weight.support_end)
    cuts = sorted({c for q in (prof, weight) if q is not None for c in q.cuts() if 0 < c < end})
    pts = [0.0, *cuts, end]
    with mp.workdps(20):
        total = mp.mpf(0)
        for a, b in zip(pts[:-1], pts[1:]):
            if a == 0:
                total += mp.quad(lambda y: fn(mp.exp(-y)) * mp.exp(-y), [mp.log(1 / mp.mpf(b)), mp.inf])
            else:
                total += mp.quad(fn, [a, b])
        return float(total)


def mp_modular(spec, prof, weight=None):
    psi = MP_PSI[spec]
    return mp_integral(lambda t: psi(mp_value(prof, t)) * mp_value(weight, t), prof, weight)


def certified(value, oracle):
    """Within the budget of a few certified integrals."""
    return abs(value - oracle) <= 3 * max(rr._ATOL, rr._RTOL * abs(oracle))


def qk15_reference(f, a, b):
    """QUADPACK's qk15 on one panel, as its scalar loop: the Kronrod value
    and the error estimate."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = [f(c + h * x) for x in rr._GK_NODES]
    resk = sum(wk * fx for wk, fx in zip(rr._GK_KRONROD, fv))
    resg = sum(wg * fx for wg, fx in zip(rr._GK_GAUSS, fv))
    resabs = sum(wk * abs(fx) for wk, fx in zip(rr._GK_KRONROD, fv)) * abs(h)
    resasc = sum(wk * abs(fx - 0.5 * resk) for wk, fx in zip(rr._GK_KRONROD, fv)) * abs(h)
    abserr = abs((resk - resg) * h)
    if resasc != 0 and abserr != 0:
        abserr = resasc * min(1.0, (200 * abserr / resasc) ** 1.5)
    eps = np.finfo(float).eps
    if resabs > np.finfo(float).tiny / (50 * eps):
        abserr = max(50 * eps * resabs, abserr)
    return resk * h, abserr


class TestKernel:
    def test_rule_constants(self):
        gauss = rr._GK_GAUSS != 0
        xg, wg = np.polynomial.legendre.leggauss(7)
        assert np.allclose(rr._GK_NODES[gauss], xg, rtol=0, atol=1e-15)
        assert np.allclose(rr._GK_GAUSS[gauss], wg, rtol=0, atol=1e-15)
        for k in range(23):  # Kronrod exact to degree 22, Gauss to 13
            exact = (1 + (-1) ** k) / (k + 1)
            assert rr._GK_KRONROD @ rr._GK_NODES**k == pytest.approx(exact, abs=1e-15)
            if k <= 13:
                assert rr._GK_GAUSS @ rr._GK_NODES**k == pytest.approx(exact, abs=1e-15)

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (np.exp, 0.0, 1.0),
            (np.sqrt, 0.0, 2.0),
            (lambda x: 1.0 / x, 1e-6, 1.0),
            (lambda x: np.cos(40 * x), -1.0, 3.0),
            (lambda x: x**12, 0.5, 1.5),
            (np.ones_like, 2.0, 3.0),
        ],
        ids=["exp", "sqrt", "inverse", "oscillating", "degree-12", "constant"],
    )
    def test_panel_estimate_is_quadpacks(self, f, a, b):
        with np.errstate(divide="ignore", invalid="ignore"):  # as _integrate calls it
            (r,), (e,) = rr._gk15(f, np.array([a]), np.array([b]))
        ref_r, ref_e = qk15_reference(f, a, b)
        assert r == pytest.approx(ref_r, rel=1e-14, abs=1e-300)
        assert e == pytest.approx(ref_e, rel=1e-12, abs=1e-300)

    def test_polynomial_is_exact(self):
        assert rr._integrate(lambda x: x**20, [(0.0, 1.0)]) == pytest.approx(1 / 21, rel=1e-14)

    def test_pieces_are_summed_and_empty_pieces_skipped(self):
        got = rr._integrate(np.exp, [(0.0, 1.0), (2.0, 2.0), (1.0, 3.0)])
        assert got == pytest.approx(math.e**3 - 1, rel=1e-14)
        assert rr._integrate(np.exp, []) == 0.0
        assert rr._integrate(np.exp, [(1.0, 1.0)]) == 0.0

    @pytest.mark.parametrize("theta", [0.5, 0.8])
    def test_bisects_towards_an_endpoint_singularity(self, theta):
        got = rr._integrate(lambda x: x**-theta, [(0.0, 1.0)])
        assert certified(got, 1 / (1 - theta))

    def test_non_finite_integrand_raises_with_its_panel(self):
        with pytest.raises(InconclusiveQuadratureError) as info:
            rr._integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), [(0.0, 1.0)])
        exc = info.value
        assert exc.interval == (0.0, 1.0)
        assert exc.estimate == math.inf and exc.budget == rr._ATOL and exc.panels == 1

    def test_panel_limit_raises_on_a_divergent_integral(self):
        with pytest.raises(InconclusiveQuadratureError) as info:
            rr._integrate(lambda x: 1.0 / x, [(0.0, 1.0), (1.0, 2.0)])
        exc = info.value
        assert exc.panels >= 2 * rr._PANELS_PER_PIECE
        assert exc.interval == (0.0, 2.0)
        assert exc.estimate > exc.budget >= rr._ATOL
        for part in ("[0, 2]", f"{exc.estimate:.3g}", f"{exc.budget:.3g}", f"{exc.panels} panels"):
            assert part in str(exc)

    def test_errors_outside_the_kernel_carry_no_quadrature_context(self):
        # theta * d = 0.99: no cutoff above 1e-280 certifies the dropped part
        with pytest.raises(InconclusiveQuadratureError, match="did not certify") as info:
            rr.modular(yg.power(2.5), D((), I(1.0, 0.99 / 2.5, 1.0)))
        exc = info.value
        assert (exc.interval, exc.budget, exc.estimate, exc.panels) == (None, None, None, None)


PROFILES = {
    "log": D(((0.3, 1.0),), L(0.5, 0.5)),
    "inv": D(((0.3, 1.0),), I(0.5, 0.2, 0.8)),
    "exp": D(((1.0, 0.5),), E(0.8, 1.5)),
    "power": D(((1.0, 0.5),), P(0.8, 1.2, 1.0)),
}
WEIGHTS = {
    "none": None,
    "exp": D((), E(1.0, 1.0)),
    "power": D(((1.0, 0.5),), P(0.9, 0.5, 1.0)),
    "inv": D(((0.5, 1.0),), I(1.0, 0.3, 1.0)),
}


class TestModularAgainstMpmath:
    # poly growth without and with a log factor, and exp growth
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    @pytest.mark.parametrize("spec", ["power:2.5", "xlog1p", "cosh-1"])
    @pytest.mark.parametrize("shape", sorted(PROFILES))
    def test_grid(self, shape, spec, weight):
        p, w = PROFILES[shape], WEIGHTS[weight]
        got = rr.modular(yg.from_spec(spec), p, w)
        if shape == "inv" and spec == "cosh-1":
            assert got == math.inf  # an inverse-power head under exp growth
            return
        assert certified(got, mp_modular(spec, p, w))

    @pytest.mark.parametrize(
        "p, w",
        [
            # theta * d + theta_w = 0.95 under power:2.5
            (D(((0.3, 1.0),), I(0.5, 0.38, 0.8)), None),
            (D(((0.3, 1.0),), I(0.5, 0.26, 0.8)), WEIGHTS["inv"]),
        ],
        ids=["unweighted", "inv-weight"],
    )
    def test_inv_power_head_near_the_boundary(self, p, w):
        assert certified(rr.modular(yg.power(2.5), p, w), mp_modular("power:2.5", p, w))

    @pytest.mark.parametrize(
        "p, w",
        [
            # c * rate + theta_w = 0.95 under cosh-1
            (D(((0.3, 1.0),), L(0.95, 0.5)), None),
            (D(((0.3, 1.0),), L(0.95, 0.5)), WEIGHTS["exp"]),
            (D(((0.3, 1.0),), L(0.65, 0.5)), WEIGHTS["inv"]),
        ],
        ids=["unweighted", "exp-weight", "inv-weight"],
    )
    def test_log_head_near_the_boundary(self, p, w):
        assert certified(rr.modular(yg.cosh_minus_1(), p, w), mp_modular("cosh-1", p, w))

    def test_log_head_overflow_on_a_certified_range_still_raises(self):
        # cosh(c*y) overflows inside the certified range of y = log(1/t)
        p = D(((0.4, 1.0),), L(0.7, 0.5)).scale(1 / 0.71)
        with pytest.raises(InconclusiveQuadratureError) as info:
            rr.modular(yg.cosh_minus_1(), p, D(((1.0, 0.6),)))
        assert info.value.estimate == math.inf
        assert info.value.interval[1] * 0.7 / 0.71 > 709.0  # where cosh overflows


class TestRegressions:
    """Inputs on which the scipy-based quadrature raised or was wrong."""

    @pytest.mark.parametrize(
        "spec, scale", [("llogl", 2.5), ("xlog1p", 0.3), ("xlog1p", 1.0), ("xlog1p", 2.5)]
    )
    def test_inv_power_head_under_inv_power_head_weight(self, spec, scale):
        p = D(((0.3, 1.0),), I(0.5, 0.4, 0.8)).scale(scale)
        w = D(((0.2, 1.0),), I(1.0, 0.3, 1.0))
        got = rr.modular(yg.from_spec(spec), p, w)
        assert certified(got, mp_modular(spec, p, w))
        if spec == "llogl":
            assert got == pytest.approx(6.41321022684, abs=1e-10)

    def test_identity_on_a_power_tail(self):
        got = rr.modular(yg.identity(), D((), P(1.0, 2.0)))
        assert certified(got, 1.0)

    @pytest.mark.parametrize("spec", ["power:2", "cosh-1", "xlog1p"])
    def test_slow_power_tail(self, spec):
        p = D((), P(1.5, 0.7))
        got = rr.modular(yg.from_spec(spec), p)
        assert certified(got, mp_modular(spec, p))
        if spec == "power:2":
            assert certified(got, 2.25 / 0.4)

    def test_power_tail_at_kappa_one_point_one(self):
        p = D((), P(1.0, 0.55))
        assert certified(rr.modular(yg.power(2), p), 10.0)
        assert cs.luxemburg_norm(yg.power(2), p).value == pytest.approx(math.sqrt(10.0), abs=1e-9)

    def test_amemiya_norm_of_power2_on_a_power_tail(self):
        # for power:2 the Amemiya norm is twice the L2 norm
        got = cs.orlicz_norm(yg.power(2), D(((0.9, 1.0),), P(0.5, 2.0)))
        assert got.converged
        assert got.value == pytest.approx(2 * math.sqrt(0.81 + 0.25 / 3), rel=1e-9)

    def test_amemiya_norm_of_cosh_on_a_power_tail(self):
        p = D(((2.0, 0.5),), P(1.0, 3.0, 1.0))
        with mp.workdps(20):
            def mod(k):  # the modular of k*p and its derivative in k
                m = 0.5 * (mp.cosh(2 * k) - 1) + mp.quad(lambda u: mp.cosh(k * (1 + u) ** -3) - 1, [0, mp.inf])
                dm = mp.sinh(2 * k) + mp.quad(lambda u: (1 + u) ** -3 * mp.sinh(k * (1 + u) ** -3), [0, mp.inf])
                return m, dm

            k = mp.findroot(lambda k: k * mod(k)[1] - mod(k)[0] - 1, 0.75)
            oracle = float((1 + mod(k)[0]) / k)
        got = cs.orlicz_norm(yg.cosh_minus_1(), p)
        assert got.converged
        assert got.value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("theta_p", [0.8, 0.93])
    def test_luxemburg_norm_of_an_inv_power_head(self, theta_p):
        p_exp = 2.5
        prof = D(((1.0, 0.5), (0.6, 0.5)), I(1.0, theta_p / p_exp, 0.5))
        integral = 0.5 ** (1 - theta_p) / (1 - theta_p) + 0.5 + 0.5 * 0.6**p_exp
        got = cs.luxemburg_norm(yg.power(p_exp), prof)
        assert got.converged
        assert got.value == pytest.approx(integral ** (1 / p_exp), rel=1e-9)


class TestCrossIntegral:
    @pytest.mark.parametrize("theta", [0.5, 0.9, 0.99])
    def test_inv_power_head_on_the_profile(self, theta):
        got = rr.cross_integral(D((), I(1.0, theta, 1.0)), D(((1.0, 2.0),)), 1.0)
        assert got == pytest.approx(1 / (1 - theta), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.5, 0.9, 0.99])
    def test_inv_power_head_on_the_weight(self, theta):
        got = rr.cross_integral(D(((1.0, 2.0),)), D((), I(1.0, theta, 1.0)), 1.0)
        assert got == pytest.approx(1 / (1 - theta), rel=1e-12)

    @pytest.mark.parametrize(
        "p, w",
        [
            (D((), I(1.0, 0.9, 1.0)), D((), E(1.0, 1.0))),
            (D((), E(1.0, 1.0)), D((), I(1.0, 0.9, 1.0))),
            (D((), L(1.0, 1.0)), D((), P(1.0, 2.0))),
            (D((), I(1.0, 0.5, 0.5)), D((), I(1.0, 0.3, 1.0))),
            (D(((0.5, 1.0),), L(1.0, 0.5)), D(((1.0, 0.5),), I(1.0, 0.6, 0.25))),
        ],
        ids=["inv-head-exp-weight", "exp-profile-inv-weight", "log-head-power-weight",
             "two-inv-heads", "log-head-inv-weight"],
    )
    def test_against_mpmath(self, p, w):
        oracle = mp_integral(lambda t: mp_value(p, t) * mp_value(w, t), p, w, end=2.0)
        assert certified(rr.cross_integral(p, w, 2.0), oracle)

    def test_heads_with_a_non_integrable_product(self):
        assert rr.cross_integral(D((), I(1.0, 0.6, 1.0)), D((), I(1.0, 0.5, 1.0)), 1.0) == math.inf

