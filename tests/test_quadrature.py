"""The certified Gauss-Kronrod kernel of `rearrange` against mpmath.

Every analytic modular and cross integral is checked against the
independent multiple-precision oracle of tests/mp_reference.py, or against
a closed form.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.cli import main
from orlicz_kit.errors import InconclusiveQuadratureError

import mp_reference as mpr

D = rr.DecreasingProfile
L, I = rr.LogSingularity, rr.InvPowerSingularity
E, P = rr.ExponentialTail, rr.PowerTail

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
            rr.modular(yg.power(2.5), D((), head=I(1.0, 0.99 / 2.5, 1.0)))
        exc = info.value
        assert (exc.interval, exc.budget, exc.estimate, exc.panels) == (None, None, None, None)


PROFILES = {
    "log": D(((0.3, 1.0),), head=L(0.5, 0.5)),
    # a head alone: the steep weight at half its width is far below sup w
    "log-bare": D((), head=L(0.5, 1.0)),
    "inv": D(((0.3, 1.0),), head=I(0.5, 0.2, 0.8)),
    "exp": D(((1.0, 0.5),), E(0.8, 1.5)),
    "power": D(((1.0, 0.5),), P(0.8, 1.2, 1.0)),
    # both ends: c * rate + theta_w <= 0.8 under cosh-1
    "log+exp": D(((0.3, 1.0),), E(0.25, 1.5), head=L(0.5, 0.5)),
    "inv+power": D((), P(0.4, 1.2, 1.0), head=I(0.5, 0.2, 0.8)),
}
WEIGHTS = {
    "none": None,
    "exp": D((), E(1.0, 1.0)),
    "power": D(((1.0, 0.5),), P(0.9, 0.5, 1.0)),
    "inv": D(((0.5, 1.0),), head=I(1.0, 0.3, 1.0)),
    # no head, and far below its supremum across a profile's head
    "steep": D((), E(1.0, 40.0)),
}


class TestModularAgainstMpmath:
    # poly growth without and with a log factor, and exp growth
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    @pytest.mark.parametrize("spec", ["power:2.5", "xlog1p", "cosh-1"])
    @pytest.mark.parametrize("shape", sorted(PROFILES))
    def test_grid(self, shape, spec, weight):
        p, w = PROFILES[shape], WEIGHTS[weight]
        got = rr.modular(yg.from_spec(spec), p, w)
        if isinstance(p.head, I) and spec == "cosh-1":
            assert got == math.inf  # an inverse-power head under exp growth
            return
        assert certified(got, mpr.modular(yg.from_spec(spec), p, w))

    @pytest.mark.parametrize(
        "p, w",
        [
            # theta * d + theta_w = 0.95 under power:2.5
            (D(((0.3, 1.0),), head=I(0.5, 0.38, 0.8)), None),
            (D(((0.3, 1.0),), head=I(0.5, 0.26, 0.8)), WEIGHTS["inv"]),
        ],
        ids=["unweighted", "inv-weight"],
    )
    def test_inv_power_head_near_the_boundary(self, p, w):
        assert certified(rr.modular(yg.power(2.5), p, w), mpr.modular(yg.power(2.5), p, w))

    @pytest.mark.parametrize(
        "p, w",
        [
            # c * rate + theta_w = 0.95 under cosh-1
            (D(((0.3, 1.0),), head=L(0.95, 0.5)), None),
            (D(((0.3, 1.0),), head=L(0.95, 0.5)), WEIGHTS["exp"]),
            (D(((0.3, 1.0),), head=L(0.65, 0.5)), WEIGHTS["inv"]),
        ],
        ids=["unweighted", "exp-weight", "inv-weight"],
    )
    def test_log_head_near_the_boundary(self, p, w):
        assert certified(rr.modular(yg.cosh_minus_1(), p, w), mpr.modular(yg.cosh_minus_1(), p, w))

    def test_log_head_overflow_on_a_certified_range_still_raises(self):
        # cosh(c*y) overflows inside the certified range of y = log(1/t)
        p = D(((0.4, 1.0),), head=L(0.7, 0.5)).scale(1 / 0.71)
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
        p = D(((0.3, 1.0),), head=I(0.5, 0.4, 0.8)).scale(scale)
        w = D(((0.2, 1.0),), head=I(1.0, 0.3, 1.0))
        got = rr.modular(yg.from_spec(spec), p, w)
        assert certified(got, mpr.modular(yg.from_spec(spec), p, w))
        if spec == "llogl":
            assert got == pytest.approx(6.41321022684, abs=1e-10)

    @pytest.mark.parametrize(
        "p, w",
        [
            (
                D(((133.98971640540088, 0.45382227222137256),),
                  head=I(128.31509970069015, 0.16987193794021554, 0.7751137998796229)).scale(0.006710575059),
                D(((2.0, 0.75), (0.5, 1.5))),
            ),
            (D((), head=L(0.13, 1.0)), None),
        ],
        ids=["inv-head", "log-head"],
    )
    def test_head_across_the_llogl_kink(self, p, w):
        # Psi = s log^+ s has a kink at 1, inside the head's pieces: at
        # t = 0.4146 for the inverse-power head (its modular was 4e-6 low),
        # at t = exp(-1/0.13) for the log head
        got = rr.modular(yg.zygmund_llogl(), p, w)
        assert certified(got, mpr.modular(yg.zygmund_llogl(), p, w))

    @pytest.mark.parametrize(
        "p",
        [D((), head=I(1e31, 0.1, 1.0)), D((), head=I(1.0, 0.3, 1.0)).scale(1e100)],
        ids=["1e31-theta-0.1", "1e100-theta-0.3"],
    )
    def test_large_head_with_its_kink_crossing_far_past_the_head(self, p):
        # the head meets the llogl kink at t = c^(1/theta) >= 1e310, which
        # overflows a float power; the crossing lies outside the head anyway
        got = rr.modular(yg.zygmund_llogl(), p)
        assert certified(got, mpr.modular(yg.zygmund_llogl(), p))
        # Psi = (s - 1)^+: a density jump at 1, the crossing at 1e333
        got = rr.modular(yg.tabulated([0.0, 1.0, 1.0], [0.0, 0.0, 1.0]), p)
        c, th = p.head.coeff, p.head.exponent
        assert got == pytest.approx(c / (1.0 - th) - 1.0, rel=1e-12)

    def test_luxemburg_norm_of_a_large_head_across_the_llogl_kink(self):
        p = D((), head=I(1.0, 0.3, 1.0)).scale(1e93)
        got = cs.luxemburg_norm(yg.zygmund_llogl(), p)
        assert got.converged
        assert mpr.modular(yg.zygmund_llogl(), p.scale(1.0 / got.value)) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("head", [L(1e200, 1.0), I(1e200, 0.2, 1.0)], ids=["log", "inv-power"])
    def test_head_truncation_bound_overflow_raises_inconclusive(self, head):
        # the bound's c ** degree overflows a float power: it is +inf, so no
        # cutoff certifies, where a bare OverflowError escaped before
        with pytest.raises(InconclusiveQuadratureError):
            rr.modular(yg.power(3.0), D((), head=head))

    def test_identity_on_a_power_tail(self):
        got = rr.modular(yg.identity(), D((), P(1.0, 2.0)))
        assert certified(got, 1.0)

    @pytest.mark.parametrize("spec", ["power:2", "cosh-1", "xlog1p"])
    def test_slow_power_tail(self, spec):
        p = D((), P(1.5, 0.7))
        got = rr.modular(yg.from_spec(spec), p)
        assert certified(got, mpr.modular(yg.from_spec(spec), p))
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
                return mpr.modular(yg.cosh_minus_1(), p, k=k), mpr.integral(lambda pv, wv: pv * mp.sinh(k * pv), p)

            k = mp.findroot(lambda k: k * mod(k)[1] - mod(k)[0] - 1, 0.75)
            oracle = float((1 + mod(k)[0]) / k)
        got = cs.orlicz_norm(yg.cosh_minus_1(), p)
        assert got.converged
        assert got.value == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("theta_p", [0.8, 0.93])
    def test_luxemburg_norm_of_an_inv_power_head(self, theta_p):
        p_exp = 2.5
        prof = D(((1.0, 0.5), (0.6, 0.5)), head=I(1.0, theta_p / p_exp, 0.5))
        integral = 0.5 ** (1 - theta_p) / (1 - theta_p) + 0.5 + 0.5 * 0.6**p_exp
        got = cs.luxemburg_norm(yg.power(p_exp), prof)
        assert got.converged
        assert got.value == pytest.approx(integral ** (1 / p_exp), rel=1e-9)


class TestCrossIntegral:
    @pytest.mark.parametrize("theta", [0.5, 0.9, 0.99])
    def test_inv_power_head_on_the_profile(self, theta):
        got = rr.cross_integral(D((), head=I(1.0, theta, 1.0)), D(((1.0, 2.0),)), 1.0)
        assert got == pytest.approx(1 / (1 - theta), rel=1e-12)

    @pytest.mark.parametrize("theta", [0.5, 0.9, 0.99])
    def test_inv_power_head_on_the_weight(self, theta):
        got = rr.cross_integral(D(((1.0, 2.0),)), D((), head=I(1.0, theta, 1.0)), 1.0)
        assert got == pytest.approx(1 / (1 - theta), rel=1e-12)

    @pytest.mark.parametrize(
        "p, w",
        [
            (D((), head=I(1.0, 0.9, 1.0)), D((), E(1.0, 1.0))),
            (D((), E(1.0, 1.0)), D((), head=I(1.0, 0.9, 1.0))),
            (D((), head=L(1.0, 1.0)), D((), P(1.0, 2.0))),
            (D((), head=I(1.0, 0.5, 0.5)), D((), head=I(1.0, 0.3, 1.0))),
            (D(((0.5, 1.0),), head=L(1.0, 0.5)), D(((1.0, 0.5),), head=I(1.0, 0.6, 0.25))),
        ],
        ids=["inv-head-exp-weight", "exp-profile-inv-weight", "log-head-power-weight",
             "two-inv-heads", "log-head-inv-weight"],
    )
    def test_against_mpmath(self, p, w):
        oracle = mpr.integral(lambda pv, wv: pv * wv, p, w, end=2.0)
        assert certified(rr.cross_integral(p, w, 2.0), oracle)

    def test_heads_with_a_non_integrable_product(self):
        assert rr.cross_integral(D((), head=I(1.0, 0.6, 1.0)), D((), head=I(1.0, 0.5, 1.0)), 1.0) == math.inf



def test_cli_norm_of_a_profile_with_both_ends(tmp_path):
    p = PROFILES["log+exp"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(p.to_dict()))
    res = CliRunner().invoke(main, ["norm", "--young", "cosh-1", "--profile", str(path)])
    assert res.exit_code == 0, res.output
    value = json.loads(res.output)["value"]
    # the mpmath root of integral cosh(p(t)/lam) - 1 dt = 1, by secant steps
    # from a bracket around it
    lo, hi = 0.8 * value, 1.25 * value
    assert mpr.modular(yg.cosh_minus_1(), p.scale(1 / lo)) > 1 > mpr.modular(yg.cosh_minus_1(), p.scale(1 / hi))
    root = mp.findroot(lambda lam: mpr.modular(yg.cosh_minus_1(), p.scale(1 / float(lam))) - 1, (lo, hi), tol=1e-24)
    assert value == pytest.approx(float(root), rel=1e-8)
