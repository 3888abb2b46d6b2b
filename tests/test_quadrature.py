"""The certified Gauss-Kronrod kernel of `rearrange` against mpmath.

Every analytic modular and cross integral is checked against the
independent multiple-precision oracle of tests/mp_reference.py, or against
a closed form.
"""

import json
import math
import statistics

import mpmath as mp
import numpy as np
import pytest
from click.testing import CliRunner

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.cli import main
from orlicz_kit.errors import InconclusiveQuadratureError, OrliczKitError

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

    def test_a_list_of_pairs_and_an_array_give_the_same_bits(self):
        pieces = [(0.0, 1.0), (2.0, 2.0), (1.0, 3.0), (3.0, 10.0)]
        fn = lambda x: np.exp(-x) * np.sqrt(x)  # noqa: E731
        assert rr._integrate(fn, np.array(pieces)).hex() == rr._integrate(fn, pieces).hex()
        layout = rr._split(0.0, 10.0, 7)
        assert rr._integrate(fn, layout).hex() == rr._integrate(fn, [tuple(x) for x in layout]).hex()

    def test_split_points_are_linspace_bit_for_bit(self):
        # widths from subnormal to 1e300, ends from 1e-300 to 1e300 of either
        # sign, and a = b
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
            kind = rng.integers(4)
            if kind == 0:
                b = a
            elif kind == 1:
                b = a + float(rng.integers(1, 64)) * 5e-324 * 10.0 ** rng.integers(0, 10)
            elif kind == 2:
                b = float(np.nextafter(a, math.inf)) if rng.integers(2) else a * (1 + 2.0 ** -rng.integers(1, 53))
            else:
                b = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300))
            n = int(rng.integers(1, 200))
            want = np.linspace(a, b, n + 1)
            assert np.array_equal(rr._linspace(a, b, n), want), (a, b, n)
            assert np.array_equal(rr._split(a, b, n), np.stack((want[:-1], want[1:]), axis=1)), (a, b, n)

    def test_layout_is_numpys_stack(self):
        edges = np.cumsum(np.random.default_rng(3).uniform(0.0, 2.0, 40))
        got = rr._layout(edges)
        assert got.flags.c_contiguous
        assert np.array_equal(got, np.stack((edges[:-1], edges[1:]), axis=1))

    def test_cut_without_a_point_inside_returns_its_layout(self):
        layout = rr._split(1.0, 3.0, 4)
        assert rr._cut(layout, []) is layout
        assert rr._cut(layout, [0.5, 1.0, 3.0, 7.0]) is layout
        assert np.array_equal(rr._cut(layout, [2.2]), rr._layout(np.array([1.0, 1.5, 2.0, 2.2, 2.5, 3.0])))

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

    def test_non_finite_value_in_a_later_round_raises_with_its_panel(self, monkeypatch):
        rounds = []
        gk15 = rr._gk15

        def recorded(fn, lo, hi):
            rounds.append(lo.size)
            return gk15(fn, lo, hi)

        monkeypatch.setattr(rr, "_gk15", recorded)
        # only the nodes of (0.5, 1], the second new panel of round two,
        # come within 1e-3 of 0.75; the piece (1, 2) is kept after round one
        fn = lambda x: np.where(np.abs(x - 0.75) < 1e-3, np.inf, x**-0.5)  # noqa: E731
        with pytest.raises(InconclusiveQuadratureError) as info:
            rr._integrate(fn, [(0.0, 1.0), (1.0, 2.0)])
        exc = info.value
        assert rounds == [2, 2]
        assert exc.interval == (0.5, 1.0)
        assert exc.panels == 3  # (1, 2) kept, (0, 0.5) and (0.5, 1) new
        assert exc.estimate == math.inf and exc.budget > rr._ATOL

    def test_integral_overflow_raises(self):
        # each panel's value, 1.6e308, is finite; their sum is not
        with pytest.raises(InconclusiveQuadratureError, match="integral overflows") as info:
            rr._integrate(lambda x: np.full_like(x, 8e307), [(0.0, 2.0), (2.0, 4.0)])
        exc = info.value
        assert exc.interval == (0.0, 4.0) and exc.panels == 2
        assert exc.budget == math.inf and math.isfinite(exc.estimate)

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


#: The power-tail grid: each Young function with its small order alpha
#: (Psi(s) ~ s**alpha at 0), the tail's decay kappa = gamma * alpha + gamma_w
#: at infinity, the tail's offset, a weight with its power gamma_w, and scale.
TAIL_YOUNG = {"power:2": 2.0, "power:2.5": 2.5, "cosh-1": 2.0, "xlog1p": 2.0}
TAIL_KAPPA = [1.1, 1.5, 2.5, 3.3]
TAIL_OFFSET = [0.5, 1.0, 10.0]
TAIL_WEIGHT = {"none": 0.0, "power": 0.5, "exp": 0.0}
TAIL_SCALE = [1e-50, 1.0, 1e50]


def tail_case(spec, kappa, offset, weight, scale):
    """The bare power tail of the grid case, decaying under Psi and the
    weight as t**-kappa, and its weight."""
    gamma = (kappa - TAIL_WEIGHT[weight]) / TAIL_YOUNG[spec]
    return D((), P(0.8 * scale, gamma, offset)), WEIGHTS[weight]


def tail_raise(spec, kappa, weight, scale):
    """The message of the raise a grid case may end in, or None.  At scale
    1e50, cosh-1 overflows on the tail, and at kappa = 1.1 a tail without an
    exponential weight drops more than the budget past any cutoff below 1e300."""
    if scale == 1e50 and kappa == 1.1 and weight != "exp":
        return "power tail truncation did not certify"
    if scale == 1e50 and spec == "cosh-1":
        return "non-finite integrand"
    return None


def tail_grid():
    return [(spec, kappa, offset, weight, scale) for spec in TAIL_YOUNG for kappa in TAIL_KAPPA
            for offset in TAIL_OFFSET for weight in TAIL_WEIGHT for scale in TAIL_SCALE]


class TestPowerTailGrid:
    @pytest.mark.parametrize("kappa", TAIL_KAPPA)
    @pytest.mark.parametrize("spec", sorted(TAIL_YOUNG))
    def test_certified_against_mpmath(self, spec, kappa):
        # power:p is homogeneous, Psi(c s) = c**p Psi(s): its reference at a
        # scale is the scale-1 one times scale**p
        young = yg.from_spec(spec)
        for offset in TAIL_OFFSET:
            for weight in TAIL_WEIGHT:
                unit = None
                for scale in TAIL_SCALE:
                    p, w = tail_case(spec, kappa, offset, weight, scale)
                    message = tail_raise(spec, kappa, weight, scale)
                    if message is not None:
                        with pytest.raises(InconclusiveQuadratureError, match=message):
                            rr.modular(young, p, w)
                        continue
                    got = rr.modular(young, p, w)
                    if spec.startswith("power"):
                        if unit is None:
                            unit = mpr.modular(young, tail_case(spec, kappa, offset, weight, 1.0)[0], w, dps=12)
                        ref = unit * mp.mpf(scale) ** TAIL_YOUNG[spec]
                    else:
                        ref = mpr.modular(young, p, w, dps=12)
                    assert abs(got - ref) <= max(rr._ATOL, rr._RTOL * abs(ref)), (offset, weight, scale)

    def test_a_power_tail_certifies_in_one_round(self, kernel_work):
        # one _integrate call per modular of a bare tail; the kernel starts a
        # decade of offset + u on three panels, where one took about four rounds
        rounds = []
        for spec, kappa, offset, weight, scale in tail_grid():
            if tail_raise(spec, kappa, weight, scale) is not None:
                continue
            before = dict(kernel_work)
            rr.modular(yg.from_spec(spec), *tail_case(spec, kappa, offset, weight, scale))
            assert kernel_work["integrate"] == before["integrate"] + 1
            rounds.append(kernel_work["rounds"] - before["rounds"])
        assert len(rounds) == 378
        assert statistics.median(rounds) == 1

    def test_a_power_tail_cutoff_takes_three_bounds(self, monkeypatch):
        # each bound reads the weight's mass past the rung once; the search
        # enters at the rung where (offset + u)**(1 - kappa) crosses the
        # bound, where a search from the first rung took a median of 6 here
        calls = []
        mass = rr._WeightView.mass
        monkeypatch.setattr(rr._WeightView, "mass", lambda self, a, b: calls.append(a) or mass(self, a, b))
        evals = []
        for spec, kappa, offset, weight, scale in tail_grid():
            p, w = tail_case(spec, kappa, offset, weight, scale)
            calls.clear()
            try:
                rr._power_tail_cutoff(yg.from_spec(spec), p.tail, rr._WeightView(w), p.steps_end)
            except InconclusiveQuadratureError:
                assert tail_raise(spec, kappa, weight, scale) == "power tail truncation did not certify"
                continue
            evals.append(len(calls))
        assert len(evals) == 408
        assert statistics.median(evals) <= 3


@pytest.mark.xfail(reason="ROADMAP item 5: a power tail is cut where its dropped mass is below half of _ATOL, "
                          "not the relative budget", strict=True)
def test_a_tiny_power_tail_meets_the_relative_budget():
    # the power:2 modular of 0.8e-50 (1 + u)^-0.55 is 0.64e-100 / 0.1 =
    # 6.40e-100; cut at its first rung, the tail reads 4.29e-101
    young, p = yg.power(2.0), D((), P(0.8e-50, 0.55, 1.0))
    ref = mpr.modular(young, p, dps=12)
    assert abs(rr.modular(young, p) - ref) <= rr._RTOL * ref


#: The log-head grid: each Young function's two head coefficients, as
#: c * rate + theta_w under exp growth and as c under poly growth, and the
#: weights with their theta_w, the order of their head at 0.
HEAD_YOUNG = {"power:2.5": (0.7, 2.0), "xlog1p": (0.7, 2.0), "llog": (0.7, 2.0),
              "cosh-1": (0.5, 0.93), "lexp": (0.5, 0.93)}
HEAD_WEIGHT = {"none": (None, 0.0), "exp": (WEIGHTS["exp"], 0.0),
               "inv": (D(((0.5, 1.0),), head=I(1.0, 0.25, 0.5)), 0.25), "power": (WEIGHTS["power"], 0.0)}
HEAD_SCALE = [1e-50, 1.0, 1e50]


def head_grid():
    """(Young function, bare log head of width 0.5, weight, its theta_w,
    scale) of each grid case: no weight cut falls inside the head, so the
    head is the modular's only integral."""
    for spec, coeffs in HEAD_YOUNG.items():
        young = yg.from_spec(spec)
        g = young.growth()
        for s in coeffs:
            for w, theta_w in HEAD_WEIGHT.values():
                c = (s - theta_w) / g.rate if g.kind == "exp" else s
                for scale in HEAD_SCALE:
                    yield young, D((), head=L(c * scale, 0.5)), w, theta_w, scale


class TestLogHeadGrid:
    def test_certified_against_mpmath(self):
        # under exp growth the modular diverges where c * rate + theta_w >= 1,
        # at scale 1e50; power:2.5 is homogeneous, so its reference at a
        # scale is the scale-1 one times scale**2.5
        unit = {}
        for young, p, w, theta_w, scale in head_grid():
            got = rr.modular(young, p, w)
            g = young.growth()
            if g.kind == "exp" and p.head.coeff * g.rate + theta_w >= 1.0:
                assert got == math.inf
                continue
            if young.name.startswith("power"):
                key = (young.name, p.head.coeff / scale, id(w))
                if key not in unit:
                    unit[key] = mpr.modular(young, p.scale(1.0 / scale), w, dps=12)
                ref = unit[key] * mp.mpf(scale) ** 2.5
            else:
                ref = mpr.modular(young, p, w, dps=12)
            assert abs(got - ref) <= max(rr._ATOL, rr._RTOL * abs(ref)), (young.name, p.head.coeff, scale)

    def test_a_log_head_certifies_in_one_round(self, kernel_work):
        # 1.1 panels per decay length 1/r in y = log(1/t); panels 20 wide took
        # three or four rounds
        for young, p, w, *_ in head_grid():
            rr.modular(young, p, w)
        assert len(kernel_work.per_integral) == 104
        assert statistics.median(kernel_work.per_integral) == 1

    def test_a_log_head_cutoff_takes_at_most_four_gamma_tails(self, monkeypatch):
        # the search enters at the rung where amp * y**k * e^(-r*y) crosses
        # the bound, where a search from the first rung took a median of 8
        calls, per_head = [], []
        gamma_tail, head_value = rr._gamma_tail, rr._head_value
        monkeypatch.setattr(rr, "_gamma_tail", lambda *args: calls.append(1) or gamma_tail(*args))

        def counted(*args):
            calls.clear()
            value = head_value(*args)
            per_head.append(len(calls))
            return value

        monkeypatch.setattr(rr, "_head_value", counted)
        for young, p, w, *_ in head_grid():
            rr.modular(young, p, w)
        assert len(per_head) == 104
        assert statistics.median(per_head) <= 4


#: The overflow probe grid: every catalog kind but tabulated, on bare power
#: tails over the double range, each weighted three ways.
PROBE_YOUNG = ["power:2", "cosh-1", "llog", "xlog1p", "llogl", "lexp", "identity"]
PROBE_AMPLITUDE = [10.0**e for e in range(-300, 301, 100)]
PROBE_WEIGHT = {"none": None, "power": D((), P(1.0, 2.0)), "exp": D((), E(1.0, 1.0))}


@pytest.mark.parametrize("spec", PROBE_YOUNG)
def test_power_tails_over_the_double_range_raise_only_toolkit_errors(spec):
    # a bound or validity point whose power overflows certifies no rung, so
    # such a tail raises InconclusiveQuadratureError, not OverflowError
    young = yg.from_spec(spec)
    for amp in PROBE_AMPLITUDE:
        for exponent in (0.55, 1.0, 3.0, 50.0):
            for offset in (1e-3, 1.0, 1e3):
                p = D((), P(amp, exponent, offset))
                for w in PROBE_WEIGHT.values():
                    try:
                        rr.modular(young, p, w)
                    except OrliczKitError:
                        pass


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
