"""The Amemiya (Orlicz) norm, found as the root of Young's equality Q(k) = 1
for step profiles and as the crossing of g(t/s) / g(t s) = 1 for profiles
with analytic parts, against closed forms, a plain mpmath minimisation of
(1 + M(k)) / k, the sandwich Lux <= Orl <= 2 Lux, and its work counts.
The oracles here share no code with the search."""

import math

import mpmath as mp
import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg

import mp_reference as mpr

# the simple function of tests/test_step_modular.py
F = rr.simple_function([3.0, -1.0, 0.5, 2.0, -0.25], [0.3, 0.5, 1.2, 0.7, 0.4])


def random_simple(rng):
    n = int(rng.integers(1, 9))
    return rr.simple_function(rng.uniform(-8, 8, n), rng.uniform(0.05, 2.0, n))


def random_functions(seed, count):
    rng = np.random.default_rng(seed)
    return [random_simple(rng) for _ in range(count)]


@pytest.mark.parametrize("p", [1.2, 2.0, 3.5])
@pytest.mark.parametrize("level", [1e-100, 1e-40, 1e-7, 1.0, 3e5, 1e40, 1e100])
def test_closed_form_power_norm_across_scales(p, level):
    f = rr.simple_function([level, -0.5 * level, 0.25 * level], [0.7, 1.3, 2.0])
    p_norm = level * (0.7 + 1.3 * 0.5**p + 2.0 * 0.25**p) ** (1.0 / p)
    rep = cs.orlicz_norm(yg.power(p), f)
    assert rep.converged
    assert rep.value == pytest.approx(p * (p - 1.0) ** (1.0 / p - 1.0) * p_norm, rel=1e-14)
    # the minimiser of 1/k + k^(p-1) ||f||_p^p
    assert rep.witness == pytest.approx((p - 1.0) ** (-1.0 / p) / p_norm, rel=1e-9)


def test_identity_is_the_l1_norm():
    for f in [F, *random_functions(1, 20)]:
        rep = cs.orlicz_norm(yg.identity(), f)
        assert rep.converged
        assert rep.value == pytest.approx(float(np.sum(np.abs(f.values) * f.weights)), rel=1e-15)


@pytest.mark.parametrize("limit", [1.0, 2.0, 0.3])
def test_threshold_norm_is_the_scaled_sup_norm(limit):
    # Psi = 0 on [0, limit], inf beyond (limit 1: complement(identity)):
    # (1 + M(k)) / k = 1/k up to the jump at k = limit / sup|f|
    young = yg.complement(yg.PowerYoung(limit, 1.0))
    for f in [F, *random_functions(2, 20)]:
        rep = cs.orlicz_norm(young, f)
        assert rep.converged
        assert rep.value == pytest.approx(float(np.max(np.abs(f.values))) / limit, rel=1e-15)


YOUNGS = {
    "cosh-1": yg.cosh_minus_1(),
    "llog": yg.llog(),
    "xlog1p": yg.xlog1p(),
    "llogl": yg.zygmund_llogl(),
    "lexp": yg.zygmund_exp(),
    "conjugate(xlog1p)": yg.NumericConjugate(yg.xlog1p()),
    "tabulated": yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]),
    "tabulated-limit": yg.tabulated([0.0, 1.0], [1.0, 2.0], limit=5.0),
}


@pytest.mark.parametrize("name", sorted(YOUNGS))
def test_against_mpmath_minimisation(name):
    with mp.workdps(30):
        for f in [F, *random_functions(3, 6)]:
            rep = cs.orlicz_norm(YOUNGS[name], f)
            assert rep.converged
            assert rep.value == pytest.approx(float(mpr.amemiya(YOUNGS[name], f)[0]), rel=1e-12)


SANDWICH_YOUNGS = [
    yg.power(1.5), yg.power(3.0), yg.cosh_minus_1(), yg.llog(), yg.xlog1p(),
    yg.zygmund_llogl(), yg.zygmund_exp(), yg.NumericConjugate(yg.xlog1p()),
    yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]),
]


def assert_sandwich(young, f, weight):
    lux = cs.luxemburg_norm(young, f, weight).value
    orl = cs.orlicz_norm(young, f, weight)
    assert orl.converged
    assert lux <= orl.value * (1 + 1e-12) and orl.value <= 2 * lux * (1 + 1e-12)


@pytest.mark.parametrize("young", SANDWICH_YOUNGS, ids=lambda y: y.name)
def test_sandwich_with_profile_weights(young):
    weights = [rr.DecreasingProfile(((2.0, 0.75), (0.5, 1.5))), rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0))]
    for i, f in enumerate(random_functions(4, 12)):
        assert_sandwich(young, rr.rearrange(f), weights[i % 2])


@pytest.mark.parametrize("young", SANDWICH_YOUNGS, ids=lambda y: y.name)
def test_sandwich_with_density_states(young):
    rng = np.random.default_rng(6)
    for f in random_functions(5, 12):
        d = rng.uniform(0.1, 1.0, len(f.atoms))
        state = cs.WeightedDensityState(rr.simple_function(d / np.sum(d * f.weights), f.weights))
        assert_sandwich(young, f, state)


def count_calls(monkeypatch, cls, attr):
    calls = []
    original = getattr(cls, attr)

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(cls, attr, counted)
    return calls


def test_power_work_count():
    for p in (1.2, 1.5, 2.0, 3.0, 3.5):
        for f in [F, *random_functions(7, 20)]:
            rep = cs.orlicz_norm(yg.power(p), f)
            assert rep.converged and rep.iterations <= 8


@pytest.mark.parametrize("name", ["cosh-1", "llog", "xlog1p", "lexp", "conjugate(xlog1p)"])
def test_catalog_work_count(name):
    for f in [F, *random_functions(8, 20)]:
        rep = cs.orlicz_norm(YOUNGS[name], f)
        assert rep.converged and rep.iterations <= 16


def test_llogl_jumps_cost_bisections():
    # Q jumps where a level crosses 1; a jump across Q = 1 is closed by
    # geometric bisection, about 30 steps at tol = 1e-9
    fs = [F, *random_functions(8, 20)]
    total = sum(cs.orlicz_norm(yg.zygmund_llogl(), f).iterations for f in fs)
    assert total <= 40 * len(fs)


def test_one_evaluation_per_iteration(monkeypatch):
    # each Q evaluation is one _equality_gap_arr call and the final modular
    # at the bracket ends is one batched _eval_arr call
    gaps = count_calls(monkeypatch, yg.YoungFunction, "_equality_gap_arr")
    evals = count_calls(monkeypatch, yg.PowerYoung, "_eval_arr")
    rep = cs.orlicz_norm(yg.power(3.0), F)
    assert len(gaps) == rep.iterations - 1
    assert len(evals) == rep.iterations


def test_numeric_conjugate_inverts_once_per_evaluation(monkeypatch):
    calls = count_calls(monkeypatch, yg.NumericConjugate, "_inverse_density")
    rep = cs.orlicz_norm(yg.NumericConjugate(yg.xlog1p()), F)
    assert rep.converged
    assert len(calls) == rep.iterations


# ----------------------------------------------------------------------------
# profiles with analytic parts: the ratio search in t = 1/k
# ----------------------------------------------------------------------------

D, E, P = rr.DecreasingProfile, rr.ExponentialTail, rr.PowerTail
L, I = rr.LogSingularity, rr.InvPowerSingularity

PROFILE_YOUNGS = {"power:2.5": yg.power(2.5), "cosh-1": yg.cosh_minus_1(), "xlog1p": yg.xlog1p(), "lexp": yg.zygmund_exp()}
PROFILES = {
    "log": D(((0.3, 0.5),), head=L(0.5, 0.5)),
    "inv_power": D(((0.9, 0.5),), head=I(0.8, 0.2, 0.5)),
    "exponential": D(((1.5, 0.5),), E(1.0, 1.5)),
    "power": D(((1.5, 0.5),), P(1.0, 1.5, 1.0)),
}
WEIGHTS = {
    "none": None,
    "exponential": D((), E(1.0, 1.0)),
    "power": D((), P(1.0, 2.0, 1.0)),
    "inv_power": D(((0.5, 1.0),), head=I(1.0, 0.3, 0.5)),
}


def representative_level(prof):
    return prof.sup_value if prof.head is None else prof.head.coeff


# Every pair of (profile, Young function), each under one weight, so that
# every pair of the three factors occurs once (a Latin square).
ORACLE_CASES = [
    (pn, yn, list(WEIGHTS)[(j - i) % 4])
    for i, pn in enumerate(PROFILES)
    for j, yn in enumerate(PROFILE_YOUNGS)
]


@pytest.mark.parametrize("pname, yname, wname", ORACLE_CASES)
def test_analytic_profile_against_mpmath_golden_section(pname, yname, wname):
    prof, young, weight = PROFILES[pname], PROFILE_YOUNGS[yname], WEIGHTS[wname]
    rep = cs.orlicz_norm(young, prof, weight)
    if not cs.membership(young, prof, weight).member:
        assert rep.value == math.inf
        return
    assert rep.converged and rep.iterations <= 40
    centre = -math.log(representative_level(prof))
    value, k = (float(x) for x in mpr.amemiya(young, prof, weight, centre, half=4, width=1e-5, dps=15))
    assert abs(math.log(k) - centre) < 3.9  # an interior minimum
    # under lexp the power tail's value is 1.4e-9 above the minimum, though
    # its modular is within 6e-11 of mpmath: g at the bracket's centre is off
    # the minimum by order tol (times t^2 g''/g)
    rel = 2e-9 if (pname, yname) == ("power", "lexp") else 1e-9
    assert rep.value == pytest.approx(value, rel=rel)
    assert rep.bracket[0] <= k <= rep.bracket[1]


def power_shapes(scale, p):
    """Profiles at a scale and their ||f / scale||_p^p in closed form."""
    return [
        (D(((0.3 * scale, 0.5),), head=L(0.5 * scale, 0.5)),
         0.3**p * 0.5 + 0.5**p * float(mp.gammainc(p + 1, math.log(2)))),
        (D(((0.9 * scale, 0.5),), head=I(0.8 * scale, 0.2, 0.5)),
         0.9**p * 0.5 + 0.8**p * 0.5 ** (1 - 0.2 * p) / (1 - 0.2 * p)),
        (D(((1.5 * scale, 0.5),), E(1.0 * scale, 1.5)), 1.5**p * 0.5 + 1 / (1.5 * p)),
        (D(((1.5 * scale, 0.5),), P(1.0 * scale, 1.5, 1.0)), 1.5**p * 0.5 + 1 / (1.5 * p - 1)),
        (D((), E(0.5 * scale, 2.0)), 0.5**p / (2.0 * p)),
    ]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("scale", [1e-100, 1e-50, 1e-7, 1.0, 3e5, 1e50, 1e100])
def test_analytic_power_norm_across_scales(p, scale):
    for prof, pp in power_shapes(scale, p):
        p_norm = scale * pp ** (1 / p)
        rep = cs.orlicz_norm(yg.power(p), prof)
        assert rep.converged and rep.iterations <= 40
        assert rep.value == pytest.approx(p * (p - 1.0) ** (1.0 / p - 1.0) * p_norm, rel=1e-9)
        # the minimiser of 1/k + k^(p-1) ||f||_p^p
        kstar = (p - 1.0) ** (-1.0 / p) / p_norm
        assert rep.bracket[0] <= kstar * (1 + 1e-9) and kstar <= rep.bracket[1] * (1 + 1e-9)


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_analytic_work_count_at_extreme_scales(scale):
    # scale 1 is covered by the oracle cases, power:p at every scale above
    for prof in PROFILES.values():
        prof = prof.scale(scale)
        for young in PROFILE_YOUNGS.values():
            for weight in WEIGHTS.values():
                rep = cs.orlicz_norm(young, prof, weight)
                assert rep.iterations <= 40
                assert rep.converged or rep.value == math.inf


def test_log_head_far_below_one():
    # a 1e-50-scaled log head: the norm is 1e-50 times that of the unscaled one
    young = yg.cosh_minus_1()
    base = cs.orlicz_norm(young, D((), head=L(1.0, 0.5)))
    rep = cs.orlicz_norm(young, D((), head=L(1e-50, 0.5)))
    assert rep.converged
    assert rep.value == pytest.approx(1e-50 * base.value, rel=1e-9)


def test_bounded_density_limit_is_exact():
    # identity: (1 + M(k)) / k = 1/k + ||f||_1 falls to ||f||_1 = 1.5 + 2.5
    rep = cs.orlicz_norm(yg.identity(), D(((3.0, 0.5),), E(2.5, 1.0)))
    assert rep.converged
    assert rep.value == 4.0


def test_bounded_density_limit_under_a_weight():
    # integral of f w: 3 * (1 - e^-0.5) on the step, 2.5 * e^-0.5 / 2 on the tail
    rep = cs.orlicz_norm(yg.identity(), D(((3.0, 0.5),), E(2.5, 1.0)), D((), E(1.0, 1.0)))
    want = 3.0 * -math.expm1(-0.5) + 2.5 * math.exp(-0.5) / 2.0
    assert rep.converged
    assert rep.value == pytest.approx(want, rel=1e-9)


def test_bounded_density_limit_ignores_a_closing_zero_step():
    # Q rises to gap(inf) * |{f > 0}| = 0.5 * 1.0 <= 1, however long the
    # zero step after the support
    young = yg.tabulated([0.0, 1.0], [0.0, 1.0])
    for steps in (((0.5, 0.5),), ((0.5, 0.5), (0.0, 10.0))):
        prof = D(steps, head=L(1.0, 0.5))
        rep = cs.orlicz_norm(young, prof)
        assert rep.converged
        assert rep.value == rr.hl_partial(prof, math.inf)


def test_minimiser_on_a_kink_is_exact():
    # llogl vanishes up to 1: (1 + M(k)) / k = 1/k until k = 1/2 lifts the
    # step to 1, where its weight mass 1.4 > 1 turns the objective upward;
    # the tail stays below 1 there, so the minimum is 2 at that kink
    prof = D(((2.0, 0.7),), P(1.5, 2.0, 1.0))
    rep = cs.orlicz_norm(yg.zygmund_llogl(), prof, D(((2.0, 0.75), (0.5, 1.5))))
    assert rep.converged
    assert rep.value == 2.0 and rep.witness == 0.5


def test_threshold_jump_is_exact():
    # Psi = 0 up to 2 and inf beyond: (1 + M(k)) / k = 1/k up to k = 2
    rep = cs.orlicz_norm(yg.ThresholdYoung(2.0), D(((1.0, 0.5),), E(0.5, 1.0)))
    assert rep.converged
    assert rep.value == 0.5
    assert rep.witness == 2.0
    assert rep.iterations <= 2
    # (0.7 / 4.9) * 4.9 rounds above 0.7: the jump is taken one ulp lower
    rep = cs.orlicz_norm(yg.ThresholdYoung(0.7), D(((4.9, 0.5),), E(1.0, 1.0)))
    assert rep.converged and rep.iterations <= 2
    assert rep.witness * 4.9 <= 0.7
    assert rep.value == pytest.approx(4.9 / 0.7, rel=1e-15)


def test_minimiser_on_a_density_jump_is_exact():
    # the density jumps from 0.5 to 2 at 1: (1 + M(k)) / k = 1/k + 0.75 for
    # k <= 1 (the step at level 1 carries 0.5 k, the tail 0.25 k), and its
    # slope is +0.5 just above 1, so the minimum is 1.75 at that kink
    young = yg.tabulated([0.0, 1.0, 1.0, 2.0], [0.5, 0.5, 2.0, 4.0])
    rep = cs.orlicz_norm(young, D(((1.0, 1.0),), E(0.5, 1.0)))
    assert rep.converged
    assert rep.witness == 1.0
    assert rep.value == pytest.approx(1.75, rel=1e-11)


def test_step_minimiser_on_a_density_jump_is_exact():
    # the same density on levels 1 and 0.5 with masses 0.2 and 0.8: at k = 2
    # the lower level reaches the jump, M = 0.2 Psi(2) + 0.8 Psi(1) = 1.1,
    # and the objective's slope, of the sign of M' - (1 + M) / k, turns up
    # there as M' steps from 1.0 to 1.6 across 1.05, the minimum
    young = yg.tabulated([0.0, 1.0, 1.0, 2.0], [0.5, 0.5, 2.0, 4.0])
    rep = cs.orlicz_norm(young, rr.simple_function([1.0, -0.5], [0.2, 0.8]))
    assert rep.converged
    assert rep.value == 1.05 and rep.witness == 2.0


#: density rising to 1 at 4, then steeply to 40 at 5, and Psi = inf past 5
STEEP = ([0.0, 4.0, 5.0], [0.0, 1.0, 40.0], 5.0)


def mp_steep_tail(k, rate):
    """(M(k), Q(k)) for STEEP and the tail e^(-rate t): M(k) = (1/rate)
    integral_0^k Psi(x) / x dx, the modular of the tail e^-t over rate, and
    Q(k) = k M'(k) - M(k)."""
    young = yg.tabulated(*STEEP)
    integral = mpr.modular(young, D((), E(1.0, 1.0)), k=k, dps=30)
    return integral / rate, (mpr.young(young).Psi(k) - integral) / rate


@pytest.mark.parametrize("gap", [0.0, 1e-5, 3e-5, 1e-4, 2e-4, 5e-4, 1e-3, 1e-2])
def test_curved_density_with_a_limit_against_mpmath(gap):
    # the minimiser k*, where Q = 1, sits a factor 1 - gap below the jump at
    # k = 5, or on it for gap 0; t^2 g''/g is about 8 there, so a value
    # taken a factor 1 + 1e-4 off k* would be about 4e-8 too high
    with mp.workdps(30):
        if gap == 0.0:
            rate, k = 1.01 * mp_steep_tail(mp.mpf(5), 1)[1], mp.mpf(5)
        else:
            k = 5 * (1 - mp.mpf(gap))
            rate = mp_steep_tail(k, 1)[1]
        value = (1 + mp_steep_tail(k, rate)[0]) / k
    rep = cs.orlicz_norm(yg.tabulated(*STEEP), D((), E(1.0, float(rate))))
    assert rep.converged
    assert rep.value == pytest.approx(float(value), rel=1e-9)
    assert rep.bracket[0] <= k <= rep.bracket[1]
