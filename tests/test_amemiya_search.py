"""The Amemiya (Orlicz) norm of step profiles, found as the root of Young's
equality Q(k) = 1, against closed forms, a plain mpmath minimisation of
(1 + M(k)) / k, the sandwich Lux <= Orl <= 2 Lux, and its work counts.
The oracles here share no code with the search."""

import math

import mpmath as mp
import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg

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


def mp_conjugate_xlog1p(x):
    """Phi(x) = x w - w log(1 + w) at the w solving log(1 + w) + w/(1 + w) = x,
    which lies in [x/2, expm1(x)] since log(1 + w) <= psi(w) <= 2 w."""
    if x <= 0:
        return mp.mpf(0)
    w = mp.findroot(lambda w: mp.log1p(w) + w / (1 + w) - x, (x / 2, mp.expm1(x)), solver="anderson")
    return x * w - w * mp.log1p(w)


def mp_tabulated(x):
    """Psi for the density through (0, 0), (1, 1), (2, 3), constant beyond."""
    if x <= 1:
        return x**2 / 2
    if x <= 2:
        return mp.mpf(1) / 2 + (x - 1) + (x - 1) ** 2
    return mp.mpf(5) / 2 + 3 * (x - 2)


def mp_tabulated_limit(x):
    """Psi for the density through (0, 1), (1, 2), constant beyond, and +inf
    past 5."""
    if x > 5:
        return mp.inf
    if x <= 1:
        return x + x**2 / 2
    return mp.mpf(3) / 2 + 2 * (x - 1)


MP_PSI = {
    "cosh-1": lambda x: mp.cosh(x) - 1,
    "llog": lambda x: x * mp.asinh(x) - mp.sqrt(1 + x * x) + 1,
    "xlog1p": lambda x: x * mp.log1p(x),
    "llogl": lambda x: x * mp.log(x) if x > 1 else mp.mpf(0),
    "lexp": lambda x: x if x <= 1 else mp.exp(x - 1),
    "conjugate(xlog1p)": mp_conjugate_xlog1p,
    "tabulated": mp_tabulated,
    "tabulated-limit": mp_tabulated_limit,
}
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


def mp_amemiya(psi, f):
    """min over k of (1 + sum_i w_i Psi(k |v_i|)) / k by golden-section search
    on log k; the objective is unimodal in k."""
    levels = [mp.mpf(abs(float(v))) for v in f.values]
    weights = [mp.mpf(float(w)) for w in f.weights]

    def h(u):
        k = mp.exp(u)
        return (1 + sum(w * psi(k * v) for v, w in zip(levels, weights))) / k

    invphi = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(-30), mp.mpf(30)
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = h(c), h(d)
    while b - a > mp.mpf(10) ** -20:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = h(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = h(d)
    return min(fc, fd)


@pytest.mark.parametrize("name", sorted(YOUNGS))
def test_against_mpmath_minimisation(name):
    with mp.workdps(30):
        for f in [F, *random_functions(3, 6)]:
            rep = cs.orlicz_norm(YOUNGS[name], f)
            assert rep.converged
            assert rep.value == pytest.approx(float(mp_amemiya(MP_PSI[name], f)), rel=1e-12)


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
