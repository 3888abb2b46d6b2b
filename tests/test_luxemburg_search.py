"""The Luxemburg root search (safeguarded Illinois regula falsi on
(log lambda, log modular)) against closed forms and a plain-bisection
oracle, its report invariants, its work counts, and the power-tail
truncation search against a linear scan."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import InconclusiveQuadratureError

DATA_DIR = Path(__file__).parent / "data"

# the simple function of tests/test_step_modular.py
F = rr.simple_function([3.0, -1.0, 0.5, 2.0, -0.25], [0.3, 0.5, 1.2, 0.7, 0.4])

ORACLE_YOUNGS = {
    "cosh-1": yg.cosh_minus_1(),
    "llog": yg.llog(),
    "xlog1p": yg.xlog1p(),
    "llogl": yg.zygmund_llogl(),
    "lexp": yg.zygmund_exp(),
    "tabulated": yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]),
    "threshold": yg.complement(yg.identity()),
}


def random_simple(rng):
    n = int(rng.integers(1, 9))
    return rr.simple_function(rng.uniform(-8, 8, n), rng.uniform(0.05, 2.0, n))


def bisection_norm(young, f):
    """Plain geometric bisection on lambda for sum_i w_i Psi(|v_i| / lambda) = 1."""
    v, w = np.abs(f.values), f.weights

    def mod(lam):
        return float(np.sum(young.eval(v / lam) * w))

    lo, hi = 1e-6, 1e6
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if mod(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def assert_invariants(rep, continuous=True):
    assert rep.converged
    lo, hi = rep.bracket
    assert hi == rep.witness == rep.value
    assert hi - lo <= 1e-12 * hi
    assert rep.modular_at_witness <= 1.0
    if continuous:
        assert rep.modular_at_witness >= 1.0 - 1e-8


def recorded_search(monkeypatch, young, f):
    """Run luxemburg_norm on a simple function and return the report and
    the (lambda, modular) pairs it evaluated, in order."""
    seen = []
    make = cs._step_modular_fn

    def recording(young, p, w):
        fast = make(young, p, w)

        def mod(scale):
            m = fast(scale)
            seen.append((1.0 / scale, float(m)))
            return m

        return mod

    monkeypatch.setattr(cs, "_step_modular_fn", recording)
    return cs.luxemburg_norm(young, f), seen


def bracket_steps(seen):
    """Replay the bracket: for each root-search evaluation, the (lo, m_lo,
    hi, m_hi) it started from and the lambda it evaluated.  The bracketing
    phase is skipped."""
    i = 0
    while seen[i][1] > 1.0:  # grow hi
        i += 1
    hi, m_hi = seen[i]
    if i > 0:  # the last rung passed on the way up is lo
        lo, m_lo = seen[i - 1]
    else:  # shrink lo from the start, where hi stays
        i += 1
        while seen[i][1] <= 1.0:
            i += 1
        lo, m_lo = seen[i]
    steps = []
    for lam, m in seen[i + 1 :]:
        steps.append((lo, m_lo, hi, m_hi, lam))
        if m <= 1.0:
            hi, m_hi = lam, m
        else:
            lo, m_lo = lam, m
    return steps


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("level", [1e-100, 1e-40, 1e-7, 1.0, 3e5, 1e40, 1e100])
def test_closed_form_p_norm_across_scales(p, level):
    f = rr.simple_function([level, -0.5 * level, 0.25 * level], [0.7, 1.3, 2.0])
    ref = level * (0.7 + 1.3 * 0.5**p + 2.0 * 0.25**p) ** (1.0 / p)
    rep = cs.luxemburg_norm(yg.power(p), f)
    assert_invariants(rep)
    # log M is linear in log lambda: the interpolant finds the root, and the
    # witness is within the minimum step (tol/10) of it
    assert rep.value == pytest.approx(ref, rel=2e-13)


@pytest.mark.parametrize("name", sorted(ORACLE_YOUNGS))
def test_against_bisection_oracle(name):
    young = ORACLE_YOUNGS[name]
    rep = cs.luxemburg_norm(young, F)
    assert_invariants(rep, continuous=name != "threshold")
    assert rep.value == pytest.approx(bisection_norm(young, F), rel=2e-12)


@pytest.mark.parametrize("name", sorted(ORACLE_YOUNGS))
def test_infinite_or_zero_end_takes_bisection(monkeypatch, name):
    rep, seen = recorded_search(monkeypatch, ORACLE_YOUNGS[name], F)
    # one evaluation per iteration: nothing is evaluated twice
    assert len(seen) == rep.iterations
    steps = bracket_steps(seen)
    for lo, m_lo, hi, m_hi, lam in steps:
        if m_lo == math.inf or m_hi == 0.0:
            assert lam == pytest.approx(math.sqrt(lo * hi), rel=1e-14)
    flat = [s for s in steps if s[1] == math.inf or s[3] == 0.0]
    if name == "threshold":
        # the modular jumps 0 -> inf: every step is a bisection
        assert len(flat) == len(steps) > 30
    elif name == "llogl":
        # llogl vanishes below 1, so M = 0 at the first upper end
        assert flat


@pytest.mark.parametrize("jump", [1.7, 2.5, 10.0])
def test_lopsided_jump_halves_bracket_every_few_steps(monkeypatch, jump):
    # a modular with a finite jump from 1e30 to 0.9 at lambda = jump starves
    # regula falsi: the bracket must still halve within _STALL_STEPS + 1 steps
    seen = []

    def fake(young, p, w):
        def mod(scale):
            m = 1e30 if 1.0 / scale < jump else 0.9
            seen.append((1.0 / scale, m))
            return m

        return mod

    monkeypatch.setattr(cs, "_step_modular_fn", fake)
    rep = cs.luxemburg_norm(yg.power(2.0), F)
    assert rep.converged and rep.value == pytest.approx(jump, rel=1e-11)
    spans = [math.log(hi / lo) for lo, _, hi, _, _ in bracket_steps(seen)]
    ref, since = spans[0], 0
    for span in spans[1:]:
        since += 1
        if span <= 0.5 * ref:
            ref, since = span, 0
        assert since <= cs._STALL_STEPS


def test_illinois_work_count():
    # regula falsi without the Illinois halving keeps one end for many steps
    # and takes about 40% more steps on these functions
    rng = np.random.default_rng(5)
    fs = [random_simple(rng) for _ in range(50)]
    for young, bound in ((yg.cosh_minus_1(), 12.0), (yg.xlog1p(), 10.5), (yg.zygmund_llogl(), 14.0)):
        total = sum(cs.luxemburg_norm(young, f).iterations for f in fs)
        assert total <= bound * len(fs)


def test_power_norm_work_count():
    for p in (1.0, 1.5, 2.0, 3.5):
        rep = cs.luxemburg_norm(yg.power(p), F)
        assert rep.converged and rep.iterations <= 8


def test_cosh_work_count_on_step_function():
    rep = cs.luxemburg_norm(yg.cosh_minus_1(), F)
    assert_invariants(rep)
    assert rep.iterations <= 20


def test_weighted_profile_work_count():
    profile = rr.profile_from_dict(json.loads((DATA_DIR / "glog.json").read_text()))
    weight = rr.profile_from_dict(json.loads((DATA_DIR / "exp.json").read_text()))
    rep = cs.luxemburg_norm(yg.cosh_minus_1(), profile, weight)
    assert_invariants(rep)
    assert rep.iterations <= 20
    # the mpmath root of int_0^1 (cosh(log(1/t)/lam) - 1) e^-t dt = 1
    assert rep.value == pytest.approx(1.392432277626598, rel=1e-12)


def linear_scan_cutoff(young, back, w, lo):
    """The power-tail truncation search as a linear scan over u *= 1.6."""
    so = young.small_order()
    a, g_exp, t0 = back.amplitude, back.exponent, back.offset
    kind, wtail = w.far_field()
    gamma_w = wtail.exponent if kind == "power" else 0.0
    kappa = g_exp * so.alpha + gamma_w
    u = max(t0, 1.0)
    if so.valid_to < math.inf:
        u = max(u, (a / so.valid_to) ** (1.0 / g_exp) - t0)
    while True:
        cands = []
        if g_exp * so.alpha > 1.0:
            cands.append(
                so.hi * a**so.alpha * (t0 + u) ** (1.0 - g_exp * so.alpha)
                / (g_exp * so.alpha - 1.0) * w.value(lo + u)
            )
        wm = w.mass(lo + u, math.inf)
        if math.isfinite(wm):
            cands.append(so.hi * (a * (t0 + u) ** (-g_exp)) ** so.alpha * wm)
        if kind == "power" and kappa > 1.0:
            cands.append(
                so.hi * a**so.alpha * wtail.amplitude
                * (min(t0, wtail.offset) + u) ** (1.0 - kappa) / (kappa - 1.0)
            )
        if cands and min(cands) < 0.5 * rr._ATOL:
            return u
        if u * 1.6 > 1e300:
            raise InconclusiveQuadratureError("power tail truncation did not certify")
        u *= 1.6


POWER_WEIGHT = rr.DecreasingProfile(((1.0, 2.0),), rr.PowerTail(1.0, 0.3, 1.5))
# (kappa, Young function, tail exponent, weight): kappa = exponent * alpha + gamma_w
CUTOFF_CASES = [
    (1.05, yg.identity(), 1.05, None),
    (1.05, yg.power(2.0), 0.375, POWER_WEIGHT),
    (1.1, yg.identity(), 1.1, None),
    (1.1, yg.cosh_minus_1(), 0.4, POWER_WEIGHT),
    (1.5, yg.xlog1p(), 0.75, None),
    (1.5, yg.power(1.5), 0.8, POWER_WEIGHT),
    (3.0, yg.power(2.0), 1.5, None),
    (3.0, yg.identity(), 2.7, POWER_WEIGHT),
]


@pytest.mark.parametrize("kappa,young,exponent,weight", CUTOFF_CASES)
def test_power_tail_cutoff_equals_linear_scan(kappa, young, exponent, weight):
    back = rr.PowerTail(2.0, exponent, 1.25)
    w = rr._WeightView(weight)
    gamma_w = weight.tail.exponent if weight is not None else 0.0
    assert exponent * young.small_order().alpha + gamma_w == pytest.approx(kappa)
    for lo in (0.0, 0.5, 3.0):
        assert rr._power_tail_cutoff(young, back, w, lo) == linear_scan_cutoff(young, back, w, lo)


def test_power_tail_cutoff_gallops(monkeypatch):
    # kappa = 1.05 needs u near 1e234, about 1150 rungs of x1.6
    w = rr._WeightView(None)
    back = rr.PowerTail(1.0, 1.05, 1.0)
    calls = []
    mass = rr._WeightView.mass
    monkeypatch.setattr(rr._WeightView, "mass", lambda self, a, b: calls.append(a) or mass(self, a, b))
    u = rr._power_tail_cutoff(yg.identity(), back, w, 0.0)
    assert u > 1e230
    assert len(calls) <= 2 * math.log2(math.log(u) / math.log(1.6)) + 2


def test_power_tail_cutoff_raises_without_a_bound():
    # no candidate bound (exponent * alpha <= 1 under Lebesgue): the scan
    # reaches 1e300 and raises, and so does the gallop
    w = rr._WeightView(None)
    back = rr.PowerTail(1.0, 0.9, 1.0)
    with pytest.raises(InconclusiveQuadratureError):
        linear_scan_cutoff(yg.identity(), back, w, 0.0)
    with pytest.raises(InconclusiveQuadratureError, match="did not certify"):
        rr._power_tail_cutoff(yg.identity(), back, w, 0.0)
