"""The Luxemburg root search (safeguarded Illinois regula falsi on
(log lambda, log modular)) against closed forms and a plain-bisection
oracle, its report invariants, its work counts, and the truncation
searches (power tail, log and inverse-power heads, exponential tail,
singular piece) against linear scans of their ladders."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import InconclusiveQuadratureError

import mp_reference as mpr

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


def is_rung(t, start=1.0):
    """Is t on the x4 ladder from start (exact in the normal range)?"""
    return t == start * 4.0 ** round(math.log(t / start, 4.0))


def bracket_steps(seen):
    """Replay the Illinois phase: for each of its evaluations, the (lo, m_lo,
    hi, m_hi) it started from and the lambda it evaluated.  The bracket
    phase reads only rungs of the x4 ladder from the first lambda, and the
    Illinois phase only points strictly between two adjacent rungs; the
    replay starts from the tightest pair of rungs with m_lo > 1 >= m_hi."""
    rungs = [is_rung(lam, seen[0][0]) for lam, _ in seen]
    n = rungs.index(False) if False in rungs else len(seen)
    lo, m_lo = max((lam, m) for lam, m in seen[:n] if m > 1.0)
    hi, m_hi = min((lam, m) for lam, m in seen[:n] if lam > lo)
    steps = []
    for lam, m in seen[n:]:
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
    assert rep.value == pytest.approx(float(mpr.luxemburg(young, F)), rel=2e-12)


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


def recorded_crossing(fn):
    """_level_crossing from 1 to tol 1e-12, and the points t it evaluated, in order."""
    ts = []
    return cs._level_crossing(lambda t: ts.append(t) or fn(t), 1.0, 1e-12), ts


@pytest.mark.parametrize("a", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_level_crossing_reaches_the_ends_of_the_double_range(a):
    # fn = (a/t)^2 crosses 1 at t = a, k rungs of 4 from the start 1; the
    # product overflows to inf near t = 1 for a = 1e300
    (lo, hi, f_lo, f_hi, evals, converged), ts = recorded_crossing(lambda t: (a / t) * (a / t))
    # the bracket encloses a, up to the rounding of a/t
    assert converged and lo < a <= hi * (1.0 + 1e-15) and hi - lo <= 1e-12 * hi
    assert f_lo > 1.0 >= f_hi
    # no t is evaluated twice, and every evaluation is counted
    assert len(set(ts)) == len(ts) == evals
    k = math.ceil(abs(math.log(a, 4.0))) or 1
    rungs = [t for t in ts if is_rung(t)]
    assert ts[: len(rungs)] == rungs
    assert len(rungs) <= 2 * math.ceil(math.log2(k + 1)) + 2


@pytest.mark.parametrize("m", [0.5, 2.0])
def test_level_crossing_without_a_crossing_does_not_converge(m):
    # fn never crosses 1: the ladder runs to the end of the doubles, or down
    # to the last rung whose reciprocal is finite
    (lo, hi, f_lo, f_hi, evals, converged), ts = recorded_crossing(lambda t: m)
    assert not converged and lo == hi and f_lo == f_hi == m
    assert hi == (max(ts) if m > 1.0 else min(ts)) and 0.0 < hi < math.inf
    assert (hi * 4.0 == math.inf) if m > 1.0 else (1.0 / (hi * 0.25) == math.inf)
    assert len(set(ts)) == len(ts) == evals <= 25


def test_level_crossing_stops_where_the_reciprocal_overflows():
    # fn = (a/t)^2 for a subnormal a crosses 1 below 1/DBL_MAX, where the
    # modular of f/t, taken at 1/t = inf, would fake a crossing
    (lo, hi, f_lo, f_hi, evals, converged), ts = recorded_crossing(lambda t: (1e-320 / t) ** 2)
    assert not converged and lo == hi == min(ts) and f_hi <= 1.0
    assert all(1.0 / t < math.inf for t in ts)


def test_level_crossing_reads_past_rungs_that_do_not_certify():
    # below 1e-150 fn cannot be certified: the gallop's rung 4^-255 counts
    # as past the crossing at 1e-100, and the bracket still closes
    def fn(t):
        if t < 1e-150:
            raise InconclusiveQuadratureError("no certified value")
        return (1e-100 / t) ** 2

    (lo, hi, f_lo, f_hi, evals, converged), ts = recorded_crossing(fn)
    assert converged and lo < 1e-100 <= hi * (1.0 + 1e-15) and hi - lo <= 1e-12 * hi
    assert min(ts) < 1e-150 and len(set(ts)) == len(ts) == evals


def test_level_crossing_raises_where_the_crossing_rung_does_not_certify():
    # the first rung past the crossing at 1e-100 is below 1e-90, so a
    # rung-by-rung walk from the start raises there too
    def fn(t):
        if t < 1e-90:
            raise InconclusiveQuadratureError("no certified value")
        return (1e-100 / t) ** 2

    with pytest.raises(InconclusiveQuadratureError, match="no certified value"):
        cs._level_crossing(fn, 1.0, 1e-12)


@pytest.mark.parametrize("c", [1e-200, 3.7e5, 1e200])
def test_level_crossing_bisects_a_jump_from_inf_to_0(c):
    # the midpoint stays inside the bracket where lo * hi under- or overflows
    (lo, hi, f_lo, f_hi, evals, converged), ts = recorded_crossing(lambda t: math.inf if t < c else 0.0)
    assert converged and lo < c <= hi and (f_lo, f_hi) == (math.inf, 0.0)
    # past the bracket's rungs every step is the geometric midpoint
    a = max(t for t in ts if t < c and is_rung(t))
    b, n = 4.0 * a, ts.index(2.0 * a)
    for t in ts[n:]:
        assert a < t < b and t == pytest.approx(math.sqrt(a) * math.sqrt(b), rel=1e-14)
        a, b = (a, t) if t >= c else (t, b)
    assert len(ts) - n > 30


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


def power_or_inf(x, d):
    """x ** d, inf where the float power overflows."""
    try:
        return x**d
    except OverflowError:
        return math.inf


def linear_scan_cutoff(young, back, w, lo):
    """The power-tail truncation search as a linear scan over u *= 1.6; a
    candidate bound whose power overflows certifies nothing, nor does a
    start past the largest double."""
    so = young.small_order()
    a, g_exp, t0 = back.amplitude, back.exponent, back.offset
    kind, wtail = w.far_field()
    gamma_w = wtail.exponent if kind == "power" else 0.0
    kappa = g_exp * so.alpha + gamma_w
    u = max(t0, 1.0)
    if so.valid_to < math.inf:
        u = max(u, power_or_inf(a / so.valid_to, 1.0 / g_exp) - t0)
    while math.isfinite(u):
        cands = []
        if g_exp * so.alpha > 1.0:
            # where a**alpha overflows, the code forms this bound as
            # hi * (a * (t0 + u)**-g)**alpha * (t0 + u)
            if math.isfinite(power_or_inf(a, so.alpha)):
                env = so.hi * power_or_inf(a, so.alpha) * (t0 + u) ** (1.0 - g_exp * so.alpha)
            else:
                env = so.hi * power_or_inf(a * (t0 + u) ** (-g_exp), so.alpha) * (t0 + u)
            cands.append(env / (g_exp * so.alpha - 1.0) * w.value(lo + u))
        wm = w.mass(lo + u, math.inf)
        if math.isfinite(wm):
            cands.append(so.hi * power_or_inf(a * (t0 + u) ** (-g_exp), so.alpha) * wm)
        if kind == "power" and kappa > 1.0:
            cands.append(
                so.hi * power_or_inf(a, so.alpha) * wtail.amplitude
                * (min(t0, wtail.offset) + u) ** (1.0 - kappa) / (kappa - 1.0)
            )
        if cands and min(cands) < 0.5 * rr._ATOL:
            return u
        if u * 1.6 > 1e300:
            break
        u *= 1.6
    raise InconclusiveQuadratureError("power tail truncation did not certify")


POWER_WEIGHT = rr.DecreasingProfile(((1.0, 2.0),), rr.PowerTail(1.0, 0.3, 1.5))
EXP_WEIGHT = rr.DecreasingProfile(((1.0, 2.0),), rr.ExponentialTail(1.0, 0.5))
# (kappa, Young function, tail exponent, weight): kappa = exponent * alpha +
# gamma_w, with gamma_w the exponent of a power tail of the weight (0 for an
# exponential one); at kappa = 1.0001 the search's entry rung overflows and
# it starts from the first rung
CUTOFF_CASES = [
    (1.05, yg.identity(), 1.05, None),
    (1.05, yg.power(2.0), 0.375, POWER_WEIGHT),
    (1.1, yg.identity(), 1.1, None),
    (1.1, yg.cosh_minus_1(), 0.4, POWER_WEIGHT),
    (1.5, yg.xlog1p(), 0.75, None),
    (1.5, yg.power(1.5), 0.8, POWER_WEIGHT),
    (3.0, yg.power(2.0), 1.5, None),
    (3.0, yg.identity(), 2.7, POWER_WEIGHT),
    (0.5, yg.identity(), 0.5, EXP_WEIGHT),
    (3.0, yg.power(2.0), 1.5, EXP_WEIGHT),
    (1.0001, yg.identity(), 1.0001, None),
    (1.0001, yg.power(2.0), 0.35005, POWER_WEIGHT),
    (1.0001, yg.cosh_minus_1(), 0.50005, EXP_WEIGHT),
]


@pytest.mark.parametrize("kappa,young,exponent,weight", CUTOFF_CASES)
def test_power_tail_cutoff_equals_linear_scan(kappa, young, exponent, weight):
    w = rr._WeightView(weight)
    gamma_w = weight.tail.exponent if weight is not None and weight.tail.kind == "power" else 0.0
    assert exponent * young.small_order().alpha + gamma_w == pytest.approx(kappa)
    for amp in (1e-300, 2.0, 1e300):
        back = rr.PowerTail(amp, exponent, 1.25)
        for lo in (0.0, 0.5, 3.0):
            got = scanned(rr._power_tail_cutoff, young, back, w, lo)
            assert got == scanned(linear_scan_cutoff, young, back, w, lo), (amp, lo)


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


# The other certified cutoffs against linear scans of their ladders.  Each
# scan restates the truncation bound of the code; the code's cutoff is the
# rung its ladder search returned, with the quadrature stubbed out.


def searched_cutoff(monkeypatch, fn, *args):
    """The rung rr._first_holding returned while fn(*args) ran, None when
    fn did not search, or the message of the InconclusiveQuadratureError it
    raised."""
    found = []
    search = rr._first_holding
    monkeypatch.setattr(rr, "_first_holding",
                        lambda holds, rungs, *rest: found.append(search(holds, rungs, *rest)) or found[-1])
    monkeypatch.setattr(rr, "_integrate", lambda integrand, pieces: 0.0)
    try:
        fn(*args)
    except InconclusiveQuadratureError as exc:
        return str(exc)
    finally:
        monkeypatch.undo()
    assert len(found) <= 1
    return found[0] if found else None


def scanned(scan, *args):
    """scan(*args), or the message of the InconclusiveQuadratureError it raised."""
    try:
        return scan(*args)
    except InconclusiveQuadratureError as exc:
        return str(exc)


def linear_scan_log_head(young, head, w, m):
    """The log-head truncation search as a linear scan over y *= 1.5."""
    g = young.growth()
    c, y1 = head.coeff, math.log(1.0 / m)
    if g.kind == "exp":
        r = 1.0 - c * g.rate - w.inv_order
        k = 1.0 if w.has_log_head else 0.0
        amp = g.hi * w.head_coeff
        y_lo = max(y1, g.valid_from / c)
    else:
        r = 1.0 - w.inv_order
        k = g.degree + (0.5 if g.has_log else 0.0) + (1.0 if w.has_log_head else 0.0)
        amp = g.hi * power_or_inf(max(c, 1.0), g.degree) * 2.0 * (1.0 + abs(math.log(c))) * w.head_coeff
        y_lo = y1
    y = max(y_lo, y1 + 1.0, 2.0 / max(r, 1e-3))
    for _ in range(400):
        if amp * rr._gamma_tail(k, r, y) < 0.5 * rr._ATOL:
            return y
        y *= 1.5
    raise InconclusiveQuadratureError("log head truncation did not certify")


def linear_scan_inv_head(young, head, w, m):
    """The inverse-power-head truncation search in y = log(1/t) as a linear
    scan over y *= 2 up to the last rung y = log(1e280).  A cutoff on the
    last rung whose bound fails raises: the stubbed quadrature returns 0,
    whose relative budget is 0."""
    g = young.growth()
    y1, th = math.log(1.0 / m), head.exponent
    r = 1.0 - th * g.degree - w.inv_order
    k = (1.0 if g.has_log else 0.0) + (1.0 if w.has_log_head else 0.0)
    amp = (g.hi * power_or_inf(head.coeff, g.degree)
           * (2.0 * (1.0 + abs(math.log(head.coeff))) * (1.0 + th)) ** k * w.head_coeff)
    y, last = max(y1, 1.0, y1 + 1.0, 2.0 / max(r, 1e-3)), math.log(1e280)
    while y < last:
        if amp * rr._gamma_tail(k, r, y) < 0.5 * rr._ATOL:
            return y
        y *= 2.0
    if amp * rr._gamma_tail(k, r, last) < 0.5 * rr._ATOL:
        return last
    raise InconclusiveQuadratureError("inverse-power head truncation did not certify")


def linear_scan_exp_tail(young, profile, w):
    """The exponential-tail truncation search as a linear scan over u *= 1.6."""
    tail, lo = profile.tail, profile.steps_end
    j = max(min(profile.value(lo), young.finite_threshold), 1e-300)
    slope = float(young.eval(j)) / j
    u = max(10.0 / tail.rate, 1.0)
    for _ in range(200):
        rem = slope * tail.amplitude / tail.rate * math.exp(-tail.rate * u) * w.value(lo + u)
        wm = w.mass(lo + u, math.inf)
        if math.isfinite(wm):
            rem = min(rem, slope * tail.amplitude * math.exp(-tail.rate * u) * wm)
        if rem < 0.5 * rr._ATOL:
            return u
        u *= 1.6
    raise InconclusiveQuadratureError("exponential tail truncation did not certify")


def linear_scan_singular(heads, other, b):
    """The singular-piece cutoff eps as a linear scan over eps *= 0.1; inf
    when the heads' product diverges."""
    r_sup = 1.0 if other is None else other.sup_value
    eps = b
    while True:
        h = rr._heads_partial(heads, eps)
        if math.isinf(h):
            return math.inf
        r_inf = r_sup if other is None or other.steps else other.value(eps)
        if (r_sup - r_inf) * h < 0.5 * rr._ATOL:
            return eps
        if eps < 1e-290:
            raise InconclusiveQuadratureError("singular piece truncation did not certify")
        eps *= 0.1


CUTOFF_YOUNGS = {
    "power:1.5": yg.power(1.5),
    "power:3": yg.power(3.0),
    "cosh-1": yg.cosh_minus_1(),
    "llog": yg.llog(),
    "xlog1p": yg.xlog1p(),
    "llogl": yg.zygmund_llogl(),
    "lexp": yg.zygmund_exp(),
    "identity": yg.identity(),
}

CUTOFF_WEIGHTS = {
    "lebesgue": None,
    "steps": rr.DecreasingProfile(((3.0, 0.5), (1.0, 2.0))),
    "exponential": rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0)),
    "power": rr.DecreasingProfile((), rr.PowerTail(1.0, 2.0)),
    "power-slow": POWER_WEIGHT,
    "inv-power-head": rr.DecreasingProfile(((1.0, 1.0),), head=rr.InvPowerSingularity(1.0, 0.5, 1.0)),
    "log-head": rr.DecreasingProfile(((0.5, 1.0),), head=rr.LogSingularity(1.0, 0.5)),
    # a weight bound of 1e308 overflows every log-head bound: no rung certifies
    "huge": rr.DecreasingProfile(((1e308, 1.0),)),
}


@pytest.mark.parametrize("wname", CUTOFF_WEIGHTS)
@pytest.mark.parametrize("yname", CUTOFF_YOUNGS)
def test_log_head_cutoff_equals_linear_scan(monkeypatch, yname, wname):
    young, weight = CUTOFF_YOUNGS[yname], CUTOFF_WEIGHTS[wname]
    w = rr._WeightView(weight)
    checked = 0
    for c in (1e-300, 0.05, 0.3, 0.9, 0.999, 2.0, 40.0, 1e300):
        for width in (0.2, 1.0):
            head = rr.LogSingularity(c, width)
            if rr._finite_scale(young, rr.DecreasingProfile((), head=head), w) != 1.0:
                continue
            m = min([width, *(x for x in w.cuts() if x > 0)])
            got = searched_cutoff(monkeypatch, rr._head_value, young, head, w, m)
            assert got == scanned(linear_scan_log_head, young, head, w, m), (c, width)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("wname", CUTOFF_WEIGHTS)
@pytest.mark.parametrize("yname", CUTOFF_YOUNGS)
def test_inv_power_head_cutoff_equals_linear_scan(monkeypatch, yname, wname):
    # widths past 1 put the head's end y1 = log(1/m) below 0
    young, weight = CUTOFF_YOUNGS[yname], CUTOFF_WEIGHTS[wname]
    w = rr._WeightView(weight)
    checked = 0
    for c in (1e-300, 1e-30, 0.05, 0.9, 2.0, 40.0, 1e30, 1e300):
        for th in (0.05, 0.3, 0.6, 0.9, 0.99):
            for width in (0.2, 1.0, 3.0):
                head = rr.InvPowerSingularity(c, th, width)
                if rr._finite_scale(young, rr.DecreasingProfile((), head=head), w) != 1.0:
                    continue
                m = min([width, *(x for x in w.cuts() if x > 0)])
                got = searched_cutoff(monkeypatch, rr._head_value, young, head, w, m)
                assert got == scanned(linear_scan_inv_head, young, head, w, m), (c, th, width)
                checked += 1
    assert checked > 0 or young.growth().kind != "poly"


def test_log_head_cutoff_raises_when_no_rung_certifies():
    w = rr._WeightView(CUTOFF_WEIGHTS["huge"])
    head = rr.LogSingularity(0.5, 1.0)
    with pytest.raises(InconclusiveQuadratureError):
        linear_scan_log_head(yg.llog(), head, w, 1.0)
    with pytest.raises(InconclusiveQuadratureError, match="^log head truncation did not certify$"):
        rr.modular(yg.llog(), rr.DecreasingProfile((), head=head), CUTOFF_WEIGHTS["huge"])


@pytest.mark.parametrize("wname", CUTOFF_WEIGHTS)
@pytest.mark.parametrize("yname", [y for y in CUTOFF_YOUNGS if y != "llogl"])
def test_exp_tail_cutoff_equals_linear_scan(monkeypatch, yname, wname):
    # llogl vanishes below 1, so its tail region is cut where the tail
    # crosses 1 instead of by a truncation bound
    young, weight = CUTOFF_YOUNGS[yname], CUTOFF_WEIGHTS[wname]
    w = rr._WeightView(weight)
    for amp in (1e-300, 0.5, 3.0, 50.0, 700.0, 800.0, 1e300):
        for rate in (1e-3, 0.05, 0.7, 5.0):
            for steps in ((), ((1.5 * amp, 0.7),)):
                profile = rr.DecreasingProfile(steps, rr.ExponentialTail(amp, rate))
                got = searched_cutoff(monkeypatch, rr._tail_region_value, young, profile, w, None)
                assert got == scanned(linear_scan_exp_tail, young, profile, w), (amp, rate, steps)


def test_exp_tail_cutoff_raises_when_no_rung_certifies():
    # cosh(800) - 1 overflows: the convexity slope of the bound is inf
    profile = rr.DecreasingProfile((), rr.ExponentialTail(800.0, 1.0))
    with pytest.raises(InconclusiveQuadratureError):
        linear_scan_exp_tail(yg.cosh_minus_1(), profile, rr._WeightView(None))
    with pytest.raises(InconclusiveQuadratureError, match="^exponential tail truncation did not certify$"):
        rr.modular(yg.cosh_minus_1(), profile)


SINGULAR_HEADS = {
    "inv": (rr.InvPowerSingularity(1.0, 0.5, 1.0),),
    "inv-steep": (rr.InvPowerSingularity(2.0, 0.999, 1.0),),
    "inv-edge": (rr.InvPowerSingularity(1.0, 0.9999999999999999, 1.0),),
    "log": (rr.LogSingularity(1.0, 1.0),),
    "log-steep": (rr.LogSingularity(3.0, 0.5),),
    "inv+log": (rr.InvPowerSingularity(1.0, 0.3, 1.0), rr.LogSingularity(1.0, 1.0)),
    "inv+inv-divergent": (rr.InvPowerSingularity(1.0, 0.6, 1.0), rr.InvPowerSingularity(1.0, 0.5, 1.0)),
}

SINGULAR_OTHERS = {
    "none": None,
    "step": rr.DecreasingProfile(((2.0, 1.0),)),
    "step+tail": rr.DecreasingProfile(((2.0, 1.0),), rr.ExponentialTail(1.0, 1.0)),
    **{f"exp-{rate:g}": rr.DecreasingProfile((), rr.ExponentialTail(1.0, rate)) for rate in (1.0, 1e3, 1e100, 1e300)},
    **{
        f"power-{g:g}-{t0:g}": rr.DecreasingProfile((), rr.PowerTail(1.0, g, t0))
        for g, t0 in ((0.5, 1.0), (2.0, 1e-3), (3.0, 1e-50))
    },
}


@pytest.mark.parametrize("oname", SINGULAR_OTHERS)
@pytest.mark.parametrize("hname", SINGULAR_HEADS)
def test_singular_piece_cutoff_equals_linear_scan(monkeypatch, hname, oname):
    heads, other = SINGULAR_HEADS[hname], SINGULAR_OTHERS[oname]
    for b in (1e-300, 1e-3, 0.5):
        res = searched_cutoff(monkeypatch, rr._singular_piece, heads, other, None, b)
        want = scanned(linear_scan_singular, heads, other, b)
        if want == math.inf:
            assert math.isinf(rr._singular_piece(heads, other, None, b)), b
            assert res is None, b
        else:
            # no search for a constant factor: the cutoff is b itself
            assert (b if res is None else res) == want, b


def test_singular_piece_cutoff_raises_when_no_rung_certifies():
    # a steep head against a tail that drops from 1 to 0 within 1e-300:
    # the gap stays 1 while the head's partial integral stays near 1e3
    heads = SINGULAR_HEADS["inv-steep"]
    other = SINGULAR_OTHERS["exp-1e+300"]
    with pytest.raises(InconclusiveQuadratureError):
        linear_scan_singular(heads, other, 0.5)
    with pytest.raises(InconclusiveQuadratureError, match="^singular piece truncation did not certify$"):
        rr.cross_integral(rr.DecreasingProfile((), head=heads[0]), other, 0.5)
