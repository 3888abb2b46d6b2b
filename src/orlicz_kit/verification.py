"""Machine-checkable verification suite.

Each criterion is a pure function of a seed; the registry drives both the
command-line `verify` entry point and the pytest acceptance module.  Cases
inside a criterion derive their generator from the suite seed plus the
criterion id, so subset runs (--only) reproduce the full run's numbers and
two runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import classical_space as cs
from . import maps as mps
from . import quantum_space as qs
from . import rearrange as rr
from . import young as yg

__all__ = ["CriterionResult", "CRITERIA", "run_suite", "render_csv", "canonical_json"]


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    tags: tuple[str, ...]
    passed: bool
    measured: str
    tolerance: str


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(1_000_003 * seed + salt))


def _random_simple(rng, n_max=8, probability=False, positive=False, vmin=1e-2, vmax=1e2):
    n = int(rng.integers(1, n_max + 1))
    mags = np.exp(rng.uniform(math.log(vmin), math.log(vmax), n))
    vals = mags if positive else mags * rng.choice([-1.0, 1.0], n)
    ws = rng.uniform(0.1, 2.0, n)
    space = None
    if probability:
        ws = ws / ws.sum()
        space = rr.probability_space()
    return rr.simple_function(vals, ws, space)


def _random_matrix(rng, n, hermitian=False, positive=False, scale=1.0):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if positive:
        arr = g.conj().T @ g / (8.0 * n) * scale
        return qs.MatrixObservable.from_array(arr, hermitian=True)
    if hermitian:
        arr = (g + g.conj().T) / 2.0 * scale
        return qs.MatrixObservable.from_array(arr, hermitian=True)
    return qs.MatrixObservable.from_array(g * scale)


def _random_unitary(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _psi_inverse(young, targets):
    """Independent root of Psi(x) = target by plain bisection, elementwise
    (0 where target <= 0): hi doubles from 1 until Psi(hi) >= target, then
    (0, hi) is halved until every midpoint stops moving, at most 200 times."""
    t = np.asarray(targets, dtype=float)
    hi = np.ones_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(80):
            need = young.eval(hi) < t
            if not np.any(need):
                break
            hi = np.where(need, hi * 2.0, hi)
        lo = np.zeros_like(t)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.all((mid == lo) | (mid == hi) | (t <= 0)):
                break
            ge = young.eval(mid) >= t
            hi = np.where(ge, mid, hi)
            lo = np.where(ge, lo, mid)
    return np.where(t <= 0, 0.0, 0.5 * (lo + hi))


_CATALOG = (
    ("power:1", yg.power(1)),
    ("power:2", yg.power(2)),
    ("power:3", yg.power(3)),
    ("cosh-1", yg.cosh_minus_1()),
    ("llog", yg.llog()),
    ("xlog1p", yg.xlog1p()),
    ("llogl", yg.zygmund_llogl()),
    ("lexp", yg.zygmund_exp()),
    ("identity", yg.identity()),
)


# ----------------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------------


def _criterion_1(seed):
    """Complementarity: numeric complement of cosh-1 equals llog to 1e-9;
    Young's inequality on 1e4 random pairs per catalog complementary pair."""
    grid = yg.DEFAULT_EVAL_GRID
    numeric = yg.complement(yg.cosh_minus_1(), numeric=True)
    ref = yg.llog()(grid)
    rel = float(np.max(np.abs(numeric(grid) - ref) / ref))
    ok = rel <= 1e-9

    rng = _rng(seed, 1)
    u = rng.uniform(0.0, 50.0, 10_000)
    v = rng.uniform(0.0, 50.0, 10_000)
    violations = 0
    for _, y in _CATALOG:
        comp = yg.complement(y)
        lhs = u * v
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = y(u) + comp(v)
        slack = 64.0 * np.finfo(float).eps * np.maximum.reduce([lhs, np.where(np.isfinite(rhs), rhs, 0.0), np.ones_like(lhs)])
        violations += int(np.sum(lhs > rhs + slack))
    ok = ok and violations == 0
    return ok, f"max rel err {rel:.3e}, Young-inequality violations {violations}", "1e-9 rel; eps-scaled"


def _criterion_2(seed):
    """Luxemburg norm: matches the p-norm to 1e-10 on 1e3 random simple
    functions; indicator norms match an independent root-find to 1e-9."""
    rng = _rng(seed, 2)
    worst = 0.0
    exps = (1.0, 2.0, 3.5)
    for i in range(1000):
        f = _random_simple(rng)
        p = exps[i % 3]
        got = cs.luxemburg_norm(yg.power(p), f).value
        ref = float(np.sum(f.weights * np.abs(f.values) ** p) ** (1.0 / p))
        worst = max(worst, abs(got - ref) / ref)
    ok = worst <= 1e-10

    worst_ind = 0.0
    for m in (0.05, 0.2, 0.5, 1.0, 2.0, 8.0):
        for y in (yg.power(2), yg.cosh_minus_1(), yg.llog(), yg.xlog1p(), yg.zygmund_exp()):
            got = cs.luxemburg_norm(y, rr.simple_function([1.0], [m])).value
            ref = 1.0 / float(_psi_inverse(y, 1.0 / m))
            worst_ind = max(worst_ind, abs(got - ref) / ref)
    ok = ok and worst_ind <= 1e-9
    return ok, f"p-norm rel {worst:.3e}, indicator rel {worst_ind:.3e}", "1e-10; 1e-9"


def _sup_oracle(young, f, rounds=5, base_pts=25):
    """Brute-force dual supremum sup{sum |f_i| g_i w_i : sum Phi(g_i) w_i <= 1}
    on <= 4 atoms by grid search with iterative zoom; Phi = complement."""
    comp = yg.complement(young)
    w = f.weights
    av = np.abs(f.values)
    n = len(w)
    caps = _psi_inverse(comp, 1.0 / w)

    def last_coord(budget, wlast):
        # solve Phi(g) * wlast = budget
        return _psi_inverse(comp, np.maximum(budget, 0.0) / wlast)

    if n == 1:
        return float(av[0] * caps[0] * w[0])

    los = np.zeros(n - 1)
    his = caps[: n - 1].copy()
    best = 0.0
    for _ in range(rounds):
        axes = [np.linspace(lo, hi, base_pts) for lo, hi in zip(los, his)]
        mesh = np.meshgrid(*axes, indexing="ij")
        gs = np.stack([m.ravel() for m in mesh], axis=1)
        spent = np.sum(comp(gs) * w[: n - 1], axis=1)
        budget = 1.0 - spent
        feas = budget >= 0
        vals = np.full(gs.shape[0], -np.inf)
        glast = last_coord(np.where(feas, budget, 0.0), w[-1])
        vals[feas] = (gs[feas] @ (av[: n - 1] * w[: n - 1])) + av[-1] * glast[feas] * w[-1]
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        center = gs[i]
        span = (his - los) / (base_pts - 1) * 2.0
        los = np.maximum(center - span, 0.0)
        his = np.minimum(center + span, caps[: n - 1])
    return best


def _criterion_3(seed):
    """Duality: Hoelder on 1e4 random pairs; Amemiya equals the brute-force
    supremum to 1e-4 on <= 4 atoms; Lux <= Orl <= 2 Lux on 1e3 cases."""
    rng = _rng(seed, 3)
    holder_fail = 0
    for i in range(10_000):
        n = int(rng.integers(1, 7))
        w = rng.uniform(0.1, 2.0, n)
        f = rr.simple_function(rng.uniform(-5, 5, n), w)
        g = rr.simple_function(rng.uniform(-5, 5, n), w)
        # power:3 bulk, llog (whose complement is cosh-1, the Koethe-dual
        # pairing) every 7th case, xlog1p (numeric conjugate) every 50th
        if i % 50 == 0:
            young = yg.xlog1p()
        elif i % 7 == 0:
            young = yg.llog()
        else:
            young = yg.power(3)
        if not cs.holder_check(f, g, young).holds:
            holder_fail += 1
    ok = holder_fail == 0

    worst_am = 0.0
    for i in range(36):
        n = int(rng.integers(1, 5))
        f = rr.simple_function(
            np.exp(rng.uniform(math.log(0.2), math.log(5.0), n)), rng.uniform(0.2, 2.0, n)
        )
        young = (yg.power(2), yg.power(3), yg.cosh_minus_1())[i % 3]
        am = cs.orlicz_norm(young, f).value
        sup = _sup_oracle(young, f)
        worst_am = max(worst_am, abs(am - sup) / max(am, 1e-300))
    ok = ok and worst_am <= 1e-4

    sandwich_fail = 0
    for i in range(1000):
        f = _random_simple(rng, n_max=6, vmin=1e-1, vmax=1e1)
        young = (yg.power(2), yg.cosh_minus_1(), yg.xlog1p())[i % 3]
        lux = cs.luxemburg_norm(young, f).value
        orl = cs.orlicz_norm(young, f).value
        if not (lux <= orl * (1 + 1e-9) and orl <= 2 * lux * (1 + 1e-9)):
            sandwich_fail += 1
    ok = ok and sandwich_fail == 0
    return (
        ok,
        f"Hoelder fails {holder_fail}, Amemiya-vs-sup rel {worst_am:.3e}, sandwich fails {sandwich_fail}",
        "0; 1e-4; 0",
    )


def _criterion_4(seed):
    """Equivalent Young functions give the same space: (xlog1p, llog)
    membership verdicts agree on the profile family and norm ratios stay
    within the discovered equivalence constants on 1e3 random functions."""
    rep = yg.equivalence_check(yg.xlog1p(), yg.llog())
    ok = rep.equivalent
    disagreements = 0
    fam = [
        rr.DecreasingProfile(((3.0, 0.3), (1.0, 0.5))),
        rr.DecreasingProfile(head=rr.LogSingularity(0.5, 1.0)),
        rr.DecreasingProfile(head=rr.LogSingularity(2.0, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 0.5, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 0.8, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 1.5, 1.0)),
        rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0)),
        rr.DecreasingProfile((), rr.PowerTail(1.0, 0.4)),
        rr.DecreasingProfile((), rr.PowerTail(1.0, 2.0)),
    ]
    for p in fam:
        m1 = cs.membership(yg.xlog1p(), p).member
        m2 = cs.membership(yg.llog(), p).member
        disagreements += int(m1 != m2)
    ok = ok and disagreements == 0

    rng = _rng(seed, 4)
    lo_bound = 1.0 / rep.b_forward * (1 - 1e-9)
    hi_bound = rep.b_backward * (1 + 1e-9)
    ratio_fail = 0
    for _ in range(1000):
        f = _random_simple(rng, n_max=6)
        n1 = cs.luxemburg_norm(yg.xlog1p(), f).value
        n2 = cs.luxemburg_norm(yg.llog(), f).value
        r = n1 / n2
        if not (lo_bound <= r <= hi_bound):
            ratio_fail += 1
    ok = ok and ratio_fail == 0
    return (
        ok,
        f"b=({rep.b_forward:g},{rep.b_backward:g}), member disagreements {disagreements}, ratio fails {ratio_fail}",
        "agree; ratios in [1/b, b']",
    )


def _criterion_5(seed):
    """Embedding chain on probability spaces: finiteness is monotone along
    Linf -> Lexp -> Lp -> LlogL -> L1 for 1e3 simple functions and for every
    tail profile in the family."""
    rng = _rng(seed, 5)
    bad = 0
    for i in range(1000):
        f = _random_simple(rng, probability=True)
        rep = cs.embedding_chain_check(f, p=(2.0, 3.0)[i % 2])
        if not (rep.finiteness_monotone and all(math.isfinite(v) for v in rep.norms)):
            bad += 1
    profiles = [
        rr.DecreasingProfile(((2.0, 0.5), (1.0, 0.5))),
        rr.DecreasingProfile(head=rr.LogSingularity(0.5, 1.0)),
        rr.DecreasingProfile(head=rr.LogSingularity(1.0, 1.0)),
        rr.DecreasingProfile(head=rr.LogSingularity(2.0, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 0.3, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 0.6, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 0.9, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 1.2, 1.0)),
    ]
    bad_prof = 0
    for p in profiles:
        for pexp in (2.0, 3.0):
            _, monotone = cs.embedding_chain_membership(p, p=pexp)
            bad_prof += int(not monotone)
    ok = bad == 0 and bad_prof == 0
    return ok, f"simple-function violations {bad}, profile violations {bad_prof}", "none permitted"


def _criterion_6(seed):
    """Entropy bounds: -(2/e)||sqrt f||_1 <= H+(f) <= integral f log(f+1) on
    1e3 random nonnegative functions; both bounds within a factor 10 on
    constructed near-extremal cases."""
    rng = _rng(seed, 6)
    fails = 0
    for _ in range(1000):
        f = _random_simple(rng, positive=True, vmin=1e-3, vmax=1e3)
        h = cs.entropy_plus(f)
        lower = -(2.0 / math.e) * float(np.sum(f.weights * np.sqrt(f.values)))
        upper = float(np.sum(f.weights * f.values * np.log1p(f.values)))
        scale = max(abs(h), abs(lower), abs(upper), 1.0)
        if not (lower - 1e-12 * scale <= h <= upper + 1e-12 * scale):
            fails += 1
    # lower bound is tight at f = e^-2 (pointwise equality), upper as f -> inf
    f_lo = rr.simple_function([math.exp(-2.0)], [1.0], rr.probability_space())
    h_lo = cs.entropy_plus(f_lo)
    b_lo = -(2.0 / math.e) * float(np.sum(f_lo.weights * np.sqrt(f_lo.values)))
    ratio_lo = b_lo / h_lo
    big = math.exp(5.0)
    f_hi = rr.simple_function([big], [1.0], rr.probability_space())
    h_hi = cs.entropy_plus(f_hi)
    b_hi = float(np.sum(f_hi.weights * f_hi.values * np.log1p(f_hi.values)))
    ratio_hi = b_hi / h_hi
    tight = 0.1 <= ratio_lo <= 10.0 and 0.1 <= ratio_hi <= 10.0
    ok = fails == 0 and tight
    return (
        ok,
        f"bound fails {fails}, tightness ratios ({ratio_lo:.3f}, {ratio_hi:.3f})",
        "0 fails; ratios within 10x",
    )


def _criterion_7(seed):
    """Kunze and singular-value modulars agree to 1e-12 relative on 1e3
    random matrices up to 16x16 for every catalog function; power norms
    equal Schatten norms to 1e-10."""
    rng = _rng(seed, 7)
    worst = 0.0
    for i in range(1000):
        n = int(rng.integers(1, 17))
        a = _random_matrix(rng, n, scale=1.0 / math.sqrt(n))
        name, y = _CATALOG[i % len(_CATALOG)]
        lam = (0.5, 1.0, 2.0)[i % 3]
        k = qs.kunze_modular(y, a, lam=lam)
        d = rr.modular(y, qs.singular_profile(a).scale(1.0 / lam))
        worst = max(worst, abs(k - d) / max(k, d, 1e-300))
    ok = worst <= 1e-12

    worst_s = 0.0
    for i in range(300):
        n = int(rng.integers(1, 13))
        a = _random_matrix(rng, n)
        p = (1.0, 2.0, 3.0)[i % 3]
        got = qs.nc_norm(yg.power(p), a).value
        ref = float(np.sum(np.linalg.svd(np.asarray(a.entries), compute_uv=False) ** p) ** (1 / p))
        worst_s = max(worst_s, abs(got - ref) / max(ref, 1e-300))
    ok = ok and worst_s <= 1e-10
    return ok, f"trace-identity rel {worst:.3e}, Schatten rel {worst_s:.3e}", "1e-12; 1e-10"


def _criterion_8(seed):
    """Quantum regularity equals weighted cosh-1 membership across the
    parametric family (>= 12 configurations, zero disagreements)."""
    rng = _rng(seed, 8)
    weights = [
        rr.DecreasingProfile((), rr.ExponentialTail(1.0, 1.0)),
        rr.DecreasingProfile((), rr.PowerTail(1.0, 2.0)),
    ]
    gs = [
        rr.DecreasingProfile(((2.0, 1.0), (1.0, 2.0))),
        rr.DecreasingProfile(((1.0, 1.0),), rr.ExponentialTail(1.0, 2.0)),
        rr.DecreasingProfile(head=rr.LogSingularity(0.5, 1.0)),
        rr.DecreasingProfile(head=rr.LogSingularity(1.0, 1.0)),
        rr.DecreasingProfile(head=rr.LogSingularity(2.0, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 0.5, 1.0)),
        rr.DecreasingProfile(head=rr.InvPowerSingularity(1.0, 1.0, 1.0)),
        qs.singular_profile(_random_matrix(rng, 6, positive=True)),
    ]
    total, disagree = 0, 0
    for w in weights:
        for g in gs:
            total += 1
            if not qs.quantum_pistone_sempi_crosscheck(g, w).agrees:
                disagree += 1
    ok = total >= 12 and disagree == 0
    return ok, f"{total} configurations, {disagree} disagreements", "0 disagreements"


def _criterion_9(seed):
    """Quantum entropy: spectral bounds on 1e3 random positive matrices and
    monotonicity of tau(f log(f+eps)) in eps."""
    rng = _rng(seed, 9)
    fails = 0
    mono_fails = 0
    eps_grid = (0.0, 1e-3, 1e-1, 1.0)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        f = _random_matrix(rng, n, positive=True)
        lam = np.clip(np.linalg.eigvalsh(np.asarray(f.entries)), 0.0, None)
        h = qs.nc_entropy(f)
        lower = -(2.0 / math.e) * float(np.sum(np.sqrt(lam)))
        upper = float(np.sum(lam * np.log1p(lam)))
        scale = max(abs(h), abs(lower), abs(upper), 1.0)
        if not (lower - 1e-12 * scale <= h <= upper + 1e-12 * scale):
            fails += 1
        vals = [qs.nc_entropy(f, eps=e) for e in eps_grid]
        if any(b < a - 1e-12 * max(abs(a), 1.0) for a, b in zip(vals, vals[1:])):
            mono_fails += 1
    ok = fails == 0 and mono_fails == 0
    return ok, f"bound fails {fails}, eps-monotonicity fails {mono_fails}", "0; 0"


def _criterion_10(seed):
    """Positive-map boundedness: pinching contracts (ratio <= 1, certified by
    majorization per sample) for four Young functions on 1e3 positive
    matrices; unitary conjugation has ratio 1 to 1e-12."""
    rng = _rng(seed, 10)
    pin = mps.Pinching(((0, 1, 2), (3, 4, 5)))
    youngs = (yg.power(1), yg.power(2), yg.cosh_minus_1(), yg.xlog1p())
    worst_ratio = 0.0
    maj_fails = 0
    for i in range(1000):
        a = _random_matrix(rng, 6, positive=True)
        y = youngs[i % 4]
        na = qs.nc_norm(y, a).value
        ta = pin.apply(a)
        nt = qs.nc_norm(y, ta).value
        worst_ratio = max(worst_ratio, nt / na)
        if not mps.majorization_check(a, ta).majorized:
            maj_fails += 1
    ok = worst_ratio <= 1.0 + 1e-9 and maj_fails == 0

    worst_u = 0.0
    for i in range(100):
        a = _random_matrix(rng, 6, positive=True)
        u = mps.UnitaryConjugation(_random_unitary(rng, 6))
        y = youngs[i % 4]
        r = qs.nc_norm(y, u.apply(a)).value / qs.nc_norm(y, a).value
        worst_u = max(worst_u, abs(r - 1.0))
    ok = ok and worst_u <= 1e-12
    return (
        ok,
        f"pinching max ratio {worst_ratio:.12f}, majorization fails {maj_fails}, unitary |r-1| {worst_u:.3e}",
        "<= 1+1e-9; 0; 1e-12",
    )


def _criterion_11(seed):
    """Full symmetry: on 1e3 constructed majorized pairs the Luxemburg norm
    is monotone within 1e-9."""
    rng = _rng(seed, 11)
    youngs = (yg.power(1.5), yg.cosh_minus_1(), yg.xlog1p(), yg.zygmund_exp())
    fails = 0
    pin = mps.Pinching(((0, 1), (2, 3), (4, 5)))
    for i in range(1000):
        y = youngs[i % 4]
        if i % 2 == 0:
            a = _random_matrix(rng, 6, positive=True)
            g = pin.apply(a)
            pf, pg = qs.singular_profile(a), qs.singular_profile(g)
        else:
            lv = np.sort(np.exp(rng.uniform(-1.5, 1.5, 5)))[::-1]
            pf = rr.DecreasingProfile(tuple((float(v), 1.0) for v in lv))
            j = int(rng.integers(0, 4))
            avg = 0.5 * (lv[j] + lv[j + 1])
            lv2 = lv.copy()
            lv2[j] = lv2[j + 1] = avg
            pg = rr._step_profile((v, 1.0) for v in lv2.tolist())
        if not mps.majorization_check(pf, pg).majorized:
            fails += 1
            continue
        nf = cs.luxemburg_norm(y, pf).value
        ng = cs.luxemburg_norm(y, pg).value
        if ng > nf * (1 + 1e-9):
            fails += 1
    ok = fails == 0
    return ok, f"monotonicity fails {fails} / 1000", "0 at 1e-9"


def _criterion_12(seed, only=None, prior=None):
    """Determinism: two suite runs with the same seed produce byte-identical
    reports for criteria 1-11.  The current run's results stand in for the
    first run; one fresh run provides the second."""
    if prior is None:
        prior = run_suite(seed, only=only, include_determinism=False)["criteria"]
    fresh = run_suite(seed, only=only, include_determinism=False)["criteria"]
    b1 = canonical_json({"criteria": prior}).encode()
    b2 = canonical_json({"criteria": fresh}).encode()
    ok = b1 == b2
    return ok, f"report bytes {'identical' if ok else 'differ'} ({len(b1)} bytes)", "byte-identical"


CRITERIA = (
    (1, "complementary pair and Young's inequality", ("young",), _criterion_1),
    (2, "Luxemburg norm correctness", ("classical",), _criterion_2),
    (3, "duality: Hoelder, Amemiya vs supremum, two-sided bound", ("classical",), _criterion_3),
    (4, "equivalent Young functions give the same space", ("young", "classical"), _criterion_4),
    (5, "embedding chain finiteness monotonicity", ("classical",), _criterion_5),
    (6, "entropy bounds with explicit constants", ("classical",), _criterion_6),
    (7, "trace modular equals singular-value modular", ("quantum",), _criterion_7),
    (8, "quantum regularity equals weighted membership", ("quantum",), _criterion_8),
    (9, "quantum entropy bounds and eps-monotonicity", ("quantum",), _criterion_9),
    (10, "positive-map contraction and unitary invariance", ("maps",), _criterion_10),
    (11, "full symmetry of Luxemburg norms", ("maps",), _criterion_11),
    (12, "determinism of the verification report", ("cli",), _criterion_12),
)


def _selected(only: str | None):
    if not only:
        return CRITERIA
    key = only.strip().lower()
    picked = []
    for cid, name, tags, fn in CRITERIA:
        if key == str(cid) or key in tags or key in name.lower():
            picked.append((cid, name, tags, fn))
    return tuple(picked)


def run_suite(
    seed: int = 42,
    only: str | None = None,
    include_determinism: bool = True,
    timings: dict[int, float] | None = None,
) -> dict:
    """Run the selected criteria in registry order and assemble the
    canonical report dict.  A `timings` dict receives each criterion's wall
    time in seconds, keyed by id; the report does not depend on it."""
    results = []
    # criterion 12 is last in the registry, so it sees every other result
    for cid, name, tags, fn in _selected(only):
        if cid == 12 and not include_determinism:
            continue
        start = time.perf_counter()
        args = (seed, only, [asdict(r) for r in results]) if cid == 12 else (seed,)
        results.append(CriterionResult(cid, name, tags, *fn(*args)))
        if timings is not None:
            timings[cid] = time.perf_counter() - start
    return {
        "tool": "orlicz-kit",
        "version": __version__,
        "seed": seed,
        "only": only,
        "criteria": [asdict(r) for r in results],
        "all_passed": all(r.passed for r in results),
    }


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def render_csv(report: dict) -> str:
    """Flat CSV projection of the suite report."""
    lines = ["cid,name,passed,measured,tolerance"]
    for c in report["criteria"]:
        name = c["name"].replace('"', "'")
        measured = c["measured"].replace('"', "'")
        lines.append(f'{c["cid"]},"{name}",{c["passed"]},"{measured}","{c["tolerance"]}"')
    return "\n".join(lines) + "\n"
