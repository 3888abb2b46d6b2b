"""Classical Orlicz-space computations.

Luxemburg norms are the level-1 crossing of the modular
lambda -> M(f/lambda) = integral Psi(|f|/lambda) dmu, which is
non-increasing: a bracket lo < hi with M(f/lo) > 1 >= M(f/hi), found by a
gallop over the x4 ladder while lambda and 1/lambda are finite doubles, is
shrunk by regula falsi with the Illinois modification (Dowell & Jarratt,
1971) on (log lambda, log M).  For power Young functions log M is exactly
linear in log lambda, and for the catalog functions nearly so, so a few
steps suffice where bisection takes about forty.  A geometric bisection
step is taken instead when an end has M = 0 or M = inf (flat stretches and
threshold jumps), when the interpolant is not strictly inside the bracket,
and when the bracket has not halved within a few steps.  The witness
returned is the upper (feasible) end of the final bracket, so a converged
report always has modular_at_witness <= 1, and within 1e-8 of 1 when the
modular is continuous at the crossing.

The Orlicz (dual-pairing) norm is the Amemiya formula
inf_{k>0} (1 + modular(k*f)) / k, minimised as a level crossing on the same
loop, in t = 1/k (Krasnosel'skii & Rutickii, Convex Functions and Orlicz
Spaces, sections 9-10; Hudzik & Maligranda, Indag. Math. 2000): the root of
Young's equality for step-only profiles, and for profiles with analytic
parts the point past which g(t/s) > g(t s) fails, for the objective g in t,
which is convex, so that the minimiser is certified within a factor s.
Limits, jumps and kinks the searches cannot reach are decided in closed
form or evaluated directly: for step-only profiles Q jumps where a level
reaches a kink of Psi, and one batched evaluation of Q at every such jump
and just past it decides a minimiser on a jump before any search, or bounds
the continuous piece of Q the search runs in.  The defining supremum over
the dual ball is left to test oracles on tiny atom spaces.

For step-only profiles both norms use an exact step modular: the levels are
checked and the weight masses computed once per norm, and every evaluation
of the modular or of Q goes straight to the Young function's array kernel.
Profiles with analytic parts evaluate the modular by quadrature, point by
point.

Membership in L^Psi asks for some lambda > 0 with a finite modular (Rao &
Ren, Theory of Orlicz Spaces, 1991, ch. III).  The modular's comparison
tests decide it as lambda -> 0 without quadrature: the witness is the
largest lambda = 2^-k passing c*lambda*rate + theta_w < 1 for a log head
under exp growth and lambda*sup <= thr under a finiteness threshold, the
two that depend on lambda.  An overflowing finite Psi is no divergence.

The regularity check computes the interval of parameters t for which the
moment transform integral exp(t*u) f dmu is finite.  Profiles stand for |u|,
so the reported domain is symmetrized: (-U, U) when some positive t works,
and the one-sided (-inf, 0] when none does.  The verdict is cross-checked
against membership in the weighted cosh-1 space, which must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, takewhile

import numpy as np

from .errors import DomainError, InconclusiveQuadratureError
from .rearrange import (
    DecreasingProfile,
    LogSingularity,
    SimpleFunction,
    _WeightView,
    _check_aligned,
    _finite_scale,
    _first_holding,
    _ladder,
    hl_partial,
    modular,
    rearrange,
    simple_function,
)
from .young import YoungFunction, cosh_minus_1, complement, identity, power, xlog1p, zygmund_exp

__all__ = [
    "NormReport",
    "MembershipReport",
    "HolderReport",
    "EmbeddingChainReport",
    "DomainInterval",
    "ClassicalRegularityReport",
    "WeightedDensityState",
    "membership",
    "luxemburg_norm",
    "orlicz_norm",
    "holder_check",
    "pairing_integral",
    "embedding_chain_check",
    "embedding_chain_membership",
    "entropy_plus",
    "entropy",
    "classical_regular_check",
]

#: Step budget of the Illinois phase of the Luxemburg and Amemiya norms.
_MAX_ITER = 200
#: Luxemburg search steps allowed without halving the bracket before a
#: geometric bisection step is forced.
_STALL_STEPS = 3


@dataclass(frozen=True)
class NormReport:
    """Outcome of a norm computation: value, optimal parameter, diagnostics."""

    value: float
    witness: float | None
    iterations: int
    converged: bool
    bracket: tuple[float, float] | None
    modular_at_witness: float | None = None


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    lambda_witness: float | None


@dataclass(frozen=True)
class HolderReport:
    lhs: float
    rhs: float
    holds: bool
    luxemburg_f: float
    orlicz_g: float


@dataclass(frozen=True)
class DomainInterval:
    lower: float
    upper: float
    lower_closed: bool = False
    upper_closed: bool = False

    @property
    def contains_zero_in_interior(self) -> bool:
        return self.lower < 0.0 < self.upper

    def as_tuple(self):
        return (self.lower, self.upper, self.lower_closed, self.upper_closed)


@dataclass(frozen=True)
class ClassicalRegularityReport:
    regular: bool
    domain: DomainInterval
    member: bool
    agrees: bool


@dataclass(frozen=True)
class WeightedDensityState:
    """A probability density f >= 0 with unit integral, used as a weight."""

    f: SimpleFunction

    def __post_init__(self):
        if np.any(self.f.values < 0):
            raise DomainError("density state must be nonnegative")
        mass = float(np.sum(self.f.values * self.f.weights))
        if abs(mass - 1.0) > 1e-12:
            raise DomainError("density state must integrate to 1")


def _merge_density(f: SimpleFunction, density: SimpleFunction) -> SimpleFunction:
    """Atoms of f reweighted by an aligned density: weights w_i * d_i."""
    _check_aligned(f, density)
    atoms = []
    for (v, w), (d, _) in zip(f.atoms, density.atoms):
        if d < 0:
            raise DomainError("density values must be nonnegative")
        if d * w > 0:
            atoms.append((v, d * w))
    return SimpleFunction(tuple(atoms), f.space) if atoms else simple_function([], [])


def _as_profile_weight(f, weight):
    """Normalize (f, weight) to (DecreasingProfile, profile weight or None)."""
    if isinstance(f, SimpleFunction):
        if weight is None:
            return rearrange(f), None
        if isinstance(weight, WeightedDensityState):
            weight = weight.f
        if isinstance(weight, SimpleFunction):
            return rearrange(_merge_density(f, weight)), None
        raise DomainError("a simple function takes an aligned simple-function density")
    if isinstance(f, DecreasingProfile):
        if weight is None or isinstance(weight, DecreasingProfile):
            return f, weight
        raise DomainError("a profile takes a profile weight")
    raise DomainError(f"unsupported input type {type(f).__name__}")


def membership(young: YoungFunction, f, weight=None) -> MembershipReport:
    """Is f in L^Psi, i.e. is the modular of lambda*f finite for some
    lambda > 0?  The comparison tests of rearrange._finite_scale decide it
    without quadrature: the witness is the largest lambda = 2^-k passing
    them, None when the modular diverges at every scale."""
    p, w = _as_profile_weight(f, weight)
    lam = _finite_scale(young, p, _WeightView(w))
    return MembershipReport(lam is not None, lam)


def _step_levels(p: DecreasingProfile, w):
    """For a step-only profile, its levels and the weight masses of their
    steps, restricted to positive masses; None when it has analytic parts."""
    if p.head is not None or p.support_end == math.inf:
        return None
    levels = np.asarray([l for l, _ in p.steps])
    if w is None:
        masses = np.asarray([length for _, length in p.steps])
    else:
        wv = _WeightView(w)
        edges = (0.0, *p.step_edges)
        masses = np.asarray([wv.mass(a, b) for a, b in zip(edges[:-1], edges[1:])])
    keep = masses > 0
    levels, masses = levels[keep], masses[keep]
    if np.any(levels < 0):
        raise DomainError("Young functions are defined for s >= 0")
    return levels, masses


def _step_sum(kernel, levels: np.ndarray, masses: np.ndarray):
    """scales -> sum_i masses_i * kernel(scale * levels_i).

    Each call evaluates every (scale, level) pair in one kernel call and sums
    along the levels with np.add.reduce, the routine np.sum uses, so a single
    scale gives exactly the value of the one-dimensional sum.  A scalar scale
    gives a 0-d result, an array of scales an array of sums."""

    def total(scales):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = kernel(np.asarray(scales)[..., None] * levels)
            return np.add.reduce(vals * masses, axis=-1)

    return total


def _step_modular_fn(young: YoungFunction, p: DecreasingProfile, w):
    """For a step-only profile, a fast scales -> modular(scale * p) map: the
    levels are checked and the weight masses computed once, here, and each
    call goes straight to the Young function's array kernel.  Returns None
    when the profile has analytic parts."""
    steps = _step_levels(p, w)
    return None if steps is None else _step_sum(young._eval_arr, *steps)


def _log_modular(m: float) -> float:
    """log of a modular value, with log 0 = -inf (and log inf = inf)."""
    return math.log(m) if m > 0.0 else -math.inf


def _level_crossing(fn, start: float, tol: float, known=None):
    """Bracket and solve fn(t) = 1 for fn > 1 left of a point, <= 1 right of it.

    fn is memoised, seeded with `known` (points t -> fn(t) the caller has
    already evaluated); the bracket is its tightest evaluated pair after one
    _first_holding search over the x4 ladder from `start`, up if fn(start)
    > 1 and down otherwise, while t and 1/t (where callers evaluate) are
    positive finite doubles and short of the nearest known point past the
    crossing, which ends the ladder.  A rung whose fn raises
    InconclusiveQuadratureError counts as past the crossing, and its error
    is raised only if it is the crossing rung, which a rung-by-rung walk
    from start evaluates too.  Safeguarded Illinois regula falsi on
    (log t, log fn) then shrinks the bracket to relative width tol.
    Returns (lo, hi, fn(lo), fn(hi), evaluations, converged), counting the
    known points out.  Without a crossing, converged is False and lo = hi is
    the ladder's last rung."""
    known = known or {}
    seen, failed = dict(known), {}
    if start not in seen:
        seen[start] = fn(start)

    def past(t: float) -> bool:
        if t not in seen:  # _first_holding reads each rung once, start first
            try:
                seen[t] = fn(t)
            except InconclusiveQuadratureError as err:
                failed[t] = err
        return t in failed or (seen[t] > 1.0) != up

    up = seen[start] > 1.0
    rungs = takewhile(lambda t: 0.0 < t < math.inf and 1.0 / t < math.inf, _ladder(start, 4.0 if up else 0.25))
    ends = [t for t, m in known.items() if (t > start) == up and (m > 1.0) != up]
    if ends:
        end = min(ends) if up else max(ends)
        rungs = chain(takewhile(lambda t: t < end if up else t > end, rungs), [end])
    cross = _first_holding(past, rungs)
    if cross in failed:
        raise failed[cross]
    if cross is None:
        end = max(seen) if up else min(seen)
        return end, end, seen[end], seen[end], len(seen) - len(known), False
    lo = max(t for t, m in seen.items() if m > 1.0)
    hi = min(t for t in seen if t > lo)

    # The interpolant's log-scale offset from lo is kept a tenth of the
    # tolerance inside each end, so a root next to an end closes the bracket
    # in one more step, with hi within about tol/10 of a root the interpolant
    # hit.
    g_lo, g_hi = _log_modular(seen[lo]), _log_modular(seen[hi])
    kept = 0  # +1 after a step that kept lo, -1 after one that kept hi
    width, stalled = math.log(hi / lo), 0
    steps = 0
    while steps < _MAX_ITER and (hi - lo) > tol * hi:
        span = math.log(hi / lo)
        t = math.sqrt(lo) * math.sqrt(hi)
        forced = stalled >= _STALL_STEPS
        if not forced and math.isfinite(g_lo) and math.isfinite(g_hi):
            gap = min(0.1 * tol, 0.5 * span)
            cand = lo * math.exp(min(max(span * g_lo / (g_lo - g_hi), gap), span - gap))
            if lo < cand < hi:
                t = cand
        m = seen[t] = fn(t)
        if m <= 1.0:
            hi, g_hi = t, _log_modular(m)
            if kept == 1:
                g_lo *= 0.5
            kept = 1
        else:
            lo, g_lo = t, _log_modular(m)
            if kept == -1:
                g_hi *= 0.5
            kept = -1
        span = math.log(hi / lo)
        if forced or span <= 0.5 * width:
            width, stalled = span, 0
        else:
            stalled += 1
        steps += 1
    return lo, hi, seen[lo], seen[hi], len(seen) + len(failed) - len(known), (hi - lo) <= tol * hi


def luxemburg_norm(
    young: YoungFunction,
    f,
    weight=None,
    *,
    tol: float = 1e-12,
) -> NormReport:
    """inf{lambda > 0 : modular(f / lambda) <= 1} by safeguarded Illinois
    regula falsi on (log lambda, log modular).

    The search stops when the bracket's relative width is at most tol; each
    iteration is one modular evaluation, and modular_at_witness reuses the
    one taken at the witness.  Returns 0 for f = 0 and +inf for non-members.
    When the modular jumps across level 1 (threshold kinds), every step is a
    geometric bisection, the returned witness is the boundary infimum and
    modular_at_witness records the sub-unit value."""
    p, w = _as_profile_weight(f, weight)
    if p.is_zero:
        return NormReport(0.0, None, 0, True, None, 0.0)

    fast = _step_modular_fn(young, p, w)
    pre = membership(young, p, w) if fast is None else MembershipReport(True, None)
    if not pre.member:
        return NormReport(math.inf, None, 0, True, None, math.inf)

    def mod_at(lam: float) -> float:
        return modular(young, p.scale(1.0 / lam), w) if fast is None else float(fast(1.0 / lam))

    # a witness below 2^-1022 would put the start past the largest double
    start = 1.0 if pre.lambda_witness is None else max(1.0, 2.0 / max(pre.lambda_witness, 2.0**-1022))
    lo, hi, _, m_hi, iters, converged = _level_crossing(mod_at, start, tol)
    if m_hi > 1.0:
        return NormReport(math.inf, None, iters, False, (lo, hi), m_hi)
    return NormReport(hi, hi, iters, converged, (lo, hi), m_hi)


def _limit_slope(young: YoungFunction, mass: float) -> float | None:
    """psi(inf) if psi is bounded and Q, rising to gap(inf) * (the weight mass
    of {f > 0}), stays <= 1, so the objective falls to psi(inf) * ||f||_1."""
    if young.linear_from == math.inf:
        return None
    x = np.asarray(2.0 * young.linear_from + 1.0)
    gap = float(young._equality_gap_arr(x))
    return float(young._density_arr(x)) if gap == 0.0 or gap * mass <= 1.0 else None


def _amemiya_steps(
    young: YoungFunction, levels: np.ndarray, masses: np.ndarray, tol: float
) -> NormReport:
    """inf_k (1 + M(k)) / k for the step modular M(k) = sum m_i Psi(k a_i),
    solved for f / max a_i (homogeneity).  The objective's slope is
    (Q(k) - 1) / k^2 for Q(k) = sum m_i (k a_i psi(k a_i) - Psi(k a_i)),
    which is non-decreasing and jumps up at each k = b / a_i where a level
    reaches a kink b of Psi (llogl's at 1, a tabulated density's jumps).

    One batched call evaluates Q at the start k = 1 (k = thr when Psi = inf
    past thr), just below each such jump K and at K (1 + tol).  Q(K-) <= 1 <
    Q(K (1 + tol)) puts the minimiser on the jump: the slope changes sign
    there.  Otherwise these values bound the continuous piece of Q that holds
    Q = 1, and _level_crossing finds its root in t = 1/k from the piece's
    end nearest the start.  The value is the objective at the better end of the
    final bracket, scaled back; witness and bracket are None where k / top
    is not a finite double (a subnormal top)."""
    top = float(levels.max(initial=0.0))
    if top == 0.0:
        return NormReport(0.0, None, 0, True, None, 0.0)
    levels = levels / top
    # levels that vanish at this scale (or underflow) add nothing to M or Q
    keep = levels > 0
    levels, masses = levels[keep], masses[keep]
    mod = _step_sum(young._eval_arr, levels, masses)
    gap = _step_sum(young._equality_gap_arr, levels, masses)
    slope = _limit_slope(young, float(np.sum(masses)))
    if slope is not None:
        return NormReport(slope * float(np.sum(levels * masses)) * top, None, 0, True, None, None)

    def report(ks, lo: float, hi: float, evals: int, converged: bool = True) -> NormReport:
        ks = np.asarray(ks)
        vals = (1.0 + mod(ks)) / ks
        i = int(np.argmin(vals))
        if hi / top == math.inf:
            return NormReport(top * float(vals[i]), None, evals + 1, converged, None, None)
        return NormReport(top * float(vals[i]), float(ks[i]) / top, evals + 1, converged, (lo / top, hi / top), None)

    thr = young.finite_threshold
    k0 = 1.0 if thr == math.inf else thr
    below, jumps = _step_jumps(young, levels, tol)
    past = jumps * (1.0 + tol)
    q = gap(np.concatenate(([k0], below, past)))
    if thr < math.inf and q[0] <= 1.0:
        # M(k) = inf beyond k = thr: with Q <= 1 there, the objective falls
        # all the way to that jump
        return report([thr], thr, thr, 1)
    start = 1.0 / k0
    known = {start: float(q[0])}
    if jumps.size:
        q_below, q_past = q[1 : jumps.size + 1], q[jumps.size + 1 :]
        on = np.flatnonzero((q_below <= 1.0) & (q_past > 1.0))
        if on.size:
            j = on[np.argmax(jumps[on])]  # Q <= 1 up to the last such jump
            return report([jumps[j]], float(below[j]), float(past[j]), 1)
        known.update(zip((1.0 / below).tolist(), q_below.tolist()))
        known.update(zip((1.0 / past).tolist(), q_past.tolist()))
        # start from the end of Q's continuous piece nearest k0
        t_a = max((t for t, m in known.items() if m > 1.0), default=0.0)
        t_b = min((t for t in known if t > t_a), default=math.inf)
        start = t_a if q[0] > 1.0 else t_b
    lo, hi, _, _, iters, converged = _level_crossing(lambda t: float(gap(1.0 / t)), start, tol, known)
    return report([1.0 / hi, 1.0 / lo], 1.0 / hi, 1.0 / lo, 1 + iters, converged)


def _step_jumps(young: YoungFunction, levels: np.ndarray, tol: float):
    """The points k = b / a_i where a level a_i reaches a positive kink b of
    Psi, as (k-, k): k a_i <= b, and k- a_i < b just below it (a density may
    take its right limit at the kink itself).  Only points where 1 / k- and
    k (1 + tol) are finite are kept."""
    kinks = [b for b in young.kinks if b > 0.0]
    if not kinks:
        return np.empty(0), np.empty(0)
    kinks = np.asarray(kinks)[:, None]
    with np.errstate(over="ignore", divide="ignore"):
        at = kinks / levels
        at = np.where(at * levels > kinks, np.nextafter(at, 0.0), at)
        below = np.where(at * levels < kinks, at, np.nextafter(at, 0.0))
        ok = (1.0 / below < math.inf) & (at * (1.0 + tol) < math.inf)
    return below[ok], at[ok]


def orlicz_norm(
    young: YoungFunction,
    f,
    weight=None,
    *,
    tol: float = 1e-9,
) -> NormReport:
    """Orlicz norm via the Amemiya formula inf_k (1 + modular(k f)) / k.

    Step-only profiles solve Young's equality Q(k) = 1 to relative width tol
    (see _amemiya_steps).  For other profiles g(t) = t + t modular(f/t) is
    convex in t = 1/k (a perspective) with slope 1 - Q <= 1, so g(t/s) >
    g(t s) holds exactly left of one point, closed to relative width s - 1
    for s = 1 + sqrt(tol); a minimiser lies in [lo/s, hi s], the bracket
    reported, and g at its centre and kinks is off the minimum by order tol
    (times t^2 g''/g)."""
    p, w = _as_profile_weight(f, weight)
    if p.is_zero:
        return NormReport(0.0, None, 0, True, None, 0.0)
    steps = _step_levels(p, w)
    if steps is not None:
        return _amemiya_steps(young, *steps, tol)
    if not membership(young, p, w).member:
        return NormReport(math.inf, None, 0, True, None, math.inf)
    # the weight of {f > 0}: the support, less a closing zero step
    zero_step = p.tail is None and p.steps and p.steps[-1][0] == 0.0
    end = (p.head_width, *p.step_edges)[-2] if zero_step else p.support_end
    slope = _limit_slope(young, _WeightView(w).mass(0.0, end))
    if slope is not None:
        l1 = hl_partial(p, math.inf) if w is None else modular(identity(), p, w)
        return NormReport(slope * l1, None, 0, True, None, None)
    seen = []  # (objective, k) of every modular evaluation

    def h(k: float) -> float:
        seen.append(((1.0 + modular(young, p.scale(k), w)) / k, k))
        return seen[-1][0]

    r = p.sup_value if p.head is None else p.head.coeff
    s, thr, start = 1.0 + math.sqrt(tol), young.finite_threshold, 1.0
    if thr < math.inf:
        # M = inf past k = thr / sup f; as g' <= 1, g there is within tol of
        # the minimum unless it falls within a factor 1 + tol past the jump
        k = thr / p.sup_value
        k = k if k * p.sup_value <= thr else math.nextafter(k, 0.0)
        if h(k) <= h(k / (1.0 + tol)):
            return NormReport(seen[0][0], k, 2, True, (k / (1.0 + tol), k), None)
        start = 1.0 / (r * k)

    def ratio(t: float) -> float:
        left = h(s / (r * t))
        return left if math.isinf(left) else left / h(1.0 / (r * t * s))

    lo, hi, _, _, _, converged = _level_crossing(ratio, start, s - 1.0)
    bracket = (1.0 / (r * hi * s), s / (r * lo))
    h(1.0 / (r * math.sqrt(lo) * math.sqrt(hi)))
    # a minimiser on a kink of g (a step level at a kink of Psi) is not flat
    for k in {b / level for b in young.kinks for level, _ in p.steps if level > 0}:
        if bracket[0] < k < bracket[1]:
            h(k)
    return NormReport(*min(seen), len(seen), converged, bracket, None)


def pairing_integral(f: SimpleFunction, g: SimpleFunction) -> float:
    """integral |f g| dmu over shared atoms."""
    _check_aligned(f, g)
    if not f.atoms:
        return 0.0
    return float(np.sum(np.abs(f.values * g.values) * f.weights))


def holder_check(f: SimpleFunction, g: SimpleFunction, young: YoungFunction) -> HolderReport:
    """integral |fg| <= ||f||_Lux(Psi) * ||g||_Orl(complement Psi)."""
    lhs = pairing_integral(f, g)
    nf = luxemburg_norm(young, f).value
    ng = orlicz_norm(complement(young), g).value
    rhs = nf * ng
    holds = lhs <= rhs * (1.0 + 1e-9) or (lhs == 0.0 and rhs == 0.0)
    return HolderReport(lhs, rhs, holds, nf, ng)


@dataclass(frozen=True)
class EmbeddingChainReport:
    """Norms along L^inf -> L_exp -> L^p -> LlogL -> L^1 on a probability
    space; the LlogL column uses the equivalent xlog1p norm."""

    sup_norm: float
    lexp_norm: float
    p_norm: float
    llogl_norm: float
    l1_norm: float
    p: float

    @property
    def norms(self):
        return (self.sup_norm, self.lexp_norm, self.p_norm, self.llogl_norm, self.l1_norm)

    @property
    def finiteness_monotone(self) -> bool:
        finite = [math.isfinite(v) for v in self.norms]
        return all(b or not a for a, b in zip(finite, finite[1:])) or all(finite)


def embedding_chain_check(f: SimpleFunction, p: float = 2.0) -> EmbeddingChainReport:
    if not (1.0 < p < math.inf):
        raise DomainError("embedding chain needs p in (1, inf)")
    if f.space.kind != "probability":
        raise DomainError("embedding chain is stated on probability spaces")
    sup = float(np.max(np.abs(f.values))) if f.atoms else 0.0
    l1 = float(np.sum(np.abs(f.values) * f.weights)) if f.atoms else 0.0
    return EmbeddingChainReport(
        sup_norm=sup,
        lexp_norm=luxemburg_norm(zygmund_exp(), f).value,
        p_norm=luxemburg_norm(power(p), f).value,
        llogl_norm=luxemburg_norm(xlog1p(), f).value,
        l1_norm=l1,
        p=p,
    )


def embedding_chain_membership(
    profile: DecreasingProfile, p: float = 2.0, weight: DecreasingProfile | None = None
) -> tuple[tuple[bool, bool, bool, bool, bool], bool]:
    """Membership verdicts along the chain for a profile on measure at most 1;
    returns the five booleans and whether finiteness is monotone."""
    verdicts = (
        profile.is_bounded,
        membership(zygmund_exp(), profile, weight).member,
        membership(power(p), profile, weight).member,
        membership(xlog1p(), profile, weight).member,
        membership(identity(), profile, weight).member,
    )
    monotone = all(b or not a for a, b in zip(verdicts, verdicts[1:]))
    return verdicts, monotone


def entropy_plus(f: SimpleFunction) -> float:
    """sum w_i * v_i * log(v_i) with 0*log(0) = 0; requires f >= 0."""
    if np.any(f.values < 0):
        raise DomainError("entropy requires a nonnegative function")
    if not f.atoms:
        return 0.0
    v, w = f.values, f.weights
    pos = v > 0
    return float(np.sum(w[pos] * v[pos] * np.log(v[pos])))


def entropy(f: SimpleFunction) -> float:
    return -entropy_plus(f)


def _transform_upper_endpoint(u: DecreasingProfile, w: DecreasingProfile) -> float:
    """sup of t with integral exp(t*u) w dt < inf, for profile u (= |u|)."""
    wv = _WeightView(w)
    if math.isinf(hl_partial(w, math.inf)):
        raise DomainError("the weight must be integrable")
    if u.head is None:
        return math.inf
    theta_w = wv.inv_order
    if isinstance(u.head, LogSingularity):
        return max((1.0 - theta_w) / u.head.coeff, 0.0)
    return 0.0


def classical_regular_check(u, weight) -> ClassicalRegularityReport:
    """Moment-transform regularity of u under the weight f: regular iff the
    transform t -> integral exp(t u) f dmu is finite on a neighborhood of 0.

    Simple-function u (bounded) with an aligned density is regular with
    domain all of R.  Profile u stands for |u|; the reported domain is the
    symmetric interval (-U, U), degenerating to (-inf, 0] when no positive t
    is admissible.  The verdict is cross-checked against membership of u in
    the weighted cosh-1 space."""
    if isinstance(u, SimpleFunction):
        member = membership(cosh_minus_1(), u, weight).member
        dom = DomainInterval(-math.inf, math.inf)
        return ClassicalRegularityReport(True, dom, member, member is True)
    if not isinstance(weight, DecreasingProfile):
        raise DomainError("profile input requires a profile weight")
    upper = _transform_upper_endpoint(u, weight)
    if upper > 0:
        dom = DomainInterval(-upper, upper)
        regular = True
    else:
        dom = DomainInterval(-math.inf, 0.0, upper_closed=True)
        regular = False
    member = membership(cosh_minus_1(), u, weight).member
    return ClassicalRegularityReport(regular, dom, member, regular == member)
