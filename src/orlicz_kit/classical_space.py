"""Classical Orlicz-space computations.

Luxemburg norms are the level-1 crossing of the modular lambda -> M(f/lambda)
= integral Psi(|f|/lambda) dmu, which is non-increasing: a bracket lo < hi
with M(f/lo) > 1 >= M(f/hi), found by a gallop over the x4 ladder while
lambda and 1/lambda are finite doubles, and on up to the largest double, is
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
inf_{k>0} (1 + modular(k*f)) / k (Krasnosel'skii & Rutickii, Convex
Functions and Orlicz Spaces, sections 9-10; Hudzik & Maligranda, Indag.
Math. 2000).  Its slope is (Q(k) - 1) / k^2, where Q(k) = integral
Gamma(k f) w integrates the gap in Young's equality, Gamma(s) = s psi(s) -
Psi(s), and is non-decreasing: every profile solves Q(k) = 1 as a level
crossing on the same loop, in t = 1/k (_amemiya).  Step-only profiles sum
Q exactly; other profiles integrate it as a modular of Gamma viewed as a
Young function, with the modular's quadrature and comparison tests.  Q
jumps, or bends, where a step level, or the end value of a head or a
tail, reaches a kink of Psi: one batched evaluation of Q at every such
point and just past it decides a minimiser there before any search, or
bounds the continuous piece of Q the search runs in.  Bounded densities
and thresholds are decided in closed form.  The defining supremum over
the dual ball is left to test oracles on tiny atom spaces.

For step-only inputs both norms use an exact step modular: the levels and
their weight masses are computed once per norm (_step_levels), straight from
the atoms for a simple function and from the steps for a profile, and every
evaluation of the modular or of Q goes to the Young function's array kernel.
The kernels overflow by design, so each norm holds one np.errstate for its
whole search (luxemburg_norm's step branch, _amemiya_steps).  Other profiles
take the modular point by point, by quadrature, on p._scaled(c): checked once
at c = 1, never again, and a head or tail that underflows to 0 adds 0.

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
from dataclasses import dataclass, replace
from itertools import chain, takewhile

import numpy as np

from .errors import DomainError, InconclusiveQuadratureError
from .rearrange import (
    DecreasingProfile,
    LogSingularity,
    SimpleFunction,
    _RTOL,
    _WeightView,
    _check_aligned,
    _finite_scale,
    _first_holding,
    _ladder,
    _merged_steps,
    hl_partial,
    modular,
    rearrange,
    simple_function,
)
from .young import YoungFunction, _EqualityGap, cosh_minus_1, complement, identity, power, xlog1p, zygmund_exp

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
    """Outcome of a norm computation: value, optimal parameter, diagnostics.

    iterations counts the search's evaluations: of the modular in a
    Luxemburg search, of Q and the final M in an Amemiya search.  The first
    batch of Q points there (k0 and every level-kink jump) counts as one,
    although on profiles with analytic parts each point is a quadrature."""

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


def _as_input(f, weight):
    """Normalize (f, weight) to (SimpleFunction, None), an aligned density
    merged into its weights, or to (DecreasingProfile, profile weight or
    None)."""
    if isinstance(f, SimpleFunction):
        if weight is None:
            return f, None
        if isinstance(weight, WeightedDensityState):
            weight = weight.f
        if isinstance(weight, SimpleFunction):
            return _merge_density(f, weight), None
        raise DomainError("a simple function takes an aligned simple-function density")
    if isinstance(f, DecreasingProfile):
        if weight is None or isinstance(weight, DecreasingProfile):
            return f, weight
        raise DomainError("a profile takes a profile weight")
    raise DomainError(f"unsupported input type {type(f).__name__}")


def _as_profile_weight(f, weight):
    """Normalize (f, weight) to (DecreasingProfile, profile weight or None)."""
    f, w = _as_input(f, weight)
    return (rearrange(f) if isinstance(f, SimpleFunction) else f), w


def membership(young: YoungFunction, f, weight=None) -> MembershipReport:
    """Is f in L^Psi, i.e. is the modular of lambda*f finite for some
    lambda > 0?  The comparison tests of rearrange._finite_scale decide it
    without quadrature: the witness is the largest lambda = 2^-k passing
    them, None when the modular diverges at every scale."""
    p, w = _as_profile_weight(f, weight)
    lam = _finite_scale(young, p, _WeightView(w))
    return MembershipReport(lam is not None, lam)


def _step_levels(f, w):
    """The levels of a step-only input and the weight masses of their steps,
    restricted to positive masses.  A simple function (its density already
    merged, w None) goes straight to them: its |values| merged as rearrange
    merges them, no profile built, and a merged length that overflows
    raises the profile's DomainError.  None for a profile with analytic
    parts or a weight with an inverse-power head of theta_w >= 1 (infinite
    mass at 0): membership decides those."""
    if isinstance(f, SimpleFunction):
        steps = _merged_steps((abs(v), m) for v, m in f.atoms)
        lengths = [m for _, m in steps]
        if math.inf in lengths:
            raise DomainError("step lengths must be positive and finite")
        return np.asarray([l for l, _ in steps]), np.asarray(lengths)
    wv = _WeightView(w)
    if f.head is not None or f.support_end == math.inf or wv.inv_order >= 1.0:
        return None
    levels = np.asarray([l for l, _ in f.steps])
    if w is None:
        masses = np.asarray([length for _, length in f.steps])
    else:
        edges = (0.0, *f.step_edges)
        masses = np.asarray([wv.mass(a, b) for a, b in zip(edges[:-1], edges[1:])])
    keep = masses > 0
    return levels[keep], masses[keep]


def _step_sum(kernel, levels: np.ndarray, masses: np.ndarray):
    """scales -> sum_i masses_i * kernel(scale * levels_i).

    Each call evaluates every (scale, level) pair in one kernel call and sums
    along the levels with np.add.reduce, the routine np.sum uses, so a single
    scale gives exactly the value of the one-dimensional sum.  A float scale
    gives a scalar, an array of scales an array of sums.  The caller holds
    the np.errstate that silences the kernel's overflow (one per norm
    search, not one per call)."""

    def total(scales):
        s = scales * levels if isinstance(scales, float) else np.asarray(scales)[..., None] * levels
        return np.add.reduce(kernel(s) * masses, axis=-1)

    return total


def _step_modular_fn(young: YoungFunction, f, w):
    """For a step-only input, a fast scales -> modular(scale * f) map: the
    levels and weight masses are computed once, here (_step_levels), and
    each call goes straight to the Young function's array kernel.  Returns
    None where _step_levels does."""
    steps = _step_levels(f, w)
    return None if steps is None else _step_sum(young._eval_arr, *steps)


def _log_modular(m: float) -> float:
    """log of a modular value, with log 0 = -inf (and log inf = inf)."""
    return math.log(m) if m > 0.0 else -math.inf


def _level_crossing(fn, start: float, tol: float, known=None):
    """Bracket and solve fn(t) = 1 for fn > 1 left of a point, <= 1 right of it.

    fn is memoised, seeded with `known` (points t -> fn(t) the caller has
    already evaluated); the bracket is its tightest evaluated pair after one
    _first_holding search over the x4 ladder from `start`, up if fn(start)
    > 1 (then the largest double) and down otherwise, while t and 1/t (where
    callers evaluate) are positive finite doubles and short of the nearest
    known point past the crossing, which ends the ladder.  A rung whose fn raises
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
    rungs = chain(rungs, [math.nextafter(math.inf, 0.0)] if up else [])  # up to the largest double
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
    p, w = _as_input(f, weight)
    if p.is_zero:
        return NormReport(0.0, None, 0, True, None, 0.0)

    fast = _step_modular_fn(young, p, w)
    if fast is not None:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            crossing = _level_crossing(lambda lam: float(fast(1.0 / lam)), 1.0, tol)
    else:
        pre = membership(young, p, w)
        if not pre.member:
            return NormReport(math.inf, None, 0, True, None, math.inf)
        # a witness below 2^-1022 would put the start past the largest double
        start = max(1.0, 2.0 / max(pre.lambda_witness, 2.0**-1022))
        crossing = _level_crossing(lambda lam: modular(young, p._scaled(1.0 / lam), w), start, tol)
    lo, hi, _, m_hi, iters, converged = crossing
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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _amemiya_steps(
    young: YoungFunction, levels: np.ndarray, masses: np.ndarray, tol: float
) -> NormReport:
    """The Amemiya norm of the step modular M(k) = sum m_i Psi(k a_i), solved
    by _amemiya for f / max a_i (homogeneity) from k = 1, with M and
    Q(k) = sum m_i Gamma(k a_i) as exact sums, and scaled back.  The whole
    search runs under one np.errstate (the decorator): its kernels overflow
    by design."""
    top = float(levels.max(initial=0.0))
    if top == 0.0:
        return NormReport(0.0, None, 0, True, None, 0.0)
    levels = levels / top
    # levels that vanish at this scale (or underflow) add nothing to M or Q
    keep = levels > 0
    levels, masses = levels[keep], masses[keep]
    slope = _limit_slope(young, float(np.sum(masses)))
    if slope is not None:
        return NormReport(slope * float(np.sum(levels * masses)) * top, None, 0, True, None, None)
    mod = _step_sum(young._eval_arr, levels, masses)
    gap = _step_sum(young._equality_gap_arr, levels, masses)
    k0 = 1.0 if young.finite_threshold == math.inf else young.finite_threshold
    return _amemiya(young, mod, gap, levels, k0, tol, top)


def _amemiya(
    young: YoungFunction, mod, gap, levels: np.ndarray, k0: float, tol: float, top: float = 1.0
) -> NormReport:
    """inf_k (1 + M(k)) / k, for maps k -> M(k) and k -> Q(k) that take a
    float or an array of k, as _step_sum's maps do.

    The objective's slope is (Q(k) - 1) / k^2 for the gap in Young's
    equality Q(k) = integral Gamma(k f) w, Gamma(s) = s psi(s) - Psi(s),
    which is non-decreasing.  Q jumps up at each k = b / a where a step
    level a reaches a kink b of Psi (llogl's at 1, a tabulated density's
    jumps), and bends where the end value a of a head or a tail does;
    `levels` holds those positive values a.  One call evaluates Q at the
    start k0 (where Psi = inf past a threshold, k0 puts the top level on
    it), at each such point K, where every density takes its left limit so
    that Q(K) is Q just below the jump, and at K (1 + tol).  Q(k0) <= 1
    under a threshold puts the minimiser on k0, and Q(K) <= 1 < Q(K (1 +
    tol)) puts it in [K, K (1 + tol)], where the slope changes sign; it is
    read at K.  Otherwise these values bound the continuous piece of Q that
    holds Q = 1, and _level_crossing finds its root in t = 1/k from the
    piece's end nearest k0, to relative width tol.

    The value is the objective at the better end of the final bracket, in
    one call of M, divided by top (a caller's normalisation of f) with the
    witness and bracket; they are None where k / top is not a finite double
    (a subnormal top).  iterations counts the calls of Q (one batch of k0
    and the jumps, then one per search step) and the final call of M."""

    def report(ks, lo: float, hi: float, evals: int, converged: bool = True) -> NormReport:
        ks = np.asarray(ks)
        vals = (1.0 + mod(ks)) / ks
        i = int(np.argmin(vals))
        value = top * float(vals[i])
        converged = converged and value < math.inf  # a value past the largest double is no bound
        if hi / top == math.inf:
            return NormReport(value, None, evals + 1, converged, None, None)
        return NormReport(value, float(ks[i]) / top, evals + 1, converged, (lo / top, hi / top), None)

    jumps = _step_jumps(young, levels, tol)
    past = jumps * (1.0 + tol)
    q = gap(np.concatenate(([k0], jumps, past)))
    if young.finite_threshold < math.inf and q[0] <= 1.0:
        # M(k) = inf beyond k0: with Q <= 1 there, the objective falls all
        # the way to that jump
        return report([k0], k0, k0, 1)
    start = 1.0 / k0
    known = {start: float(q[0])}
    if jumps.size:
        q_at, q_past = q[1 : jumps.size + 1], q[jumps.size + 1 :]
        on = np.flatnonzero((q_at <= 1.0) & (q_past > 1.0))
        if on.size:
            j = on[np.argmax(jumps[on])]  # Q <= 1 up to the last such jump
            return report([jumps[j]], float(jumps[j]), float(past[j]), 1)
        known.update(zip((1.0 / jumps).tolist(), q_at.tolist()))
        known.update(zip((1.0 / past).tolist(), q_past.tolist()))
        # start from the end of Q's continuous piece nearest k0
        t_a = max((t for t, m in known.items() if m > 1.0), default=0.0)
        t_b = min((t for t in known if t > t_a), default=math.inf)
        start = t_a if q[0] > 1.0 else t_b
    lo, hi, _, _, iters, converged = _level_crossing(lambda t: float(gap(1.0 / t)), start, tol, known)
    return report([1.0 / hi, 1.0 / lo], 1.0 / hi, 1.0 / lo, 1 + iters, converged)


def _step_jumps(young: YoungFunction, levels: np.ndarray, tol: float) -> np.ndarray:
    """The points k = b / a_i where a level a_i reaches a positive kink b of
    Psi, rounded down so that k a_i <= b.  Only points where 1 / k and
    k (1 + tol) are finite are kept.  Runs under its caller's errstate."""
    kinks = [b for b in young.kinks if b > 0.0]
    if not kinks:
        return np.empty(0)
    kinks = np.asarray(kinks)[:, None]
    at = kinks / levels
    at = np.where(at * levels > kinks, np.nextafter(at, 0.0), at)
    return at[(1.0 / at < math.inf) & (at * (1.0 + tol) < math.inf)]


def orlicz_norm(
    young: YoungFunction,
    f,
    weight=None,
    *,
    tol: float = 1e-9,
) -> NormReport:
    """Orlicz norm via the Amemiya formula inf_k (1 + modular(k f)) / k.

    Every profile solves Young's equality Q(k) = 1 to relative width tol on
    one search (_amemiya).  Step-only profiles take exact sums from their
    levels (_amemiya_steps).  Other profiles start at k = 1 / (the supremum,
    or a head's coefficient), or where the supremum reaches a threshold of
    Psi, and evaluate M(k) = modular(Psi, k f) and Q(k) = modular(Gamma,
    k f) by quadrature, with Gamma the equality gap as a Young function
    (young._EqualityGap).  Their Q is certified only to relative _RTOL, so
    the reported bracket is the closed one widened by 1 + _RTOL at each end:
    where Gamma(s) / s is non-decreasing, true for every closed-form catalog
    kind and every convex density, Q(k c) >= c Q(k) for c > 1, and the
    widened bracket holds the minimiser.  converged means that the search's
    own bracket closed to tol."""
    p, w = _as_input(f, weight)
    if p.is_zero:
        return NormReport(0.0, None, 0, True, None, 0.0)
    steps = _step_levels(p, w)
    if steps is not None:
        return _amemiya_steps(young, *steps, tol)
    if not membership(young, p, w).member:
        return NormReport(math.inf, None, 0, True, None, math.inf)
    r = p.sup_value if p.head is None else p.head.coeff
    # the weight of {f > 0}: the support, less a closing zero step
    zero_step = p.tail is None and p.steps and p.steps[-1][0] == 0.0
    end = (p.head_width, *p.step_edges)[-2] if zero_step else p.support_end
    slope = _limit_slope(young, _WeightView(w).mass(0.0, end))
    if slope is not None:
        # ||f w||_1 by homogeneity: modular's absolute floor _ATOL would
        # swamp a small f
        l1 = hl_partial(p, math.inf) if w is None else r * modular(identity(), p._scaled(1.0 / r), w)
        return NormReport(slope * l1, None, 0, True, None, None)
    thr = young.finite_threshold
    if thr < math.inf:
        # M = inf past k = thr / sup f, taken one ulp lower where it rounds up
        k0 = thr / p.sup_value
        k0 = k0 if k0 * p.sup_value <= thr else math.nextafter(k0, 0.0)
    else:
        # a log head under exp growth of rate 1 diverges from k = 1 / r on:
        # a start a hair inside would put the head's truncation past overflow
        k0 = 1.0 / r
        k0 = k0 if k0 * r >= 1.0 else math.nextafter(k0, math.inf)

    def modular_at(y: YoungFunction):
        return np.vectorize(lambda k: modular(y, p._scaled(k), w), otypes=[float])

    # Q jumps where a step level reaches a kink of Psi, and bends where the
    # end value of a head or a tail does
    head_end, tail_start = p.head.at_width if p.head else 0.0, p.tail.junction if p.tail else 0.0
    ends = (*(level for level, _ in p.steps), head_end, tail_start)
    levels = np.asarray([level for level in ends if level > 0.0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rep = _amemiya(young, modular_at(young), modular_at(_EqualityGap(young)), levels, k0, tol)
    if rep.bracket is None:
        return rep
    lo, hi = rep.bracket
    return replace(rep, bracket=(lo / (1.0 + _RTOL), hi * (1.0 + _RTOL)))


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
