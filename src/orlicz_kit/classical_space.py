"""Classical Orlicz-space computations.

Luxemburg norms are found by bisection on log(lambda) of the modular's
level-1 crossing; the modular lambda -> integral Psi(|f|/lambda) dmu is
non-increasing, so the bracket is expanded geometrically and then halved.
The witness returned is the upper (feasible) end of the final bracket, so a
converged report always has modular_at_witness <= 1, and within 1e-8 of 1
when the modular is continuous at the crossing.

The Orlicz (dual-pairing) norm is computed through the Amemiya formula
inf_{k>0} (1 + modular(k*f)) / k, a one-dimensional unimodal minimization
done on a log grid refined by golden-section search.  The defining supremum
over the dual ball is deliberately left to test oracles on tiny atom spaces.

For step-only profiles both norms use an exact step modular: the levels are
checked and the weight masses computed once per norm, and every evaluation
goes straight to the Young function's array kernel.  The whole Amemiya grid
is evaluated in one batched call; profiles with analytic parts evaluate the
modular point by point.

Membership in L^Psi asks for some lambda > 0 with a finite modular; the
search walks a geometric lambda grid downward from 1 and consults only the
analytic finiteness verdicts, so a negative answer means every candidate
scale was certified divergent.

The regularity check computes the interval of parameters t for which the
moment transform integral exp(t*u) f dmu is finite.  Profiles stand for |u|,
so the reported domain is symmetrized: (-U, U) when some positive t works,
and the one-sided (-inf, 0] when none does.  The verdict is cross-checked
against membership in the weighted cosh-1 space, which must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .rearrange import (
    DecreasingProfile,
    LogSingularity,
    SimpleFunction,
    _WeightView,
    _check_aligned,
    hl_partial,
    modular,
    modular_is_finite,
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

_LAMBDA_GRID = tuple(2.0**-k for k in range(0, 61))
#: Step budget of each search phase of the Luxemburg and Amemiya norms.
_MAX_ITER = 200


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
    lambda > 0?  Scans a geometric lambda grid downward from 1; divergence at
    the grid floor certifies non-membership for the supported tail families."""
    p, w = _as_profile_weight(f, weight)
    if p.is_zero:
        return MembershipReport(True, 1.0)
    if p.is_bounded and p.support_end < math.inf:
        # bounded support: some scale always pushes every level below the
        # finiteness threshold
        if math.isinf(young.finite_threshold):
            return MembershipReport(True, 1.0 if math.isfinite(young.eval(p.sup_value)) else None)
        for lam in _LAMBDA_GRID:
            if math.isfinite(young.eval(lam * p.sup_value)):
                return MembershipReport(True, lam)
    for lam in _LAMBDA_GRID:
        if modular_is_finite(young, p.scale(lam), w):
            return MembershipReport(True, lam)
    return MembershipReport(False, None)


def _step_modular_fn(young: YoungFunction, p: DecreasingProfile, w):
    """For a step-only profile, a fast scales -> modular(scale * p) map.

    The levels are checked and the weight masses computed once, here; each
    call then evaluates every (scale, level) pair in one `_eval_arr` call and
    sums along the levels with np.add.reduce, the routine np.sum uses, so a
    single scale gives exactly the value of the one-dimensional sum.  A
    scalar scale gives a 0-d result, an array of scales an array of modulars.
    Returns None when the profile has analytic parts."""
    if p.front is not None or p.support_end == math.inf:
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

    def mod(scales):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = young._eval_arr(np.asarray(scales)[..., None] * levels)
            return np.add.reduce(vals * masses, axis=-1)

    return mod


def luxemburg_norm(
    young: YoungFunction,
    f,
    weight=None,
    *,
    tol: float = 1e-12,
) -> NormReport:
    """inf{lambda > 0 : modular(f / lambda) <= 1} by bisection on log lambda.

    Returns 0 for f = 0 and +inf for non-members.  When the modular jumps
    across level 1 (threshold kinds), the returned witness is the boundary
    infimum and modular_at_witness records the sub-unit value."""
    p, w = _as_profile_weight(f, weight)
    if p.is_zero:
        return NormReport(0.0, None, 0, True, None, 0.0)

    fast = _step_modular_fn(young, p, w)
    if fast is None:
        pre = membership(young, p, w)
        if not pre.member:
            return NormReport(math.inf, None, 0, True, None, math.inf)

        def mod_at(lam: float) -> float:
            return modular(young, p.scale(1.0 / lam), w)

    else:
        pre = MembershipReport(True, None)

        def mod_at(lam: float) -> float:
            return float(fast(1.0 / lam))

    iters = 0
    hi = 1.0 if pre.lambda_witness is None else max(1.0, 2.0 / pre.lambda_witness)
    val_hi = mod_at(hi)
    iters += 1
    while val_hi > 1.0 and iters < _MAX_ITER:
        hi *= 4.0
        val_hi = mod_at(hi)
        iters += 1
    if val_hi > 1.0:
        return NormReport(math.inf, None, iters, False, (hi / 4.0, hi), val_hi)

    lo = hi
    val_lo = val_hi
    while val_lo <= 1.0 and iters < _MAX_ITER:
        lo /= 4.0
        val_lo = mod_at(lo)
        iters += 1
    if val_lo <= 1.0:
        # modular never exceeds 1: the infimum is 0 in the limit
        return NormReport(0.0, lo, iters, True, (0.0, lo), val_lo)

    bisections = 0
    while bisections < _MAX_ITER and (hi - lo) > tol * hi:
        mid = math.sqrt(lo * hi)
        if mod_at(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        bisections += 1
        iters += 1
    converged = (hi - lo) <= tol * hi
    final = mod_at(hi)
    return NormReport(hi, hi, iters, converged, (lo, hi), final)


def orlicz_norm(
    young: YoungFunction,
    f,
    weight=None,
    *,
    tol: float = 1e-9,
) -> NormReport:
    """Orlicz norm via the Amemiya formula inf_k (1 + modular(k f)) / k.

    The objective is unimodal in k; a coarse log grid brackets the minimum
    and golden-section search refines it.  The bracket tolerance is on
    log(k); the value error near the flat minimum is second order in it."""
    p, w = _as_profile_weight(f, weight)
    if p.is_zero:
        return NormReport(0.0, None, 0, True, None, 0.0)
    fast = _step_modular_fn(young, p, w)
    if fast is None:
        if not membership(young, p, w).member:
            return NormReport(math.inf, None, 0, True, None, math.inf)

        def mod_at(k: float) -> float:
            return modular(young, p.scale(k), w)

        def grid_mods(ks: np.ndarray) -> np.ndarray:
            return np.asarray([mod_at(float(k)) for k in ks])

    else:

        def mod_at(k: float) -> float:
            return float(fast(k))

        grid_mods = fast

    def h(k: float) -> float:
        m = mod_at(k)
        return math.inf if math.isinf(m) else (1.0 + m) / k

    grid = np.geomspace(1e-8, 1e8, 33)
    mods = grid_mods(grid)
    vals = np.where(np.isinf(mods), math.inf, (1.0 + mods) / grid)
    iters = len(grid)
    if not np.any(np.isfinite(vals)):
        return NormReport(math.inf, None, iters, True, None, None)
    i = int(np.nanargmin(np.where(np.isfinite(vals), vals, math.inf)))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    # golden-section on log k
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = h(math.exp(c)), h(math.exp(d))
    golden = 0
    while golden < _MAX_ITER and (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = h(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = h(math.exp(d))
        golden += 1
        iters += 1
    kstar = math.exp(0.5 * (a + b))
    value = h(kstar)
    converged = (b - a) <= tol
    return NormReport(value, kstar, iters, converged, (math.exp(a), math.exp(b)), None)


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
    front = u.front
    if front is None:
        return math.inf
    theta_w = wv.inv_order
    if isinstance(front, LogSingularity):
        return max((1.0 - theta_w) / front.coeff, 0.0)
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
