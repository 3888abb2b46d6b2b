"""Measure descriptors, simple functions, decreasing profiles, and modulars.

A DecreasingProfile is the common currency of the classical and quantum
sides: a non-increasing, right-continuous function on (0, inf) assembled from

  * an optional singular head near t = 0 (log_singularity: c*log(1/t), or
    inv_power: c*t**-theta), modelling unbounded rearrangements,
  * a finite stack of steps (level, length) with strictly decreasing levels,
  * an optional analytic tail after the steps (exponential a*e^(-beta*u) or
    power a*(t0+u)**-gamma in the local coordinate u measured from the end
    of the steps), modelling slow decay on infinite measure.

modular(Y, p, w) evaluates integral_0^inf Psi(p(t)) * w(t) dt against an
optional weight profile (Lebesgue when omitted).  Step-by-step pieces
integrate exactly in closed form.  Pieces involving analytic heads or tails
are decided first by hard-coded comparison tests per (growth class of Psi x
tail kind); only certified-convergent pieces are then integrated numerically,
with an analytic truncation bound pushed below half the absolute budget.
Divergence is therefore always an analytic verdict, never a quadrature
blow-up.

The numerical part is one kernel, _integrate: adaptive Gauss-Kronrod 7/15
in the style of QUADPACK (Piessens et al., 1983) that evaluates the
integrand on every node of every active panel in one numpy call.  Its
contract: it returns a sum whose error estimate is at most
max(_ATOL, _RTOL*|sum|), and otherwise raises InconclusiveQuadratureError
(a non-finite integrand value, or 200 panels per input piece used up)
instead of guessing.

All values are immutable and all operations pure; results are deterministic
for fixed inputs (fixed summation order, no randomized algorithms).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# Unused here (the quadrature is _integrate); kept because perfbench/tracing.py
# patches rearrange._si.quad, whose rearrange.quad counters therefore read 0.
from scipy import integrate as _si  # noqa: F401
from scipy import special as _sp

from .errors import DomainError, InconclusiveQuadratureError, OrliczKitError
from .young import Growth, YoungFunction, _load_two_columns

__all__ = [
    "MeasureSpaceDesc",
    "probability_space",
    "finite_space",
    "sigma_finite_space",
    "SimpleFunction",
    "simple_function",
    "load_simple_function",
    "add_aligned",
    "ZeroTail",
    "ExponentialTail",
    "PowerTail",
    "LogSingularity",
    "InvPowerSingularity",
    "DecreasingProfile",
    "profile_from_dict",
    "load_json_input",
    "rearrange",
    "hl_partial",
    "modular",
    "modular_is_finite",
    "cross_integral",
]


# ----------------------------------------------------------------------------
# measure spaces and simple functions
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureSpaceDesc:
    """Descriptor of a sigma-finite measure space: just its kind and mass."""

    kind: str
    total_mass: float

    def __post_init__(self):
        if self.kind not in ("probability", "finite", "sigma_finite_discrete"):
            raise DomainError(f"unknown measure-space kind {self.kind!r}")
        if self.kind == "probability" and self.total_mass != 1.0:
            raise DomainError("probability space must have total mass 1")
        if self.kind == "finite" and not (0 < self.total_mass < math.inf):
            raise DomainError("finite space needs 0 < total mass < inf")
        if self.total_mass < 0:
            raise DomainError("total mass must be nonnegative")


def probability_space() -> MeasureSpaceDesc:
    return MeasureSpaceDesc("probability", 1.0)


def finite_space(mass: float) -> MeasureSpaceDesc:
    return MeasureSpaceDesc("finite", float(mass))


def sigma_finite_space(total: float = math.inf) -> MeasureSpaceDesc:
    return MeasureSpaceDesc("sigma_finite_discrete", float(total))


_DEFAULT_SPACE = sigma_finite_space()


@dataclass(frozen=True)
class SimpleFunction:
    """Finitely supported measurable function: (value, weight) atoms."""

    atoms: tuple[tuple[float, float], ...]
    space: MeasureSpaceDesc = _DEFAULT_SPACE

    def __post_init__(self):
        total = 0.0
        for v, w in self.atoms:
            if not (w > 0 and math.isfinite(w)):
                raise DomainError("atom weights must be positive and finite")
            if not math.isfinite(v):
                raise DomainError("atom values must be finite")
            total += w
        if total > self.space.total_mass * (1 + 1e-9) + 1e-12:
            raise DomainError("atom weights exceed the space's total mass")

    @cached_property
    def values(self) -> np.ndarray:
        return np.asarray([v for v, _ in self.atoms], dtype=float)

    @cached_property
    def weights(self) -> np.ndarray:
        return np.asarray([w for _, w in self.atoms], dtype=float)

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v, _ in self.atoms)

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum()) if self.atoms else 0.0

    def abs(self) -> "SimpleFunction":
        return SimpleFunction(tuple((abs(v), w) for v, w in self.atoms), self.space)

    def scale(self, a: float) -> "SimpleFunction":
        return SimpleFunction(tuple((a * v, w) for v, w in self.atoms), self.space)


def simple_function(values, weights, space: MeasureSpaceDesc | None = None) -> SimpleFunction:
    vals = list(values)
    ws = list(weights)
    if len(vals) != len(ws):
        raise DomainError("values and weights must have equal length")
    return SimpleFunction(tuple(zip(map(float, vals), map(float, ws))), space or _DEFAULT_SPACE)


def load_simple_function(path, space: MeasureSpaceDesc | None = None) -> SimpleFunction:
    """Two-column text: value, weight."""
    values, weights = _load_two_columns(path, "value, weight")
    return simple_function(values, weights, space)


def _check_aligned(f: SimpleFunction, g: SimpleFunction) -> None:
    if len(f.atoms) != len(g.atoms):
        raise DomainError("atom lists must have equal length to pair by index")
    if not np.allclose(f.weights, g.weights, rtol=1e-12, atol=0.0):
        raise DomainError("paired simple functions must share atom weights")


def add_aligned(f: SimpleFunction, g: SimpleFunction) -> SimpleFunction:
    """Pointwise sum of two simple functions sharing the same atoms."""
    _check_aligned(f, g)
    return SimpleFunction(
        tuple((fv + gv, fw) for (fv, fw), (gv, _) in zip(f.atoms, g.atoms)), f.space
    )


# ----------------------------------------------------------------------------
# decreasing profiles
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroTail:
    kind = "zero"

    def to_dict(self):
        return {"kind": "zero"}


@dataclass(frozen=True)
class ExponentialTail:
    """value(u) = amplitude * exp(-rate * u), u measured from the junction."""

    amplitude: float
    rate: float
    kind = "exponential"

    def __post_init__(self):
        if not (self.amplitude > 0 and self.rate > 0):
            raise DomainError("exponential tail needs amplitude > 0 and rate > 0")

    def to_dict(self):
        return {"kind": "exponential", "amplitude": self.amplitude, "rate": self.rate}


@dataclass(frozen=True)
class PowerTail:
    """value(u) = amplitude * (offset + u)**-exponent, offset > 0."""

    amplitude: float
    exponent: float
    offset: float = 1.0
    kind = "power"

    def __post_init__(self):
        if not (self.amplitude > 0 and self.exponent > 0 and self.offset > 0):
            raise DomainError("power tail needs amplitude, exponent, offset > 0")

    def to_dict(self):
        return {
            "kind": "power",
            "amplitude": self.amplitude,
            "exponent": self.exponent,
            "offset": self.offset,
        }


@dataclass(frozen=True)
class LogSingularity:
    """Head near t = 0: value(t) = coeff * log(1/t) on (0, width], width <= 1."""

    coeff: float = 1.0
    width: float = 1.0
    kind = "log_singularity"

    def __post_init__(self):
        if not (self.coeff > 0 and 0 < self.width <= 1.0):
            raise DomainError("log singularity needs coeff > 0 and width in (0, 1]")

    def to_dict(self):
        return {"kind": "log_singularity", "coeff": self.coeff, "width": self.width}


@dataclass(frozen=True)
class InvPowerSingularity:
    """Head near t = 0: value(t) = coeff * t**-exponent on (0, width]."""

    coeff: float = 1.0
    exponent: float = 1.0
    width: float = 1.0
    kind = "inv_power"

    def __post_init__(self):
        if not (self.coeff > 0 and self.exponent > 0 and self.width > 0):
            raise DomainError("inverse-power singularity needs positive parameters")

    def to_dict(self):
        return {
            "kind": "inv_power",
            "coeff": self.coeff,
            "exponent": self.exponent,
            "width": self.width,
        }


Tail = ZeroTail | ExponentialTail | PowerTail | LogSingularity | InvPowerSingularity
_FRONT_KINDS = (LogSingularity, InvPowerSingularity)


def _front_value_at_width(front) -> float:
    if isinstance(front, LogSingularity):
        return front.coeff * math.log(1.0 / front.width)
    return front.coeff * front.width ** (-front.exponent)


@dataclass(frozen=True)
class DecreasingProfile:
    """Canonical decreasing rearrangement: singular head + steps + tail.

    The `tail` field holds either a back tail (zero / exponential / power,
    placed after the steps) or a singular head (log_singularity / inv_power,
    placed before the steps, with the profile dropping to zero after the
    steps in that case).
    """

    steps: tuple[tuple[float, float], ...] = ()
    tail: Tail = ZeroTail()

    def __post_init__(self):
        levels = [l for l, _ in self.steps]
        for l, w in self.steps:
            if not (w > 0 and math.isfinite(w)):
                raise DomainError("step lengths must be positive and finite")
            if not (l >= 0 and math.isfinite(l)):
                raise DomainError("step levels must be finite and >= 0")
        if any(a <= b for a, b in zip(levels, levels[1:])):
            raise DomainError("step levels must be strictly decreasing")
        if self.front is not None and self.steps:
            if _front_value_at_width(self.front) < levels[0] - 1e-15 * max(1.0, levels[0]):
                raise DomainError("singular head must dominate the first step level")
        if self.back is not None and not isinstance(self.back, ZeroTail) and self.steps:
            junction = (
                self.back.amplitude
                if isinstance(self.back, ExponentialTail)
                else self.back.amplitude * self.back.offset ** (-self.back.exponent)
            )
            if junction > levels[-1] + 1e-15 * max(1.0, junction):
                raise DomainError("tail level at the junction exceeds the last step level")

    @property
    def front(self):
        return self.tail if isinstance(self.tail, _FRONT_KINDS) else None

    @property
    def back(self):
        return None if isinstance(self.tail, _FRONT_KINDS) else self.tail

    @property
    def front_width(self) -> float:
        return self.front.width if self.front is not None else 0.0

    @cached_property
    def step_edges(self) -> tuple[float, ...]:
        """Cumulative right edges of the steps, starting after the head."""
        edges = []
        t = self.front_width
        for _, w in self.steps:
            t += w
            edges.append(t)
        return tuple(edges)

    @property
    def steps_end(self) -> float:
        return self.step_edges[-1] if self.steps else self.front_width

    @property
    def support_end(self) -> float:
        if self.back is not None and not isinstance(self.back, ZeroTail):
            return math.inf
        return self.steps_end

    @property
    def is_bounded(self) -> bool:
        return self.front is None

    @property
    def sup_value(self) -> float:
        if self.front is not None:
            return math.inf
        if self.steps:
            return self.steps[0][0]
        if isinstance(self.back, ExponentialTail):
            return self.back.amplitude
        if isinstance(self.back, PowerTail):
            return self.back.amplitude * self.back.offset ** (-self.back.exponent)
        return 0.0

    @property
    def is_zero(self) -> bool:
        return self.front is None and isinstance(self.back, ZeroTail) and not any(
            l > 0 for l, _ in self.steps
        )

    def value(self, t):
        """mu_t, right-continuous, vectorized; defined for t > 0."""
        arr = np.asarray(t, dtype=float)
        out = np.zeros_like(arr)
        fw = self.front_width
        if self.front is not None:
            head = arr < fw
            with np.errstate(divide="ignore", over="ignore"):
                if isinstance(self.front, LogSingularity):
                    out = np.where(head, self.front.coeff * np.log(1.0 / np.maximum(arr, 1e-320)), out)
                else:
                    out = np.where(
                        head,
                        self.front.coeff * np.maximum(arr, 1e-320) ** (-self.front.exponent),
                        out,
                    )
        if self.steps:
            edges = np.asarray(self.step_edges)
            idx = np.searchsorted(edges, arr, side="right")
            in_steps = (arr >= fw) & (idx < len(self.steps))
            lvl = np.asarray([l for l, _ in self.steps])
            out = np.where(in_steps, lvl[np.minimum(idx, len(self.steps) - 1)], out)
        if self.back is not None and not isinstance(self.back, ZeroTail):
            u = arr - self.steps_end
            beyond = u >= 0
            with np.errstate(over="ignore"):
                if isinstance(self.back, ExponentialTail):
                    tail_v = self.back.amplitude * np.exp(-self.back.rate * np.maximum(u, 0.0))
                else:
                    tail_v = self.back.amplitude * (self.back.offset + np.maximum(u, 0.0)) ** (
                        -self.back.exponent
                    )
            out = np.where(beyond, tail_v, out)
        return float(out) if np.ndim(t) == 0 else out

    def cuts(self) -> tuple[float, ...]:
        """Interior breakpoints (head end and step edges), ascending."""
        pts = []
        if self.front is not None:
            pts.append(self.front_width)
        pts.extend(self.step_edges)
        return tuple(dict.fromkeys(pts))

    def scale(self, a: float) -> "DecreasingProfile":
        """The profile of a*|f|: levels and tail amplitudes multiplied by a."""
        if not (a > 0 and math.isfinite(a)):
            raise DomainError("scale factor must be positive and finite")
        steps = tuple((a * l, w) for l, w in self.steps)
        t = self.tail
        if isinstance(t, ExponentialTail):
            t = ExponentialTail(a * t.amplitude, t.rate)
        elif isinstance(t, PowerTail):
            t = PowerTail(a * t.amplitude, t.exponent, t.offset)
        elif isinstance(t, LogSingularity):
            t = LogSingularity(a * t.coeff, t.width)
        elif isinstance(t, InvPowerSingularity):
            t = InvPowerSingularity(a * t.coeff, t.exponent, t.width)
        return DecreasingProfile(steps, t)

    def to_dict(self) -> dict:
        return {"steps": [[l, w] for l, w in self.steps], "tail": self.tail.to_dict()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def profile_from_dict(d: dict) -> DecreasingProfile:
    steps = tuple((float(l), float(w)) for l, w in d.get("steps", []))
    td = d.get("tail", {"kind": "zero"})
    kind = td.get("kind", "zero")
    if kind == "zero":
        tail: Tail = ZeroTail()
    elif kind == "exponential":
        tail = ExponentialTail(float(td["amplitude"]), float(td["rate"]))
    elif kind == "power":
        tail = PowerTail(float(td["amplitude"]), float(td["exponent"]), float(td.get("offset", 1.0)))
    elif kind == "log_singularity":
        tail = LogSingularity(float(td.get("coeff", 1.0)), float(td.get("width", 1.0)))
    elif kind == "inv_power":
        tail = InvPowerSingularity(
            float(td.get("coeff", 1.0)), float(td["exponent"]), float(td.get("width", 1.0))
        )
    else:
        raise DomainError(f"unknown tail kind {kind!r}")
    return DecreasingProfile(steps, tail)


def load_json_input(path, parse):
    """parse(json.load(path)), with malformed input reported as DomainError:
    bad JSON, a missing key, or a value of the wrong type or form."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OrliczKitError:
        raise
    except KeyError as exc:
        raise DomainError(f"{path}: missing key {exc}") from exc
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        raise DomainError(f"{path}: malformed input: {exc}") from exc


def _step_profile(pairs) -> DecreasingProfile:
    """Step profile of (level, length) pairs: equal levels merged exactly by
    adding their lengths in input order, zero levels dropped, levels sorted
    decreasingly."""
    acc: dict[float, float] = {}
    for lvl, w in pairs:
        if lvl != 0.0:
            acc[lvl] = acc.get(lvl, 0.0) + w
    return DecreasingProfile(tuple(sorted(acc.items(), key=lambda kv: -kv[0])), ZeroTail())


def rearrange(f: SimpleFunction) -> DecreasingProfile:
    """Decreasing rearrangement of |f|: sorted absolute values as steps,
    equal levels merged exactly, zero values dropped."""
    return _step_profile((abs(v), w) for v, w in f.atoms)


# ----------------------------------------------------------------------------
# exact partial integrals
# ----------------------------------------------------------------------------


def _front_partial(front, x: float) -> float:
    """integral_0^x of the head, x <= width."""
    if x <= 0:
        return 0.0
    if isinstance(front, LogSingularity):
        return front.coeff * x * (1.0 - math.log(x))
    th = front.exponent
    if th >= 1.0:
        return math.inf
    return front.coeff * x ** (1.0 - th) / (1.0 - th)


def _back_partial(back, u: float) -> float:
    """integral over the first u units of the back tail (u may be inf)."""
    if u <= 0:
        return 0.0
    if isinstance(back, ExponentialTail):
        if math.isinf(u):
            return back.amplitude / back.rate
        return back.amplitude / back.rate * -math.expm1(-back.rate * u)
    a, g, t0 = back.amplitude, back.exponent, back.offset
    if g == 1.0:
        return math.inf if math.isinf(u) else a * math.log((t0 + u) / t0)
    if math.isinf(u):
        return math.inf if g < 1.0 else a * t0 ** (1.0 - g) / (g - 1.0)
    return a / (1.0 - g) * ((t0 + u) ** (1.0 - g) - t0 ** (1.0 - g))


def hl_partial(p: DecreasingProfile, alpha: float) -> float:
    """Exact integral of the profile over (0, alpha]; alpha may be inf."""
    if alpha <= 0:
        raise DomainError("hl_partial needs alpha > 0")
    total = 0.0
    fw = p.front_width
    if p.front is not None:
        total += _front_partial(p.front, min(alpha, fw))
        if alpha <= fw:
            return total
    t = fw
    for (lvl, w), edge in zip(p.steps, p.step_edges):
        if alpha <= t:
            return total
        total += lvl * (min(alpha, edge) - t)
        t = edge
    if p.back is not None and not isinstance(p.back, ZeroTail) and alpha > p.steps_end:
        total += _back_partial(p.back, alpha - p.steps_end)
    return total


# ----------------------------------------------------------------------------
# weight view (profile weight or Lebesgue)
# ----------------------------------------------------------------------------


class _WeightView:
    """Uniform access to the weight measure w(t) dt: a profile or Lebesgue."""

    def __init__(self, w: DecreasingProfile | None):
        self.profile = w

    def value(self, t: float) -> float:
        if self.profile is None:
            return 1.0
        return self.profile.value(t)

    def mass(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        if self.profile is None:
            return b - a
        hb = hl_partial(self.profile, b) if b > 0 else 0.0
        ha = hl_partial(self.profile, a) if a > 0 else 0.0
        return max(hb - ha, 0.0)

    def cuts(self) -> tuple[float, ...]:
        return () if self.profile is None else self.profile.cuts()

    @property
    def support_end(self) -> float:
        return math.inf if self.profile is None else self.profile.support_end

    @property
    def front(self):
        return None if self.profile is None else self.profile.front

    @property
    def inv_order(self) -> float:
        """theta of an inverse-power head of the weight (0 otherwise)."""
        f = self.front
        return f.exponent if isinstance(f, InvPowerSingularity) else 0.0

    @property
    def has_log_front(self) -> bool:
        return isinstance(self.front, LogSingularity)

    def head_coeff(self, m: float) -> float:
        """Constant A with w(t) <= A * (head shape) on (0, m]."""
        f = self.front
        if isinstance(f, (LogSingularity, InvPowerSingularity)):
            return f.coeff
        return self.value(m * 0.5) if self.profile is not None else 1.0

    def far_field(self):
        """Behaviour on the unbounded end: ('lebesgue'|'exp'|'power'|'zero', tail)."""
        if self.profile is None:
            return ("lebesgue", None)
        b = self.profile.back
        if b is None or isinstance(b, ZeroTail):
            return ("zero", None)
        if isinstance(b, ExponentialTail):
            return ("exp", b)
        return ("power", b)


# ----------------------------------------------------------------------------
# divergence rules (analytic comparison tests)
# ----------------------------------------------------------------------------


def _require_growth(young: YoungFunction) -> Growth:
    g = young.growth()
    if g is None:
        raise InconclusiveQuadratureError(
            f"no growth envelope for {young.name}; cannot decide a singular head"
        )
    return g


def _front_diverges(young: YoungFunction, front, w: _WeightView) -> bool:
    """Does integral_0 Psi(head(t)) w(t) dt diverge near t = 0?"""
    g = _require_growth(young)
    if g.kind == "threshold":
        return True  # unbounded head crosses the finiteness threshold
    theta_w = w.inv_order
    if isinstance(front, LogSingularity):
        if g.kind == "exp":
            return front.coeff * g.rate + theta_w >= 1.0
        return theta_w >= 1.0
    # inverse-power head
    if g.kind == "exp":
        return True
    return front.exponent * g.degree + theta_w >= 1.0


def _back_diverges(young: YoungFunction, back, w: _WeightView) -> bool:
    """Does the unbounded tail region diverge?  (exp tails never do)."""
    if isinstance(back, ExponentialTail):
        return False
    if young.vanish_below > 0:
        return False
    kind, wtail = w.far_field()
    if kind == "exp":
        return False
    so = young.small_order()
    if so is None:
        raise InconclusiveQuadratureError(
            f"no small-argument envelope for {young.name}; cannot decide a slow tail"
        )
    gamma_w = wtail.exponent if kind == "power" else 0.0
    return back.exponent * so.alpha + gamma_w <= 1.0


# ----------------------------------------------------------------------------
# certified numerics
# ----------------------------------------------------------------------------


def _gamma_tail(k: float, r: float, y: float) -> float:
    """integral_y^inf s**k * exp(-r*s) ds, r > 0, k >= 0."""
    if r <= 0:
        return math.inf
    with np.errstate(over="ignore"):
        return float(_sp.gammaincc(k + 1.0, r * y) * _sp.gamma(k + 1.0) / r ** (k + 1.0))


def _log_bump_sup(delta: float, q: int) -> float:
    """sup over L >= 0 of exp(-delta*L) * (1+L)**q."""
    if q == 0:
        return 1.0
    lstar = max(0.0, q / delta - 1.0)
    return math.exp(-delta * lstar) * (1.0 + lstar) ** q


#: Absolute and relative budgets of every certified integral.
_ATOL = 1e-10
_RTOL = 1e-8

#: Panels the kernel may bisect one input piece into.
_PANELS_PER_PIECE = 200

# The Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15): the Kronrod nodes
# from -1 to the centre and their weights; the 7-point Gauss rule uses every
# second node, with the weights _WG.
_XGK = np.array([-0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
                 -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
                 -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
                 -0.207784955007898467600689403773245, 0.0])
_WGK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_GK_NODES = np.concatenate((_XGK, -_XGK[-2::-1]))
_GK_KRONROD = np.concatenate((_WGK, _WGK[-2::-1]))
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[1::2] = np.concatenate((_WG, _WG[-2::-1]))
_EPS50 = 50.0 * np.finfo(float).eps


def _gk15(fn, lo, hi):
    """The qk15 rule on the panels (lo, hi): each panel's Kronrod value and
    QUADPACK's error estimate for it (the Kronrod-Gauss difference scaled
    by resasc, floored at 50 eps resabs), from one call of fn on all nodes."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = center[:, None] + half[:, None] * _GK_NODES
    f = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    resk = f @ _GK_KRONROD
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _GK_KRONROD
    e = np.abs(resk - f @ _GK_GAUSS)
    scaled = resasc * np.minimum(1.0, (200.0 * e / resasc) ** 1.5)
    e = np.where((resasc != 0.0) & (e != 0.0), scaled, e)
    return resk * half, np.maximum(_EPS50 * (np.abs(f) @ _GK_KRONROD), e) * half


def _integrate(fn, pieces) -> float:
    """Certified integral of fn over the union of the pieces (a, b).

    fn maps an array of points to the integrand there.  Every piece starts
    as one panel.  Each round applies _gk15 to all new panels, with one call
    of fn, and bisects every panel whose error estimate exceeds its equal
    share of the budget max(_ATOL, _RTOL*|total|).  Returns once the summed
    estimate meets the budget; raises InconclusiveQuadratureError on a
    non-finite integrand value or total, or when the panels reach
    _PANELS_PER_PIECE per piece."""
    pieces = [(a, b) for a, b in pieces if b > a]
    if not pieces:
        return 0.0
    lo, hi = np.array(pieces, dtype=float).T
    cap = _PANELS_PER_PIECE * len(pieces)
    a = b = res = err = np.empty(0)
    budget = _ATOL
    while True:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            r, e = _gk15(fn, lo, hi)
            bad = ~np.isfinite(r + e)  # also where fn is not finite
            if bad.any():
                i = int(np.argmax(bad))
                raise InconclusiveQuadratureError(
                    "non-finite integrand", interval=(float(lo[i]), float(hi[i])),
                    budget=budget, estimate=math.inf, panels=a.size + lo.size,
                )
            a, b = np.concatenate((a, lo)), np.concatenate((b, hi))
            res, err = np.concatenate((res, r)), np.concatenate((err, e))
            total, estimate = float(res.sum()), float(err.sum())
        budget = max(_ATOL, _RTOL * abs(total))
        if not math.isfinite(total + estimate):
            raise InconclusiveQuadratureError(
                "integral overflows", interval=(float(a.min()), float(b.max())),
                budget=budget, estimate=estimate, panels=a.size,
            )
        if estimate <= budget:
            return total
        if a.size >= cap:
            raise InconclusiveQuadratureError(
                "panel limit reached", interval=(float(a.min()), float(b.max())),
                budget=budget, estimate=estimate, panels=a.size,
            )
        # the largest panel is always split, in case rounding leaves every
        # estimate at or under its share
        split = err >= min(budget / a.size, err.max())
        mid = 0.5 * (a[split] + b[split])
        lo, hi = np.concatenate((a[split], mid)), np.concatenate((mid, b[split]))
        keep = ~split
        a, b, res, err = a[keep], b[keep], res[keep], err[keep]


def _split(a: float, b: float, n: int) -> list[tuple[float, float]]:
    xs = np.linspace(a, b, n + 1)
    return list(zip(xs[:-1], xs[1:]))


def _geo_split(a: float, b: float, n: int, shift: float = 0.0) -> list[tuple[float, float]]:
    """n pieces of (a, b) whose ends are in geometric progression in t + shift."""
    xs = np.geomspace(a + shift, b + shift, n + 1) - shift
    xs[0], xs[-1] = a, b
    return list(zip(xs[:-1], xs[1:]))


def _decade_split(a: float, b: float, shift: float = 0.0) -> list[tuple[float, float]]:
    """Pieces of (a, b) spanning at most a decade each in t + shift > 0."""
    n = max(math.ceil(math.log10((b + shift) / (a + shift))), 1)
    return _geo_split(a, b, n, shift)


def _front_head_value(young, front, w: _WeightView, m: float) -> float:
    """Certified value of integral_0^m Psi(head(t)) w(t) dt (already known to
    converge); m has no weight cuts inside."""
    g = _require_growth(young)
    theta_w = w.inv_order
    w_log = w.has_log_front
    wA = w.head_coeff(m)

    if isinstance(front, LogSingularity):
        c = front.coeff
        y1 = math.log(1.0 / m)

        def integrand(y):
            t = np.exp(-y)
            return young._eval_arr(c * y) * w.value(t) * t

        if g.kind == "exp":
            r = 1.0 - c * g.rate - theta_w
            k = 1.0 if w_log else 0.0
            amp = g.hi * wA
            y_lo = max(y1, g.valid_from / c)
        else:
            r = 1.0 - theta_w
            k = g.degree + (0.5 if g.has_log else 0.0) + (1.0 if w_log else 0.0)
            amp = g.hi * max(c, 1.0) ** g.degree * 2.0 * (1.0 + abs(math.log(c))) * wA
            y_lo = y1
        ymax = max(y_lo, y1 + 1.0, 2.0 / max(r, 1e-3))
        for _ in range(400):
            if amp * _gamma_tail(k, r, ymax) < 0.5 * _ATOL:
                break
            ymax *= 1.5
        else:
            raise InconclusiveQuadratureError("log head truncation did not certify")
        n = min(max(int((ymax - y1) / 20.0) + 1, 2), 60)
        return _integrate(integrand, _split(y1, ymax, n))

    # inverse-power head, polynomial growth, theta*d + theta_w < 1
    c, th = front.coeff, front.exponent
    beta = th * g.degree + theta_w
    logpow = (1 if g.has_log else 0) + (1 if w_log else 0)
    if logpow:
        delta = 0.5 * (1.0 - beta)
        bump = _log_bump_sup(delta, logpow)
        beta_eff = beta + delta
    else:
        bump = 1.0
        beta_eff = beta
    kc = ((1.0 + abs(math.log(c))) * (1.0 + th)) ** logpow
    amp = g.hi * c**g.degree * kc * wA * bump
    eps = (0.5 * _ATOL * (1.0 - beta_eff) / max(amp, 1e-300)) ** (1.0 / (1.0 - beta_eff))
    clamped = eps < 1e-280
    eps = min(max(eps, 1e-280), 0.5 * m)

    def integrand_t(t):
        return young._eval_arr(c * t ** (-th)) * w.value(t)

    value = _integrate(integrand_t, _decade_split(eps, m))
    # a cutoff clamped at 1e-280 drops more than 0.5*_ATOL; accept it only
    # within half the relative budget
    if clamped and amp * eps ** (1.0 - beta_eff) / (1.0 - beta_eff) > 0.5 * _RTOL * value:
        raise InconclusiveQuadratureError("inverse-power head truncation did not certify")
    return value


def _tail_solve_crossing(back, level: float) -> float:
    """Local coordinate u* with back(u*) = level (back(0) > level assumed)."""
    if isinstance(back, ExponentialTail):
        return math.log(back.amplitude / level) / back.rate
    return (back.amplitude / level) ** (1.0 / back.exponent) - back.offset


def _past_threshold(young, profile, w: _WeightView, start: float, end: float) -> float:
    """Where Psi(p) turns finite on the back-tail region (start, end).

    A tail starting above Psi's finiteness threshold makes Psi(p) = inf on
    the slab up to the crossing: inf when the weight charges that slab,
    otherwise the slab's end (capped at end).  Without a crossing, start."""
    thr = young.finite_threshold
    if not (math.isfinite(thr) and profile.value(start) > thr):
        return start
    cross = start + _tail_solve_crossing(profile.back, thr)
    lo = min(max(cross, start), end)
    return math.inf if w.mass(start, lo) > 0 else lo


def _back_region_value(
    young, profile, w: _WeightView, integrand, start: float, want_value: bool
) -> float:
    """The unbounded region (start, inf) where the profile follows its back
    tail.  Returns the contribution or inf; raises on inconclusive."""
    back = profile.back
    s0 = profile.steps_end
    lo = _past_threshold(young, profile, w, start, math.inf)
    if math.isinf(lo):
        return math.inf
    junction = min(profile.value(start), young.finite_threshold)

    v0 = young.vanish_below
    if v0 > 0:
        if junction <= v0:
            return 0.0
        u0 = _tail_solve_crossing(back, v0)
        hi = s0 + u0
        if not want_value:
            return 0.0
        pieces = _geo_split(max(lo, 1e-300), hi, 8) if lo > 0 else _split(lo, hi, 8)
        return _integrate(integrand, pieces)

    if _back_diverges(young, back, w):
        return math.inf
    if not want_value:
        return 0.0

    so = young.small_order()
    if isinstance(back, ExponentialTail):
        # Psi(x) <= (Psi(j)/j) * x below the junction value j (convexity)
        j = max(junction, 1e-300)
        slope = float(young.eval(j)) / j
        u = max(10.0 / back.rate, 1.0)
        for _ in range(200):
            rem_cap = slope * back.amplitude / back.rate * math.exp(-back.rate * u)
            rem = rem_cap * w.value(lo + u)
            wm = w.mass(lo + u, math.inf)
            if math.isfinite(wm):
                rem = min(rem, slope * back.amplitude * math.exp(-back.rate * u) * wm)
            if rem < 0.5 * _ATOL:
                break
            u *= 1.6
        else:
            raise InconclusiveQuadratureError("exponential tail truncation did not certify")
    else:
        if so is None:
            raise InconclusiveQuadratureError(f"no small-argument envelope for {young.name}")
        a, g_exp, t0 = back.amplitude, back.exponent, back.offset
        kind, wtail = w.far_field()
        gamma_w = wtail.exponent if kind == "power" else 0.0
        kappa = g_exp * so.alpha + gamma_w
        u = max(t0, 1.0)
        if so.valid_to < math.inf:
            need = (a / so.valid_to) ** (1.0 / g_exp) - t0
            u = max(u, need)
        while True:
            amp_env = so.hi * (a * (t0 + u) ** (-g_exp)) ** so.alpha
            cands = []
            if g_exp * so.alpha > 1.0:
                cands.append(
                    so.hi * a**so.alpha * (t0 + u) ** (1.0 - g_exp * so.alpha)
                    / (g_exp * so.alpha - 1.0) * w.value(lo + u)
                )
            wm = w.mass(lo + u, math.inf)
            if math.isfinite(wm):
                cands.append(amp_env * wm)
            if kind == "power" and kappa > 1.0:
                moff = min(t0, wtail.offset)
                cands.append(
                    so.hi * a**so.alpha * wtail.amplitude
                    * (moff + u) ** (1.0 - kappa) / (kappa - 1.0)
                )
            rem = min(cands) if cands else math.inf
            if rem < 0.5 * _ATOL:
                break
            if u * 1.6 > 1e300:
                raise InconclusiveQuadratureError("power tail truncation did not certify")
            u *= 1.6

    hi = lo + u
    inner_cuts = [c for c in w.cuts() if lo < c < hi]
    pieces = []
    prev = lo
    for c in inner_cuts + [hi]:
        if isinstance(back, ExponentialTail):
            pieces.extend(_split(prev, c, max(int((c - prev) / max(u / 12.0, 1e-6)) + 1, 1)))
        else:
            # a slow power tail keeps its mass near the start: split geometrically
            # in offset + u, the coordinate in which it decays as a power
            pieces.extend(_decade_split(prev, c, back.offset - s0))
        prev = c
    return _integrate(integrand, pieces)


def _modular_impl(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None,
    want_value: bool,
) -> float:
    w = _WeightView(weight)
    total = 0.0

    def integrand(t):
        return young._eval_arr(profile.value(t)) * w.value(t)

    # effective end of integration: beyond it either Psi(p) = 0 or w = 0
    eff_end = math.inf
    if profile.back is None or isinstance(profile.back, ZeroTail):
        eff_end = profile.steps_end
    eff_end = min(eff_end, w.support_end)

    # 1. singular head
    fw = profile.front_width
    if profile.front is not None:
        head_end = min(fw, eff_end)
        if head_end > 0:
            if _front_diverges(young, profile.front, w):
                return math.inf
            if want_value:
                inner = sorted({c for c in w.cuts() if 0.0 < c < head_end})
                m = inner[0] if inner else head_end
                total += _front_head_value(young, profile.front, w, m)
                prev = m
                for c in inner[1:] + [head_end]:
                    if c > prev:
                        total += _integrate(integrand, _split(prev, c, 4))
                        prev = c

    # 2. steps (exact)
    t = fw
    for (lvl, _w_len), edge in zip(profile.steps, profile.step_edges):
        a, b = t, min(edge, eff_end)
        t = edge
        if b <= a:
            continue
        psi = float(young.eval(lvl))
        if psi == 0.0:
            continue
        mass = w.mass(a, b)
        if mass == 0.0:
            continue
        if math.isinf(psi):
            return math.inf
        total += psi * mass
        if t >= eff_end:
            break

    # 3. back tail
    if profile.back is not None and not isinstance(profile.back, ZeroTail):
        start = profile.steps_end
        if math.isinf(eff_end):
            res = _back_region_value(young, profile, w, integrand, start, want_value)
            if math.isinf(res):
                return math.inf
            total += res
        elif eff_end > start:
            lo = _past_threshold(young, profile, w, start, eff_end)
            if math.isinf(lo):
                return math.inf
            if want_value and eff_end > lo:
                total += _integrate(integrand, _split(lo, eff_end, 8))

    return total


def modular(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None = None,
) -> float:
    """integral_0^inf Psi(p(t)) w(t) dt; +inf exactly when a comparison test
    certifies divergence.  Raises InconclusiveQuadratureError when the value
    cannot be certified within the budget."""
    return _modular_impl(young, profile, weight, True)


def modular_is_finite(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None = None,
) -> bool:
    """Finiteness verdict of the modular by comparison tests alone (no
    quadrature is performed)."""
    return not math.isinf(_modular_impl(young, profile, weight, False))


def cross_integral(
    p: DecreasingProfile,
    weight: DecreasingProfile | None,
    upper: float,
) -> float:
    """integral_0^upper p(t) w(t) dt (exact where both are steps, quadrature
    elsewhere); upper must be finite."""
    if not (upper > 0 and math.isfinite(upper)):
        raise DomainError("cross_integral needs finite upper > 0")
    w = _WeightView(weight)
    if w.profile is None:
        return hl_partial(p, upper)
    cuts = sorted({c for c in (*p.cuts(), *w.cuts()) if 0.0 < c < upper})
    bounds = [0.0, *cuts, upper]
    total = 0.0
    fw = p.front_width

    def integrand(t):
        return p.value(t) * w.value(t)

    for a, b in zip(bounds[:-1], bounds[1:]):
        if b <= a:
            continue
        pa = p.value(0.5 * (a + b))
        in_head = p.front is not None and b <= fw
        in_tail = p.back is not None and not isinstance(p.back, ZeroTail) and a >= p.steps_end
        w_front = w.front is not None and b <= (w.front.width if w.front else 0.0)
        if not in_head and not in_tail and not w_front:
            total += pa * w.mass(a, b)
        elif a == 0.0 and (in_head or w_front):
            heads = [q.front for q, on in ((p, in_head), (w.profile, w_front)) if on]
            other = None if len(heads) == 2 else (w.profile if in_head else p)
            res = _singular_piece(heads, other, integrand, b)
            if math.isinf(res):
                return math.inf
            total += res
        else:
            total += _integrate(integrand, _split(a, b, 4))
    return total


def _heads_partial(heads, x: float) -> float:
    """Exact integral over (0, x] of the product of singular heads, x at most
    each head's width; inf when it diverges."""
    c = math.prod(h.coeff for h in heads)
    r = 1.0 - sum(h.exponent for h in heads if isinstance(h, InvPowerSingularity))
    k = sum(isinstance(h, LogSingularity) for h in heads)
    if r <= 0.0:
        return math.inf
    if k == 0:
        return c * x**r / r
    return c * _gamma_tail(k, r, math.log(1.0 / x))


def _singular_piece(heads, other, integrand, b: float) -> float:
    """integral_0^b of the singular heads times `other`, the profile that has
    no head on (0, b] (None when both factors are heads), for the first
    piece of cross_integral.

    `other` is decreasing: a constant step or a tail on (0, b].  On (0, eps]
    it lies between other(eps) and its supremum, so other(eps) * H(eps), H
    the exact integral of the heads, is within (sup - other(eps)) * H(eps)
    of that part.  eps shrinks by decades from b until this gap is below
    half the budget, and (eps, b] is integrated numerically; for a step,
    eps = b.  inf when the heads' product is not integrable at 0."""
    r_sup = 1.0 if other is None else other.sup_value
    if r_sup == 0.0:
        return 0.0
    eps = b
    while True:
        h = _heads_partial(heads, eps)
        if math.isinf(h):
            return math.inf
        r_inf = r_sup if other is None or other.steps else other.value(eps)
        if (r_sup - r_inf) * h < 0.5 * _ATOL:
            break
        if eps < 1e-290:
            raise InconclusiveQuadratureError("singular piece truncation did not certify")
        eps *= 0.1
    return r_inf * h + (_integrate(integrand, _decade_split(eps, b)) if eps < b else 0.0)
