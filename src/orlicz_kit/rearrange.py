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
tail kind); only certified-convergent pieces are then integrated numerically
(adaptive Gauss-Kronrod via scipy.integrate.quad) with an analytic truncation
bound pushed below tolerance.  Divergence is therefore always an analytic
verdict, never a quadrature blow-up, and a quadrature that cannot certify its
budget raises InconclusiveQuadratureError instead of guessing.

All values are immutable and all operations pure; results are deterministic
for fixed inputs (fixed summation order, no randomized algorithms).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import integrate as _si
from scipy import special as _sp

from .errors import DomainError, InconclusiveQuadratureError, OrliczKitError
from .young import Growth, YoungFunction

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
    data = np.loadtxt(path, dtype=float, ndmin=2)
    if data.shape[1] != 2:
        raise DomainError(f"{path}: expected two columns (value, weight)")
    return simple_function(data[:, 0], data[:, 1], space)


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


def rearrange(f: SimpleFunction) -> DecreasingProfile:
    """Decreasing rearrangement of |f|: sorted absolute values as steps,
    equal levels merged exactly, zero values dropped."""
    acc: dict[float, float] = {}
    for v, w in f.atoms:
        lvl = abs(v)
        if lvl == 0.0:
            continue
        acc[lvl] = acc.get(lvl, 0.0) + w
    steps = tuple(sorted(acc.items(), key=lambda kv: -kv[0]))
    return DecreasingProfile(steps, ZeroTail())


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


def _quad_chunks(fn, pieces, atol: float, rtol: float) -> float:
    total, err = 0.0, 0.0
    n = max(len(pieces), 1)
    for a, b in pieces:
        if b <= a:
            continue
        res = _si.quad(fn, a, b, epsabs=atol / n, epsrel=rtol, limit=200, full_output=1)
        if len(res) > 3:
            raise InconclusiveQuadratureError(f"quadrature failed on [{a:g}, {b:g}]: {res[3]}")
        total += res[0]
        err += res[1]
    if err > 10.0 * max(atol, rtol * abs(total)):
        raise InconclusiveQuadratureError("quadrature error estimate exceeds budget")
    return total


def _split(a: float, b: float, n: int) -> list[tuple[float, float]]:
    xs = np.linspace(a, b, n + 1)
    return list(zip(xs[:-1], xs[1:]))


def _geo_split(a: float, b: float, n: int) -> list[tuple[float, float]]:
    xs = np.geomspace(a, b, n + 1)
    return list(zip(xs[:-1], xs[1:]))


def _front_head_value(young, front, w: _WeightView, m: float, atol: float, rtol: float) -> float:
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
            t = math.exp(-y)
            return float(young.eval(c * y)) * w.value(t) * t

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
            if amp * _gamma_tail(k, r, ymax) < 0.5 * atol:
                break
            ymax *= 1.5
        else:
            raise InconclusiveQuadratureError("log head truncation did not certify")
        n = min(max(int((ymax - y1) / 20.0) + 1, 2), 60)
        return _quad_chunks(integrand, _split(y1, ymax, n), atol, rtol)

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
    eps = (0.5 * atol * (1.0 - beta_eff) / max(amp, 1e-300)) ** (1.0 / (1.0 - beta_eff))
    eps = min(max(eps, 1e-280), 0.5 * m)

    def integrand_t(t):
        return float(young.eval(front.coeff * t ** (-front.exponent))) * w.value(t)

    return _quad_chunks(integrand_t, _geo_split(eps, m, 8), atol, rtol)


def _tail_solve_crossing(back, level: float) -> float:
    """Local coordinate u* with back(u*) = level (back(0) > level assumed)."""
    if isinstance(back, ExponentialTail):
        return math.log(back.amplitude / level) / back.rate
    return (back.amplitude / level) ** (1.0 / back.exponent) - back.offset


def _back_region_value(
    young, profile, w: _WeightView, start: float, atol: float, rtol: float, want_value: bool
) -> float:
    """The unbounded region (start, inf) where the profile follows its back
    tail.  Returns the contribution or inf; raises on inconclusive."""
    back = profile.back
    s0 = profile.steps_end
    junction = profile.value(start)

    def integrand(t):
        return float(young.eval(profile.value(t))) * w.value(t)

    lo = start
    # a finiteness threshold crossed by the tail start makes an infinite slab
    thr = young.finite_threshold
    if math.isfinite(thr) and junction > thr:
        ustar = _tail_solve_crossing(back, thr)
        cross = s0 + ustar
        if w.mass(lo, max(cross, lo)) > 0:
            return math.inf
        lo = max(cross, lo)
        junction = min(junction, thr)

    v0 = young.vanish_below
    if v0 > 0:
        if junction <= v0:
            return 0.0
        u0 = _tail_solve_crossing(back, v0)
        hi = s0 + u0
        if not want_value:
            return 0.0
        pieces = _geo_split(max(lo, 1e-300), hi, 8) if lo > 0 else _split(lo, hi, 8)
        return _quad_chunks(integrand, pieces, atol, rtol)

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
            if rem < 0.5 * atol:
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
        for _ in range(400):
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
            if rem < 0.5 * atol:
                break
            u *= 1.6
        else:
            raise InconclusiveQuadratureError("power tail truncation did not certify")

    hi = lo + u
    inner_cuts = [c for c in w.cuts() if lo < c < hi]
    pieces = []
    prev = lo
    for c in inner_cuts + [hi]:
        pieces.extend(_split(prev, c, max(int((c - prev) / max(u / 12.0, 1e-6)) + 1, 1)))
        prev = c
    return _quad_chunks(integrand, pieces, atol, rtol)


def _modular_impl(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None,
    want_value: bool,
    atol: float,
    rtol: float,
) -> float:
    w = _WeightView(weight)
    total = 0.0

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
                total += _front_head_value(young, profile.front, w, m, atol, rtol)
                prev = m
                for c in inner[1:] + [head_end]:
                    if c > prev:
                        def integrand(t):
                            return float(young.eval(profile.value(t))) * w.value(t)

                        total += _quad_chunks(integrand, _split(prev, c, 4), atol, rtol)
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
            res = _back_region_value(young, profile, w, start, atol, rtol, want_value)
            if math.isinf(res):
                return math.inf
            total += res
        elif eff_end > start and want_value:
            thr = young.finite_threshold
            lo = start
            if math.isfinite(thr) and profile.value(start) > thr:
                cross = start + _tail_solve_crossing(profile.back, thr)
                if w.mass(lo, min(cross, eff_end)) > 0:
                    return math.inf
                lo = min(cross, eff_end)
            def integrand(t2):
                return float(young.eval(profile.value(t2))) * w.value(t2)

            if eff_end > lo:
                total += _quad_chunks(integrand, _split(lo, eff_end, 8), atol, rtol)
        elif eff_end > start:
            thr = young.finite_threshold
            if math.isfinite(thr) and profile.value(start) > thr:
                cross = start + _tail_solve_crossing(profile.back, thr)
                if w.mass(start, min(cross, eff_end)) > 0:
                    return math.inf

    return total


def modular(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None = None,
    *,
    atol: float = 1e-10,
    rtol: float = 1e-8,
) -> float:
    """integral_0^inf Psi(p(t)) w(t) dt; +inf exactly when a comparison test
    certifies divergence.  Raises InconclusiveQuadratureError when the value
    cannot be certified within the budget."""
    return _modular_impl(young, profile, weight, True, atol, rtol)


def modular_is_finite(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None = None,
) -> bool:
    """Finiteness verdict of the modular by comparison tests alone (no
    quadrature is performed)."""
    return not math.isinf(_modular_impl(young, profile, weight, False, 1e-10, 1e-8))


def cross_integral(
    p: DecreasingProfile,
    weight: DecreasingProfile | None,
    upper: float,
    *,
    atol: float = 1e-10,
    rtol: float = 1e-8,
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
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b <= a:
            continue
        pa = p.value(0.5 * (a + b))
        in_head = p.front is not None and b <= fw
        in_tail = p.back is not None and not isinstance(p.back, ZeroTail) and a >= p.steps_end
        w_front = w.front is not None and b <= (w.front.width if w.front else 0.0)
        if not in_head and not in_tail and not w_front:
            total += pa * w.mass(a, b)
            continue
        if in_head and isinstance(p.front, InvPowerSingularity) and p.front.exponent >= 1.0 and a == 0.0:
            return math.inf

        def integrand(t):
            return p.value(t) * w.value(t)

        lo = max(a, 1e-12 * upper) if a == 0.0 else a
        if a == 0.0 and (in_head or w_front):
            # integrable singular piece; shrink the cutoff until stable
            total += _quad_chunks(integrand, _geo_split(max(lo, 1e-280), b, 12), atol, rtol)
        else:
            total += _quad_chunks(integrand, _split(a, b, 4), atol, rtol)
    return total
