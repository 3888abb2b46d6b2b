"""Measure descriptors, simple functions, decreasing profiles, and modulars.

A DecreasingProfile is the common currency of the classical and quantum
sides: a non-increasing, right-continuous function on (0, inf) assembled from

  * an optional singular `head` near t = 0 (log_singularity: c*log(1/t), or
    inv_power: c*t**-theta), modelling unbounded rearrangements,
  * a finite stack of steps (level, length) with strictly decreasing levels,
  * an optional analytic `tail` after the steps (exponential a*e^(-beta*u) or
    power a*(t0+u)**-gamma in the local coordinate u measured from the end
    of the steps), modelling slow decay on infinite measure.

Either end, or both, may be present.  Each head and tail class owns its
closed forms (value, exact partial integral, and for tails the level
crossing); the profile composes them and scales them.

modular(Y, p, w) evaluates integral_0^inf Psi(p(t)) * w(t) dt against an
optional weight profile (Lebesgue when omitted).  Step-by-step pieces
integrate exactly in closed form.  Pieces involving analytic heads or tails
are decided first by the comparison tests of _finite_scale, which also
decide membership; only certified-convergent pieces are then integrated
numerically, with an analytic truncation bound below half the budget.
Every cutoff is the first rung of a fixed geometric ladder where its bound
holds, found by _cutoff: a gallop-and-bisect search, _first_holding, that
starts at the rung the bound's decay law predicts from its value at the
first rung, and raises where no rung holds.  Both singular heads share one
such rule in y = log(1/t), a closed-form bound on the tail of an envelope
y**k * e^(-r*y) of the integrand.  Divergence is therefore always an
analytic verdict, never a quadrature blow-up.  Each piece starts on
panels across which the integrand's envelope falls by a bounded factor: a
log head on 1.1 panels per decay length in y, a power tail on three panels
a decade of offset + u.

The numerical part is one kernel, _integrate: adaptive Gauss-Kronrod 7/15
in the style of QUADPACK (Piessens et al., 1983) that evaluates the
integrand on every node of every active panel in one numpy call.  Each
caller hands it its piece layout as one (n, 2) array.  Its
contract: it returns a sum whose error estimate is at most
max(_ATOL, _RTOL*|sum|), and otherwise raises InconclusiveQuadratureError
(a non-finite integrand value, or 200 panels per starting panel used up)
instead of guessing.

All values are immutable and all operations pure; results are deterministic
for fixed inputs (fixed summation order, no randomized algorithms).
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import accumulate, chain, islice, repeat, takewhile

import numpy as np

from .errors import DomainError, InconclusiveQuadratureError, OrliczKitError
from .young import Growth, YoungFunction, _load_two_columns


class _LazyIntegrate:
    """scipy.integrate, imported at the first attribute read (half the package's
    import time): unused here, but perfbench/tracing.py patches _si.quad."""

    def __getattr__(self, attr: str):
        from scipy import integrate

        return getattr(integrate, attr)


_si = _LazyIntegrate()

__all__ = [
    "MeasureSpaceDesc",
    "probability_space",
    "finite_space",
    "sigma_finite_space",
    "SimpleFunction",
    "simple_function",
    "load_simple_function",
    "add_aligned",
    "ExponentialTail",
    "PowerTail",
    "LogSingularity",
    "InvPowerSingularity",
    "DecreasingProfile",
    "profile_from_dict",
    "load_json_input",
    "rearrange",
    "hl_partial",
    "hl_partials",
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
    if not np.all(np.abs(f.weights - g.weights) <= 1e-12 * g.weights):
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


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _unchecked(obj, **changes):
    """dataclasses.replace(obj, **changes) without __init__ and its checks."""
    out = object.__new__(type(obj))
    vars(out).update({name: getattr(obj, name) for name in _field_names(type(obj))}, **changes)
    return out


@dataclass(frozen=True)
class ExponentialTail:
    """value(u) = amplitude * exp(-rate * u), u measured from the junction."""

    amplitude: float
    rate: float
    kind = "exponential"

    def __post_init__(self):
        if not (0 < self.amplitude < math.inf and 0 < self.rate < math.inf):
            raise DomainError("exponential tail needs finite amplitude > 0 and rate > 0")

    @property
    def junction(self) -> float:
        return self.amplitude

    def value(self, u):
        return self.amplitude * np.exp(-self.rate * u)

    def partial(self, u: float) -> float:
        """integral over the first u units (u may be inf)."""
        if u <= 0:
            return 0.0
        if math.isinf(u):
            return self.amplitude / self.rate
        return self.amplitude / self.rate * -math.expm1(-self.rate * u)

    def crossing(self, level: float) -> float:
        """u* with value(u*) = level (level below the junction)."""
        return math.log(self.amplitude / level) / self.rate


@dataclass(frozen=True)
class PowerTail:
    """value(u) = amplitude * (offset + u)**-exponent, offset > 0."""

    amplitude: float
    exponent: float
    offset: float = 1.0
    kind = "power"

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.amplitude, self.exponent, self.offset)):
            raise DomainError("power tail needs finite amplitude, exponent, offset > 0")
        try:
            self.offset ** (-self.exponent)
        except OverflowError:
            raise DomainError("power tail offset ** -exponent overflows") from None

    @property
    def junction(self) -> float:
        return self.amplitude * self.offset ** (-self.exponent)

    def value(self, u):
        return self.amplitude * (self.offset + u) ** (-self.exponent)

    def partial(self, u: float) -> float:
        """integral over the first u units (u may be inf)."""
        if u <= 0:
            return 0.0
        a, g, t0 = self.amplitude, self.exponent, self.offset
        if g == 1.0:
            return math.inf if math.isinf(u) else a * math.log((t0 + u) / t0)
        if math.isinf(u):
            return math.inf if g < 1.0 else a * t0 ** (1.0 - g) / (g - 1.0)
        return a / (1.0 - g) * ((t0 + u) ** (1.0 - g) - t0 ** (1.0 - g))

    def crossing(self, level: float) -> float:
        """u* with value(u*) = level (level below the junction); inf where
        the float power overflows."""
        return _power_or_inf(self.amplitude / level, 1.0 / self.exponent) - self.offset


@dataclass(frozen=True)
class LogSingularity:
    """Head near t = 0: value(t) = coeff * log(1/t) on (0, width], width <= 1."""

    coeff: float = 1.0
    width: float = 1.0
    kind = "log_singularity"

    def __post_init__(self):
        if not (0 < self.coeff < math.inf and 0 < self.width <= 1.0):
            raise DomainError("log singularity needs finite coeff > 0 and width in (0, 1]")

    @property
    def at_width(self) -> float:
        return self.coeff * math.log(1.0 / self.width)

    def value(self, t):
        return self.coeff * np.log(1.0 / t)

    def partial(self, x: float) -> float:
        """integral_0^x, x <= width."""
        if x <= 0:
            return 0.0
        return self.coeff * x * (1.0 - math.log(x))


@dataclass(frozen=True)
class InvPowerSingularity:
    """Head near t = 0: value(t) = coeff * t**-exponent on (0, width]."""

    coeff: float = 1.0
    exponent: float = 1.0
    width: float = 1.0
    kind = "inv_power"

    def __post_init__(self):
        if not all(0 < x < math.inf for x in (self.coeff, self.exponent, self.width)):
            raise DomainError("inverse-power singularity needs finite positive parameters")

    @property
    def at_width(self) -> float:
        return self.coeff * self.width ** (-self.exponent)

    def value(self, t):
        return self.coeff * t ** (-self.exponent)

    def partial(self, x: float) -> float:
        """integral_0^x, x <= width; inf when exponent >= 1."""
        if x <= 0:
            return 0.0
        th = self.exponent
        if th >= 1.0:
            return math.inf
        return self.coeff * x ** (1.0 - th) / (1.0 - th)


Head = LogSingularity | InvPowerSingularity
Tail = ExponentialTail | PowerTail


@dataclass(frozen=True)
class DecreasingProfile:
    """Canonical decreasing rearrangement: singular head + steps + tail.

    `head` (log_singularity / inv_power) covers (0, head.width]; the steps
    follow it; `tail` (exponential / power) follows the steps, in the local
    coordinate u measured from their end.  Either end may be None: without a
    tail the profile is zero after the steps.
    """

    steps: tuple[tuple[float, float], ...] = ()
    tail: Tail | None = None
    head: Head | None = None

    def __post_init__(self):
        if not isinstance(self.head, Head | None):
            raise DomainError(f"the head must be a singular head, not {self.head!r}")
        if not isinstance(self.tail, Tail | None):
            raise DomainError(f"the tail must be an exponential or power tail, not {self.tail!r}")
        levels = [l for l, _ in self.steps]
        for l, w in self.steps:
            if not (w > 0 and math.isfinite(w)):
                raise DomainError("step lengths must be positive and finite")
            if not (l >= 0 and math.isfinite(l)):
                raise DomainError("step levels must be finite and >= 0")
        if any(a <= b for a, b in zip(levels, levels[1:])):
            raise DomainError("step levels must be strictly decreasing")
        if self.head is not None and (self.steps or self.tail is not None):
            below = levels[0] if self.steps else self.tail.junction
            if self.head.at_width < below - 1e-15 * max(1.0, below):
                raise DomainError("singular head must dominate the first step level"
                                  if self.steps else "singular head must dominate the tail")
        if self.tail is not None and self.steps:
            junction = self.tail.junction
            if junction > levels[-1] + 1e-15 * max(1.0, junction):
                raise DomainError("tail level at the junction exceeds the last step level")

    @property
    def head_width(self) -> float:
        return self.head.width if self.head is not None else 0.0

    @cached_property
    def step_edges(self) -> tuple[float, ...]:
        """Cumulative right edges of the steps, starting after the head."""
        edges = []
        t = self.head_width
        for _, w in self.steps:
            t += w
            edges.append(t)
        return tuple(edges)

    @cached_property
    def _edge_array(self) -> np.ndarray:
        return np.asarray(self.step_edges)

    @cached_property
    def _level_array(self) -> np.ndarray:
        return np.asarray([l for l, _ in self.steps])

    @cached_property
    def _hl_table(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The left end of each step, and the integral up to each left end
        and past the last step: the head's partial, then level * length per
        step, summed left to right."""
        starts = (self.head_width, *self.step_edges)[: len(self.steps)]
        head = self.head.partial(self.head_width) if self.head is not None else 0.0
        pieces = (l * (e - t) for (l, _), e, t in zip(self.steps, self.step_edges, starts))
        return starts, tuple(accumulate(pieces, initial=head))

    @property
    def steps_end(self) -> float:
        return self.step_edges[-1] if self.steps else self.head_width

    @property
    def support_end(self) -> float:
        return math.inf if self.tail is not None else self.steps_end

    @property
    def is_bounded(self) -> bool:
        return self.head is None

    @property
    def sup_value(self) -> float:
        if self.head is not None:
            return math.inf
        if self.steps:
            return self.steps[0][0]
        return self.tail.junction if self.tail is not None else 0.0

    @property
    def is_zero(self) -> bool:
        return self.head is None and self.tail is None and not any(l > 0 for l, _ in self.steps)

    def value(self, t):
        """mu_t, right-continuous, vectorized; defined for t > 0.

        Points all in the head (t < head_width) or all on the tail (t >=
        steps_end) take only that piece's expression; other points, NaN and
        an empty array take the full chain.  Both compute each point with
        the same ufuncs on operands of the same type (0-d array, np.float64
        or array), and a change must keep it so: numpy's vectorised exp and
        pow round differently from libm and from its own scalar loops."""
        arr = np.asarray(t, dtype=float)
        hw = self.head_width
        if arr.ndim == 0:
            lo = hi = float(arr)
        elif arr.size:
            lo, hi = arr.min(), arr.max()
        else:
            lo = hi = math.nan
        if self.head is not None and hi < hw:
            with np.errstate(divide="ignore", over="ignore"):
                out = self.head.value(np.maximum(arr, 1e-320))
        elif self.tail is not None and lo >= self.steps_end:
            with np.errstate(over="ignore"):
                out = self.tail.value(np.maximum(arr - self.steps_end, 0.0))
        else:
            out = np.zeros_like(arr)
            if self.head is not None:
                with np.errstate(divide="ignore", over="ignore"):
                    out = np.where(arr < hw, self.head.value(np.maximum(arr, 1e-320)), out)
            if self.steps:
                idx = np.searchsorted(self._edge_array, arr, side="right")
                in_steps = (arr >= hw) & (idx < len(self.steps))
                out = np.where(in_steps, self._level_array[np.minimum(idx, len(self.steps) - 1)], out)
            if self.tail is not None:
                u = arr - self.steps_end
                with np.errstate(over="ignore"):
                    out = np.where(u >= 0, self.tail.value(np.maximum(u, 0.0)), out)
        return float(out) if np.ndim(t) == 0 else out

    def cuts(self) -> tuple[float, ...]:
        """Interior breakpoints (head end and step edges), ascending."""
        pts = [self.head_width] if self.head is not None else []
        pts.extend(self.step_edges)
        return tuple(dict.fromkeys(pts))

    def scale(self, a: float) -> "DecreasingProfile":
        """The profile of a*|f|: _scaled(a), checked anew (DomainError on overflow or underflow)."""
        if not (a > 0 and math.isfinite(a)):
            raise DomainError("scale factor must be positive and finite")
        s = self._scaled(a)
        return DecreasingProfile(s.steps, *(None if x is None else dataclasses.replace(x) for x in (s.tail, s.head)))

    def _scaled(self, c: float) -> "DecreasingProfile":
        """The profile of c*|f| unchecked, for norm searches: scale's products and the
        unscaled step edges; a head or tail that underflows to 0 adds 0 to the modular."""
        tail = None if self.tail is None else _unchecked(self.tail, amplitude=c * self.tail.amplitude)
        head = None if self.head is None else _unchecked(self.head, coeff=c * self.head.coeff)
        return _unchecked(self, steps=tuple((c * l, w) for l, w in self.steps), tail=tail, head=head,
                          step_edges=self.step_edges, _edge_array=self._edge_array)

    def to_dict(self) -> dict:
        d = {"steps": [[l, w] for l, w in self.steps]}
        for key, piece in (("head", self.head), ("tail", self.tail)):
            if piece is not None:
                d[key] = {"kind": piece.kind, **dataclasses.asdict(piece)}
        return d


_PIECES = {c.kind: c for c in (LogSingularity, InvPowerSingularity, ExponentialTail, PowerTail)}
#: Keys a profile file must give although the class has a default for them.
_REQUIRED = {"inv_power": ("exponent",)}


def _piece_from_dict(d: dict, where: str):
    """The head or tail a profile file describes under `where`; None for
    kind zero.  Keys outside the kind's fields are rejected."""
    kind = d.get("kind", "zero")
    if kind != "zero" and kind not in _PIECES:
        raise DomainError(f"unknown {where} kind {kind!r}")
    fields = dataclasses.fields(_PIECES[kind]) if kind != "zero" else ()
    unknown = sorted(set(d) - {"kind", *(f.name for f in fields)})
    if unknown:
        raise DomainError(f"unknown key(s) {', '.join(map(repr, unknown))} in the {kind} {where}")
    for f in fields:
        if f.name not in d and (f.default is dataclasses.MISSING or f.name in _REQUIRED.get(kind, ())):
            raise KeyError(f.name)
    if kind == "zero":
        return None
    return _PIECES[kind](**{f.name: _json_number(d[f.name]) for f in fields if f.name in d})


def _json_number(x) -> float:
    """A number read from JSON as a float: an int or a float, not a bool,
    a string or anything else (DomainError)."""
    if isinstance(x, bool) or not isinstance(x, int | float):
        raise DomainError(f"expected a number, not {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError("an integer too large for a double") from None


def profile_from_dict(d: dict) -> DecreasingProfile:
    """The profile of a JSON object {"steps", "head", "tail"}.  A head kind
    under "tail", the older layout, is read as the head."""
    if not isinstance(d, dict):
        raise DomainError("a profile must be a JSON object")
    unknown = sorted(set(d) - {"steps", "head", "tail"})
    if unknown:
        raise DomainError(f"unknown profile key(s) {', '.join(map(repr, unknown))}")
    steps = tuple((_json_number(l), _json_number(w)) for l, w in d.get("steps", []))
    head = _piece_from_dict(d["head"], "head") if "head" in d else None
    tail = _piece_from_dict(d.get("tail", {}), "tail")
    if isinstance(tail, Head):
        if head is not None:
            raise DomainError("a profile has at most one singular head")
        head, tail = tail, None
    return DecreasingProfile(steps, tail, head)


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


def _merged_steps(pairs) -> list[tuple[float, float]]:
    """(level, length) pairs with equal levels merged exactly by adding their
    lengths in input order, zero levels dropped, levels sorted decreasingly."""
    acc: dict[float, float] = {}
    for lvl, w in pairs:
        if lvl != 0.0:
            acc[lvl] = acc.get(lvl, 0.0) + w
    return sorted(acc.items(), key=lambda kv: -kv[0])


def _step_profile(pairs) -> DecreasingProfile:
    """Step profile of (level, length) pairs, merged by _merged_steps."""
    return DecreasingProfile(tuple(_merged_steps(pairs)))


def rearrange(f: SimpleFunction) -> DecreasingProfile:
    """Decreasing rearrangement of |f|: sorted absolute values as steps,
    equal levels merged exactly, zero values dropped."""
    return _step_profile((abs(v), w) for v, w in f.atoms)


# ----------------------------------------------------------------------------
# exact partial integrals
# ----------------------------------------------------------------------------


def hl_partial(p: DecreasingProfile, alpha: float) -> float:
    """Exact integral of the profile over (0, alpha]; alpha may be inf.

    One bisection into the profile's prefix table and one multiply-add, so
    O(log n) in the number of steps; a NaN or alpha <= 0 raises."""
    if not alpha > 0:
        raise DomainError("hl_partial needs alpha > 0")
    if alpha <= p.head_width:
        return p.head.partial(alpha)
    starts, prefix = p._hl_table
    k = bisect_right(p.step_edges, alpha)
    if k < len(starts):
        return prefix[k] + p.steps[k][0] * (alpha - starts[k])
    if p.tail is not None and alpha > p.steps_end:
        return prefix[k] + p.tail.partial(alpha - p.steps_end)
    return prefix[k]


def hl_partials(p: DecreasingProfile, alphas) -> np.ndarray:
    """hl_partial at each of an array of alphas, bit for bit the same: one
    searchsorted into the same prefix table."""
    a = np.asarray(alphas, dtype=float)
    if not np.all(a > 0):
        raise DomainError("hl_partial needs alpha > 0")
    starts, prefix = p._hl_table
    k = np.searchsorted(p._edge_array, a, side="right")
    out = np.asarray(prefix)[k]
    inner = k < len(starts)
    ki = k[inner]
    out[inner] += p._level_array[ki] * (a[inner] - np.asarray(starts)[ki])
    if p.head is not None:
        head = a <= p.head_width
        out[head] = [p.head.partial(x) for x in a[head].tolist()]
    if p.tail is not None:
        tail = a > p.steps_end
        out[tail] = [prefix[-1] + p.tail.partial(x - p.steps_end) for x in a[tail].tolist()]
    return out


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
    def head(self):
        return None if self.profile is None else self.profile.head

    @property
    def inv_order(self) -> float:
        """theta of an inverse-power head of the weight (0 otherwise)."""
        h = self.head
        return h.exponent if isinstance(h, InvPowerSingularity) else 0.0

    @property
    def has_log_head(self) -> bool:
        return isinstance(self.head, LogSingularity)

    @property
    def head_coeff(self) -> float:
        """Constant A with w(t) <= A * (head shape) near t = 0: the head's
        coefficient, or the supremum of a weight without a head."""
        if self.head is not None:
            return self.head.coeff
        return self.profile.sup_value if self.profile is not None else 1.0

    def far_field(self):
        """Behaviour on the unbounded end: ('lebesgue'|'exp'|'power'|'zero', tail)."""
        if self.profile is None:
            return ("lebesgue", None)
        b = self.profile.tail
        if b is None:
            return ("zero", None)
        return ("exp" if isinstance(b, ExponentialTail) else "power", b)


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


def _tail_diverges(young: YoungFunction, tail, w: _WeightView) -> bool:
    """Does the unbounded tail region diverge?  (exp tails never do)."""
    if isinstance(tail, ExponentialTail):
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
    return tail.exponent * so.alpha + gamma_w <= 1.0


def _charged_top(p: DecreasingProfile, w: _WeightView, end: float) -> float:
    """p's value where the weight first charges it before `end`: the first
    step level of positive weight mass, else the tail's start value, else 0."""
    for (level, _), a, b in zip(p.steps, (p.head_width, *p.step_edges), p.step_edges):
        if min(b, end) > a and w.mass(a, min(b, end)) > 0:
            return level
    start = p.steps_end
    if p.tail is not None and end > start and w.mass(start, end) > 0:
        return p.value(start)
    return 0.0


def _finite_scale(young: YoungFunction, p: DecreasingProfile, w: _WeightView) -> float | None:
    """The comparison tests of integral Psi(lam p) w, in the order head, steps,
    tail: the largest lam = 2^-k (k >= 0) that passes them all, or None when
    the integral diverges at every lam.  Every lam fails for a head under
    threshold growth or against a weight head t**-theta_w with theta_w >= 1,
    an inverse-power head under exp growth or with theta*d + theta_w >= 1,
    and a tail that _tail_diverges.  Small lam pass lam*c*rate + theta_w < 1
    (a log head under exp growth) and lam*top <= thr (top = _charged_top; v0,
    where Psi vanishes, in place of thr when theta_w >= 1 makes the weight's
    mass there infinite), each in the float expression of the test on
    p._scaled(lam).  A finite Psi that overflows a double is no divergence."""
    eff_end = min(p.support_end, w.support_end)
    theta_w = w.inv_order
    lam = 1.0

    def below(holds) -> float:
        # the first of lam, lam/2, lam/4, ... (exact powers of 2) that holds
        x = _first_holding(holds, takewhile(partial(operator.lt, 0.0), _ladder(lam, 0.5)))
        if x is None:
            raise InconclusiveQuadratureError("no double scale passes the comparison tests")
        return x

    head = p.head
    if head is not None and min(p.head_width, eff_end) > 0:
        g = _require_growth(young)
        if g.kind == "threshold" or theta_w >= 1.0:
            return None
        if isinstance(head, InvPowerSingularity):
            if g.kind == "exp" or head.exponent * g.degree + theta_w >= 1.0:
                return None
        elif g.kind == "exp":
            lam = below(lambda x: x * head.coeff * g.rate + theta_w < 1.0)
    bound = young.vanish_below if theta_w >= 1.0 else young.finite_threshold
    top = _charged_top(p, w, eff_end) if bound < math.inf else 0.0
    if top > 0.0:
        if bound <= 0.0:
            return None
        lam = below(lambda x: x * top <= bound)
    if p.tail is not None and math.isinf(eff_end) and _tail_diverges(young, p.tail, w):
        return None
    return lam


# ----------------------------------------------------------------------------
# certified numerics
# ----------------------------------------------------------------------------


def _gamma_tail(k: float, r: float, y: float) -> float:
    """An upper bound on integral_y^inf s**k * exp(-r*s) ds, k >= 0:
    y**k * e^(-r*y) / (r - k/y), since (s/y)**k <= e^(k*(s - y)/y).  Exact
    for k = 0; inf where r*y <= k, and where the float value overflows."""
    if not r * y > k:
        return math.inf
    try:
        return math.exp(k * math.log(y) - r * y) / (r - k / y)
    except OverflowError:
        return math.inf


def _power_or_inf(x: float, d: float) -> float:
    """x ** d, +inf where the float power overflows: a truncation bound that
    certifies no cutoff, or a cutoff past every bound."""
    try:
        return x**d
    except OverflowError:
        return math.inf


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
    # where e is 0 and resasc is not, scaled is 0 too
    e = np.where(resasc != 0.0, scaled, e)
    return resk * half, np.maximum(_EPS50 * (np.abs(f) @ _GK_KRONROD), e) * half


def _integrate(fn, pieces) -> float:
    """Certified integral of fn over the union of the pieces (a, b).

    fn maps an array of points to the integrand there; pieces is an (n, 2)
    array-like of (a, b) rows, and rows with b <= a are dropped.  Every
    piece starts as one panel.  Each round applies _gk15 to all new panels,
    with one call of fn, and bisects every panel whose error estimate
    exceeds its equal share of the budget max(_ATOL, _RTOL*|total|).
    Returns once the summed estimate meets the budget; raises
    InconclusiveQuadratureError on a non-finite integrand value or total,
    or when the panels reach _PANELS_PER_PIECE per piece.

    Kept panels come first and new ones after them, in a fixed order, since
    numpy's pairwise sum depends on it.  A change must keep that order and
    each ufunc and operand type: the reported bits depend on them."""
    lo, hi = np.asarray(pieces, dtype=float).reshape(-1, 2).T
    wide = hi > lo
    lo, hi = lo[wide], hi[wide]
    if not lo.size:
        return 0.0
    cap = _PANELS_PER_PIECE * lo.size
    a = b = res = err = np.empty(0)
    budget = _ATOL
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        while True:
            r, e = _gk15(fn, lo, hi)
            if not np.isfinite(r + e).all():  # also where fn is not finite
                i = int(np.argmax(~np.isfinite(r + e)))
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
            sa, sb = a[split], b[split]
            mid = 0.5 * (sa + sb)
            lo, hi = np.concatenate((sa, mid)), np.concatenate((mid, sb))
            keep = ~split
            a, b, res, err = a[keep], b[keep], res[keep], err[keep]


def _layout(edges: np.ndarray) -> np.ndarray:
    """The contiguous pieces between consecutive edges, as an (n, 2) array."""
    out = np.empty((edges.size - 1, 2))
    out[:, 0], out[:, 1] = edges[:-1], edges[1:]
    return out


def _linspace(a: float, b: float, n: int) -> np.ndarray:
    """np.linspace(a, b, n + 1), n >= 1, by its own arithmetic (i * step + a,
    the last point b) without its call overhead, which costs more than the
    points; a zero step, which linspace treats apart, goes to linspace."""
    step = (b - a) / n
    if step == 0:
        return np.linspace(a, b, n + 1)
    xs = np.arange(n + 1.0) * step + a
    xs[-1] = b
    return xs


def _split(a: float, b: float, n: int) -> np.ndarray:
    """n equal pieces of (a, b), as an (n, 2) array."""
    return _layout(_linspace(a, b, n))


def _geo_split(a: float, b: float, n: int, shift: float = 0.0) -> np.ndarray:
    """n pieces of (a, b) whose ends are in geometric progression in t + shift:
    the points of np.geomspace, by its own steps (log10, linspace, power)
    without its input checks and sign handling, which cost twice the rest."""
    xs = np.power(10.0, _linspace(np.log10(a + shift), np.log10(b + shift), n)) - shift
    xs[0], xs[-1] = a, b
    return _layout(xs)


def _decades(a: float, b: float, shift: float = 0.0) -> int:
    """The number of decades, at least 1, that (a, b) spans in t + shift > 0."""
    return max(math.ceil(math.log10((b + shift) / (a + shift))), 1)


def _cut(pieces: np.ndarray, points) -> np.ndarray:
    """The contiguous layout `pieces` (an (n, 2) array of ascending pieces,
    each starting where the one before ends), split at the points inside it."""
    a, b = pieces[0, 0], pieces[-1, 1]
    inside = [x for x in points if a < x < b]
    if not inside:
        return pieces
    return _layout(np.unique(np.concatenate((pieces[:, 0], pieces[-1:, 1], inside))))


def _head_value(young, head, w: _WeightView, m: float) -> float:
    """Certified value of integral_0^m Psi(head(t)) w(t) dt (already known to
    converge); m has no weight cuts inside.  Either head is integrated in
    y = log(1/t) from y1 = log(1/m) to the first rung of its ladder where the
    bound amp * _gamma_tail(k, r, y) on the tail of an envelope
    amp * y**k * e^(-r*y) of the integrand, exact for k = 0, is below half
    of _ATOL.  The inverse-power ladder ends at y = log(1e280), where that
    bound is accepted only within half the relative budget.  The log head
    starts on 1.1 panels per decay length 1/r of that envelope; the pieces
    are split where the head crosses a positive kink of Psi, whose jump in
    psi a Gauss-Kronrod panel's error estimate can miss."""
    g = _require_growth(young)
    theta_w, w_log, wA = w.inv_order, float(w.has_log_head), w.head_coeff
    c, y1 = head.coeff, math.log(1.0 / m)
    kinks = [b for b in young.kinks if b > 0]
    if isinstance(head, LogSingularity):
        def level(y):
            return c * y

        if g.kind == "exp":
            r = 1.0 - c * g.rate - theta_w
            k = g.degree + w_log
            amp = g.hi * _power_or_inf(c, g.degree) * wA
            y_lo = max(y1, g.valid_from / c)
        else:
            r = 1.0 - theta_w
            k = g.degree + (0.5 if g.has_log else 0.0) + w_log
            amp = g.hi * _power_or_inf(max(c, 1.0), g.degree) * 2.0 * (1.0 + abs(math.log(c))) * wA
            y_lo = y1
        kinks, last = [b / c for b in kinks], math.inf
    else:
        # poly growth: Psi(c e^(theta*y)) <= hi c^d e^(theta*d*y) ((1 + |log c|)
        # (1 + theta)(1 + y))**has_log, a weight's log head adds a factor y,
        # and 1 + y <= 2y for y >= 1
        th = head.exponent

        def level(y):
            return c * np.exp(th * y)

        r = 1.0 - th * g.degree - theta_w
        k = float(g.has_log) + w_log
        amp = g.hi * _power_or_inf(c, g.degree) * (2.0 * (1.0 + abs(math.log(c))) * (1.0 + th)) ** k * wA
        y_lo = max(y1, 1.0)
        kinks, last = [(math.log(b) - math.log(c)) / th for b in kinks], math.log(1e280)
    start = max(y_lo, y1 + 1.0, 2.0 / max(r, 1e-3))
    if last == math.inf:
        factor, rungs = 1.5, islice(_ladder(start, 1.5), 400)
    else:
        factor, rungs = 2.0, chain(takewhile(partial(operator.gt, last), _ladder(start, 2.0)), [last])

    def dropped(y: float) -> float:
        return amp * _gamma_tail(k, r, y)

    def crossing(y0: float, d0: float) -> float:
        # three fixed-point steps towards amp * y**k * e^(-r*y) = _ATOL / 2,
        # that envelope fitted to d0 at y0
        y = y0
        for _ in range(3):
            y = y0 + (math.log(d0 / (0.5 * _ATOL)) + k * math.log(y / y0)) / r
        return y

    ymax = _cutoff("log head", lambda y: 0.0 if y == last else dropped(y), rungs, factor, crossing)

    def integrand(y):
        t = np.exp(-y)
        return young._eval_arr(level(y)) * w.value(t) * t

    # the log head starts on 1.1 panels per decay length 1/r of the envelope,
    # each of which one qk15 round resolves, where panels 20 wide took three
    # or four (1.1 rather than 1 keeps every sweep case's outcome and the
    # weighted golden's bits); the inverse-power head certifies in one round
    # on panels 20 wide, and 1/r ones over its clamped range would only add
    # panels
    n = math.ceil(1.1 * r * (ymax - y1)) if last == math.inf else int((ymax - y1) / 20.0) + 1
    value = _integrate(integrand, _cut(_split(y1, ymax, min(max(n, 2), 60)), kinks))
    if ymax == last and not dropped(last) < 0.5 * max(_ATOL, _RTOL * value):
        raise InconclusiveQuadratureError("inverse-power head truncation did not certify")
    return value


def _ladder(start: float, factor: float):
    """The rungs start, start*factor, (start*factor)*factor, ..., each the
    product of the one before and factor, without end."""
    return accumulate(repeat(factor), operator.mul, initial=start)


def _first_holding(holds, rungs, guess: int = 0) -> float | None:
    """The first rung x of the ladder `rungs` with holds(x), for a test that,
    once true, stays true along the ladder; None when it fails at the last.

    Bentley and Yao's unbounded search, entered at rung `guess` (clamped to
    the ladder).  Where that rung holds, a gallop down over guess - 1,
    guess - 3, guess - 7, ... stops at the first rung that fails; where it
    fails, a gallop up over guess + 1, guess + 3, guess + 7, ..., capped at
    the last rung, stops at the first that holds.  A bisection of the gap
    between the last failure and the last success then finds the rung a
    linear scan would stop at, in about 2*log2(|k - guess|) tests; a guess
    of the answer k >= 1 takes two.  Each rung is tested at most once, and
    the ladder is read lazily, up to the larger of rung guess and rung
    2k - guess.  The ladders in use, with the entry rung of each (a guess of
    rung 0 is the plain search from the start):

      * log head, in y = log(1/t): from max(y_lo, y1 + 1, 2/max(r, 1e-3)),
        x1.5, 400 rungs; entered where amp * y**k * e^(-r*y), fitted to the
        bound at the first rung, falls to half of _ATOL;
      * inverse-power head, in y = log(1/t): from the same start, x2, while
        below log(1e280), then log(1e280); entered as the log head;
      * exponential tail length: from max(10/rate, 1), x1.6, 200 rungs;
        entered where e^(-rate*u), fitted likewise, falls to that bound;
      * power tail length: from max(offset, 1, the envelope's validity), x1.6,
        while at most 1e300 (the first rung always); entered where
        (offset + u)**(1 - kappa) falls to that bound, or e^(-rate*u) for
        a weight with an exponential tail of that rate;
      * singular piece of cross_integral, eps: from b, x0.1, up to the first
        rung below 1e-290;
      * the scale of the comparison tests (_finite_scale): 1, 1/2, 1/4,
        ..., while positive;
      * value-only norm brackets (_level_crossing: analytic Luxemburg
        norms, thresholds and Amemiya norms): x4 (then the largest double)
        or x0.25, while t and 1/t are finite, up to the nearest point
        already known past the crossing."""
    rungs = iter(rungs)
    seen = list(islice(rungs, guess + 1))
    if not seen:
        return None
    guess = k = len(seen) - 1
    if holds(seen[k]):
        failed = -1
        while k > 0:
            down = max(2 * k - guess - 1, 0)
            if not holds(seen[down]):
                failed = down
                break
            k = down
    else:
        failed, k = k, k + 1
        while True:
            seen.extend(islice(rungs, k + 1 - len(seen)))
            k = min(k, len(seen) - 1)
            if k == failed:
                return None
            if holds(seen[k]):
                break
            failed, k = k, 2 * k - guess + 1
    while k - failed > 1:
        mid = (failed + k) // 2
        if holds(seen[mid]):
            k = mid
        else:
            failed = mid
    return seen[k]


def _cutoff(what: str, bound, rungs, factor: float, crossing) -> float:
    """The first rung x of the ladder `rungs` (ratio about `factor`, at
    least one rung) with bound(x) < _ATOL / 2, for a bound that falls along
    it; raises InconclusiveQuadratureError(f"{what} truncation did not
    certify") when it fails at the last.  The search is entered at the rung
    past crossing(x0, bound(x0)), the point where the bound's decay law,
    fitted at the first rung x0, falls to _ATOL / 2; at rung 0 where
    bound(x0) or that point is not finite.  bound(x0) is computed once."""
    rungs = iter(rungs)
    x0 = next(rungs)
    b0 = bound(x0)
    guess = 0
    if 0.5 * _ATOL <= b0 < math.inf:
        x_star = crossing(x0, b0)
        if math.isfinite(x_star):
            guess = max(math.ceil(math.log(max(x_star, x0) / x0) / math.log(factor)), 1)
    x = _first_holding(lambda x: (b0 if x == x0 else bound(x)) < 0.5 * _ATOL, chain([x0], rungs), guess)
    if x is None:
        raise InconclusiveQuadratureError(f"{what} truncation did not certify")
    return x


def _power_tail_cutoff(young, tail: PowerTail, w: _WeightView, lo: float) -> float:
    """Certified truncation length u of a power tail starting at lo: the
    first rung of its _first_holding ladder whose bound on the mass of
    Psi(p) w beyond lo + u is below half of _ATOL.  Raises when no rung up
    to 1e300 certifies, and where the ladder's start overflows."""
    so = young.small_order()
    if so is None:
        raise InconclusiveQuadratureError(f"no small-argument envelope for {young.name}")
    a, g_exp, t0 = tail.amplitude, tail.exponent, tail.offset
    kind, wtail = w.far_field()
    gamma_w = wtail.exponent if kind == "power" else 0.0
    kappa = g_exp * so.alpha + gamma_w
    u = max(t0, 1.0)
    if so.valid_to < math.inf:
        u = max(u, _power_or_inf(a / so.valid_to, 1.0 / g_exp) - t0)
    if math.isinf(u):
        raise InconclusiveQuadratureError("power tail truncation did not certify")

    a_alpha = _power_or_inf(a, so.alpha)

    def bound(u: float) -> float:
        # the least candidate bound on the dropped mass; an overflowing
        # power makes its candidate inf or nan, which certifies nothing
        amp_env = so.hi * _power_or_inf(a * (t0 + u) ** (-g_exp), so.alpha)
        cands = []
        if g_exp * so.alpha > 1.0:
            # where a**alpha overflows, the same bound from the decaying envelope
            if a_alpha < math.inf:
                env = so.hi * a_alpha * (t0 + u) ** (1.0 - g_exp * so.alpha)
            else:
                env = amp_env * (t0 + u)
            cands.append(env / (g_exp * so.alpha - 1.0) * w.value(lo + u))
        wm = w.mass(lo + u, math.inf)
        if math.isfinite(wm):
            cands.append(amp_env * wm)
        if kind == "power" and kappa > 1.0:
            moff = min(t0, wtail.offset)
            cands.append(so.hi * a_alpha * wtail.amplitude * (moff + u) ** (1.0 - kappa) / (kappa - 1.0))
        return min(cands) if cands else math.inf

    def crossing(u0: float, b0: float) -> float:
        # every candidate falls as (offset + u)**(1 - kappa), or at least as
        # e^(-rate*u) under a weight with an exponential tail
        if kind == "exp":
            return u0 + math.log(b0 / (0.5 * _ATOL)) / wtail.rate
        if kappa > 1.0:
            return (t0 + u0) * _power_or_inf(b0 / (0.5 * _ATOL), 1.0 / (kappa - 1.0)) - t0
        return math.inf

    rungs = chain([u], takewhile(partial(operator.ge, 1e300), _ladder(u * 1.6, 1.6)))
    return _cutoff("power tail", bound, rungs, 1.6, crossing)


def _tail_region_value(young, profile, w: _WeightView, integrand) -> float:
    """The part of the modular on (steps_end, inf), where the profile follows
    its tail, found convergent by _finite_scale; raises on inconclusive."""
    tail = profile.tail
    lo = profile.steps_end
    junction = profile.value(lo)

    v0 = young.vanish_below
    if v0 > 0:
        if junction <= v0:
            return 0.0
        hi = lo + tail.crossing(v0)
        if not math.isfinite(hi):
            raise InconclusiveQuadratureError(f"the tail falls to {v0:g}, where {young.name} is 0, past 1.8e308")
        pieces = _geo_split(max(lo, 1e-300), hi, 8) if lo > 0 else _split(lo, hi, 8)
        return _integrate(integrand, pieces)

    if isinstance(tail, ExponentialTail):
        # Psi(x) <= slope * x below the junction value j
        j = max(junction, 1e-300)
        slope = young.chord_slope(j)

        def bound(u: float) -> float:
            rem_cap = slope * tail.amplitude / tail.rate * math.exp(-tail.rate * u)
            rem = rem_cap * w.value(lo + u)
            wm = w.mass(lo + u, math.inf)
            if math.isfinite(wm):
                rem = min(rem, slope * tail.amplitude * math.exp(-tail.rate * u) * wm)
            return rem

        u = _cutoff("exponential tail", bound, islice(_ladder(max(10.0 / tail.rate, 1.0), 1.6), 200), 1.6,
                    lambda u0, rem0: u0 + math.log(rem0 / (0.5 * _ATOL)) / tail.rate)
    else:
        u = _power_tail_cutoff(young, tail, w, lo)

    hi = lo + u
    inner_cuts = [c for c in w.cuts() if lo < c < hi]
    pieces = []
    prev = lo
    for c in inner_cuts + [hi]:
        if isinstance(tail, ExponentialTail):
            pieces.append(_split(prev, c, max(int((c - prev) / max(u / 12.0, 1e-6)) + 1, 1)))
        else:
            # a slow power tail keeps its mass near the start: split geometrically
            # in offset + u, the coordinate in which it decays as a power, on
            # three panels a decade: across a whole decade (offset + u)^-kappa
            # falls by 10^kappa, and the kernel's bisection at linear midpoints
            # took about four rounds to resolve it, where most thirds of a
            # decade certify in one
            shift = tail.offset - lo
            if prev + shift <= 0.0:
                raise InconclusiveQuadratureError(
                    f"the power tail's offset {tail.offset:g} is lost against its start {lo:g} in doubles"
                )
            pieces.append(_geo_split(prev, c, 3 * _decades(prev, c, shift), shift))
        prev = c
    return _integrate(integrand, np.concatenate(pieces))


def modular(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None = None,
) -> float:
    """integral_0^inf Psi(p(t)) w(t) dt, with 0 from a head or tail of coefficient 0;
    +inf when a comparison test of _finite_scale fails, and where Psi of a step
    level overflows a double.  Raises InconclusiveQuadratureError if uncertified."""
    w = _WeightView(weight)
    if _finite_scale(young, profile, w) != 1.0:
        return math.inf
    total = 0.0

    def integrand(t):
        return young._eval_arr(profile.value(t)) * w.value(t)

    # effective end of integration: beyond it either Psi(p) = 0 or w = 0
    eff_end = min(profile.support_end, w.support_end)

    # 1. singular head
    hw = profile.head_width
    head_end = min(hw, eff_end)
    if profile.head is not None and profile.head.coeff > 0 and head_end > 0:
        inner = sorted({c for c in w.cuts() if 0.0 < c < head_end})
        m = inner[0] if inner else head_end
        total += _head_value(young, profile.head, w, m)
        prev = m
        for c in inner[1:] + [head_end]:
            if c > prev:
                total += _integrate(integrand, _split(prev, c, 4))
                prev = c

    # 2. steps (exact)
    t = hw
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

    # 3. tail; left out where the weight charges none of it (Psi(p) may be inf)
    if profile.tail is not None and profile.tail.amplitude > 0:
        start = profile.steps_end
        if math.isinf(eff_end):
            total += _tail_region_value(young, profile, w, integrand)
        elif eff_end > start and w.mass(start, eff_end) > 0:
            total += _integrate(integrand, _split(start, eff_end, 8))

    return total


def modular_is_finite(
    young: YoungFunction,
    profile: DecreasingProfile,
    weight: DecreasingProfile | None = None,
) -> bool:
    """Do the comparison tests of _finite_scale pass at lam = 1 (no
    quadrature)?  A finite Psi whose value overflows a double is no
    divergence: modular may still return inf where this is True."""
    return _finite_scale(young, profile, _WeightView(weight)) == 1.0


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
    hw = p.head_width

    def integrand(t):
        return p.value(t) * w.value(t)

    for a, b in zip(bounds[:-1], bounds[1:]):
        if b <= a:
            continue
        pa = p.value(0.5 * (a + b))
        in_head = p.head is not None and b <= hw
        in_tail = p.tail is not None and a >= p.steps_end
        w_head = w.head is not None and b <= w.head.width
        if not in_head and not in_tail and not w_head:
            total += pa * w.mass(a, b)
        elif a == 0.0 and (in_head or w_head):
            heads = [q.head for q, on in ((p, in_head), (w.profile, w_head)) if on]
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
    # integral_0^x log(1/t)**k t**(r - 1) dt = Gamma(k + 1, z) / r**(k + 1), z = r log(1/x),
    # and Gamma(k + 1, z) = k! e^(-z) sum_{j <= k} z**j / j! for integer k
    z = r * math.log(1.0 / x)
    return c * x**r * math.factorial(k) * sum(z**j / math.factorial(j) for j in range(k + 1)) / r ** (k + 1)


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
    h = _heads_partial(heads, b)
    if math.isinf(h) or other is None or other.steps:
        return r_sup * h
    # b, b/10, ...: the ladder ends at its first rung below 1e-290
    decades = (e * 0.1 for e in takewhile(lambda e: e >= 1e-290, _ladder(b, 0.1)))
    eps = _cutoff("singular piece", lambda e: (r_sup - other.value(e)) * _heads_partial(heads, e),
                  chain([b], decades), 0.1, lambda e0, d0: math.inf)
    near = other.value(eps) * _heads_partial(heads, eps)
    return near + (_integrate(integrand, _geo_split(eps, b, _decades(eps, b))) if eps < b else 0.0)
