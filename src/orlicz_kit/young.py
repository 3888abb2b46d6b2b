"""Young functions and their calculus.

A Young function is a convex function Psi(s) = integral_0^s psi(u) du of a
non-decreasing, left-continuous density psi: [0, inf) -> [0, inf] with
psi(0) = 0, where Psi is neither identically 0 nor identically infinite on
(0, inf).  Psi may take the value +inf; that happens exactly beyond an
explicit finiteness threshold carried by the object, so finiteness logic
branches on the threshold and never on floating-point overflow.

The closed-form catalog:

    power:p    s**p (p >= 1); "identity" is the p = 1 case
    cosh-1     cosh(s) - 1
    llog       s*log(s + sqrt(1+s^2)) - sqrt(1+s^2) + 1  (integral of arcsinh)
    xlog1p     s*log(s + 1)
    llogl      s*log^+(s)                     (zero on [0, 1])
    lexp       s for s <= 1, e^(s-1) beyond   (Zygmund exponential class)

plus tabulated piecewise-linear densities loaded from two-column text files.

Complementary functions are built by the generalized inverse of the density,
phi(v) = inf{w : psi(w) >= v}, with Phi(t) = integral_0^t phi.  Catalog kinds
with closed-form partners return them directly (cosh-1 <-> llog,
llogl <-> lexp, powers <-> scaled powers, identity <-> a 0/inf threshold
function); tabulated kinds invert segment by segment in closed form; anything
else, or any kind when forced, gets a lazily evaluated numeric conjugate that
computes phi by monotone bisection on the density and Phi(t) via the conjugate
identity Phi(t) = t*phi(t) - Psi(phi(t)).

Growth checks are numerical verdicts on finite geometric grids, not proofs:
delta2_check looks for a doubling constant Psi(2s) <= c*Psi(s) past a
threshold s0, nabla2_check for a lower dilation witness
Psi(x) <= Psi(l*x)/(2l), and equivalence_check searches a geometric grid of
scale factors b for two-sided domination Psi1(b*x) >= Psi2(x).

Everything here is immutable and safe for unsynchronized concurrent use.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = [
    "YoungFunction",
    "PowerYoung",
    "CoshMinusOne",
    "LlogYoung",
    "XLog1p",
    "ZygmundLLogL",
    "ZygmundExp",
    "ThresholdYoung",
    "TabulatedYoung",
    "NumericConjugate",
    "SmallOrder",
    "Growth",
    "power",
    "cosh_minus_1",
    "llog",
    "xlog1p",
    "zygmund_llogl",
    "zygmund_exp",
    "identity",
    "tabulated",
    "from_spec",
    "load_tabulated",
    "complement",
    "delta2_check",
    "nabla2_check",
    "equivalence_check",
    "validate_young",
    "geometric_grid",
    "DEFAULT_EVAL_GRID",
    "DEFAULT_B_GRID",
    "Delta2Report",
    "Nabla2Report",
    "EquivalenceReport",
]


def geometric_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n geometrically spaced points spanning [lo, hi], lo > 0."""
    if not (0 < lo < hi) or n < 2:
        raise DomainError("geometric grid needs 0 < lo < hi and n >= 2")
    return np.geomspace(lo, hi, n)


#: Default evaluation grid: covers both the small-argument and large-argument
#: regimes in which Young-function equivalences can differ.
DEFAULT_EVAL_GRID = geometric_grid(1e-6, 1e6, 512)
DEFAULT_EVAL_GRID.setflags(write=False)

#: Default scale-factor search grid for equivalence_check (powers of two).
DEFAULT_B_GRID = tuple(2.0**k for k in range(-14, 15))

_DELTA2_EXPLOSION = 1e6
_VALIDATE_REL_TOL = 1e-12


def _as_nonneg_array(s):
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise DomainError("Young functions are defined for s >= 0")
    return arr


def _unwrap(out, s):
    if np.ndim(s) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SmallOrder:
    """Two-sided power bounds near zero: lo*s**alpha <= Psi(s) <= hi*s**alpha
    for 0 < s <= valid_to."""

    alpha: float
    lo: float
    hi: float
    valid_to: float


@dataclass(frozen=True)
class Growth:
    """Large-argument class.

    kind "exp": lo*e^(rate*y) <= Psi(y) <= hi*e^(rate*y) for y >= valid_from.
    kind "poly": Psi(y) <= hi * y**degree * (1 + log^+ y)**has_log for all y.
    kind "threshold": Psi jumps to +inf beyond a finite argument.
    """

    kind: str
    degree: float = 0.0
    rate: float = 0.0
    has_log: bool = False
    lo: float = 0.0
    hi: float = 0.0
    valid_from: float = 0.0


class YoungFunction:
    """Shared behaviour for all catalog and derived Young functions."""

    def _eval_arr(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _density_arr(self, s: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, s):
        """Psi(s); vectorized, +inf beyond the finiteness threshold."""
        arr = _as_nonneg_array(s)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _unwrap(self._eval_arr(arr), s)

    __call__ = eval

    def density(self, s):
        """The density psi(s) (left-continuous, non-decreasing)."""
        arr = _as_nonneg_array(s)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _unwrap(self._density_arr(arr), s)

    @property
    def finite_threshold(self) -> float:
        """Psi(s) = +inf strictly beyond this argument (inf if Psi is finite)."""
        return math.inf

    @property
    def vanish_below(self) -> float:
        """Largest v0 with Psi = 0 on [0, v0]."""
        return 0.0

    @property
    def name(self) -> str:
        raise NotImplementedError

    def small_order(self) -> SmallOrder | None:
        """Power envelope near 0, or None when unavailable or vanishing."""
        return None

    def growth(self) -> Growth | None:
        """Large-argument growth class, or None when unavailable."""
        return None

    def __repr__(self):
        return f"<YoungFunction {self.name}>"


@dataclass(frozen=True)
class PowerYoung(YoungFunction):
    """Psi(s) = coef * s**exponent with exponent >= 1; covers the catalog
    power:p kinds, their scaled conjugates, and identity (coef = exponent = 1)."""

    coef: float = 1.0
    exponent: float = 2.0
    label: str | None = None

    def __post_init__(self):
        if not (self.coef > 0 and math.isfinite(self.coef)):
            raise DomainError("power coefficient must be positive and finite")
        if not (self.exponent >= 1 and math.isfinite(self.exponent)):
            raise DomainError("power exponent must satisfy p >= 1")

    def _eval_arr(self, s):
        return self.coef * s**self.exponent

    def _density_arr(self, s):
        p = self.exponent
        out = self.coef * p * s ** (p - 1.0)
        return np.where(s > 0, out, 0.0)

    @property
    def name(self):
        if self.label:
            return self.label
        if self.coef == 1.0:
            return f"power:{self.exponent:g}"
        return f"scaled-power:{self.coef:g}:{self.exponent:g}"

    def small_order(self):
        return SmallOrder(self.exponent, self.coef, self.coef, math.inf)

    def growth(self):
        return Growth("poly", degree=self.exponent, hi=self.coef)


_COSH1 = math.cosh(1.0) - 1.0


@dataclass(frozen=True)
class CoshMinusOne(YoungFunction):
    """Psi(s) = cosh(s) - 1, evaluated as 2*sinh(s/2)^2 for small-argument
    accuracy."""

    def _eval_arr(self, s):
        h = np.sinh(0.5 * s)
        return 2.0 * h * h

    def _density_arr(self, s):
        return np.sinh(s)

    @property
    def name(self):
        return "cosh-1"

    def small_order(self):
        return SmallOrder(2.0, 0.5, _COSH1, 1.0)

    def growth(self):
        # cosh(y) - 1 >= e^y/4 once e^y >= 4, and <= e^y/2 everywhere.
        return Growth("exp", rate=1.0, lo=0.25, hi=0.5, valid_from=1.4)


@dataclass(frozen=True)
class LlogYoung(YoungFunction):
    """Psi(s) = s*log(s + sqrt(1+s^2)) - sqrt(1+s^2) + 1, the integral of
    arcsinh; the closed-form complement of cosh - 1."""

    def _eval_arr(self, s):
        # sqrt(1+s^2) - 1 written as s^2/(1+sqrt(1+s^2)) to avoid cancellation.
        sq = np.sqrt(1.0 + s * s)
        main = s * np.arcsinh(s) - s * s / (1.0 + sq)
        # Beyond ~1e150, sqrt(1+s^2) == s in doubles.
        return np.where(s > 1e150, s * (np.arcsinh(s) - 1.0) + 1.0, main)

    def _density_arr(self, s):
        return np.arcsinh(s)

    @property
    def name(self):
        return "llog"

    def small_order(self):
        return SmallOrder(2.0, 11.0 / 24.0, 0.5, 1.0)

    def growth(self):
        return Growth("poly", degree=1.0, has_log=True, hi=1.0)


@dataclass(frozen=True)
class XLog1p(YoungFunction):
    """Psi(s) = s*log(1 + s)."""

    def _eval_arr(self, s):
        return s * np.log1p(s)

    def _density_arr(self, s):
        return np.log1p(s) + s / (1.0 + s)

    @property
    def name(self):
        return "xlog1p"

    def small_order(self):
        return SmallOrder(2.0, 0.5, 1.0, 1.0)

    def growth(self):
        return Growth("poly", degree=1.0, has_log=True, hi=1.0)


@dataclass(frozen=True)
class ZygmundLLogL(YoungFunction):
    """Psi(s) = s*log^+(s): zero on [0, 1], s*log(s) beyond."""

    def _eval_arr(self, s):
        safe = np.maximum(s, 1.0)
        return np.where(s <= 1.0, 0.0, s * np.log(safe))

    def _density_arr(self, s):
        safe = np.maximum(s, 1.0)
        return np.where(s <= 1.0, 0.0, 1.0 + np.log(safe))

    @property
    def name(self):
        return "llogl"

    @property
    def vanish_below(self):
        return 1.0

    def growth(self):
        return Growth("poly", degree=1.0, has_log=True, hi=1.0)


@dataclass(frozen=True)
class ZygmundExp(YoungFunction):
    """Psi(s) = s on [0, 1], e^(s-1) beyond."""

    def _eval_arr(self, s):
        return np.where(s <= 1.0, s, np.exp(s - 1.0))

    def _density_arr(self, s):
        inner = np.where(s <= 1.0, 1.0, np.exp(s - 1.0))
        return np.where(s <= 0.0, 0.0, inner)

    @property
    def name(self):
        return "lexp"

    def small_order(self):
        return SmallOrder(1.0, 1.0, 1.0, 1.0)

    def growth(self):
        e_inv = 1.0 / math.e
        return Growth("exp", rate=1.0, lo=e_inv, hi=e_inv, valid_from=1.0)


@dataclass(frozen=True)
class ThresholdYoung(YoungFunction):
    """Psi = 0 on [0, limit] and +inf beyond; the complement of a constant
    density c on (0, inf) (limit = c), e.g. complement(identity) for limit 1."""

    limit: float = 1.0

    def __post_init__(self):
        if not (self.limit > 0 and math.isfinite(self.limit)):
            raise DomainError("threshold limit must be positive and finite")

    def _eval_arr(self, s):
        return np.where(s <= self.limit, 0.0, math.inf)

    def _density_arr(self, s):
        return np.where(s <= self.limit, 0.0, math.inf)

    @property
    def name(self):
        return f"zero-inf:{self.limit:g}"

    @property
    def finite_threshold(self):
        return self.limit

    @property
    def vanish_below(self):
        return self.limit

    def growth(self):
        return Growth("threshold")


@dataclass(frozen=True)
class TabulatedYoung(YoungFunction):
    """Piecewise-linear non-decreasing density given by breakpoints.

    xs must start at 0; repeated xs values encode an upward jump of the
    density (left-continuous at the jump).  The density extends as a constant
    beyond the last breakpoint, so Psi is ultimately linear.  A finite `limit`
    makes Psi equal +inf strictly beyond it (used by conjugates of bounded
    densities).
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    limit: float = math.inf

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise DomainError("tabulated density needs matching xs/ys")
        if self.xs[0] != 0.0:
            raise DomainError("tabulated density must start at x = 0")
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        if np.any(np.diff(xs) < 0) or np.any(np.diff(ys) < 0):
            raise DomainError("tabulated density breakpoints must be non-decreasing")
        if np.any(ys < 0) or not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
            raise DomainError("tabulated density values must be finite and >= 0")
        if not np.any(ys > 0):
            raise DomainError("tabulated density must not be identically zero")

    @cached_property
    def _xs(self):
        return np.asarray(self.xs, dtype=float)

    @cached_property
    def _ys(self):
        return np.asarray(self.ys, dtype=float)

    @cached_property
    def _cum(self):
        xs, ys = self._xs, self._ys
        seg = 0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)
        return np.concatenate(([0.0], np.cumsum(seg)))

    @cached_property
    def _slopes(self):
        xs, ys = self._xs, self._ys
        dx = np.diff(xs)
        with np.errstate(divide="ignore", invalid="ignore"):
            m = np.where(dx > 0, np.diff(ys) / np.where(dx > 0, dx, 1.0), 0.0)
        return m

    def _segment_index(self, s):
        i = np.searchsorted(self._xs, s, side="right") - 1
        return np.clip(i, 0, len(self.xs) - 1)

    def _eval_arr(self, s):
        xs, ys, cum = self._xs, self._ys, self._cum
        i = self._segment_index(s)
        inside = i < len(self.xs) - 1
        iseg = np.minimum(i, len(self.xs) - 2)
        dx = s - xs[iseg]
        val_in = cum[iseg] + ys[iseg] * dx + 0.5 * self._slopes[iseg] * dx * dx
        val_out = cum[-1] + ys[-1] * (s - xs[-1])
        val = np.where(inside, val_in, val_out)
        if math.isfinite(self.limit):
            val = np.where(s > self.limit, math.inf, val)
        return val

    def _density_arr(self, s):
        xs, ys = self._xs, self._ys
        i = self._segment_index(s)
        inside = i < len(self.xs) - 1
        iseg = np.minimum(i, len(self.xs) - 2)
        val_in = ys[iseg] + self._slopes[iseg] * (s - xs[iseg])
        val = np.where(inside, val_in, ys[-1])
        if math.isfinite(self.limit):
            val = np.where(s > self.limit, math.inf, val)
        return val

    @property
    def name(self):
        return f"tabulated[{len(self.xs)}]"

    @property
    def finite_threshold(self):
        return self.limit

    @cached_property
    def _vanish(self):
        ys = self._ys
        if ys[0] > 0:
            return 0.0
        nz = np.nonzero(ys > 0)[0]
        k = nz[0]
        # Density first becomes positive along segment k-1 -> k; Psi stays 0
        # up to the start of that segment.
        return float(self._xs[k - 1]) if k > 0 else 0.0

    @property
    def vanish_below(self):
        return self._vanish

    def small_order(self):
        if self._vanish > 0 or self.ys[0] == 0.0:
            if self._vanish > 0:
                return None
            # density rises linearly from 0: Psi(x) = m x^2 / 2 on the first segment
            m = self._slopes[0]
            x1 = self.xs[1] if len(self.xs) > 1 else 1.0
            if m <= 0:
                return None
            return SmallOrder(2.0, 0.5 * m, 0.5 * m, x1)
        v = min(1.0, self.xs[-1]) if self.xs[-1] > 0 else 1.0
        hi = float(self._density_arr(np.asarray(v)))
        return SmallOrder(1.0, self.ys[0], max(hi, self.ys[0]), v)

    def growth(self):
        if math.isfinite(self.limit):
            return Growth("threshold")
        xs, ys, cum = self._xs, self._ys, self._cum
        if xs[-1] > 0:
            hi = ys[-1] + cum[-1] / xs[-1]
        else:
            hi = ys[-1]
        return Growth("poly", degree=1.0, hi=float(hi))


@dataclass(frozen=True)
class NumericConjugate(YoungFunction):
    """Complement built on demand from the base density.

    density(v) is the generalized inverse inf{w : psi(w) >= v} found by
    monotone bisection; eval(t) uses the conjugate identity
    Phi(t) = t*phi(t) - Psi(phi(t)).  Arguments whose inverse would exceed
    ~1e15 evaluate to +inf.  Growth traits are not derived, so profiles with
    analytic tails cannot be integrated against a numeric conjugate.
    """

    base: YoungFunction

    _HI_CAP = 1e300
    _FLOOR = 1e-300
    _BISECT_ITERS = 72

    def _inverse_density(self, v: np.ndarray):
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            # roots at (essentially) zero: density already >= v at the floor
            zero_root = self.base._density_arr(np.full_like(v, self._FLOOR)) >= v
            hi = np.full_like(v, 2.0)
            for _ in range(12):
                need = self.base._density_arr(hi) < v
                if not np.any(need):
                    break
                hi = np.where(need, np.minimum(hi * hi, self._HI_CAP), hi)
            capped = (hi >= self._HI_CAP) & (self.base._density_arr(hi) < v)
            lo = np.full_like(v, self._FLOOR)
            # geometric bisection: relative precision across all magnitudes
            for _ in range(self._BISECT_ITERS):
                mid = np.sqrt(lo * hi)
                ge = self.base._density_arr(mid) >= v
                hi = np.where(ge, mid, hi)
                lo = np.where(ge, lo, mid)
        root = np.where(zero_root, 0.0, 0.5 * (lo + hi))
        root = np.where(v <= 0, 0.0, root)
        return np.where(capped & ~zero_root, math.inf, root)

    def _density_arr(self, s):
        return self._inverse_density(s)

    def _eval_arr(self, s):
        d = self._inverse_density(s)
        finite = np.isfinite(d)
        dsafe = np.where(finite, d, 0.0)
        val = dsafe * s - self.base._eval_arr(dsafe)
        val = np.maximum(val, 0.0)
        return np.where(finite, val, math.inf)

    @property
    def name(self):
        return f"conjugate({self.base.name})"

    @cached_property
    def _vanish(self):
        # conjugate vanishes on [0, psi(0+)]
        probe = float(self.base._density_arr(np.asarray(1e-300)))
        return probe if math.isfinite(probe) else 0.0

    @property
    def vanish_below(self):
        return self._vanish


# ----------------------------------------------------------------------------
# catalog constructors and parsing
# ----------------------------------------------------------------------------


def power(p: float) -> PowerYoung:
    return PowerYoung(1.0, float(p))


def cosh_minus_1() -> CoshMinusOne:
    return CoshMinusOne()


def llog() -> LlogYoung:
    return LlogYoung()


def xlog1p() -> XLog1p:
    return XLog1p()


def zygmund_llogl() -> ZygmundLLogL:
    return ZygmundLLogL()


def zygmund_exp() -> ZygmundExp:
    return ZygmundExp()


def identity() -> PowerYoung:
    return PowerYoung(1.0, 1.0, label="identity")


def tabulated(xs, ys, limit: float = math.inf) -> TabulatedYoung:
    return TabulatedYoung(tuple(float(x) for x in xs), tuple(float(y) for y in ys), limit)


def _load_two_columns(path, names: str) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a whitespace-separated text file of numbers.  An
    unreadable or empty file, a non-numeric cell, ragged rows or a column
    count other than two raise DomainError; `names` labels the columns."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on an empty file
            data = np.loadtxt(path, dtype=float, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise DomainError(f"{path}: malformed input: {exc}") from exc
    if data.shape[1] != 2:
        raise DomainError(f"{path}: expected two columns ({names})")
    return data[:, 0], data[:, 1]


def load_tabulated(path) -> TabulatedYoung:
    """Two-column text: breakpoint, density value; strictly increasing first
    column starting at 0."""
    xs, ys = _load_two_columns(path, "breakpoint, density")
    if np.any(np.diff(xs) <= 0):
        raise DomainError(f"{path}: breakpoints must be strictly increasing")
    return tabulated(xs, ys)


def from_spec(spec: str) -> YoungFunction:
    """Parse a catalog name: power:p, cosh-1, llog, xlog1p, llogl, lexp,
    identity, or tabulated:<path>."""
    s = spec.strip()
    if s == "cosh-1":
        return cosh_minus_1()
    if s == "llog":
        return llog()
    if s == "xlog1p":
        return xlog1p()
    if s == "llogl":
        return zygmund_llogl()
    if s == "lexp":
        return zygmund_exp()
    if s == "identity":
        return identity()
    if s.startswith("power:"):
        try:
            p = float(s.split(":", 1)[1])
        except ValueError as exc:
            raise DomainError(f"bad power exponent in {spec!r}") from exc
        return power(p)
    if s.startswith("tabulated:"):
        return load_tabulated(s.split(":", 1)[1])
    raise DomainError(f"unknown Young-function spec {spec!r}")


# ----------------------------------------------------------------------------
# complementary function
# ----------------------------------------------------------------------------


def _power_conjugate(y: PowerYoung) -> YoungFunction:
    c, p = y.coef, y.exponent
    if p == 1.0:
        # constant density c: inverse is 0 below c, +inf above
        return ThresholdYoung(c)
    q = p / (p - 1.0)
    c2 = (p - 1.0) / p * (c * p) ** (-1.0 / (p - 1.0))
    return PowerYoung(c2, q)


def _tabulated_conjugate(y: TabulatedYoung) -> TabulatedYoung:
    # Generalized inverse of a piecewise-linear density swaps the roles of
    # the coordinates: flats become jumps and jumps become flats.
    pts: list[tuple[float, float]] = []
    if y.ys[0] > 0:
        pts.append((0.0, 0.0))
    pts.extend(zip(y.ys, y.xs))
    if math.isfinite(y.limit):
        # base density jumps to +inf at `limit`: the inverse is flat at
        # `limit` for every v beyond the last density value
        if y.limit > y.xs[-1]:
            pts.append((y.ys[-1], y.limit))
        new_limit = math.inf
    else:
        new_limit = y.ys[-1]
    dedup = [pts[0]]
    for p in pts[1:]:
        if p != dedup[-1]:
            dedup.append(p)
    xs2, ys2 = zip(*dedup)
    return TabulatedYoung(xs2, ys2, new_limit)


def complement(y: YoungFunction, numeric: bool = False) -> YoungFunction:
    """The complementary Young function of y.

    Closed-form partners are returned for catalog kinds; tabulated densities
    invert exactly segment by segment; anything else (or any kind when
    numeric=True) is wrapped in a NumericConjugate evaluated by bisection.
    """
    if numeric:
        return NumericConjugate(y)
    if isinstance(y, PowerYoung):
        return _power_conjugate(y)
    if isinstance(y, CoshMinusOne):
        return LlogYoung()
    if isinstance(y, LlogYoung):
        return CoshMinusOne()
    if isinstance(y, ZygmundLLogL):
        return ZygmundExp()
    if isinstance(y, ZygmundExp):
        return ZygmundLLogL()
    if isinstance(y, ThresholdYoung):
        return PowerYoung(y.limit, 1.0)
    if isinstance(y, TabulatedYoung):
        return _tabulated_conjugate(y)
    return NumericConjugate(y)


# ----------------------------------------------------------------------------
# growth-condition checks
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class Delta2Report:
    holds: bool
    s0: float | None
    c: float | None
    evidence_grid: tuple[float, ...]


@dataclass(frozen=True)
class Nabla2Report:
    holds: bool
    x0: float | None
    l: float | None
    evidence_grid: tuple[float, ...]


@dataclass(frozen=True)
class EquivalenceReport:
    equivalent: bool
    b_forward: float | None
    b_backward: float | None
    grid: tuple[float, ...]


def delta2_check(y: YoungFunction, s_grid=None) -> Delta2Report:
    """Doubling check: find the smallest grid suffix on which
    Psi(2s)/Psi(s) stays below _DELTA2_EXPLOSION; its supremum is the witness c.

    Grid points where Psi vanishes are dropped (the suffix starts above the
    first positive value); any point where Psi(s) or Psi(2s) is infinite
    poisons every suffix containing it.
    """
    grid = np.asarray(DEFAULT_EVAL_GRID if s_grid is None else s_grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise DomainError("delta2 grid must be nonempty and increasing")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ps = np.asarray(y._eval_arr(grid))
        p2 = np.asarray(y._eval_arr(2.0 * grid))
    positive = (ps > 0) & np.isfinite(ps)
    grid_v = grid[positive]
    if grid_v.size == 0:
        return Delta2Report(False, None, None, tuple(grid))
    ratio = np.where(np.isfinite(p2[positive]), p2[positive] / ps[positive], math.inf)
    ok = ratio <= _DELTA2_EXPLOSION
    # a valid suffix must also be contiguous in the original grid past s0
    finite_tail = np.cumsum(~positive[::-1])[::-1] == 0  # all points >= i are positive/finite
    suffix_ok = np.cumsum(~ok[::-1])[::-1] == 0
    candidates = np.nonzero(suffix_ok & finite_tail[positive])[0]
    if candidates.size == 0:
        return Delta2Report(False, None, None, tuple(grid_v))
    i0 = int(candidates[0])
    c = float(np.max(ratio[i0:]))
    return Delta2Report(True, float(grid_v[i0]), c, tuple(grid_v))


def nabla2_check(y: YoungFunction, s_grid=None, l_candidates=(2.0, 3.0, 4.0, 8.0)) -> Nabla2Report:
    """Lower-dilation check: search candidates l > 1 for a grid suffix on
    which Psi(x) <= Psi(l*x) / (2*l)."""
    grid = np.asarray(DEFAULT_EVAL_GRID if s_grid is None else s_grid, dtype=float)
    if grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise DomainError("nabla2 grid must be nonempty and increasing")
    if any(l <= 1 for l in l_candidates):
        raise DomainError("nabla2 candidates must all exceed 1")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        base = np.asarray(y._eval_arr(grid))
        for l in l_candidates:
            dil = np.asarray(y._eval_arr(l * grid))
            ok = base <= dil / (2.0 * l)
            suffix_ok = np.cumsum(~ok[::-1])[::-1] == 0
            idx = np.nonzero(suffix_ok)[0]
            if idx.size:
                return Nabla2Report(True, float(grid[int(idx[0])]), float(l), tuple(grid))
    return Nabla2Report(False, None, None, tuple(grid))


def equivalence_check(y1: YoungFunction, y2: YoungFunction, grid=None) -> EquivalenceReport:
    """Search DEFAULT_B_GRID of scale factors for two-sided domination
    y1(b*x) >= y2(x) and y2(b'*x) >= y1(x) on the evaluation grid."""
    xs = np.asarray(DEFAULT_EVAL_GRID if grid is None else grid, dtype=float)
    if xs.size == 0:
        raise DomainError("equivalence search needs a nonempty grid")

    def smallest_b(f_hi: YoungFunction, f_lo: YoungFunction):
        with np.errstate(over="ignore", invalid="ignore"):
            target = np.asarray(f_lo._eval_arr(xs))
            for b in DEFAULT_B_GRID:
                if np.all(np.asarray(f_hi._eval_arr(b * xs)) >= target):
                    return float(b)
        return None

    bf = smallest_b(y1, y2)
    bb = smallest_b(y2, y1)
    return EquivalenceReport(bf is not None and bb is not None, bf, bb, tuple(xs))


def validate_young(y: YoungFunction, grid=None) -> None:
    """Check the structural invariants on a grid: Psi(0) = 0, monotone,
    midpoint convex within _VALIDATE_REL_TOL, not identically 0 or inf, density
    monotone.  Raises DomainError on violation."""
    xs = np.asarray(DEFAULT_EVAL_GRID if grid is None else grid, dtype=float)
    if y.eval(0.0) != 0.0:
        raise DomainError(f"{y.name}: Psi(0) must be 0")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(y._eval_arr(xs))
        if np.any(np.diff(vals) < 0):
            raise DomainError(f"{y.name}: Psi must be non-decreasing")
        a, b = xs[:-1], xs[1:]
        mid = np.asarray(y._eval_arr(0.5 * (a + b)))
        avg = 0.5 * (vals[:-1] + vals[1:])
        finite = np.isfinite(avg) & np.isfinite(mid)
        slack = _VALIDATE_REL_TOL * np.maximum(avg[finite], 1.0)
        if np.any(mid[finite] > avg[finite] + slack):
            raise DomainError(f"{y.name}: midpoint convexity violated")
        dens = np.asarray(y._density_arr(xs))
        dfin = np.isfinite(dens[:-1]) & np.isfinite(dens[1:])
        if np.any((dens[1:] - dens[:-1])[dfin] < -_VALIDATE_REL_TOL * np.maximum(np.abs(dens[:-1])[dfin], 1.0)):
            raise DomainError(f"{y.name}: density must be non-decreasing")
    top = y.eval(float(xs[-1]))
    if top == 0.0:
        raise DomainError(f"{y.name}: Psi is identically zero on the grid")
    if y.eval(float(xs[0])) == math.inf and y.finite_threshold < xs[0]:
        raise DomainError(f"{y.name}: Psi is identically infinite on the grid")
