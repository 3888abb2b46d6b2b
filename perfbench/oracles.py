"""Independent reference values for the benchmark's outputs.

Nothing here calls into orlicz_kit: Young functions are re-implemented from
their closed forms, norms of simple functions come from closed forms or a
plain bisection, and Schatten norms from numpy's SVD.  Every check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

REL_NORM = 1e-9  # toolkit root finders run to 1e-12 (Luxemburg), 1e-9 (Amemiya)
MODULAR_GAP = 1e-8  # NormReport invariant: 1 - 1e-8 <= modular_at_witness <= 1


def young_psi(spec: str, s: np.ndarray) -> np.ndarray:
    """Psi(s) of a catalog spec, from the closed forms in the toolkit's docs."""
    s = np.asarray(s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.startswith("power:"):
            return s ** float(spec.split(":", 1)[1])
        if spec == "cosh-1":
            return 2.0 * np.sinh(0.5 * s) ** 2
        if spec == "llog":
            big = s * np.arcsinh(s) - np.hypot(1.0, s) + 1.0
            s2 = s * s
            return np.where(s < 1e-2, s2 / 2.0 - s2 * s2 / 24.0 + s2**3 / 80.0, big)
        if spec == "xlog1p":
            return s * np.log1p(s)
        if spec == "llogl":
            return np.where(s > 1.0, s * np.log(np.maximum(s, 1.0)), 0.0)
        if spec == "lexp":
            return np.where(s <= 1.0, s, np.exp(s - 1.0))
    raise ValueError(f"no closed form for {spec!r}")


def power_exponent(spec: str) -> float | None:
    return float(spec.split(":", 1)[1]) if spec.startswith("power:") else None


def lp_norm(values, weights, p: float) -> float:
    """(sum w |v|^p)^(1/p), scaled so levels from 1e-300 to 1e300 neither
    overflow nor underflow."""
    v = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    top = float(np.max(v)) if v.size else 0.0
    if top == 0.0:
        return 0.0
    return top * float(np.sum(w * (v / top) ** p)) ** (1.0 / p)


def amemiya_power(p: float, lp: float, coef: float = 1.0) -> float:
    """Orlicz (Amemiya) norm for Psi(s) = coef * s^p given ||f||_p = lp:
    p (p-1)^(1/p - 1) coef^(1/p) ||f||_p."""
    return p * (p - 1.0) ** (1.0 / p - 1.0) * coef ** (1.0 / p) * lp


def luxemburg_bisection(spec: str, values, weights) -> float:
    """Luxemburg norm of a simple function by plain geometric bisection on
    lambda for sum w Psi(|v| / lambda) = 1."""
    v = np.abs(np.asarray(values, dtype=float))
    w = np.asarray(weights, dtype=float)
    keep = v > 0
    v, w = v[keep], w[keep]
    if v.size == 0:
        return 0.0

    def over(lam: float) -> bool:
        return float(np.sum(w * young_psi(spec, v / lam))) > 1.0

    hi = float(np.max(v))
    while over(hi):
        hi *= 2.0
    lo = hi
    while not over(lo):
        lo *= 0.5
    for _ in range(56):  # the bracket's ratio 2 shrinks to 2 ** 2 ** -56
        mid = math.sqrt(lo) * math.sqrt(hi)  # lo * hi under- or overflows at the extremes
        if over(mid):
            lo = mid
        else:
            hi = mid
    return hi


def rel_err(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    return abs(got - ref) / max(abs(ref), 1e-300)


def check_close(label: str, got: float, ref: float, tol: float = REL_NORM) -> str | None:
    if not (math.isfinite(got) and rel_err(got, ref) <= tol):
        return f"{label} {got!r} != reference {ref!r}"
    return None


def check_norm_report(rep, *, luxemburg: bool) -> str | None:
    """Invariants every converged NormReport keeps."""
    if luxemburg and math.isfinite(rep.value) and rep.value > 0:
        m = rep.modular_at_witness
        if m is None or not (1.0 - MODULAR_GAP <= m <= 1.0):
            return f"modular_at_witness {m!r} outside [1 - 1e-8, 1]"
    return None


def check_sandwich(lux: float, orl: float) -> str | None:
    """Lux <= Orl <= 2 Lux."""
    if not (lux <= orl * (1 + 1e-9) and orl <= 2.0 * lux * (1 + 1e-9)):
        return f"sandwich Lux {lux!r} <= Orl {orl!r} <= 2 Lux fails"
    return None


# ----------------------------------------------------------------------------
# decreasing profiles under power:p (unweighted closed forms)
# ----------------------------------------------------------------------------


def profile_p_integral(profile: dict, p: float) -> float:
    """integral_0^inf mu(t)^p dt for a profile given as its JSON dict."""
    total = sum(level**p * length for level, length in profile["steps"])
    tail = profile["tail"]
    kind = tail["kind"]
    if kind == "log_singularity":
        # integral_0^W (c log 1/t)^p dt = c^p Gamma(p + 1, log 1/W)
        c, width = tail["coeff"], tail["width"]
        total += c**p * float(special.gammaincc(p + 1.0, math.log(1.0 / width)) * special.gamma(p + 1.0))
    elif kind == "inv_power":
        c, th, width = tail["coeff"], tail["exponent"], tail["width"]
        total += c**p * width ** (1.0 - p * th) / (1.0 - p * th)
    elif kind == "exponential":
        total += tail["amplitude"] ** p / (p * tail["rate"])
    elif kind == "power":
        a, g, t0 = tail["amplitude"], tail["exponent"], tail["offset"]
        total += a**p * t0 ** (1.0 - p * g) / (p * g - 1.0)
    return total


# ----------------------------------------------------------------------------
# matrices
# ----------------------------------------------------------------------------


def singular_values(entries: np.ndarray) -> np.ndarray:
    return np.linalg.svd(entries, compute_uv=False)
