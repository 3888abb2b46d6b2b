"""Seeded inputs for the four benchmark workloads.

Each workload turns a seed into an endless sequence of cycles; a cycle is a
list of `Op`s with a fixed composition (the kind and Young function of every
slot never change), and the seed draws only the numbers inside each slot.
The fixed composition keeps the mix, and so every rate and percentile, the
same from seed to seed.  Each op carries the one call into orlicz_kit that
is timed and an oracle check that runs after the timed loop.

Inputs that hit a documented toolkit defect are generated on purpose and
tagged with `known_defect`; they stay in the mix and their failures are
counted by kind like any other, but only a failure of another kind, or on
another op, counts as failed in the result line and makes the run
incorrect.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from click.testing import CliRunner

from orlicz_kit import classical_space as cs
from orlicz_kit import maps as mps
from orlicz_kit import quantum_space as qs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.cli import main as cli_main
from orlicz_kit.errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    InconclusiveQuadratureError,
)

import oracles as orc


class Miss(NamedTuple):
    """A failed op; kind is inconclusive, nonconverged, oracle or domain."""

    kind: str
    reason: str


class Defect(NamedTuple):
    """A documented toolkit defect and the failure kinds it shows as."""

    text: str
    kinds: frozenset[str]


@dataclass
class Op:
    """One timed call into orlicz_kit and the oracle that judges its output."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], Miss | None]
    known_defect: Defect | None = None
    inputs: str = ""  # shown with an unexpected failure

    def expected(self, miss: Miss) -> bool:
        """Is this failure the op's documented defect?"""
        return self.known_defect is not None and miss.kind in self.known_defect.kinds


_ORACLE, _INCONCLUSIVE = frozenset({"oracle"}), frozenset({"inconclusive"})
# The Luxemburg bracket starts at 1 and grows or shrinks by 4x at most 200
# times (4^200 ~ 1e120); the Amemiya grid is k in [1e-8, 1e8] with k* about
# 1 / norm.  Norms past these reaches fail; the tags below start half a
# decade or more inside, where failures were first seen.
LUX_REACH = 1e119
AMEMIYA_REACH = 10.0**7.5
DEFECT_LUX_SMALL = Defect("a Luxemburg norm below 1e-119 (a 1e-200 step, say) reports 0.0 as "
                          "converged", _ORACLE)
DEFECT_LUX_LARGE = Defect("a Luxemburg norm above 1e119 overruns the bracket and reports converged "
                          "false or a wrong value", frozenset({"oracle", "nonconverged"}))
DEFECT_AMEMIYA_GRID = Defect("an Amemiya norm outside [1e-7.5, 1e7.5] falls off the fixed grid and "
                             "is wrong (power:2 on a 1e100 step reports 1e192)", _ORACLE)
DEFECT_ORL_TAIL = Defect("Orlicz norm of a power-tail profile raises InconclusiveQuadratureError",
                         _INCONCLUSIVE)
DEFECT_SLOW_TAIL = Defect("power tail with gamma * alpha <= 2.5 raises InconclusiveQuadratureError",
                          _INCONCLUSIVE)
DEFECT_LOG_ROUNDOFF = Defect("log head with cosh-1 under an exponential weight can stop on "
                             "quadrature roundoff", _INCONCLUSIVE)
DEFECT_NEAR_HEAD = Defect("inv_power head with theta * p >= 0.8 reports a value about 2% off "
                          "as converged", _ORACLE)


def outcome(op: Op, res, exc: Exception | None) -> Miss | None:
    """Classify one op: a toolkit exception by its kind, else the oracle."""
    if exc is None:
        try:
            return op.check(res)
        except Exception as e:  # an output the oracle cannot read is a miss
            return Miss("oracle", f"unreadable output {res!r}: {e!r}")
    if isinstance(exc, InconclusiveQuadratureError):
        return Miss("inconclusive", str(exc))
    if isinstance(exc, ConvergenceError):
        return Miss("nonconverged", str(exc))
    if isinstance(exc, (DomainError, DimensionMismatchError)):
        return Miss("domain", str(exc))
    return Miss("oracle", f"raised {exc!r}")


def _loguniform(rng, lo: float, hi: float, n=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _fixed_order(kinds: list[str]) -> list[str]:
    """Interleave slot kinds in one order shared by every seed."""
    order = np.random.default_rng(0).permutation(len(kinds))
    return [kinds[i] for i in order]


def _norm_miss(rep, ref: float | None = None, *, luxemburg: bool, tol: float = orc.REL_NORM) -> Miss | None:
    if not rep.converged:
        return Miss("nonconverged", f"converged false, value {rep.value!r}")
    reason = orc.check_norm_report(rep, luxemburg=luxemburg)
    if reason is None and ref is not None:
        reason = orc.check_close("value", rep.value, ref, tol)
    return Miss("oracle", reason) if reason else None


def _first_miss(*reasons: str | None) -> Miss | None:
    for r in reasons:
        if r:
            return Miss("oracle", r)
    return None


# ----------------------------------------------------------------------------
# step-norms: simple functions, the criterion-3 path
# ----------------------------------------------------------------------------

STEP_YOUNGS = ("power", "cosh-1", "llog", "xlog1p", "llogl", "lexp")
# closed-form complements used by the Hoelder oracle (xlog1p has none)
PARTNER = {"cosh-1": "llog", "llog": "cosh-1", "llogl": "lexp", "lexp": "llogl"}

# 150 slots.  Two thirds are Hoelder ops, so the median op falls well inside
# them (about 5 ms) rather than between them and the cheaper norms, and as
# in criterion 3 one Hoelder op in 50 is on xlog1p, whose complement is a
# NumericConjugate (about 90 ms; they set the tail).  "-x" slots draw levels
# log-uniform on [1e-300, 1e300] instead of [1e-2, 1e2].
STEP_SLOTS = _fixed_order(
    ["lux"] * 21 + ["lux-x"] * 3 + ["orl"] * 18 + ["orl-x"] * 2 + ["embed"] * 4
    + ["tiny", "huge"] + ["holder"] * 98 + ["holder-conj"] * 2
)


def _simple_arrays(rng, lo: float, hi: float, n_max: int = 6):
    n = int(rng.integers(1, n_max + 1))
    vals = _loguniform(rng, lo, hi, n) * rng.choice([-1.0, 1.0], n)
    return vals, rng.uniform(0.1, 2.0, n)


def _lux_reference(spec: str, vals, ws) -> float:
    p = orc.power_exponent(spec)
    return orc.lp_norm(vals, ws, p) if p is not None else orc.luxemburg_bisection(spec, vals, ws)


def _reach_defect(kind: str, lux: float) -> Defect | None:
    """The documented defect a step norm of this size hits, if any."""
    if kind == "orl":
        return None if 1.0 / AMEMIYA_REACH <= lux <= AMEMIYA_REACH else DEFECT_AMEMIYA_GRID
    if lux < 1.0 / LUX_REACH:
        return DEFECT_LUX_SMALL
    return DEFECT_LUX_LARGE if lux > LUX_REACH else None


def _lux_op(spec: str, vals, ws) -> Op:
    young, f = yg.from_spec(spec), rr.simple_function(vals, ws)
    ref = _lux_reference(spec, vals, ws)
    return Op(
        "lux",
        lambda: cs.luxemburg_norm(young, f),
        lambda rep: _norm_miss(rep, ref, luxemburg=True),
        _reach_defect("lux", ref),
        f"{spec} levels {list(vals)} weights {list(ws)}",
    )


def _orl_op(spec: str, vals, ws) -> Op:
    young, f = yg.from_spec(spec), rr.simple_function(vals, ws)
    p = orc.power_exponent(spec)
    lux = _lux_reference(spec, vals, ws)

    def check(rep):
        if p is not None:
            return _norm_miss(rep, orc.amemiya_power(p, lux), luxemburg=False)
        return _norm_miss(rep, luxemburg=False) or _first_miss(orc.check_sandwich(lux, rep.value))

    return Op("orl", lambda: cs.orlicz_norm(young, f), check, _reach_defect("orl", lux),
              f"{spec} levels {list(vals)} weights {list(ws)}")


def _holder_op(spec: str, rng) -> Op:
    fv, ws = _simple_arrays(rng, 1e-2, 1e2)
    gv = _loguniform(rng, 1e-2, 1e2, len(ws)) * rng.choice([-1.0, 1.0], len(ws))
    young = yg.from_spec(spec)
    f, g = rr.simple_function(fv, ws), rr.simple_function(gv, ws)
    p = orc.power_exponent(spec)

    def check(rep):
        lhs = float(np.sum(np.abs(fv * gv) * ws))
        reasons = [
            None if rep.holds else f"Hoelder fails: {rep.lhs!r} > {rep.rhs!r}",
            orc.check_close("pairing", rep.lhs, lhs, 1e-12),
            orc.check_close("Luxemburg f", rep.luxemburg_f, _lux_reference(spec, fv, ws)),
        ]
        if p is not None:
            q = p / (p - 1.0)
            coef = (p - 1.0) / p * p ** (-1.0 / (p - 1.0))
            ref = orc.amemiya_power(q, orc.lp_norm(gv, ws, q), coef)
            reasons.append(orc.check_close("Orlicz g", rep.orlicz_g, ref))
        elif spec in PARTNER:
            lux_g = orc.luxemburg_bisection(PARTNER[spec], gv, ws)
            reasons.append(orc.check_sandwich(lux_g, rep.orlicz_g))
        elif not (0.0 < rep.orlicz_g < math.inf):
            reasons.append(f"Orlicz g {rep.orlicz_g!r} not finite positive")
        return _first_miss(*reasons)

    kind = "holder-conj" if spec == "xlog1p" else "holder"
    return Op(kind, lambda: cs.holder_check(f, g, young), check)


def _embed_op(rng) -> Op:
    vals, ws = _simple_arrays(rng, 1e-2, 1e2)
    ws = ws / ws.sum()
    f = rr.simple_function(vals, ws, rr.probability_space())

    def check(rep):
        return _first_miss(
            orc.check_close("sup", rep.sup_norm, float(np.max(np.abs(vals))), 0.0),
            orc.check_close("L1", rep.l1_norm, float(np.sum(np.abs(vals) * ws)), 1e-12),
            orc.check_close("L2", rep.p_norm, orc.lp_norm(vals, ws, 2.0)),
            orc.check_close("Lexp", rep.lexp_norm, orc.luxemburg_bisection("lexp", vals, ws)),
            orc.check_close("LlogL", rep.llogl_norm, orc.luxemburg_bisection("xlog1p", vals, ws)),
            None if rep.finiteness_monotone else "finiteness not monotone",
        )

    return Op("embed", lambda: cs.embedding_chain_check(f, 2.0), check)


def _step_spec(rng, j: int) -> str:
    name = STEP_YOUNGS[j % len(STEP_YOUNGS)]
    return f"power:{rng.uniform(1.5, 4.0):.6g}" if name == "power" else name


def step_norms_cycle(rng) -> list[Op]:
    ops = []
    for j, slot in enumerate(STEP_SLOTS):
        spec = _step_spec(rng, j)
        if slot in ("lux", "lux-x", "orl", "orl-x"):
            extreme = slot.endswith("-x")
            vals, ws = _simple_arrays(rng, *((1e-300, 1e300) if extreme else (1e-2, 1e2)))
            ops.append((_lux_op if slot.startswith("lux") else _orl_op)(spec, vals, ws))
        elif slot == "holder":
            ops.append(_holder_op(spec if spec != "xlog1p" else "power:3", rng))
        elif slot == "holder-conj":
            ops.append(_holder_op("xlog1p", rng))
        elif slot == "embed":
            ops.append(_embed_op(rng))
        elif slot == "tiny":
            ops.append(_lux_op("power:2", [1e-200], [1.0]))
        else:  # huge
            ops.append(_orl_op("power:2", [1e100], [1.0]))
    return ops


def step_norms_warmup(rng) -> list[Op]:
    vals, ws = _simple_arrays(rng, 1e-2, 1e2)
    return [_lux_op("cosh-1", vals, ws), _orl_op("power:2", vals, ws),
            _holder_op("power:3", rng), _holder_op("xlog1p", rng), _embed_op(rng)]


# ----------------------------------------------------------------------------
# profile-norms: decreasing profiles with analytic heads and tails
# ----------------------------------------------------------------------------


# A quadrature norm costs 0.03-2 s and its cost moves with the shape
# parameters, so each slot draws them from a narrow band: the seed changes
# every number while each slot's cost, and so a run, stays put.
STEPS = 2


def _steps_below(rng, top: float, n: int) -> list[list[float]]:
    levels = np.sort(top * rng.uniform(0.3, 0.9, n))[::-1]
    return [[float(l), float(w)] for l, w in zip(levels, rng.uniform(0.15, 0.2, n))]


def head_profile(rng, kind: str, param: float) -> dict:
    """A singular head (coeff for log, exponent for inv_power) over the
    steps; the head dominates the first step, as profiles require."""
    width = float(rng.uniform(0.5, 0.55))
    if kind == "log":
        tail = {"kind": "log_singularity", "coeff": param, "width": width}
        top = param * math.log(1.0 / width)
    else:
        coeff = float(rng.uniform(0.95, 1.05))
        tail = {"kind": "inv_power", "coeff": coeff, "exponent": param, "width": width}
        top = coeff * width ** (-param)
    return {"steps": _steps_below(rng, top, STEPS), "tail": tail}


def tail_profile(rng, kind: str, param: float) -> dict:
    """Steps followed by a slow tail (rate for exp, exponent for power)."""
    levels = np.sort(_loguniform(rng, 0.8, 1.25, STEPS))[::-1]
    steps = [[float(l), float(w)] for l, w in zip(levels, rng.uniform(0.15, 0.2, STEPS))]
    amp = float(levels[-1] * rng.uniform(0.5, 0.6))
    if kind == "exp":
        tail = {"kind": "exponential", "amplitude": amp, "rate": param}
    else:
        tail = {"kind": "power", "amplitude": amp, "exponent": param, "offset": 1.0}
    return {"steps": steps, "tail": tail}


def weight_profile(rng, kind: str) -> dict | None:
    if kind == "none":
        return None
    if kind == "exp":
        return {"steps": [], "tail": {"kind": "exponential", "amplitude": 1.0, "rate": float(rng.uniform(0.95, 1.05))}}
    if kind == "power":
        tail = {"kind": "power", "amplitude": 1.0, "exponent": float(rng.uniform(1.95, 2.05)), "offset": 1.0}
        return {"steps": [], "tail": tail}
    return {"steps": [], "tail": {"kind": "inv_power", "coeff": 1.0, "exponent": float(rng.uniform(0.24, 0.26)), "width": 1.0}}


class ProfileSlot(NamedTuple):
    op: str  # lux | orl | member
    shape: str  # log | inv | exp | power: head or tail kind
    young: str  # catalog spec; "power" draws p
    weight: str  # none | exp | power | inv
    region: str  # conv, near (boundary), slow (slow tail) or div (certified divergent)
    defect: Defect | None = None


# Growth classes: poly = power:p, xlog1p, llog; exp = cosh-1, lexp.  Every
# head/tail kind meets both classes and every weight kind.  Each quadrature
# norm is followed by two verdict-only ops (certified divergent norms,
# membership, fast defects), and every verdict slot comes twice a cycle.  A
# cycle costs about 9.5 s at reference speed, so a 12 s run measures two
# whole cycles.  The median op falls among the 28 power-tail verdicts of a
# run (about 5 ms).  The norms set throughput, and two of the six costliest
# (1-1.4 s) come twice a cycle, so that the tail, the 11th slowest op of a
# run, falls among the four Amemiya exp-tail norms (about 1 s) instead of
# between two small groups of norms of different cost.
_NORM_SLOTS = (
    ProfileSlot("lux", "log", "power", "none", "conv"),
    ProfileSlot("lux", "log", "cosh-1", "exp", "conv", DEFECT_LOG_ROUNDOFF),
    ProfileSlot("lux", "log", "xlog1p", "power", "conv"),
    ProfileSlot("lux", "exp", "lexp", "none", "conv"),
    ProfileSlot("orl", "exp", "power", "none", "conv"),
    ProfileSlot("lux", "power", "power", "none", "conv"),
    ProfileSlot("lux", "log", "cosh-1", "none", "near"),
    ProfileSlot("lux", "power", "cosh-1", "power", "conv"),
    ProfileSlot("lux", "exp", "cosh-1", "inv", "conv"),
    ProfileSlot("orl", "log", "power", "none", "conv"),
    ProfileSlot("lux", "power", "cosh-1", "power", "conv"),
    ProfileSlot("lux", "inv", "power", "none", "near", DEFECT_NEAR_HEAD),
    ProfileSlot("orl", "exp", "power", "none", "conv"),
    ProfileSlot("orl", "power", "xlog1p", "none", "conv", DEFECT_ORL_TAIL),
)
_VERDICT_SLOTS = (
    ProfileSlot("member", "log", "lexp", "inv", "conv"),
    ProfileSlot("lux", "inv", "lexp", "none", "div"),
    ProfileSlot("member", "inv", "cosh-1", "none", "div"),
    ProfileSlot("lux", "power", "llog", "none", "div"),
    ProfileSlot("member", "power", "power", "none", "div"),
    ProfileSlot("lux", "inv", "cosh-1", "exp", "div"),
    ProfileSlot("member", "exp", "llog", "power", "conv"),
    ProfileSlot("lux", "power", "power:2", "none", "near", DEFECT_SLOW_TAIL),
    ProfileSlot("member", "inv", "xlog1p", "power", "div"),
    ProfileSlot("lux", "power", "cosh-1", "none", "div"),
    ProfileSlot("member", "log", "cosh-1", "exp", "conv"),
    ProfileSlot("lux", "power", "xlog1p", "none", "slow", DEFECT_SLOW_TAIL),
    ProfileSlot("member", "power", "xlog1p", "exp", "conv"),
    ProfileSlot("lux", "inv", "lexp", "power", "div"),
    ProfileSlot("member", "exp", "power", "none", "conv"),
    ProfileSlot("lux", "power", "lexp", "none", "div"),
    ProfileSlot("member", "power", "llog", "none", "div"),
    ProfileSlot("lux", "power", "power", "none", "div"),
    ProfileSlot("member", "power", "cosh-1", "none", "div"),
)
_VERDICTS_TWICE = _VERDICT_SLOTS * 2
PROFILE_SLOTS = tuple(
    s for k, norm in enumerate(_NORM_SLOTS) for s in (norm, *_VERDICTS_TWICE[2 * k:2 * k + 2])
) + _VERDICTS_TWICE[2 * len(_NORM_SLOTS):]

# small-argument exponent alpha (tail rule) and large-argument degree d
# (head rule) of each catalog function, from the toolkit's documentation
SMALL_ORDER = {"xlog1p": 2.0, "llog": 2.0, "cosh-1": 2.0, "lexp": 1.0}
POLY_DEGREE = {"xlog1p": 1.0, "llog": 1.0}


def _shape_param(rng, slot: ProfileSlot, spec: str, weight: dict | None) -> float:
    """Draw the head/tail parameter inside the slot's region.  The rules
    are the toolkit's documented comparison tests: log head with exp growth
    diverges iff c + theta_w >= 1; inv_power head with degree d iff
    theta d + theta_w >= 1 (always with exp growth); power tail iff
    gamma alpha + gamma_w <= 1."""
    p = orc.power_exponent(spec)
    wt = (weight or {}).get("tail", {})
    theta_w = wt.get("exponent", 0.0) if wt.get("kind") == "inv_power" else 0.0
    room = 1.0 - theta_w
    if slot.shape == "exp":
        return float(rng.uniform(0.95, 1.05))
    if slot.shape == "log":
        if spec not in ("cosh-1", "lexp"):
            return float(rng.uniform(0.7, 0.75))
        return float(room * (rng.uniform(0.93, 0.95) if slot.region == "near" else rng.uniform(0.48, 0.52)))
    if slot.shape == "inv":
        if spec in ("cosh-1", "lexp"):
            return float(rng.uniform(0.38, 0.42))
        d = p if p is not None else POLY_DEGREE[spec]
        lo, hi = {"conv": (0.48, 0.52), "near": (0.92, 0.94), "div": (1.2, 1.3)}[slot.region]
        return float(room * rng.uniform(lo, hi) / d)
    # power tail, kappa = gamma alpha + gamma_w; only conv slots are weighted
    if spec == "power:2" and slot.region == "near":
        return 0.55  # the documented defect input: kappa = 1.1
    alpha = p if p is not None else SMALL_ORDER[spec]
    lo, hi = {"conv": (3.2, 3.3), "slow": (1.9, 2.1), "div": (0.7, 0.8)}[slot.region]
    return float(rng.uniform(lo, hi) / alpha)


def _profile_op(rng, slot: ProfileSlot) -> Op:
    spec = slot.young
    if spec == "power":
        spec = f"power:{rng.uniform(2.4, 2.6):.6g}"
    weight = weight_profile(rng, slot.weight)
    param = _shape_param(rng, slot, spec, weight)
    build = head_profile if slot.shape in ("log", "inv") else tail_profile
    pdict = build(rng, slot.shape, param)
    profile = rr.profile_from_dict(pdict)
    wprof = rr.profile_from_dict(weight) if weight else None
    young = yg.from_spec(spec)
    p = orc.power_exponent(spec)
    infinite = slot.region == "div"
    inputs = f"{spec} profile {json.dumps(pdict)} weight {json.dumps(weight)}"

    if slot.op == "member":
        def check(rep):
            if rep.member == infinite:
                return Miss("oracle", f"member {rep.member!r}, expected {not infinite!r}")
            return None

        return Op("member", lambda: cs.membership(young, profile, wprof), check, slot.defect, inputs)

    luxemburg = slot.op == "lux"
    ref = None
    if p is not None and weight is None and not infinite:
        lp = orc.profile_p_integral(pdict, p) ** (1.0 / p)
        ref = lp if luxemburg else orc.amemiya_power(p, lp)

    def check(rep):
        if infinite:
            if rep.value == math.inf and rep.converged:
                return None
            return Miss("oracle", f"value {rep.value!r}, expected certified +inf")
        if not (0.0 < rep.value < math.inf) and rep.converged:
            return Miss("oracle", f"value {rep.value!r} for a convergent profile")
        return _norm_miss(rep, ref, luxemburg=luxemburg, tol=1e-7)

    norm = cs.luxemburg_norm if luxemburg else cs.orlicz_norm
    return Op(f"{slot.op}-{slot.shape}", lambda: norm(young, profile, wprof), check, slot.defect, inputs)


def profile_norms_cycle(rng) -> list[Op]:
    return [_profile_op(rng, slot) for slot in PROFILE_SLOTS]


def profile_norms_warmup(rng) -> list[Op]:
    return [
        _profile_op(rng, ProfileSlot("lux", "log", "power:2", "none", "conv")),
        _profile_op(rng, ProfileSlot("member", "exp", "llog", "power", "conv")),
        _profile_op(rng, ProfileSlot("lux", "inv", "lexp", "none", "div")),
    ]


# ----------------------------------------------------------------------------
# matrix-maps: spectral calculus and positive maps, no quadrature
# ----------------------------------------------------------------------------

MATRIX_DIMS = (8, 16, 32, 64, 128)
NC_YOUNGS = ("power", "cosh-1", "llog", "xlog1p", "llogl", "lexp")
MAP_KINDS = ("pinching", "kraus", "unitary")


def _matrix(rng, n: int, kind: str) -> np.ndarray:
    g = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
    if kind == "positive":
        return g.conj().T @ g / 4.0
    if kind == "hermitian":
        return (g + g.conj().T) / 2.0
    return g


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class Matrices:
    """The three matrices one cycle uses at one size, each shared by the
    ops of that size, with their reference singular values computed once."""

    KINDS = ("hermitian", "general", "positive")

    def __init__(self, rng, n: int, unitaries: list[np.ndarray]):
        self.unitaries = unitaries
        self.n = n
        self.arr = {k: _matrix(rng, n, k) for k in self.KINDS}
        self.obs = {k: qs.MatrixObservable.from_array(a, hermitian=k != "general") for k, a in self.arr.items()}
        self._sv: dict[str, np.ndarray] = {}

    def svals(self, kind: str) -> np.ndarray:
        if kind not in self._sv:
            self._sv[kind] = orc.singular_values(self.arr[kind])
        return self._sv[kind]


def _nc_norm_op(rng, m: Matrices, j: int) -> Op:
    kind = Matrices.KINDS[j % 3]
    spec = _step_spec(rng, j)
    young, a, p = yg.from_spec(spec), m.obs[kind], orc.power_exponent(spec)

    def check(rep):
        s = m.svals(kind)
        ref = orc.lp_norm(s, np.ones_like(s), p) if p is not None else orc.luxemburg_bisection(spec, s, np.ones_like(s))
        return _norm_miss(rep, ref, luxemburg=True)

    return Op("nc_norm", lambda: qs.nc_norm(young, a), check)


def _kunze_op(rng, m: Matrices, j: int) -> Op:
    kind = Matrices.KINDS[(j + 1) % 3]
    spec = _step_spec(rng, j + 1)
    young, a = yg.from_spec(spec), m.obs[kind]
    lam = float(rng.uniform(0.5, 2.0))

    def check(val):
        ref = float(np.sum(orc.young_psi(spec, m.svals(kind) / lam)))
        return _first_miss(orc.check_close("Kunze modular", val, ref, 1e-10))

    return Op("kunze", lambda: qs.kunze_modular(young, a, lam=lam), check)


def _profile_of_matrix_op(m: Matrices, j: int) -> Op:
    kind = Matrices.KINDS[(j + 2) % 3]
    a = m.obs[kind]

    def check(prof):
        s = m.svals(kind)
        levels = np.asarray([l for l, _ in prof.steps])
        mass = sum(w for _, w in prof.steps)
        if levels.size != m.n or mass != float(m.n):
            return Miss("oracle", f"{levels.size} levels of mass {mass!r}, expected {m.n} of mass {m.n}")
        err = float(np.max(np.abs(levels - s) / s[0]))
        return None if err <= 1e-10 else Miss("oracle", f"singular levels off by {err:.3e}")

    return Op("singular_profile", lambda: qs.singular_profile(a), check)


def _entropy_op(m: Matrices) -> Op:
    a = m.obs["positive"]

    def check(val):
        lam = m.svals("positive")
        ref = float(np.sum(np.where(lam > 0, lam * np.log(np.maximum(lam, 1e-320)), 0.0)))
        if abs(val - ref) > 1e-10 * max(1.0, float(np.sum(lam))):
            return Miss("oracle", f"entropy {val!r} != reference {ref!r}")
        return None

    return Op("nc_entropy", lambda: qs.nc_entropy(a), check)


def _map_op(rng, m: Matrices, j: int) -> Op:
    kind = Matrices.KINDS[j % 3]
    n, arr, a = m.n, m.arr[kind], m.obs[kind]
    mkind = MAP_KINDS[j % 3]
    if mkind == "pinching":
        cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 4)), replace=False))
        blocks = np.split(np.arange(n), cuts)
        tmap = mps.Pinching(tuple(tuple(int(i) for i in b) for b in blocks))
        mask = np.zeros((n, n), dtype=bool)
        for b in blocks:
            mask[np.ix_(b, b)] = True
        expected = np.where(mask, arr, 0.0)
    elif mkind == "kraus":
        us = [m.unitaries[i] for i in rng.choice(len(m.unitaries), 2, replace=False)]
        wts = rng.dirichlet((1.0, 1.0))
        tmap = mps.KrausMap(tuple(math.sqrt(w) * u for w, u in zip(wts, us)))
        expected = sum(w * u @ arr @ u.conj().T for w, u in zip(wts, us))
    else:
        u = m.unitaries[int(rng.integers(len(m.unitaries)))]
        tmap = mps.UnitaryConjugation(u)
        expected = u @ arr @ u.conj().T

    def call():
        out = tmap.apply(a)
        return out, mps.majorization_check(a, out)

    def check(res):
        out, rep = res
        scale = float(np.max(np.abs(arr)))
        if float(np.max(np.abs(out.entries - expected))) > 1e-12 * max(scale, 1.0):
            return Miss("oracle", f"{mkind} image differs from the reference")
        if not rep.majorized:
            return Miss("oracle", f"{mkind} image not submajorized, worst margin {min(rep.margins):.3e}")
        return None

    return Op(f"map-{mkind}", call, check)


class MatrixMaps:
    """A pool of unitaries per size, drawn once (QR at n = 128 costs as
    much as the ops it would feed), and fresh matrices every cycle."""

    POOL = 4

    def __init__(self, rng):
        self.unitaries = {n: [_unitary(rng, n) for _ in range(self.POOL)] for n in MATRIX_DIMS}

    def cycle(self, rng) -> list[Op]:
        ops = []
        for j, n in enumerate(MATRIX_DIMS):
            m = Matrices(rng, n, self.unitaries[n])
            # each matrix feeds several ops, so its reference SVD is shared
            ops += [_nc_norm_op(rng, m, j), _kunze_op(rng, m, j), _profile_of_matrix_op(m, j),
                    _entropy_op(m), _nc_norm_op(rng, m, j + 1), _kunze_op(rng, m, j + 2),
                    _map_op(rng, m, j)]
        return ops


def matrix_maps_warmup(rng) -> list[Op]:
    m = Matrices(rng, 8, [_unitary(rng, 8) for _ in range(2)])
    return [_nc_norm_op(rng, m, 0), _kunze_op(rng, m, 0), _profile_of_matrix_op(m, 0),
            _entropy_op(m)] + [_map_op(rng, m, j) for j in range(3)]


# ----------------------------------------------------------------------------
# cli-golden: the documented CLI invocations, byte for byte
# ----------------------------------------------------------------------------

# The invocations of tests/test_golden.py, keyed by golden report name.
GOLDEN_CASES = {
    "norm_power2_function.json": ["norm", "--young", "power:2", "--function", "f.txt"],
    "norm_cosh_matrix.json": ["norm", "--young", "cosh-1", "--matrix", "a.json"],
    "norm_weighted_profile.json": [
        "norm", "--young", "cosh-1", "--profile", "glog.json", "--weight", "exp.json",
    ],
    "norm_orlicz_function.json": ["norm", "--young", "power:2", "--function", "f.txt", "--orlicz"],
    "check_delta2_power2.json": ["check", "delta2", "--young", "power:2"],
    "check_regular_log.json": [
        "check", "regular", "--profile", "glog.json", "--weight", "exp.json",
    ],
    "check_equivalent.json": ["check", "equivalent", "--y1", "xlog1p", "--y2", "llog"],
    "check_majorization.json": ["check", "majorization", "--f", "steps.json", "--g", "pinched.json"],
    "check_embedding.json": [
        "check", "embedding-chain", "--function", "prob.txt", "--p-exponent", "2.0",
    ],
}
CLI_EXIT_KINDS = {2: "domain", 3: "nonconverged", 4: "inconclusive"}


def prepare_cli_dir(root: Path, work: Path) -> None:
    """Copy tests/data under its own names into `work`: the reports embed
    digests of the relative paths, so the names must match the goldens."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for src in (root / "tests" / "data").iterdir():
        shutil.copyfile(src, work / src.name)


def _cli_op(runner: CliRunner, name: str, golden: str) -> Op:
    args = GOLDEN_CASES[name]

    def call():
        res = runner.invoke(cli_main, args)
        return res.exit_code, res.output

    def check(res):
        code, out = res
        if code != 0:
            return Miss(CLI_EXIT_KINDS.get(code, "oracle"), f"{name}: exit {code}")
        return None if out == golden else Miss("oracle", f"{name}: output differs from the golden")

    return Op(name.removesuffix(".json"), call, check)


class CliCases:
    """Golden invocations, run with the working directory set to a copy of
    tests/data; the caller enters and leaves that directory.  The seed
    picks the order once, and every cycle keeps it."""

    def __init__(self, root: Path, rng):
        self.runner = CliRunner()
        self.golden = {n: (root / "tests" / "golden" / n).read_text() for n in GOLDEN_CASES}
        names = sorted(GOLDEN_CASES)
        self.order = [names[i] for i in rng.permutation(len(names))]

    def cycle(self, rng) -> list[Op]:
        return [_cli_op(self.runner, name, self.golden[name]) for name in self.order]


# ----------------------------------------------------------------------------


def generators(name: str, root: Path, seed: int):
    """(cycle(rng) -> ops, warmup(rng) -> ops) for a workload; inputs fixed
    for the whole run are drawn here from the seed."""
    rng = np.random.default_rng((seed, 2))
    if name == "step-norms":
        return step_norms_cycle, step_norms_warmup
    if name == "profile-norms":
        return profile_norms_cycle, profile_norms_warmup
    if name == "matrix-maps":
        return MatrixMaps(rng).cycle, matrix_maps_warmup
    if name == "cli-golden":
        cases = CliCases(root, rng)
        return cases.cycle, cases.cycle
    raise ValueError(f"unknown workload {name!r}")
