"""Bit pins and work counts of the analytic-profile layer.

Each case is a modular, Luxemburg or Amemiya norm, or cross integral of a
profile with a log or inverse-power head, an exponential or power tail, or
both, under poly, exp or threshold growth and no, exponential, power or
inverse-power weight.  PINS holds each value's float.hex as the code
produced it before the profile values and the quadrature loop were made
leaner; a change that is meant to keep every number must keep these bits.
The four Amemiya values were pinned again when every profile came to
solve Young's equality Q(k) = 1; the old and new values are within 2e-11
of a 25-digit mpmath minimum.  The six values with an inverse-power head
were pinned again when that head came to be integrated in y = log(1/t)
under the log head's truncation rule; each new value is within 7.3e-12
relative of a 25-digit mpmath value.  The five values with a power tail
and no inverse-power head were pinned again when each decade of a power
tail came to start on three panels: the modulars power/power:2.5/none
(1 ulp; 5.80e-11 relative below its closed form 0.5 + 0.8^2.5/2 before and
after), power/cosh-1/power (2 ulp; 7.16e-11 below a 25-digit mpmath value)
and slow-power/power:2/none (1 ulp; 7.87e-12 below its exact 5.625), and
the Luxemburg norms power/cosh-1/power (+1.0e-13 relative; 1.20e-11 and
now 1.19e-11 below a 25-digit mpmath root) and slow-power/power:2/none
(-1.0e-13; 2.13e-11 and now 2.14e-11 below its exact sqrt(5.625)).  The
work counts (root-finder iterations, _integrate calls, _gk15 rounds and
panels evaluated) were recorded at the same points; the two that take
power tails were recorded again with them.  Six values with a log head
were pinned again when a log head came to start on 1.1 panels per decay
length in y = log(1/t): the modulars log/power:2.5/exp (-1 ulp),
log/cosh-1/{none, power, inv} (+1, +1, +2 ulp) and log+exp/cosh-1/none
(+1 ulp), and the Luxemburg norm log+exp/xlog1p/inv (-3.6e-16 relative).
Against 30-digit mpmath values, log/power:2.5/exp stays 3.37e-12 below,
the four cosh-1 modulars went from 2.6-4.2e-15 to 2.3-4.0e-15 below, and
the norm stays 2.7e-13 above its root.  The golden weighted norm's work
was recorded again with them: its 12 integrals take 13 rounds, where they
took 48.

STEP_PINS holds the step norms of simple functions (Luxemburg, Amemiya and
holder_check, for every catalog Young function, on repeated levels, zeros,
negative values, levels at 1e-300 and 1e300 and an aligned density): value,
witness, bracket and modular at the witness as float.hex, with iterations
and the converged flag, recorded before simple functions went straight to
their levels and each norm search took one np.errstate.  Fourteen Amemiya
and Hoelder entries were pinned again when the catalog kinds got closed-form
equality gaps: no iteration count moved, each value moved by at most 2 ulp
and stays within 1.5 ulp of a 40-digit mpmath minimum, and each witness
stays inside its bracket of relative width 1e-9.  Seven Amemiya entries,
of llogl and a tabulated density with a jump, were pinned again when the
Amemiya search came to evaluate Q at each jump point itself rather than
one ulp below it, and the tabulated density got a closed-form equality gap:
no value, iteration count or converged flag moved, and each bracket end or
witness moved by 1-2 ulp, or to the other end of its bracket.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

import test_double_range_sweep as sweep
from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.errors import DomainError, OrliczKitError

D = rr.DecreasingProfile
L, I = rr.LogSingularity, rr.InvPowerSingularity
E, P = rr.ExponentialTail, rr.PowerTail

PROFILES = {
    "log": D(((0.3, 1.0),), head=L(0.5, 0.5)),
    "inv": D(((0.3, 1.0),), head=I(0.5, 0.2, 0.8)),
    "exp": D(((1.0, 0.5),), E(0.8, 1.5)),
    "power": D(((1.0, 0.5),), P(0.8, 1.2, 1.0)),
    "slow-power": D((), P(1.5, 0.7)),
    "log+exp": D(((0.3, 1.0),), E(0.25, 1.5), head=L(0.5, 0.5)),
    "inv+power": D((), P(0.4, 1.2, 1.0), head=I(0.5, 0.2, 0.8)),
}
WEIGHTS = {
    "none": None,
    "exp": D((), E(1.0, 1.0)),
    "power": D(((1.0, 0.5),), P(0.9, 0.5, 1.0)),
    "inv": D(((0.5, 1.0),), head=I(1.0, 0.3, 1.0)),
}
YOUNG = {
    "power:2": yg.power(2.0),
    "power:2.5": yg.power(2.5),
    "xlog1p": yg.xlog1p(),
    "cosh-1": yg.cosh_minus_1(),
    "lexp": yg.zygmund_exp(),
    # threshold growth: +inf beyond 3
    "capped": yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 1.0], limit=3.0),
}

MODULAR = [
    *((f"log/{y}/{w}") for y in ("power:2.5", "xlog1p", "cosh-1") for w in WEIGHTS),
    "inv/power:2.5/none", "inv/power:2.5/inv", "inv/xlog1p/none", "inv/xlog1p/exp",
    "exp/power:2.5/none", "exp/cosh-1/power", "exp/lexp/inv", "exp/capped/none", "exp/capped/exp",
    "power/power:2.5/none", "power/cosh-1/power", "power/xlog1p/exp", "power/capped/none",
    "slow-power/power:2/none",
    "log+exp/cosh-1/none", "inv+power/power:2.5/inv",
]
LUXEMBURG = ["log/cosh-1/exp", "inv/power:2.5/none", "exp/lexp/none", "power/cosh-1/power",
             "slow-power/power:2/none", "log+exp/xlog1p/inv"]
ORLICZ = ["log/power:2.5/none", "exp/power:2.5/none", "power/xlog1p/none", "power/cosh-1/exp"]
CROSS = ["log/exp", "inv/inv", "exp/inv", "power/power", "log+exp/power", "inv+power/exp"]


def _young_profile_weight(case):
    shape, young, weight = case.split("/")
    return YOUNG[young], PROFILES[shape], WEIGHTS[weight]


def evaluate(kind: str, case: str) -> float:
    if kind == "cross":
        shape, weight = case.split("/")
        return rr.cross_integral(PROFILES[shape], WEIGHTS[weight], 2.0)
    if kind == "modular":
        return rr.modular(*_young_profile_weight(case))
    norm = cs.luxemburg_norm if kind == "luxemburg" else cs.orlicz_norm
    return norm(*_young_profile_weight(case)).value


CASES = ([("modular", c) for c in MODULAR] + [("luxemburg", c) for c in LUXEMBURG]
         + [("orlicz", c) for c in ORLICZ] + [("cross", c) for c in CROSS])

PINS = {
    ("modular", "log/power:2.5/none"): "0x1.41d1cb7a43cc6p-1",
    ("modular", "log/power:2.5/exp"): "0x1.1c6ca6e35726fp-1",
    ("modular", "log/power:2.5/power"): "0x1.3b65f71dc6eefp-1",
    ("modular", "log/power:2.5/inv"): "0x1.09d9666eb3f22p+1",
    ("modular", "log/xlog1p/none"): "0x1.885bd22941044p-2",
    ("modular", "log/xlog1p/exp"): "0x1.33a4722d0e6d9p-2",
    ("modular", "log/xlog1p/power"): "0x1.73da6c0c181cdp-2",
    ("modular", "log/xlog1p/inv"): "0x1.bf502df1a8f89p-1",
    ("modular", "log/cosh-1/none"): "0x1.7b2efc759e749p-2",
    ("modular", "log/cosh-1/exp"): "0x1.449b7100418c6p-2",
    ("modular", "log/cosh-1/power"): "0x1.6f5f3379e39e7p-2",
    ("modular", "log/cosh-1/inv"): "0x1.83bbe8572957ap+0",
    ("modular", "inv/power:2.5/none"): "0x1.764b9b9e5a842p-2",
    ("modular", "inv/power:2.5/inv"): "0x1.c01b001a66a66p-1",
    ("modular", "inv/xlog1p/none"): "0x1.67a17a174396cp-2",
    ("modular", "inv/xlog1p/exp"): "0x1.d087f6a5e3521p-3",
    ("modular", "exp/power:2.5/none"): "0x1.4e27ff60f01aep-1",
    ("modular", "exp/cosh-1/power"): "0x1.6f40bdd021929p-2",
    ("modular", "exp/lexp/inv"): "0x1.4a51ac62e9d28p+0",
    ("modular", "exp/capped/none"): "0x1.6d3a06d3a06d4p-2",
    ("modular", "exp/capped/exp"): "0x1.f6495dd07186ap-3",
    ("modular", "power/power:2.5/none"): "0x1.928afed55dee4p-1",
    ("modular", "power/cosh-1/power"): "0x1.b4fb82322e1e2p-2",
    ("modular", "power/xlog1p/exp"): "0x1.86e732ccdb6aap-2",
    ("modular", "power/capped/none"): "0x1.ea0ea0e94d5b4p-2",
    ("modular", "slow-power/power:2/none"): "0x1.67fffffff3d5bp+2",
    ("modular", "log+exp/cosh-1/none"): "0x1.85e0c619dfe8dp-2",
    ("modular", "inv+power/power:2.5/inv"): "0x1.bf50d3bd94177p-1",
    ("luxemburg", "log/cosh-1/exp"): "0x1.66b98ff209d01p-1",
    ("luxemburg", "inv/power:2.5/none"): "0x1.56529effcdc37p-1",
    ("luxemburg", "exp/lexp/none"): "0x1.0888888884105p+0",
    ("luxemburg", "power/cosh-1/power"): "0x1.5aae95868edd1p-1",
    ("luxemburg", "slow-power/power:2/none"): "0x1.2f9422c2206d1p+1",
    ("luxemburg", "log+exp/xlog1p/inv"): "0x1.da44998853c88p-1",
    ("orlicz", "log/power:2.5/none"): "0x1.a0bcb3ab0d775p+0",
    ("orlicz", "exp/power:2.5/none"): "0x1.a70e2350a7ae1p+0",
    ("orlicz", "power/xlog1p/none"): "0x1.a9160ab86766dp+0",
    ("orlicz", "power/cosh-1/exp"): "0x1.217e96fd05ff1p+0",
    ("cross", "log/exp"): "0x1.e4aaa94db9be4p-2",
    ("cross", "inv/inv"): "0x1.138f34b9f571ep+0",
    ("cross", "exp/inv"): "0x1.4a51ac635a01ep+0",
    ("cross", "power/power"): "0x1.f954adf7c8969p-1",
    ("cross", "log+exp/power"): "0x1.667d26698bdb1p-1",
    ("cross", "inv+power/exp"): "0x1.d742d54f9a658p-2",
}


@pytest.mark.parametrize("kind, case", CASES, ids=[f"{k}:{c}" for k, c in CASES])
def test_value_bits(kind, case):
    assert evaluate(kind, case).hex() == PINS[kind, case]


def test_golden_weighted_norm_work(kernel_work):
    # the norm of tests/golden/norm_weighted_profile.json
    data = Path(__file__).parent / "data"
    p, w = (rr.load_json_input(data / name, rr.profile_from_dict) for name in ("glog.json", "exp.json"))
    rep = cs.luxemburg_norm(yg.cosh_minus_1(), p, w)
    assert rep.iterations == 13
    assert kernel_work == {"integrate": 12, "rounds": 13, "panels": 456}


def test_power_tail_luxemburg_norm_work(kernel_work):
    rep = cs.luxemburg_norm(*_young_profile_weight("power/cosh-1/power"))
    assert rep.iterations == 10
    assert kernel_work == {"integrate": 10, "rounds": 11, "panels": 179}


def test_analytic_amemiya_norm_work(kernel_work, modular_calls):
    # Q(k) is one modular of the equality gap per evaluation; the objective
    # is read at both ends of the final bracket, one modular each
    rep = cs.orlicz_norm(*_young_profile_weight("power/cosh-1/exp"))
    assert rep.iterations == 11
    assert modular_calls == {"gap": 10, "modular": 2}
    assert kernel_work == {"integrate": 12, "rounds": 13, "panels": 74}


#: the factors of the _scaled bit test, and its Young functions: the
#: sweep's catalog and the gap in Young's equality of each
FACTORS = [1e-50, 1e-3, 1.0, 1e3, 1e50]
SCALED_YOUNGS = [*map(yg.from_spec, sweep.YOUNGS), *(yg._EqualityGap(yg.from_spec(s)) for s in sweep.YOUNGS)]


def _modular_hex(young, prof, weight):
    """The modular's float.hex, or the type of the package error it raises."""
    try:
        return rr.modular(young, prof, weight).hex()
    except OrliczKitError as err:
        return type(err)


@pytest.mark.parametrize("young", SCALED_YOUNGS, ids=lambda y: y.name)
@pytest.mark.parametrize("name", sweep.SHAPES)
def test_scaled_copy_has_the_bits_of_scale(name, young):
    # the sweep's shapes and weights: the norm searches' unchecked copy gives
    # the modular of the checked one, value or error
    rng = np.random.default_rng(sweep.SEED)
    for wname, weight in sweep.WEIGHTS.items():
        prof, w = sweep.shape(name, rng), weight(rng)
        for c in FACTORS:
            assert _modular_hex(young, prof._scaled(c), w) == _modular_hex(young, prof.scale(c), w), (wname, c)


@pytest.mark.parametrize("name", [n for n in YOUNG if n != "capped"])  # threshold growth takes no head
def test_pieces_that_underflow_add_nothing(name, kernel_work):
    # 5e-324 times a level, coefficient or amplitude at most 0.5 rounds to 0;
    # on a member, where the norm searches run, the modular is then 0, with
    # no quadrature
    young = YOUNG[name]
    members = [(PROFILES[shape], w) for shape in ("log+exp", "inv+power") for w in WEIGHTS.values()
               if cs.membership(young, PROFILES[shape], w).member]
    assert members
    for prof, w in members:
        assert rr.modular(young, prof._scaled(5e-324), w) == 0.0
    assert kernel_work["integrate"] == 0


def test_norm_searches_check_no_profile(count_calls):
    # the norms of tests/golden/norm_weighted_profile.json build no checked
    # profile, head or tail: each modular is taken on an unchecked copy
    data = Path(__file__).parent / "data"
    p, w = (rr.load_json_input(data / name, rr.profile_from_dict) for name in ("glog.json", "exp.json"))
    calls = [count_calls(cls, "__post_init__") for cls in (D, E, P, L, I)]
    lux, orl = cs.luxemburg_norm(yg.cosh_minus_1(), p, w), cs.orlicz_norm(yg.cosh_minus_1(), p, w)
    assert (lux.iterations, orl.iterations) == (13, 13)
    assert [len(c) for c in calls] == [0] * 5


# ----------------------------------------------------------------------------
# step norms of simple functions
# ----------------------------------------------------------------------------

PROB = rr.probability_space()
SIMPLE = {
    "mixed": rr.simple_function([3.0, -1.0, 0.5, 2.0, -0.25], [0.1, 0.15, 0.35, 0.25, 0.15], PROB),
    # 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1: merge order shows
    "repeated": rr.simple_function(
        [2.0, -2.0, 0.0, 0.5, 2.0, -0.5, 0.0], [0.1, 0.2, 0.1, 0.15, 0.3, 0.05, 0.1], PROB
    ),
    "tiny": rr.simple_function([1e-300, -3e-300, 2e-300], [0.5, 0.125, 0.375], PROB),
    "huge": rr.simple_function([1e300, -2e299, 5e299], [0.5, 0.125, 0.375], PROB),
}
#: an aligned density of "mixed"; its zero drops an atom
DENSITY = rr.simple_function([0.5, 2.0, 0.0, 1.0, 0.25], [0.1, 0.15, 0.35, 0.25, 0.15], PROB)
#: aligned partners for holder_check
PARTNER = {
    "mixed": rr.simple_function([0.5, -2.0, 1.5, 0.0, 4.0], [0.1, 0.15, 0.35, 0.25, 0.15], PROB),
    "repeated": rr.simple_function(
        [1.0, 1.0, 3.0, -0.5, 0.0, 2.0, 1.0], [0.1, 0.2, 0.1, 0.15, 0.3, 0.05, 0.1], PROB
    ),
}
STEP_YOUNG = {
    "power:1.5": yg.power(1.5),
    "power:2": yg.power(2.0),
    "identity": yg.identity(),
    "cosh-1": yg.cosh_minus_1(),
    "llog": yg.llog(),
    "xlog1p": yg.xlog1p(),
    "llogl": yg.zygmund_llogl(),
    "lexp": yg.zygmund_exp(),
    # a density jump at 1
    "tabulated": yg.tabulated([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0]),
    "threshold": yg.complement(yg.identity()),
    "conjugate(xlog1p)": yg.complement(yg.xlog1p()),
}
STEP_INPUTS = [*SIMPLE, "density"]


def _step_input(name):
    return (SIMPLE["mixed"], DENSITY) if name == "density" else (SIMPLE[name], None)


def _hex(x) -> str:
    return "-" if x is None else float(x).hex()


def report_bits(rep) -> str:
    """A NormReport as float.hex of value, witness, bracket and modular at
    the witness, with its iterations and converged flag."""
    bracket = "-" if rep.bracket is None else ":".join(map(_hex, rep.bracket))
    return f"{_hex(rep.value)} {_hex(rep.witness)} {bracket} {rep.iterations} {rep.converged} {_hex(rep.modular_at_witness)}"


def holder_bits(rep) -> str:
    return f"{_hex(rep.lhs)} {_hex(rep.rhs)} {_hex(rep.luxemburg_f)} {_hex(rep.orlicz_g)} {rep.holds}"


def step_bits(kind: str, young: str, name: str) -> str:
    if kind == "holder":
        return holder_bits(cs.holder_check(SIMPLE[name], PARTNER[name], STEP_YOUNG[young]))
    norm = cs.luxemburg_norm if kind == "luxemburg" else cs.orlicz_norm
    return report_bits(norm(STEP_YOUNG[young], *_step_input(name)))


STEP_CASES = [
    *((kind, y, name) for kind in ("luxemburg", "orlicz") for y in STEP_YOUNG for name in STEP_INPUTS),
    *(("holder", y, name) for y in STEP_YOUNG for name in PARTNER),
]

STEP_PINS = {
    ("luxemburg", "power:1.5", "mixed"): "0x1.52504f199d7d6p+0 0x1.52504f199d7d6p+0 0x1.52504f199d583p+0:0x1.52504f199d7d6p+0 4 True 0x1.fffffffffffffp-1",
    ("luxemburg", "power:1.5", "repeated"): "0x1.764636974629dp+0 0x1.764636974629dp+0 0x1.764636974600bp+0:0x1.764636974629dp+0 4 True 0x1.0000000000000p+0",
    ("luxemburg", "power:1.5", "tiny"): "0x1.22e4ba8fd11a2p-996 0x1.22e4ba8fd11a2p-996 0x1.22e4ba8fd0fa2p-996:0x1.22e4ba8fd11a2p-996 20 True 0x1.ffffffffffffep-1",
    ("luxemburg", "power:1.5", "huge"): "0x1.1d0090ec72a19p+996 0x1.1d0090ec72a19p+996 0x1.1d0090ec72824p+996:0x1.1d0090ec72a19p+996 20 True 0x1.fffffffffffffp-1",
    ("luxemburg", "power:1.5", "density"): "0x1.2c796f50afe33p+0 0x1.2c796f50afe33p+0 0x1.2c796f50afc22p+0:0x1.2c796f50afe33p+0 4 True 0x1.fffffffffffffp-1",
    ("luxemburg", "power:2", "mixed"): "0x1.7718c710f46d9p+0 0x1.7718c710f46d9p+0 0x1.7718c710f4446p+0:0x1.7718c710f46d9p+0 4 True 0x1.ffffffffff8fcp-1",
    ("luxemburg", "power:2", "repeated"): "0x1.90b410d07f2dep+0 0x1.90b410d07f2dep+0 0x1.90b410d07f01ep+0:0x1.90b410d07f2dep+0 4 True 0x1.ffffffffff8fap-1",
    ("luxemburg", "power:2", "tiny"): "0x1.2f1182b89d76cp-996 0x1.2f1182b89d76cp-996 0x1.2f1182b89d557p-996:0x1.2f1182b89d76cp-996 20 True 0x1.ffffffffff8f9p-1",
    ("luxemburg", "power:2", "huge"): "0x1.27cadc55989a9p+996 0x1.27cadc55989a9p+996 0x1.27cadc55987a1p+996:0x1.27cadc55989a9p+996 20 True 0x1.0000000000000p+0",
    ("luxemburg", "power:2", "density"): "0x1.52e203cf19b4fp+0 0x1.52e203cf19b4fp+0 0x1.52e203cf198fbp+0:0x1.52e203cf19b4fp+0 4 True 0x1.ffffffffffffep-1",
    ("luxemburg", "identity", "mixed"): "0x1.299999999999ap+0 0x1.299999999999ap+0 0x1.299999999978ep+0:0x1.299999999999ap+0 4 True 0x1.ffffffffffffep-1",
    ("luxemburg", "identity", "repeated"): "0x1.4cccccccccccep+0 0x1.4cccccccccccep+0 0x1.4ccccccccca85p+0:0x1.4cccccccccccep+0 4 True 0x1.fffffffffffffp-1",
    ("luxemburg", "identity", "tiny"): "0x1.16979ce6a45b8p-996 0x1.16979ce6a45b8p-996 0x1.16979ce6a43cep-996:0x1.16979ce6a45b8p-996 20 True 0x1.0000000000000p+0",
    ("luxemburg", "identity", "huge"): "0x1.105d1874d2277p+996 0x1.105d1874d2277p+996 0x1.105d1874d2098p+996:0x1.105d1874d2277p+996 20 True 0x1.ffffffffffc7ep-1",
    ("luxemburg", "identity", "density"): "0x1.eb33333333691p-1 0x1.eb33333333691p-1 0x1.eb33333333332p-1:0x1.eb33333333691p-1 4 True 0x1.ffffffffffc7ep-1",
    ("luxemburg", "cosh-1", "mixed"): "0x1.378a5eff538f0p+0 0x1.378a5eff538f0p+0 0x1.378a5eff536ccp+0:0x1.378a5eff538f0p+0 10 True 0x1.ffffffffffffep-1",
    ("luxemburg", "cosh-1", "repeated"): "0x1.3afd5bed71e1fp+0 0x1.3afd5bed71e1fp+0 0x1.3afd5bed71bf5p+0:0x1.3afd5bed71e1fp+0 10 True 0x1.fffffffffffffp-1",
    ("luxemburg", "cosh-1", "tiny"): "0x1.e02006b6b9031p-997 0x1.e02006b6b9031p-997 0x1.e02006b6b8ce5p-997:0x1.e02006b6b9031p-997 26 True 0x1.0000000000000p+0",
    ("luxemburg", "cosh-1", "huge"): "0x1.cdba2ed0b2c86p+995 0x1.cdba2ed0b2c86p+995 0x1.cdba2ed0b295ap+995:0x1.cdba2ed0b2c86p+995 26 True 0x1.ffffffffffffep-1",
    ("luxemburg", "cosh-1", "density"): "0x1.1a719638c042cp+0 0x1.1a719638c042cp+0 0x1.1a719638c023cp+0:0x1.1a719638c042cp+0 10 True 0x1.ffffffffff6a9p-1",
    ("luxemburg", "llog", "mixed"): "0x1.d51e94a5fde3cp-1 0x1.d51e94a5fde3cp-1 0x1.d51e94a5fdb03p-1:0x1.d51e94a5fde3cp-1 8 True 0x1.ffffffffff9f4p-1",
    ("luxemburg", "llog", "repeated"): "0x1.0237329776c65p+0 0x1.0237329776c65p+0 0x1.0237329776a9fp+0:0x1.0237329776c65p+0 8 True 0x1.0000000000000p+0",
    ("luxemburg", "llog", "tiny"): "0x1.87d6f47691a49p-997 0x1.87d6f47691a49p-997 0x1.87d6f47691730p-997:0x1.87d6f47691a49p-997 24 True 0x1.ffffffffffc6cp-1",
    ("luxemburg", "llog", "huge"): "0x1.808df759f7041p+995 0x1.808df759f7041p+995 0x1.808df759f6adep+995:0x1.808df759f7041p+995 24 True 0x1.ffffffffff9a2p-1",
    ("luxemburg", "llog", "density"): "0x1.a7448189452a5p-1 0x1.a7448189452a5p-1 0x1.a744818944fbdp-1:0x1.a7448189452a5p-1 8 True 0x1.ffffffffffaebp-1",
    ("luxemburg", "xlog1p", "mixed"): "0x1.16e8b97ecf24ep+0 0x1.16e8b97ecf24ep+0 0x1.16e8b97ecf064p+0:0x1.16e8b97ecf24ep+0 8 True 0x1.ffffffffffc8cp-1",
    ("luxemburg", "xlog1p", "repeated"): "0x1.3509cf9443f44p+0 0x1.3509cf9443f44p+0 0x1.3509cf9443031p+0:0x1.3509cf9443f44p+0 8 True 0x1.fffffffffeb78p-1",
    ("luxemburg", "xlog1p", "tiny"): "0x1.d8a796f4b8d62p-997 0x1.d8a796f4b8d62p-997 0x1.d8a796f4b8a23p-997:0x1.d8a796f4b8d62p-997 24 True 0x1.ffffffffffa2ap-1",
    ("luxemburg", "xlog1p", "huge"): "0x1.cfe0a5f2123b8p+995 0x1.cfe0a5f2123b8p+995 0x1.cfe0a5f212089p+995:0x1.cfe0a5f2123b8p+995 24 True 0x1.ffffffffffa2ap-1",
    ("luxemburg", "xlog1p", "density"): "0x1.f592500f3f452p-1 0x1.f592500f3f452p-1 0x1.f592500f3f0e0p-1:0x1.f592500f3f452p-1 7 True 0x1.fffffffffffcap-1",
    ("luxemburg", "llogl", "mixed"): "0x1.ae82cb42d39d4p-1 0x1.ae82cb42d39d4p-1 0x1.ae82cb42d36dfp-1:0x1.ae82cb42d39d4p-1 10 True 0x1.ffffffffff886p-1",
    ("luxemburg", "llogl", "repeated"): "0x1.d9ac749ec4a16p-1 0x1.d9ac749ec4a16p-1 0x1.d9ac749ec46d5p-1:0x1.d9ac749ec4a16p-1 10 True 0x1.ffffffffffffbp-1",
    ("luxemburg", "llogl", "tiny"): "0x1.4e0d1b5d83767p-997 0x1.4e0d1b5d83767p-997 0x1.4e0d1b5d8351cp-997:0x1.4e0d1b5d83767p-997 26 True 0x1.fffffffffffffp-1",
    ("luxemburg", "llogl", "huge"): "0x1.4ebe0892a3731p+995 0x1.4ebe0892a3731p+995 0x1.4ebe0892a34e5p+995:0x1.4ebe0892a3731p+995 26 True 0x1.ffffffffffac4p-1",
    ("luxemburg", "llogl", "density"): "0x1.87dfd61cbaec4p-1 0x1.87dfd61cbaec4p-1 0x1.87dfd61cbac13p-1:0x1.87dfd61cbaec4p-1 10 True 0x1.ffffffffff82ap-1",
    ("luxemburg", "lexp", "mixed"): "0x1.5c52e779ce2bdp+0 0x1.5c52e779ce2bdp+0 0x1.5c52e779ce059p+0:0x1.5c52e779ce2bdp+0 11 True 0x1.fffffffffffffp-1",
    ("luxemburg", "lexp", "repeated"): "0x1.64789dbd592b0p+0 0x1.64789dbd592b0p+0 0x1.64789dbd5903dp+0:0x1.64789dbd592b0p+0 11 True 0x1.fffffffffffffp-1",
    ("luxemburg", "lexp", "tiny"): "0x1.25bcffa093b2cp-996 0x1.25bcffa093b2cp-996 0x1.25bcffa093928p-996:0x1.25bcffa093b2cp-996 26 True 0x1.0000000000000p+0",
    ("luxemburg", "lexp", "huge"): "0x1.1a5880d2bf997p+996 0x1.1a5880d2bf997p+996 0x1.1a5880d2bf7a6p+996:0x1.1a5880d2bf997p+996 26 True 0x1.0000000000000p+0",
    ("luxemburg", "lexp", "density"): "0x1.2d862b02d4525p+0 0x1.2d862b02d4525p+0 0x1.2d862b02d4313p+0:0x1.2d862b02d4525p+0 10 True 0x1.fffffffffffefp-1",
    ("luxemburg", "tabulated", "mixed"): "0x1.3aed4bf3a721cp+0 0x1.3aed4bf3a721cp+0 0x1.3aed4bf3a6ff2p+0:0x1.3aed4bf3a721cp+0 10 True 0x1.fffffffffffffp-1",
    ("luxemburg", "tabulated", "repeated"): "0x1.53b469ccee238p+0 0x1.53b469ccee238p+0 0x1.53b469ccedfe2p+0:0x1.53b469ccee238p+0 10 True 0x1.0000000000000p+0",
    ("luxemburg", "tabulated", "tiny"): "0x1.f55efcbde5221p-997 0x1.f55efcbde5221p-997 0x1.f55efcbde4eb0p-997:0x1.f55efcbde5221p-997 24 True 0x1.ffffffffffa4ap-1",
    ("luxemburg", "tabulated", "huge"): "0x1.ebf7b604d255fp+995 0x1.ebf7b604d255fp+995 0x1.ebf7b604d1507p+995:0x1.ebf7b604d255fp+995 24 True 0x1.fffffffffed16p-1",
    ("luxemburg", "tabulated", "density"): "0x1.19dc61333214ap+0 0x1.19dc61333214ap+0 0x1.19dc613331f5ap+0:0x1.19dc61333214ap+0 10 True 0x1.ffffffffffffep-1",
    ("luxemburg", "threshold", "mixed"): "0x1.80000000002afp+1 0x1.80000000002afp+1 0x1.7fffffffff20cp+1:0x1.80000000002afp+1 43 True 0x0.0p+0",
    ("luxemburg", "threshold", "repeated"): "0x1.0000000000000p+1 0x1.0000000000000p+1 0x1.fffffffffe9d3p+0:0x1.0000000000000p+1 43 True 0x0.0p+0",
    ("luxemburg", "threshold", "tiny"): "0x1.01297d23ab986p-995 0x1.01297d23ab986p-995 0x1.01297d23aae62p-995:0x1.01297d23ab986p-995 59 True 0x0.0p+0",
    ("luxemburg", "threshold", "huge"): "0x1.7e43c8800845fp+996 0x1.7e43c8800845fp+996 0x1.7e43c880073d0p+996:0x1.7e43c8800845fp+996 59 True 0x0.0p+0",
    ("luxemburg", "threshold", "density"): "0x1.80000000002afp+1 0x1.80000000002afp+1 0x1.7fffffffff20cp+1:0x1.80000000002afp+1 43 True 0x0.0p+0",
    ("luxemburg", "conjugate(xlog1p)", "mixed"): "0x1.0f118e3034411p+0 0x1.0f118e3034411p+0 0x1.0f118e30339aep+0:0x1.0f118e3034411p+0 9 True 0x1.ffffffffffffep-1",
    ("luxemburg", "conjugate(xlog1p)", "repeated"): "0x1.0c33404e943a4p+0 0x1.0c33404e943a4p+0 0x1.0c33404e941ccp+0:0x1.0c33404e943a4p+0 8 True 0x1.fffffffffff0ap-1",
    ("luxemburg", "conjugate(xlog1p)", "tiny"): "0x1.99746f55821b6p-997 0x1.99746f55821b6p-997 0x1.99746f5581ee6p-997:0x1.99746f55821b6p-997 26 True 0x1.fffffffffffe3p-1",
    ("luxemburg", "conjugate(xlog1p)", "huge"): "0x1.872bc4f12887fp+995 0x1.872bc4f12887fp+995 0x1.872bc4f1285cfp+995:0x1.872bc4f12887fp+995 26 True 0x1.ffffffffffff0p-1",
    ("luxemburg", "conjugate(xlog1p)", "density"): "0x1.ec527c8678d41p-1 0x1.ec527c8678d41p-1 0x1.ec527c86789dfp-1:0x1.ec527c8678d41p-1 8 True 0x1.ffffffffffd73p-1",
    ("orlicz", "power:1.5", "mixed"): "0x1.3fafb943b0d5dp+1 0x1.3380574187003p+0 0x1.3380574187003p+0:0x1.338057420b125p+0 5 True -",
    ("orlicz", "power:1.5", "repeated"): "0x1.61aac213890e3p+1 0x1.15f4d444d9d3ep+0 0x1.15f4d44462724p+0:0x1.15f4d444d9d3ep+0 5 True -",
    ("orlicz", "power:1.5", "tiny"): "0x1.12e08a0858cfcp-995 0x1.65a10046f6451p+996 0x1.65a100465cab5p+996:0x1.65a10046f6451p+996 5 True -",
    ("orlicz", "power:1.5", "huge"): "0x1.0d4f6a2f97977p+997 0x1.6d057c92599f6p-996 0x1.6d057c92599f6p-996:0x1.6d057c92f6660p-996 5 True -",
    ("orlicz", "power:1.5", "density"): "0x1.1bee3381631aap+1 0x1.5a39c144457d3p+0 0x1.5a39c143b0c93p+0:0x1.5a39c144457d3p+0 7 True -",
    ("orlicz", "power:2", "mixed"): "0x1.7718c710f4446p+1 0x1.5d6f659b5f8d9p-1 0x1.5d6f659ac978cp-1:0x1.5d6f659b5f8d9p-1 5 True -",
    ("orlicz", "power:2", "repeated"): "0x1.90b410d07f01fp+1 0x1.471ad441b60bfp-1 0x1.471ad441b60bfp-1:0x1.471ad44242898p-1 5 True -",
    ("orlicz", "power:2", "tiny"): "0x1.2f1182b89d557p-995 0x1.b07bb4c291ce8p+995 0x1.b07bb4c291ce8p+995:0x1.b07bb4c34b8e8p+995 5 True -",
    ("orlicz", "power:2", "huge"): "0x1.27cadc55989a9p+997 0x1.bb1f1e6c8d351p-997 0x1.bb1f1e6c8d351p-997:0x1.bb1f1e6d4b86dp-997 5 True -",
    ("orlicz", "power:2", "density"): "0x1.52e203cf19b4ep+1 0x1.82c6d61f9d82dp-1 0x1.82c6d61ef7645p-1:0x1.82c6d61f9d82dp-1 5 True -",
    ("orlicz", "identity", "mixed"): "0x1.299999999999ap+0 - - 0 True -",
    ("orlicz", "identity", "repeated"): "0x1.4cccccccccccep+0 - - 0 True -",
    ("orlicz", "identity", "tiny"): "0x1.16979ce6a45b8p-996 - - 0 True -",
    ("orlicz", "identity", "huge"): "0x1.105d1874d2099p+996 - - 0 True -",
    ("orlicz", "identity", "density"): "0x1.eb33333333332p-1 - - 0 True -",
    ("orlicz", "cosh-1", "mixed"): "0x1.3053a72cfd2afp+1 0x1.695cb2f0a7a80p-1 0x1.695cb2f00c73dp-1:0x1.695cb2f0a7a80p-1 11 True -",
    ("orlicz", "cosh-1", "repeated"): "0x1.372e04867b882p+1 0x1.7105feb4e6174p-1 0x1.7105feb44798cp-1:0x1.7105feb4e6174p-1 11 True -",
    ("orlicz", "cosh-1", "tiny"): "0x1.d97a8ac2243d4p-996 0x1.e1574b9c7809cp+995 0x1.e1574b9ba94dbp+995:0x1.e1574b9c7809cp+995 11 True -",
    ("orlicz", "cosh-1", "huge"): "0x1.c8ad0b396d0fdp+996 0x1.f9df7edcde8dep-997 0x1.f9df7edcde8dep-997:0x1.f9df7eddb7d32p-997 11 True -",
    ("orlicz", "cosh-1", "density"): "0x1.13a606557a66dp+1 0x1.8ddb557ef5b59p-1 0x1.8ddb557ef5b59p-1:0x1.8ddb557fa0965p-1 11 True -",
    ("orlicz", "llog", "mixed"): "0x1.cd9ceeeb7eb48p+0 0x1.617301fffc5e0p+0 0x1.617301ff648fdp+0:0x1.617301fffc5e0p+0 10 True -",
    ("orlicz", "llog", "repeated"): "0x1.fe6b9861dcbc3p+0 0x1.34b158e9cd3d1p+0 0x1.34b158e4cd1d3p+0:0x1.34b158e9cd3d1p+0 10 True -",
    ("orlicz", "llog", "tiny"): "0x1.84010dc5a29e8p-996 0x1.8e8b761b56106p+996 0x1.8e8b761871af3p+996:0x1.8e8b761b56106p+996 9 True -",
    ("orlicz", "llog", "huge"): "0x1.7cf0986c90590p+996 0x1.94a764301af61p-996 0x1.94a7642affb0ap-996:0x1.94a764301af61p-996 10 True -",
    ("orlicz", "llog", "density"): "0x1.a039df85d30d9p+0 0x1.8a65f248fd711p+0 0x1.8a65f248540c9p+0:0x1.8a65f248fd711p+0 11 True -",
    ("orlicz", "xlog1p", "mixed"): "0x1.0e067a33c9058p+1 0x1.4ef1382310468p+0 0x1.4ef1382310468p+0:0x1.4ef13823a021cp+0 9 True -",
    ("orlicz", "xlog1p", "repeated"): "0x1.2c8133cb054ddp+1 0x1.258d91d68e932p+0 0x1.258d91d68e932p+0:0x1.258d91d72fcf9p+0 9 True -",
    ("orlicz", "xlog1p", "tiny"): "0x1.cd2f01f7ad3cfp-996 0x1.75abeaccaa10dp+996 0x1.75abeaccaa10dp+996:0x1.75abeacd4a8e7p+996 9 True -",
    ("orlicz", "xlog1p", "huge"): "0x1.c4ba4d59e0ddep+996 0x1.7c3aa0ece197dp-996 0x1.7c3aa0ec1faf4p-996:0x1.7c3aa0ece197dp-996 9 True -",
    ("orlicz", "xlog1p", "density"): "0x1.e4aeb8b00517cp+0 0x1.79fc13c23b9b0p+0 0x1.79fc13c23b9b0p+0:0x1.79fc13c2ddf2fp+0 11 True -",
    ("orlicz", "llogl", "mixed"): "0x1.acc552a1284f2p+0 0x1.0d79435e50d79p+0 0x1.0d79435e50d79p+0:0x1.0d79435ec4949p+0 4 True -",
    ("orlicz", "llogl", "repeated"): "0x1.d0202964d7297p+0 0x1.aaaaaaaaaaaaap-1 0x1.aaaaaaaaaaaaap-1:0x1.aaaaaaab61eb2p-1 4 True -",
    ("orlicz", "llogl", "tiny"): "0x1.49e91583869cbp-996 0x1.53ca7955edce5p+996 0x1.53ca79555bddfp+996:0x1.53ca7955edce5p+996 4 True -",
    ("orlicz", "llogl", "huge"): "0x1.439d820cfc93ap+996 0x1.56e1fc2f8f359p-996 0x1.56e1fc2f8f359p-996:0x1.56e1fc354fe12p-996 2 True -",
    ("orlicz", "llogl", "density"): "0x1.8295864789149p+0 0x1.0d79435e50d79p+0 0x1.0d79435e50d79p+0:0x1.0d79435ec4949p+0 4 True -",
    ("orlicz", "lexp", "mixed"): "0x1.57a1ad5461344p+1 0x1.aafcb9b3384cbp-1 0x1.aafcb9b3384cbp-1:0x1.aafcb9b7eb725p-1 10 True -",
    ("orlicz", "lexp", "repeated"): "0x1.58db41641d686p+1 0x1.c55d3096bbbe8p-1 0x1.c55d3096bbbe8p-1:0x1.c55d30977e765p-1 11 True -",
    ("orlicz", "lexp", "tiny"): "0x1.155ea830a1697p-995 0x1.29a56948d7f5dp+996 0x1.29a56948d7f5dp+996:0x1.29a5694957cc5p+996 10 True -",
    ("orlicz", "lexp", "huge"): "0x1.08ca445d30933p+997 0x1.3d9cfd3397c1dp-996 0x1.3d9cfd3397c1dp-996:0x1.3d9cfd34202bcp-996 11 True -",
    ("orlicz", "lexp", "density"): "0x1.2bbbe736a1a17p+1 0x1.d745f120d6ac1p-1 0x1.d745f120d6ac1p-1:0x1.d745f121a1153p-1 11 True -",
    ("orlicz", "tabulated", "mixed"): "0x1.3acb70d07e341p+1 0x1.b2fd90691db78p-1 0x1.b2fd90675c0a1p-1:0x1.b2fd90691db78p-1 8 True -",
    ("orlicz", "tabulated", "repeated"): "0x1.4cccccccccccdp+1 0x1.24924924917e8p-1 0x1.24924924917e8p-1:0x1.249249250f272p-1 9 True -",
    ("orlicz", "tabulated", "tiny"): "0x1.eff0a0935de39p-996 0x1.b07bb4c2870b8p+995 0x1.b07bb4c2870b8p+995:0x1.b07bb4c340cb9p+995 7 True -",
    ("orlicz", "tabulated", "huge"): "0x1.e6ecc0959c477p+996 0x1.bb1f1e6c8d33dp-997 0x1.bb1f1e6c8d33dp-997:0x1.bb1f1e6d4b859p-997 10 True -",
    ("orlicz", "tabulated", "density"): "0x1.199db21fa2b4ap+1 0x1.eb7889fa455adp-1 0x1.eb7889fa455adp-1:0x1.eb7889fb18709p-1 8 True -",
    ("orlicz", "threshold", "mixed"): "0x1.8000000000000p+1 0x1.5555555555555p-2 0x1.5555555555555p-2:0x1.5555555555555p-2 2 True -",
    ("orlicz", "threshold", "repeated"): "0x1.0000000000000p+1 0x1.0000000000000p-1 0x1.0000000000000p-1:0x1.0000000000000p-1 2 True -",
    ("orlicz", "threshold", "tiny"): "0x1.01297d23ab683p-995 0x1.fdafb60009ccfp+994 0x1.fdafb60009ccfp+994:0x1.fdafb60009ccfp+994 2 True -",
    ("orlicz", "threshold", "huge"): "0x1.7e43c8800759cp+996 0x1.56e1fc2f8f359p-997 0x1.56e1fc2f8f359p-997:0x1.56e1fc2f8f359p-997 2 True -",
    ("orlicz", "threshold", "density"): "0x1.8000000000000p+1 0x1.5555555555555p-2 0x1.5555555555555p-2:0x1.5555555555555p-2 2 True -",
    ("orlicz", "conjugate(xlog1p)", "mixed"): "0x1.0331b86d73d48p+1 0x1.8edf1e1f4eec8p-1 0x1.8edf1e1f4eec8p-1:0x1.8edf1e1ffa3cfp-1 11 True -",
    ("orlicz", "conjugate(xlog1p)", "repeated"): "0x1.047afebf84f88p+1 0x1.9c5849a2ef52cp-1 0x1.9c5849a2ef52cp-1:0x1.9c5849a3a06c9p-1 11 True -",
    ("orlicz", "conjugate(xlog1p)", "tiny"): "0x1.8c58db4224ffap-996 0x1.0cc3e1ad7b9bfp+996 0x1.0cc3e1ad7b9bfp+996:0x1.0cc3e1adef0b0p+996 11 True -",
    ("orlicz", "conjugate(xlog1p)", "huge"): "0x1.7c77df5a23e72p+996 0x1.1b9bee9b2edacp-996 0x1.1b9bee9ab50b9p-996:0x1.1b9bee9b2edacp-996 11 True -",
    ("orlicz", "conjugate(xlog1p)", "density"): "0x1.d619db0b24992p+0 0x1.b6a282cc5a6f4p-1 0x1.b6a282cc5a6f4p-1:0x1.b6a282cd16d39p-1 11 True -",
    ("holder", "power:1.5", "mixed"): "0x1.b999999999999p-1 0x1.83348cba42bd3p+1 0x1.52504f199d7d6p+0 0x1.24fef74dff2abp+1 True",
    ("holder", "power:1.5", "repeated"): "0x1.6000000000001p-1 0x1.1ca2c092c3a5dp+1 0x1.764636974629dp+0 0x1.8560509e2c283p+0 True",
    ("holder", "power:2", "mixed"): "0x1.b999999999999p-1 0x1.6e332f9ee9da5p+1 0x1.7718c710f46d9p+0 0x1.f3db2174e7467p+0 True",
    ("holder", "power:2", "repeated"): "0x1.6000000000001p-1 0x1.f0db252445b3fp+0 0x1.90b410d07f2dep+0 0x1.3d6dff540f15ep+0 True",
    ("holder", "identity", "mixed"): "0x1.b999999999999p-1 0x1.299999999999ap+2 0x1.299999999999ap+0 0x1.0000000000000p+2 True",
    ("holder", "identity", "repeated"): "0x1.6000000000001p-1 0x1.f333333333335p+1 0x1.4cccccccccccep+0 0x1.8000000000000p+1 True",
    ("holder", "cosh-1", "mixed"): "0x1.b999999999999p-1 0x1.74d6f6273db04p+1 0x1.378a5eff538f0p+0 0x1.325ef658e8b77p+1 True",
    ("holder", "cosh-1", "repeated"): "0x1.6000000000001p-1 0x1.d2b297740e900p+0 0x1.3afd5bed71e1fp+0 0x1.7b4bfdad46fa6p+0 True",
    ("holder", "llog", "mixed"): "0x1.b999999999999p-1 0x1.773f234d92c0bp+1 0x1.d51e94a5fde3cp-1 0x1.998beda920b65p+1 True",
    ("holder", "llog", "repeated"): "0x1.6000000000001p-1 0x1.0f0911c1e25c5p+1 0x1.0237329776c65p+0 0x1.0cb5b630e2a66p+1 True",
    ("holder", "xlog1p", "mixed"): "0x1.b999999999999p-1 0x1.7d18b997c3834p+1 0x1.16e8b97ecf24ep+0 0x1.5dcb4413412f0p+1 True",
    ("holder", "xlog1p", "repeated"): "0x1.6000000000001p-1 0x1.17e28819ffd72p+1 0x1.3509cf9443f44p+0 0x1.cfb331a237a42p+0 True",
    ("holder", "llogl", "mixed"): "0x1.b999999999999p-1 0x1.7ef5bf4bc43e1p+1 0x1.ae82cb42d39d4p-1 0x1.c772c8719d091p+1 True",
    ("holder", "llogl", "repeated"): "0x1.6000000000001p-1 0x1.127bfc2dbf750p+1 0x1.d9ac749ec4a16p-1 0x1.28b193b1f3858p+1 True",
    ("holder", "lexp", "mixed"): "0x1.b999999999999p-1 0x1.7a6f82de6d520p+1 0x1.5c52e779ce2bdp+0 0x1.16216d5ed1ff4p+1 True",
    ("holder", "lexp", "repeated"): "0x1.6000000000001p-1 0x1.eb0212662ecbdp+0 0x1.64789dbd592b0p+0 0x1.609e278b6466cp+0 True",
    ("holder", "tabulated", "mixed"): "0x1.b999999999999p-1 0x1.7f533c0c2bd4ap+1 0x1.3aed4bf3a721cp+0 0x1.3799999999999p+1 True",
    ("holder", "tabulated", "repeated"): "0x1.6000000000001p-1 0x1.0eb3c44f4dc45p+1 0x1.53b469ccee238p+0 0x1.9800000000000p+0 True",
    ("holder", "threshold", "mixed"): "0x1.b999999999999p-1 0x1.1b3333333352dp+2 0x1.80000000002afp+1 0x1.7999999999999p+0 True",
    ("holder", "threshold", "repeated"): "0x1.6000000000001p-1 0x1.c000000000000p+0 0x1.0000000000000p+1 0x1.c000000000000p-1 True",
    ("holder", "conjugate(xlog1p)", "mixed"): "0x1.b999999999999p-1 0x1.7b063c74b7a8cp+1 0x1.0f118e3034411p+0 0x1.65f45edaa7cedp+1 True",
    ("holder", "conjugate(xlog1p)", "repeated"): "0x1.6000000000001p-1 0x1.cdcea8bdf4083p+0 0x1.0c33404e943a4p+0 0x1.b8cccf7c4954ap+0 True",
}


@pytest.mark.parametrize("kind, young, name", STEP_CASES, ids=[":".join(c) for c in STEP_CASES])
def test_step_norm_bits(kind, young, name):
    assert step_bits(kind, young, name) == STEP_PINS[kind, young, name]


@pytest.mark.parametrize("name", STEP_INPUTS)
def test_direct_levels_equal_the_profile_levels(name):
    f, density = _step_input(name)
    f, _ = cs._as_input(f, density)
    direct, via_profile = cs._step_levels(f, None), cs._step_levels(rr.rearrange(f), None)
    for got, want in zip(direct, via_profile):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_an_overflowing_merged_length_raises():
    # two atoms of one |value| whose lengths add up past the largest double
    f = rr.simple_function([1.0, -1.0, 0.5], [1e308, 1e308, 1.0])
    with pytest.raises(DomainError, match="step lengths must be positive and finite"):
        rr.rearrange(f)
    for norm in (cs.luxemburg_norm, cs.orlicz_norm):
        with pytest.raises(DomainError, match="step lengths must be positive and finite"):
            norm(yg.power(2.0), f)


def test_step_norms_warn_nowhere():
    # the step searches hold their np.errstate around every kernel call, so
    # no RuntimeWarning escapes, here or in the embedding chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for case in STEP_CASES:
            step_bits(*case)
        for f in SIMPLE.values():
            cs.embedding_chain_check(f)
