"""Bit pins and work counts of the analytic-profile layer.

Each case is a modular, Luxemburg or Amemiya norm, or cross integral of a
profile with a log or inverse-power head, an exponential or power tail, or
both, under poly, exp or threshold growth and no, exponential, power or
inverse-power weight.  PINS holds each value's float.hex as the code
produced it before the profile values and the quadrature loop were made
leaner; a change that is meant to keep every number must keep these bits.
The work counts (root-finder iterations, _integrate calls, _gk15 rounds
and panels evaluated) were recorded at the same point.
"""

from pathlib import Path

import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg

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
    ("modular", "log/power:2.5/exp"): "0x1.1c6ca6e357270p-1",
    ("modular", "log/power:2.5/power"): "0x1.3b65f71dc6eefp-1",
    ("modular", "log/power:2.5/inv"): "0x1.09d9666eb3f22p+1",
    ("modular", "log/xlog1p/none"): "0x1.885bd22941044p-2",
    ("modular", "log/xlog1p/exp"): "0x1.33a4722d0e6d9p-2",
    ("modular", "log/xlog1p/power"): "0x1.73da6c0c181cdp-2",
    ("modular", "log/xlog1p/inv"): "0x1.bf502df1a8f89p-1",
    ("modular", "log/cosh-1/none"): "0x1.7b2efc759e748p-2",
    ("modular", "log/cosh-1/exp"): "0x1.449b7100418c6p-2",
    ("modular", "log/cosh-1/power"): "0x1.6f5f3379e39e6p-2",
    ("modular", "log/cosh-1/inv"): "0x1.83bbe85729578p+0",
    ("modular", "inv/power:2.5/none"): "0x1.764b9b9d7ea2ap-2",
    ("modular", "inv/power:2.5/inv"): "0x1.c01b0019f8b9bp-1",
    ("modular", "inv/xlog1p/none"): "0x1.67a17a1743da9p-2",
    ("modular", "inv/xlog1p/exp"): "0x1.d087f6a5e3d97p-3",
    ("modular", "exp/power:2.5/none"): "0x1.4e27ff60f01aep-1",
    ("modular", "exp/cosh-1/power"): "0x1.6f40bdd021929p-2",
    ("modular", "exp/lexp/inv"): "0x1.4a51ac62e9d28p+0",
    ("modular", "exp/capped/none"): "0x1.6d3a06d3a06d4p-2",
    ("modular", "exp/capped/exp"): "0x1.f6495dd07186ap-3",
    ("modular", "power/power:2.5/none"): "0x1.928afed55dee5p-1",
    ("modular", "power/cosh-1/power"): "0x1.b4fb82322e1e0p-2",
    ("modular", "power/xlog1p/exp"): "0x1.86e732ccdb6aap-2",
    ("modular", "power/capped/none"): "0x1.ea0ea0e94d5b4p-2",
    ("modular", "slow-power/power:2/none"): "0x1.67fffffff3d5cp+2",
    ("modular", "log+exp/cosh-1/none"): "0x1.85e0c619dfe8cp-2",
    ("modular", "inv+power/power:2.5/inv"): "0x1.bf50d3bd262acp-1",
    ("luxemburg", "log/cosh-1/exp"): "0x1.66b98ff209d01p-1",
    ("luxemburg", "inv/power:2.5/none"): "0x1.56529effb05dbp-1",
    ("luxemburg", "exp/lexp/none"): "0x1.0888888884105p+0",
    ("luxemburg", "power/cosh-1/power"): "0x1.5aae95868eb71p-1",
    ("luxemburg", "slow-power/power:2/none"): "0x1.2f9422c2208e6p+1",
    ("luxemburg", "log+exp/xlog1p/inv"): "0x1.da44998853c8bp-1",
    ("orlicz", "log/power:2.5/none"): "0x1.a0bcb3ab10acfp+0",
    ("orlicz", "exp/power:2.5/none"): "0x1.a70e2350ab0c5p+0",
    ("orlicz", "power/xlog1p/none"): "0x1.a9160ab868c26p+0",
    ("orlicz", "power/cosh-1/exp"): "0x1.217e96fd05ff5p+0",
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


@pytest.fixture
def kernel_work(monkeypatch):
    """Counts of _integrate calls, _gk15 rounds and the panels they evaluate
    for this test."""
    work = {"integrate": 0, "rounds": 0, "panels": 0}
    integrate, gk15 = rr._integrate, rr._gk15

    def counted_integrate(fn, pieces):
        work["integrate"] += 1
        return integrate(fn, pieces)

    def counted_gk15(fn, lo, hi):
        work["rounds"] += 1
        work["panels"] += lo.size
        return gk15(fn, lo, hi)

    monkeypatch.setattr(rr, "_integrate", counted_integrate)
    monkeypatch.setattr(rr, "_gk15", counted_gk15)
    return work


def test_golden_weighted_norm_work(kernel_work):
    # the norm of tests/golden/norm_weighted_profile.json
    data = Path(__file__).parent / "data"
    p, w = (rr.load_json_input(data / name, rr.profile_from_dict) for name in ("glog.json", "exp.json"))
    rep = cs.luxemburg_norm(yg.cosh_minus_1(), p, w)
    assert rep.iterations == 13
    assert kernel_work == {"integrate": 12, "rounds": 48, "panels": 152}


def test_power_tail_luxemburg_norm_work(kernel_work):
    rep = cs.luxemburg_norm(*_young_profile_weight("power/cosh-1/power"))
    assert rep.iterations == 10
    assert kernel_work == {"integrate": 10, "rounds": 40, "panels": 297}
