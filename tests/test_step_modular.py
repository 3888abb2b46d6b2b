"""The batched step modular: exact agreement with the one-scale sum, and the
number of Young-function evaluations (Psi and the gap in Young's equality)
a Luxemburg norm spends."""

import math

import numpy as np
import pytest

from orlicz_kit import classical_space as cs
from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg

GRID = np.geomspace(1e-8, 1e8, 33)

YOUNGS = {
    "power:2": yg.power(2.0),
    "power:1.5": yg.power(1.5),
    "identity": yg.identity(),
    "cosh-1": yg.cosh_minus_1(),
    "llog": yg.llog(),
    "xlog1p": yg.xlog1p(),
    "llogl": yg.zygmund_llogl(),
    "lexp": yg.zygmund_exp(),
    "numeric-conjugate": yg.NumericConjugate(yg.xlog1p()),
    "tabulated": yg.tabulated([0.0, 1.0, 2.0], [0.0, 1.0, 3.0]),
    "tabulated-limit": yg.tabulated([0.0, 1.0], [1.0, 2.0], limit=5.0),
    "threshold": yg.ThresholdYoung(2.0),
}

PROFILE = rr.DecreasingProfile(((7.5, 0.25), (3.0, 0.5), (1.0, 1.25), (0.02, 0.75)))
WEIGHTS = {
    "unweighted": None,
    "weighted": rr.DecreasingProfile(((2.0, 0.75), (0.5, 1.5))),
    "zero-mass": rr.DecreasingProfile(()),
}


def reference_modular(young, profile, weight, k):
    """The one-dimensional sum: public eval at k times each level, summed
    with np.sum against the step masses."""
    levels = np.asarray([l for l, _ in profile.steps])
    if weight is None:
        masses = np.asarray([length for _, length in profile.steps])
    else:
        wv = rr._WeightView(weight)
        edges = (0.0, *profile.step_edges)
        masses = np.asarray([wv.mass(a, b) for a, b in zip(edges[:-1], edges[1:])])
    keep = masses > 0
    if not np.any(keep):
        return 0.0
    return float(np.sum(young.eval(levels[keep] * k) * masses[keep]))


def amemiya(m, k):
    return math.inf if math.isinf(m) else (1.0 + m) / k


@pytest.mark.parametrize("weight_name", sorted(WEIGHTS))
@pytest.mark.parametrize("young_name", sorted(YOUNGS))
def test_batched_grid_equals_per_point(young_name, weight_name):
    young, weight = YOUNGS[young_name], WEIGHTS[weight_name]
    fast = cs._step_sum(young._eval_arr, *cs._step_levels(PROFILE, weight))
    # the norm searches hold this errstate around their evaluations
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        batched = fast(GRID)
        one_scale = [float(fast(float(k))) for k in GRID]
    assert batched.shape == GRID.shape
    reference = [reference_modular(young, PROFILE, weight, float(k)) for k in GRID]
    assert one_scale == reference
    batched_h = np.where(np.isinf(batched), math.inf, (1.0 + batched) / GRID).tolist()
    assert batched_h == [amemiya(m, float(k)) for m, k in zip(reference, GRID)]


F = rr.simple_function([3.0, -1.0, 0.5, 2.0, -0.25], [0.3, 0.5, 1.2, 0.7, 0.4])


def test_luxemburg_norm_evaluation_count(count_calls, step_evals):
    # one evaluation of M and one of Q per iteration; modular_at_witness
    # reuses the last one
    calls = count_calls(yg.CoshMinusOne, "_eval_arr")
    gaps = count_calls(yg.CoshMinusOne, "_equality_gap_arr")
    rep = cs.luxemburg_norm(yg.cosh_minus_1(), F)
    assert rep.converged
    assert len(calls) == len(gaps) == rep.iterations
    assert step_evals == {"gap": rep.iterations, "modular": rep.iterations}
