"""Work counts of a fixed op sequence repeat exactly.

For a fixed seed and a small op count on each workload, two traced runs
must give the same root-finder iterations, Young-function evaluations,
modular calls, quadrature panels and points, and singular-value solves.
Nothing here asserts wall time.  Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run as bench  # noqa: E402
import tracing  # noqa: E402

CALLS = ("young.eval", "rearrange.modular", "rearrange.quad", "quantum_space.singular_values")
WORK = ("classical_space.lux.iterations", "classical_space.orl.iterations", "rearrange.quad.points")
OPS = {"step-norms": 60, "profile-norms": 6, "matrix-maps": 30, "cli-golden": 9}


def work_counts(workload: str, n_ops: int) -> tuple[dict, int]:
    with bench.session(workload, 7) as (wl, cycle, _):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = bench.measure(wl, cycle, 7, math.inf, tracer, max_ops=n_ops)
        finally:
            tracer.uninstall()
    counts = {name: tracer.calls[name] for name in CALLS}
    counts.update({name: tracer.work[name] for name in WORK})
    return counts, run.attempted


@pytest.mark.parametrize("workload", sorted(OPS))
def test_work_counts_repeat(workload):
    first, attempted = work_counts(workload, OPS[workload])
    second, _ = work_counts(workload, OPS[workload])
    assert attempted == OPS[workload]
    assert sum(first.values()) > 0
    assert first == second


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
