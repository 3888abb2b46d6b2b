"""The benchmark's own oracles (perfbench/run.py and workloads.py) accept
the toolkit's outputs: two cycles of each workload at seed 11 end with no
unexpected failure.

A change whose outputs a benchmark run would count as failed fails here
first, in a few seconds.  perfbench/ is imported unchanged, as
tests/test_tracing_hooks.py imports tracing.py, and nothing is written
under it: cli-golden works in a copy of tests/data in a temporary
directory."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 11
#: two cycles of each workload (150, 52, 35 and 9 ops a cycle)
MAX_OPS = {"step-norms": 300, "profile-norms": 104, "matrix-maps": 70, "cli-golden": 18}


def load_run(monkeypatch):
    # registered first: its dataclasses look their module up by name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", MAX_OPS)
def test_two_cycles_meet_their_oracles(monkeypatch, tmp_path, workload):
    # run.session's set-up, with the cli-golden copy under tmp_path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = load_run(monkeypatch)
    import workloads as wl

    cycle, warmup = wl.generators(workload, run.ROOT, SEED)
    if workload == "cli-golden":
        wl.prepare_cli_dir(run.ROOT, tmp_path)
        monkeypatch.chdir(tmp_path)
    run.warm(warmup, SEED)
    result = run.measure(wl, cycle, SEED, 600.0, max_ops=MAX_OPS[workload])
    assert result.attempted == MAX_OPS[workload]
    assert result.unexpected == []
