"""orlicz-kit benchmark: one seeded workload, one process, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload step-norms --seed 1 --seconds 12 --trace 0

The benchmark imports the toolkit from ./src, generates the workload's
inputs from the seed, warms up, and then drives the public API in a closed
loop (each call starts when the last one returns) in whole cycles of ops
until --seconds of busy time at reference speed (see CAL_REF_S) have
passed.  After each cycle the clock stops while every output is checked
against an oracle.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (set-up time, ops per
second, median and tail latency, peak memory).  With --trace 1 the run
measures the same ops twice, untraced and then with every layer boundary
wrapped (see tracing.py), and the metrics are the per-layer ones: calls,
work counts and self time per op, failure counts by kind, and the tracing
overhead.  `failed` counts the ops that fail other than by their documented
toolkit defect, and `correct` is false when there is one.  Ops that hit a
documented defect stay in the mix: they are counted in `fail_frac` (printed
above the JSON line) and in the `fail.*` per-layer counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("step-norms", "profile-norms", "matrix-maps", "cli-golden")
SETUP_PROBES = 5
# One caller in one process: BLAS runs single-threaded (at most nproc) and
# the toolkit's thread-pool knob stays unset, so it runs at its default.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics: (span or counter, what, unit).  Work and time are per
# op of the traced run, failures are counts over it.
SPAN_CALLS = (
    "young.eval", "young.conjugate", "rearrange.modular", "rearrange.quad",
    "rearrange.verdict", "rearrange.hl_partial", "quantum_space.singular_values",
    "maps.majorization",
)
SPAN_SELF = (
    "young.eval", "young.conjugate", "young.checks", "rearrange.modular", "rearrange.quad",
    "rearrange.verdict", "rearrange.hl_partial", "classical_space.lux", "classical_space.orl",
    "classical_space.membership", "quantum_space.singular_values",
    "quantum_space.singular_profile", "quantum_space.nc_norm", "quantum_space.nc_entropy",
    "maps.majorization", "maps.apply", "cli.invoke", "cli.load",
)
WORK = (
    "rearrange.quad.points", "classical_space.lux.iterations", "classical_space.orl.iterations",
    "quantum_space.singular_values.n3_sum", "maps.majorization.alphas",
)
LAYERS = ("young", "rearrange", "classical_space", "quantum_space", "maps", "cli")
FAIL_KINDS = ("inconclusive", "nonconverged", "oracle", "domain")


def per_layer_units() -> dict[str, str]:
    units = {f"{s}.calls": "count/op" for s in SPAN_CALLS}
    units.update({w: "count/op" for w in WORK})
    units.update({f"{s}.self_s": "s/op" for s in SPAN_SELF})
    units.update({f"{layer}.self_s": "s/op" for layer in LAYERS})
    units.update({f"fail.{k}": "count" for k in FAIL_KINDS})
    units.update({
        "trace.ops": "count", "trace.op_s": "s/op", "trace.coverage": "ratio",
        "trace.ops_per_s": "ops/s", "trace.untraced_ops_per_s": "ops/s",
        "trace.overhead_ops_per_s": "ops/s",
    })
    return units


# The machine the baseline was measured on runs identical work up to 1.6
# times slower for phases of seconds to minutes.  A fixed calibration pass
# of small-array numpy and interpreter work (the kind of work the toolkit's
# inner loops do, never calling orlicz_kit) is timed every CAL_EVERY_S of
# busy time, and every time is reported at reference speed: scaled by
# CAL_REF_S over the calibration measured around it.  The raw figures are
# printed beside them.  The loop also counts --seconds as busy time at
# reference speed, so a slow phase does not change how many ops (and so
# which percentile) a run measures.
CAL_REF_S = 0.0025
CAL_EVERY_S = 0.25


def calibration_pass() -> float:
    import numpy as np

    x = np.linspace(0.1, 2.0, 6)
    t0 = perf_counter()
    acc = 0.0
    for i in range(200):
        acc += float(np.sum((np.cosh(x * (1.0 + i * 1e-3)) - 1.0) * x))
        for k in range(20):
            acc += math.sqrt(k + acc % 3.0)
    return perf_counter() - t0


def calibration() -> float:
    """Median of three calibration passes after a discarded one that warms
    the caches, in seconds."""
    calibration_pass()
    return statistics.median(calibration_pass() for _ in range(3))


@dataclass
class Run:
    """What one timed loop observed.  `cal_before[i]` indexes the last
    calibration taken before op i."""

    latencies: list[float] = field(default_factory=list)
    cal_before: list[int] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    reference_s: float = 0.0
    fails: Counter = field(default_factory=Counter)
    defect_fails: int = 0
    unexpected: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.fails.values())

    def at_reference(self) -> list[float]:
        """Latencies scaled to reference speed by the mean of the
        calibrations taken just before and just after each op."""
        cal = self.calibrations
        return [lat * CAL_REF_S / (0.5 * (cal[j] + cal[j + 1]))
                for lat, j in zip(self.latencies, self.cal_before)]

    @property
    def ops_per_s(self) -> float:
        return self.attempted / sum(self.at_reference())

    @property
    def raw_ops_per_s(self) -> float:
        return self.attempted / self.busy_s


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it."""
    lat = sorted(latencies)
    n = len(lat)
    k = max(n - TAIL_BEYOND - 1, 0)
    return lat[k], 100.0 * (k + 1) / n, n - k - 1


def measure(wl, cycle, seed: int, seconds: float, tracer=None, max_ops: int | None = None) -> Run:
    """Closed loop over whole cycles of the workload's ops until `seconds`
    of busy time at reference speed have passed (or over `max_ops` ops).
    Generating a cycle and checking its outputs happen with the clock
    stopped."""
    import numpy as np

    rng = np.random.default_rng(seed)
    run = Run(calibrations=[calibration()])
    since_cal = 0.0
    limit = max_ops if max_ops is not None else float("inf")
    while run.reference_s < seconds and run.attempted < limit:
        ops = cycle(rng)
        done = []
        for op in ops:
            if run.attempted >= limit:
                break
            if since_cal >= CAL_EVERY_S:
                run.calibrations.append(calibration())
                since_cal = 0.0
            if tracer is not None:
                tracer.op_id = run.attempted
            t0 = perf_counter()
            try:
                res, exc = op.call(), None
            except Exception as e:  # every failure is counted, none ends the run
                res, exc = None, e
            lat = perf_counter() - t0
            if tracer is not None:
                tracer.op_id = -1
            run.latencies.append(lat)
            run.cal_before.append(len(run.calibrations) - 1)
            run.busy_s += lat
            run.reference_s += lat * CAL_REF_S / run.calibrations[-1]
            since_cal += lat
            done.append((op, res, exc))
        for op, res, exc in done:
            miss = wl.outcome(op, res, exc)
            if miss is None:
                continue
            run.fails[miss.kind] += 1
            if op.expected(miss):
                run.defect_fails += 1
            else:
                run.unexpected.append(f"{op.kind}: {miss.kind}: {miss.reason} [{op.inputs}]")
    run.calibrations.append(calibration())
    return run


@contextmanager
def session(workload: str, seed: int):
    """Import the toolkit, build the op source and, for cli-golden, work in
    a private copy of tests/data inside this directory."""
    import workloads as wl

    cycle, warmup = wl.generators(workload, ROOT, seed)
    work = None
    cwd = os.getcwd()
    if workload == "cli-golden":
        work = HERE / "_work" / str(os.getpid())
        wl.prepare_cli_dir(ROOT, work)
        os.chdir(work)
    try:
        yield wl, cycle, warmup
    finally:
        os.chdir(cwd)
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)


def warm(warmup, seed: int) -> None:
    import numpy as np

    for op in warmup(np.random.default_rng((seed, 1))):
        op.call()


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Body of one fresh set-up process: import everything, warm up.
    Returns the time and the calibration taken right after."""
    t0 = perf_counter()
    with session(workload, seed) as (_, _, warmup):
        warm(warmup, seed)
        elapsed = perf_counter() - t0
    return elapsed, calibration()


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """(seconds, calibration) of each fresh set-up process."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=False,
        )
        if out.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{out.stderr}")
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        times.append((probe["setup_s"], probe["calibration_s"]))
    return times


def environment(workload: str, seed: int) -> dict:
    import click
    import numpy
    import scipy
    from importlib.metadata import version

    digest = hashlib.sha256()
    for path in sorted((SRC / "orlicz_kit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=False).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "ORLICZ_KIT_THREADS": os.environ.get("ORLICZ_KIT_THREADS", "unset"),
        "load": "1 process, 1 caller, closed loop",
    }


def describe(run: Run, label: str) -> None:
    fails = ", ".join(f"{k} {run.fails[k]}" for k in FAIL_KINDS)
    print(f"{label}: {run.attempted} ops in {run.busy_s:.2f} s busy; "
          f"fail_frac {run.failed / run.attempted:.6f} ratio ({fails}; "
          f"documented defects {run.defect_fails}, unexpected {len(run.unexpected)})")
    for line in run.unexpected[:10]:
        print(f"  unexpected failure: {line}", file=sys.stderr)


def end_to_end(args) -> tuple[Run, dict]:
    setups = setup_times(args.workload, args.seed)
    with session(args.workload, args.seed) as (wl, cycle, warmup):
        warm(warmup, args.seed)
        run = measure(wl, cycle, args.seed, args.seconds)
    describe(run, "timed run")
    timed = run.at_reference()
    tail_s, pct, beyond = tail(timed)
    print(f"raw: setup_s {statistics.median(t for t, _ in setups):.6g}, ops_per_s "
          f"{run.raw_ops_per_s:.6g}, op_p50_ms {1e3 * statistics.median(run.latencies):.6g}, "
          f"op_tail_ms {1e3 * tail(run.latencies)[0]:.6g}; calibration median "
          f"{1e3 * statistics.median(run.calibrations):.4f} ms over {len(run.calibrations)}, "
          f"reference {1e3 * CAL_REF_S:g} ms")
    metrics = {
        "setup_s": statistics.median(t * CAL_REF_S / c for t, c in setups),
        "ops_per_s": run.ops_per_s,
        "op_p50_ms": 1e3 * statistics.median(timed),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "op_tail_ms": f"p{pct:.3f} of {len(timed)} ops, {beyond} samples beyond",
    }
    for name, unit in END_TO_END:
        print(f"{name:12s} {metrics[name]:14.6f} {unit:6s} {notes.get(name, '')}")
    print(f"{'fail_frac':12s} {run.failed / run.attempted:14.6f} {'ratio':6s}")
    return run, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def traced(args) -> tuple[Run, dict]:
    with session(args.workload, args.seed) as (wl, cycle, warmup):
        import tracing

        warm(warmup, args.seed)
        plain = measure(wl, cycle, args.seed, args.seconds)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = measure(wl, cycle, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
    describe(plain, "untraced run")
    describe(run, "traced run")
    values = layer_values(tracer, run, plain)
    out = HERE / "_out" / f"spans-{args.workload}-{args.seed}.npz"
    tracer.write(out)
    print(f"{tracer.next_id} spans ({tracer.dropped} beyond the in-memory cap) written to "
          f"{out.relative_to(ROOT)}")
    units = per_layer_units()
    for name, value in values.items():
        print(f"{name:42s} {value:16.9g} {units[name]}")
    return run, {name: {"value": values[name], "unit": units[name]} for name in units}


def layer_values(tracer, run: Run, plain: Run) -> dict[str, float]:
    n = run.attempted
    values = {f"{s}.calls": tracer.calls[s] / n for s in SPAN_CALLS}
    values.update({w: tracer.work[w] / n for w in WORK})
    values.update({f"{s}.self_s": tracer.self_s[s] / n for s in SPAN_SELF})
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(v for k, v in tracer.self_s.items() if k.split(".")[0] == layer) / n
    values.update({f"fail.{k}": run.fails[k] for k in FAIL_KINDS})
    values.update({
        "trace.ops": n,
        "trace.op_s": sum(run.latencies) / n,
        "trace.coverage": sum(tracer.self_s.values()) / sum(run.latencies),
        "trace.ops_per_s": run.ops_per_s,
        "trace.untraced_ops_per_s": plain.ops_per_s,
        "trace.overhead_ops_per_s": plain.ops_per_s - run.ops_per_s,
    })
    return values


def cap_threads() -> None:
    """Set before numpy loads; the set-up probes inherit it."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("ORLICZ_KIT_THREADS", None)


def main() -> int:
    cap_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "orlicz_kit" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: run from a full checkout; {SRC / 'orlicz_kit'} or tests/golden is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.setup_probe:
        elapsed, cal = setup_probe(args.workload, args.seed)
        print(json.dumps({"setup_s": elapsed, "calibration_s": cal}))
        return 0
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    run, metrics = traced(args) if args.trace else end_to_end(args)
    print(json.dumps({
        "correct": run.attempted > 0 and not run.unexpected,
        "attempted": run.attempted,
        "failed": len(run.unexpected),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
