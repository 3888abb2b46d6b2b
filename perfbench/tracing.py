"""Layer-boundary tracing from outside the toolkit.

`Tracer.install()` replaces the public functions of each orlicz_kit layer,
in the defining module and in every module that imported a copy, with
wrappers that record a span (name, start, end, parent span, op id) and
aggregate calls, self time and a few work counts.  `uninstall()` puts the
originals back.  Spans are kept in flat arrays, up to MAX_SPANS, and
written out once at the end of the run; self time is accumulated as the
spans close, so it stays exact when spans beyond the cap are dropped.

Self time of a span is its duration minus the durations of the wrapped
calls it made, so the self times of all spans of an op add up to the time
the op spent inside wrapped calls.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np
from click.testing import CliRunner

from orlicz_kit import classical_space, cli, maps, quantum_space, rearrange, young

MAX_SPANS = 1_000_000  # spans kept in memory; later ones still count in the totals

def _iterations(args, res):
    return {"iterations": res.iterations}


def _quad_points(args, res):
    info = res[2] if len(res) > 2 and isinstance(res[2], dict) else {}
    return {"points": info.get("neval", 0)}


def _n3(args, res):
    return {"n3_sum": args[0].dim ** 3}


# (module, attribute, span name, work counter of the result)
FUNCTIONS = (
    (young, "delta2_check", "young.checks", None),
    (young, "nabla2_check", "young.checks", None),
    (young, "equivalence_check", "young.checks", None),
    (young, "load_tabulated", "cli.load", None),
    (rearrange, "modular", "rearrange.modular", None),
    (rearrange, "modular_is_finite", "rearrange.verdict", None),
    (rearrange, "hl_partial", "rearrange.hl_partial", None),
    (rearrange, "rearrange", "rearrange.other", None),
    (rearrange, "cross_integral", "rearrange.other", None),
    (rearrange, "load_simple_function", "cli.load", None),
    (classical_space, "luxemburg_norm", "classical_space.lux", _iterations),
    (classical_space, "orlicz_norm", "classical_space.orl", _iterations),
    (classical_space, "membership", "classical_space.membership", None),
    (classical_space, "holder_check", "classical_space.other", None),
    (classical_space, "embedding_chain_check", "classical_space.other", None),
    (classical_space, "classical_regular_check", "classical_space.other", None),
    (quantum_space, "singular_values", "quantum_space.singular_values", _n3),
    (quantum_space, "singular_profile", "quantum_space.singular_profile", None),
    (quantum_space, "nc_norm", "quantum_space.nc_norm", _iterations),
    (quantum_space, "nc_entropy", "quantum_space.nc_entropy", None),
    (quantum_space, "kunze_modular", "quantum_space.kunze", None),
    (quantum_space, "load_matrix", "cli.load", None),
    (maps, "majorization_check", "maps.majorization", lambda args, res: {"alphas": len(res.alphas)}),
    (cli, "_load_profile", "cli.load", None),
)

# (class, method, span name)
METHODS = (
    (young.YoungFunction, "eval", "young.eval"),
    (young.YoungFunction, "__call__", "young.eval"),
    (young.YoungFunction, "density", "young.eval"),
    (young.NumericConjugate, "_inverse_density", "young.conjugate"),
    (maps.Pinching, "apply", "maps.apply"),
    (maps.KrausMap, "apply", "maps.apply"),
    (maps.UnitaryConjugation, "apply", "maps.apply"),
    (CliRunner, "invoke", "cli.invoke"),
)


class Tracer:
    def __init__(self):
        self.op_id = -1  # spans are recorded only while an op runs
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.next_id = 0
        self.dropped = 0
        self._stack: list[list] = []  # [span id, start, time in child spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, calls, self_s, work = self._stack, self.calls, self.self_s, self.work

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                res = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                self_s[name] += dur - frame[2]
                calls[name] += 1
                if sid < MAX_SPANS:
                    self.span_id.append(sid)
                    self.span_name.append(nid)
                    self.span_parent.append(parent)
                    self.span_op.append(self.op_id)
                    self.span_start.append(frame[1])
                    self.span_end.append(end)
                else:
                    self.dropped += 1
            if counter is not None:
                for key, n in counter(args, res).items():
                    work[f"{name}.{key}"] += n
            return res

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("orlicz_kit") and m is not None]
        for module, attr, name, counter in FUNCTIONS:
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, counter)
            for m in modules:  # the defining module and every imported copy
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapped)
        for cls, attr, name in METHODS:
            self._replace(cls, attr, self._wrap(name, cls.__dict__[attr]))
        # rearrange calls scipy.integrate.quad through its module alias _si
        quad = self._wrap("rearrange.quad", rearrange._si.quad, _quad_points)
        self._replace(rearrange, "_si", types.SimpleNamespace(quad=quad))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
