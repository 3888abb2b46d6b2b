"""Command-line front end.

Three commands: `norm` (Luxemburg / Orlicz / matrix / weighted norms),
`check` (growth conditions, equivalence, regularity, majorization, the
embedding chain, membership), and `verify` (the acceptance suite).

Reports are JSON (or a flat CSV projection) with sorted keys, a tool
version, and a digest of the run configuration, so identical configurations
produce byte-identical files.  Output files are written to a temporary name
and renamed into place; no partial files survive an error.

Exit codes: 0 success, 1 failed verification, 2 domain error, 3
non-convergence, 4 inconclusive quadrature.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

import click

from . import __version__
from . import classical_space as cs
from . import maps as mps
from . import quantum_space as qs
from . import rearrange as rr
from . import verification as vf
from . import young as yg
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    InconclusiveQuadratureError,
)

EXIT_FAIL = 1
EXIT_DOMAIN = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INCONCLUSIVE = 4


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything that determines a report's bytes."""

    command: str
    young: str | None
    inputs: tuple[tuple[str, str], ...]
    tolerance: float | None
    fmt: str
    seed: int | None
    only: str | None

    def digest(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _emit(payload: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _to_csv(payload)
    if out is None:
        click.echo(text, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".orlicz-kit-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _flatten(prefix: str, value, row: dict) -> None:
    if isinstance(value, dict):
        for k, v in sorted(value.items()):
            _flatten(f"{prefix}.{k}" if prefix else k, v, row)
    elif isinstance(value, (list, tuple)):
        row[prefix] = json.dumps(value)
    else:
        row[prefix] = value


def _to_csv(payload: dict) -> str:
    if "criteria" in payload:
        return vf.render_csv(payload)
    row: dict = {}
    _flatten("", payload, row)
    keys = sorted(row)
    head = ",".join(keys)
    body = ",".join(f'"{row[k]}"' if isinstance(row[k], str) else str(row[k]) for k in keys)
    return head + "\n" + body + "\n"


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


def _load_profile(path: str) -> rr.DecreasingProfile:
    return rr.load_json_input(path, rr.profile_from_dict)


def _report_base(config: RunConfig, op: str) -> dict:
    return {
        "op": op,
        "tool": "orlicz-kit",
        "version": __version__,
        "config_digest": config.digest(),
        "inputs_digest": hashlib.sha256(
            json.dumps(config.inputs, sort_keys=True).encode()
        ).hexdigest()[:16],
    }


def _norm_payload(config: RunConfig, op: str, rep: cs.NormReport, tolerance: float) -> dict:
    payload = _report_base(config, op)
    payload.update(
        {
            "value": _jsonable(rep.value),
            "witness": _jsonable(rep.witness),
            "converged": rep.converged,
            "iterations": rep.iterations,
            "tolerance": tolerance,
        }
    )
    return payload


@click.group()
@click.version_option(version=__version__, prog_name="orlicz-kit")
def main() -> None:
    """Numerical toolkit for classical and noncommutative Orlicz spaces."""


def _run_guarded(fn):
    try:
        fn()
    except (DomainError, DimensionMismatchError) as exc:
        click.echo(f"domain error: {exc}", err=True)
        sys.exit(EXIT_DOMAIN)
    except ConvergenceError as exc:
        click.echo(f"did not converge: {exc}", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)
    except InconclusiveQuadratureError as exc:
        click.echo(f"inconclusive quadrature: {exc}", err=True)
        sys.exit(EXIT_INCONCLUSIVE)


@main.command("norm")
@click.option("--young", "young_spec", required=True, help="Young-function spec, e.g. power:2, cosh-1")
@click.option("--function", "function_path", type=click.Path(exists=True), help="two-column (value, weight) text file")
@click.option("--matrix", "matrix_path", type=click.Path(exists=True), help="matrix JSON file")
@click.option("--profile", "profile_path", type=click.Path(exists=True), help="decreasing-profile JSON file")
@click.option("--weight", "weight_path", type=click.Path(exists=True), help="weight profile JSON file")
@click.option("--orlicz", "use_orlicz", is_flag=True, help="Amemiya Orlicz norm instead of Luxemburg")
@click.option("--trace-scale", type=float, default=1.0, show_default=True, help="trace scale c")
@click.option("--tolerance", type=float, default=1e-12, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="output file (stdout when omitted)")
def cmd_norm(young_spec, function_path, matrix_path, profile_path, weight_path, use_orlicz,
             trace_scale, tolerance, fmt, out):
    """Compute a norm of a simple function, matrix, or profile."""

    def run():
        sources = [p for p in (function_path, matrix_path, profile_path) if p]
        if len(sources) != 1:
            raise DomainError("exactly one of --function / --matrix / --profile is required")
        young = yg.from_spec(young_spec)
        inputs = tuple(
            (role, path)
            for role, path in (
                ("function", function_path),
                ("matrix", matrix_path),
                ("profile", profile_path),
                ("weight", weight_path),
            )
            if path
        )
        config = RunConfig("norm", young_spec, inputs, tolerance, fmt, None, None)
        norm, kind = (cs.orlicz_norm, "orlicz_") if use_orlicz else (cs.luxemburg_norm, "luxemburg_")
        weight = _load_profile(weight_path) if weight_path else None
        if function_path:
            f = rr.load_simple_function(function_path)
            if weight is not None:
                raise DomainError("--weight applies to profile or matrix inputs")
            op = kind + "norm"
        elif matrix_path:
            f = qs.singular_profile(qs.load_matrix(matrix_path), qs.scaled_trace(trace_scale))
            op = "nc_orlicz_norm" if use_orlicz else "nc_norm"
        else:
            f = _load_profile(profile_path)
            op = ("weighted_" if weight is not None else "") + kind + "norm"
        rep = norm(young, f, weight, tol=tolerance)
        if not rep.converged:
            click.echo("norm computation did not converge", err=True)
            _emit(_norm_payload(config, op, rep, tolerance), out, fmt)
            sys.exit(EXIT_NO_CONVERGENCE)
        _emit(_norm_payload(config, op, rep, tolerance), out, fmt)

    _run_guarded(run)


@main.command("check")
@click.argument(
    "what",
    type=click.Choice(
        ["delta2", "nabla2", "equivalent", "membership", "regular", "quantum-regular",
         "majorization", "embedding-chain"]
    ),
)
@click.option("--young", "young_spec", help="Young-function spec")
@click.option("--y1", help="first Young function (equivalent)")
@click.option("--y2", help="second Young function (equivalent)")
@click.option("--function", "function_path", type=click.Path(exists=True))
@click.option("--profile", "profile_path", type=click.Path(exists=True))
@click.option("--weight", "weight_path", type=click.Path(exists=True))
@click.option("--f", "f_path", type=click.Path(exists=True), help="dominating profile (majorization)")
@click.option("--g", "g_path", type=click.Path(exists=True), help="dominated profile (majorization)")
@click.option("--p-exponent", type=float, default=2.0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_check(what, young_spec, y1, y2, function_path, profile_path, weight_path,
              f_path, g_path, p_exponent, fmt, out):
    """Run a structural check and emit its report."""

    def run():
        inputs = tuple(
            (role, p)
            for role, p in (
                ("function", function_path),
                ("profile", profile_path),
                ("weight", weight_path),
                ("f", f_path),
                ("g", g_path),
            )
            if p
        )
        config = RunConfig(f"check:{what}", young_spec or (f"{y1}|{y2}" if y1 else None),
                           inputs, None, fmt, None, None)
        payload = _report_base(config, f"check:{what}")
        if what == "delta2":
            if not young_spec:
                raise DomainError("delta2 needs --young")
            r = yg.delta2_check(yg.from_spec(young_spec))
            payload.update({"holds": r.holds, "s0": _jsonable(r.s0), "c": _jsonable(r.c)})
        elif what == "nabla2":
            if not young_spec:
                raise DomainError("nabla2 needs --young")
            r = yg.nabla2_check(yg.from_spec(young_spec))
            payload.update({"holds": r.holds, "x0": _jsonable(r.x0), "l": _jsonable(r.l)})
        elif what == "equivalent":
            if not (y1 and y2):
                raise DomainError("equivalent needs --y1 and --y2")
            r = yg.equivalence_check(yg.from_spec(y1), yg.from_spec(y2))
            payload.update(
                {
                    "equivalent": r.equivalent,
                    "b_forward": _jsonable(r.b_forward),
                    "b_backward": _jsonable(r.b_backward),
                }
            )
        elif what == "membership":
            if not (young_spec and profile_path):
                raise DomainError("membership needs --young and --profile")
            weight = _load_profile(weight_path) if weight_path else None
            r = cs.membership(yg.from_spec(young_spec), _load_profile(profile_path), weight)
            payload.update({"member": r.member, "lambda_witness": _jsonable(r.lambda_witness)})
        elif what == "regular":
            if not (profile_path and weight_path):
                raise DomainError("regular needs --profile and --weight")
            r = cs.classical_regular_check(_load_profile(profile_path), _load_profile(weight_path))
            payload.update(
                {
                    "regular": r.regular,
                    "domain": _jsonable(r.domain.as_tuple()),
                    "member": r.member,
                    "agrees": r.agrees,
                }
            )
        elif what == "quantum-regular":
            if not (profile_path and weight_path):
                raise DomainError("quantum-regular needs --profile and --weight")
            r = qs.quantum_regular_check(_load_profile(profile_path), _load_profile(weight_path))
            payload.update({"regular": r.regular, "domain": _jsonable(r.domain.as_tuple())})
        elif what == "majorization":
            if not (f_path and g_path):
                raise DomainError("majorization needs --f and --g")
            r = mps.majorization_check(_load_profile(f_path), _load_profile(g_path))
            payload.update(
                {
                    "majorized": r.majorized,
                    "alphas": _jsonable(r.alphas),
                    "margins": _jsonable(r.margins),
                }
            )
        else:  # embedding-chain
            if not function_path:
                raise DomainError("embedding-chain needs --function")
            f = rr.load_simple_function(function_path, rr.probability_space())
            r = cs.embedding_chain_check(f, p_exponent)
            payload.update(
                {
                    "sup_norm": _jsonable(r.sup_norm),
                    "lexp_norm": _jsonable(r.lexp_norm),
                    "p_norm": _jsonable(r.p_norm),
                    "llogl_norm": _jsonable(r.llogl_norm),
                    "l1_norm": _jsonable(r.l1_norm),
                    "finiteness_monotone": r.finiteness_monotone,
                }
            )
        _emit(payload, out, fmt)

    _run_guarded(run)


@main.command("verify")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--only", default=None, help="filter criteria by id, tag, or name substring")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="report file (stdout lines always printed)")
def cmd_verify(seed, only, fmt, out):
    """Run the acceptance suite; exit 0 iff every criterion passes."""

    def run():
        report = vf.run_suite(seed=seed, only=only)
        config = RunConfig("verify", None, (), None, fmt, seed, only)
        report["config_digest"] = config.digest()
        for c in report["criteria"]:
            mark = "PASS" if c["passed"] else "FAIL"
            click.echo(
                f"[{mark}] criterion {c['cid']:2d}: {c['name']} ({c['measured']}; tol {c['tolerance']})"
            )
        if out is not None:
            _emit(report, out, fmt)
        elif fmt == "csv":
            click.echo(vf.render_csv(report), nl=False)
        else:
            click.echo(json.dumps(report, sort_keys=True, indent=2))
        if not report["all_passed"]:
            sys.exit(EXIT_FAIL)

    _run_guarded(run)


if __name__ == "__main__":
    main()
