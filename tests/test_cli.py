"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orlicz_kit import rearrange as rr
from orlicz_kit import young as yg
from orlicz_kit.cli import main

import mp_reference as mpr


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fixtures(tmp_path):
    paths = {}
    f = tmp_path / "f.txt"
    f.write_text("2.0 0.5\n-1.0 0.25\n")
    paths["function"] = str(f)
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"dim": 2, "entries": [[[3, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    paths["matrix"] = str(a)
    glog = tmp_path / "glog.json"
    glog.write_text(
        json.dumps({"steps": [], "tail": {"kind": "log_singularity", "coeff": 1.0, "width": 1.0}})
    )
    paths["glog"] = str(glog)
    ginv = tmp_path / "ginv.json"
    ginv.write_text(
        json.dumps(
            {"steps": [], "tail": {"kind": "inv_power", "coeff": 1.0, "exponent": 1.0, "width": 1.0}}
        )
    )
    paths["ginv"] = str(ginv)
    wexp = tmp_path / "exp.json"
    wexp.write_text(
        json.dumps({"steps": [], "tail": {"kind": "exponential", "amplitude": 1.0, "rate": 1.0}})
    )
    paths["weight"] = str(wexp)
    steps = tmp_path / "steps.json"
    steps.write_text(json.dumps({"steps": [[3.0, 1.0], [1.0, 1.0]], "tail": {"kind": "zero"}}))
    paths["steps"] = str(steps)
    pinched = tmp_path / "pinched.json"
    pinched.write_text(json.dumps({"steps": [[2.0, 2.0]], "tail": {"kind": "zero"}}))
    paths["pinched"] = str(pinched)
    return paths


class TestNorm:
    def test_function_power_norm(self, runner, fixtures):
        res = runner.invoke(main, ["norm", "--young", "power:2", "--function", fixtures["function"]])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["op"] == "luxemburg_norm"
        assert payload["value"] == pytest.approx(1.5, rel=1e-10)

    @pytest.mark.parametrize("level", [1e-300, 1e300])
    def test_function_norm_at_an_extreme_level(self, runner, tmp_path, level):
        # one atom of mass 1: the power:2 norm is the level itself
        f = tmp_path / "f.txt"
        f.write_text(f"{level!r} 1.0\n")
        res = runner.invoke(main, ["norm", "--young", "power:2", "--function", str(f)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["converged"] and payload["value"] == level

    def test_matrix_norm(self, runner, fixtures):
        res = runner.invoke(main, ["norm", "--young", "cosh-1", "--matrix", fixtures["matrix"]])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["op"] == "nc_norm"
        # oracle: solve (cosh(3/lam) - 1) + (cosh(1/lam) - 1) = 1
        oracle = mpr.luxemburg(yg.cosh_minus_1(), rr.simple_function([3.0, 1.0], [1.0, 1.0]))
        assert payload["value"] == pytest.approx(float(oracle), rel=1e-9)

    def test_weighted_profile_norm(self, runner, fixtures):
        res = runner.invoke(
            main,
            ["norm", "--young", "cosh-1", "--profile", fixtures["glog"], "--weight", fixtures["weight"]],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["op"] == "weighted_luxemburg_norm"
        assert payload["value"] > 1.0 and payload["converged"]

    def test_profile_whose_tail_underflows_in_the_search(self, runner, tmp_path):
        # a valid file: its tail amplitude over lambda = 1e300 underflows to 0
        prof = tmp_path / "tiny_tail.json"
        prof.write_text(json.dumps({"steps": [[1e300, 1.0]], "tail": {"kind": "exponential", "amplitude": 1e-300, "rate": 1.0}}))
        res = runner.invoke(main, ["norm", "--young", "power:2", "--profile", str(prof)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["converged"] and payload["value"] == pytest.approx(1e300, rel=1e-12)

    def test_profile_whose_power_tail_offset_is_lost(self, runner, tmp_path):
        # offset 1 against a start of 1e300: inconclusive (exit 4), not a traceback
        prof = tmp_path / "lost_offset.json"
        prof.write_text(json.dumps({"steps": [[1e-300, 1e300]], "tail": {"kind": "power", "amplitude": 1e-300, "exponent": 2.0, "offset": 1.0}}))
        for flags in ([], ["--orlicz"]):
            res = runner.invoke(main, ["norm", "--young", "power:2", *flags, "--profile", str(prof)])
            assert res.exit_code == 4, res.output
            assert "offset 1 is lost" in res.output

    def test_requires_exactly_one_input(self, runner, fixtures):
        res = runner.invoke(main, ["norm", "--young", "power:2"])
        assert res.exit_code == 2

    def test_domain_error_exit_code(self, runner, fixtures):
        res = runner.invoke(
            main, ["norm", "--young", "power:0.5", "--function", fixtures["function"]]
        )
        assert res.exit_code == 2

    def test_csv_format(self, runner, fixtures):
        res = runner.invoke(
            main,
            ["norm", "--young", "power:2", "--function", fixtures["function"], "--format", "csv"],
        )
        assert res.exit_code == 0
        head, body = res.output.strip().splitlines()
        assert "value" in head.split(",")

    def test_output_file_written_atomically(self, runner, fixtures, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(
            main,
            ["norm", "--young", "power:2", "--function", fixtures["function"], "--out", str(out)],
        )
        assert res.exit_code == 0
        assert json.loads(out.read_text())["value"] == pytest.approx(1.5, rel=1e-10)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".orlicz-kit-")]
        assert not leftovers


class TestCheck:
    def test_delta2(self, runner):
        res = runner.invoke(main, ["check", "delta2", "--young", "power:2"])
        payload = json.loads(res.output)
        assert payload["holds"] and payload["c"] == pytest.approx(4.0, abs=1e-12)

    def test_equivalent(self, runner):
        res = runner.invoke(main, ["check", "equivalent", "--y1", "xlog1p", "--y2", "llog"])
        payload = json.loads(res.output)
        assert payload["equivalent"]
        assert payload["b_forward"] > 0 and payload["b_backward"] > 0

    def test_regular_log_head(self, runner, fixtures):
        res = runner.invoke(
            main,
            ["check", "regular", "--profile", fixtures["glog"], "--weight", fixtures["weight"]],
        )
        payload = json.loads(res.output)
        assert payload["regular"] and payload["agrees"]
        assert payload["domain"][:2] == [-1.0, 1.0]

    def test_quantum_regular_inv_head(self, runner, fixtures):
        res = runner.invoke(
            main,
            ["check", "quantum-regular", "--profile", fixtures["ginv"], "--weight", fixtures["weight"]],
        )
        payload = json.loads(res.output)
        assert not payload["regular"]
        assert payload["domain"][1] == 0.0 and payload["domain"][3] is True

    def test_membership(self, runner, fixtures):
        res = runner.invoke(
            main, ["check", "membership", "--young", "cosh-1", "--profile", fixtures["glog"]]
        )
        payload = json.loads(res.output)
        assert payload["member"] and payload["lambda_witness"] == 0.5

    def test_majorization(self, runner, fixtures):
        res = runner.invoke(
            main, ["check", "majorization", "--f", fixtures["steps"], "--g", fixtures["pinched"]]
        )
        payload = json.loads(res.output)
        assert payload["majorized"]

    def test_embedding_chain(self, runner, fixtures, tmp_path):
        prob = tmp_path / "prob.txt"
        prob.write_text("2.0 0.5\n1.0 0.5\n")
        res = runner.invoke(
            main, ["check", "embedding-chain", "--function", str(prob), "--p-exponent", "2.0"]
        )
        payload = json.loads(res.output)
        assert payload["finiteness_monotone"]

    def test_missing_flags_domain_error(self, runner):
        res = runner.invoke(main, ["check", "regular"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "what, message",
        [
            ("delta2", "delta2 needs --young"),
            ("nabla2", "nabla2 needs --young"),
            ("equivalent", "equivalent needs --y1 and --y2"),
            ("membership", "membership needs --young and --profile"),
            ("regular", "regular needs --profile and --weight"),
            ("quantum-regular", "quantum-regular needs --profile and --weight"),
            ("majorization", "majorization needs --f and --g"),
            ("embedding-chain", "embedding-chain needs --function"),
        ],
    )
    def test_required_options(self, runner, what, message):
        res = runner.invoke(main, ["check", what])
        assert res.exit_code == 2
        assert res.stdout == "" and res.stderr == f"domain error: {message}\n"


# the stdout of `verify --seed 42 --only entropy`: one line per criterion,
# then the report in the chosen format
VERIFY_ENTROPY_LINES = (
    "[PASS] criterion  6: entropy bounds with explicit constants (bound fails 0, tightness"
    " ratios (1.000, 1.001); tol 0 fails; ratios within 10x)\n"
    "[PASS] criterion  9: quantum entropy bounds and eps-monotonicity (bound fails 0,"
    " eps-monotonicity fails 0; tol 0; 0)\n"
)
VERIFY_ENTROPY_REPORT = {
    "json": """{
  "all_passed": true,
  "config_digest": "f76a1128e4b07543",
  "criteria": [
    {
      "cid": 6,
      "measured": "bound fails 0, tightness ratios (1.000, 1.001)",
      "name": "entropy bounds with explicit constants",
      "passed": true,
      "tags": [
        "classical"
      ],
      "tolerance": "0 fails; ratios within 10x"
    },
    {
      "cid": 9,
      "measured": "bound fails 0, eps-monotonicity fails 0",
      "name": "quantum entropy bounds and eps-monotonicity",
      "passed": true,
      "tags": [
        "quantum"
      ],
      "tolerance": "0; 0"
    }
  ],
  "only": "entropy",
  "seed": 42,
  "tool": "orlicz-kit",
  "version": "0.1.0"
}
""",
    "csv": """cid,name,passed,measured,tolerance
6,"entropy bounds with explicit constants",True,"bound fails 0, tightness ratios (1.000, 1.001)","0 fails; ratios within 10x"
9,"quantum entropy bounds and eps-monotonicity",True,"bound fails 0, eps-monotonicity fails 0","0; 0"
""",
}


class TestVerify:
    def test_subset_run_and_determinism_bytes(self, runner, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["verify", "--seed", "42", "--only", "entropy", "--out"]
        res1 = runner.invoke(main, args + [str(out1)])
        assert res1.exit_code == 0, res1.output
        assert "[PASS]" in res1.output
        res2 = runner.invoke(main, args + [str(out2)])
        assert res2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_projection(self, runner):
        res = runner.invoke(
            main, ["verify", "--seed", "42", "--only", "entropy", "--format", "csv"]
        )
        assert res.exit_code == 0
        assert "cid,name,passed" in res.output

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_exact_stdout(self, runner, fmt):
        res = runner.invoke(main, ["verify", "--seed", "42", "--only", "entropy", "--format", fmt])
        assert res.exit_code == 0
        assert res.output == VERIFY_ENTROPY_LINES + VERIFY_ENTROPY_REPORT[fmt]

    def test_only_filter_by_id(self, runner):
        res = runner.invoke(main, ["verify", "--seed", "7", "--only", "6"])
        assert res.exit_code == 0
        assert "criterion  6" in res.output


MALFORMED_MATRICES = {
    "ragged": '{"entries": [[1, 2], [3]]}',
    "non-square": '{"entries": [[1, 2, 3], [4, 5, 6]]}',
    "empty": '{"entries": []}',
    "non-finite": '{"entries": [[1, NaN], [3, 4]]}',
    "infinite": '{"entries": [[1, 0], [0, 1e999]]}',
    "bad-pair": '{"entries": [[[1, 2, 3], 0], [0, 1]]}',
    "truncated": '{"entries": [[1, 2], [3,',
    "missing-entries": '{"dim": 2}',
    "not-an-object": "[[1, 2], [3, 4]]",
}

MALFORMED_PROFILES = {
    "missing-exponent": '{"steps": [], "tail": {"kind": "power", "amplitude": 1.0}}',
    "truncated": '{"steps": [[2.0, 1.0]',
    "not-an-object": "[1, 2]",
    "bad-number": '{"steps": [["x", 1.0]]}',
    "unknown-profile-key": '{"steps": [[1, 1]], "tial": {"kind": "exponential", "amplitude": 1, "rate": 1}}',
    "unknown-tail-key": '{"steps": [], "tail": {"kind": "exponential", "amplitude": 1, "rate": 1, "ratee": 2}}',
    "unknown-head-key": '{"steps": [], "head": {"kind": "log_singularity", "coef": 0.5}}',
    "key-on-zero-tail": '{"steps": [[1, 1]], "tail": {"kind": "zero", "rate": 1}}',
    "inv-power-head-missing-exponent": '{"steps": [], "head": {"kind": "inv_power", "coeff": 1}}',
    "tail-kind-under-head": '{"steps": [], "head": {"kind": "exponential", "amplitude": 1, "rate": 1}}',
    "two-heads": '{"head": {"kind": "log_singularity"}, "tail": {"kind": "inv_power", "exponent": 0.5}}',
    "power-tail-junction-overflows":
        '{"steps": [[1, 1]], "tail": {"kind": "power", "amplitude": 1, "exponent": 3, "offset": 1e-200}}',
}

MALFORMED_TWO_COLUMNS = {
    "non-numeric": "abc def\n",
    "ragged-3-2": "1.0 2.0 3.0\n4.0 5.0\n",
    "non-numeric-cell": "0.0 0.0\n1.0 x\n",
    "three-columns": "1.0 2.0 3.0\n4.0 5.0 6.0\n",
    "empty": "",
}


class TestMalformedInput:
    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRICES))
    def test_matrix_exits_2_with_one_line(self, runner, tmp_path, case):
        path = self._write(tmp_path, MALFORMED_MATRICES[case])
        res = runner.invoke(main, ["norm", "--young", "power:2", "--matrix", path])
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("domain error:")

    @pytest.mark.parametrize("case", sorted(MALFORMED_PROFILES))
    def test_profile_exits_2_with_one_line(self, runner, tmp_path, case):
        path = self._write(tmp_path, MALFORMED_PROFILES[case])
        res = runner.invoke(main, ["norm", "--young", "power:2", "--profile", path])
        assert res.exit_code == 2, res.output
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("domain error:")

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("case", sorted(MALFORMED_TWO_COLUMNS))
    @pytest.mark.parametrize("role", ["function", "tabulated"])
    def test_two_column_text_exits_2_with_one_line(self, runner, tmp_path, role, case):
        bad = tmp_path / "input.txt"
        bad.write_text(MALFORMED_TWO_COLUMNS[case])
        good = tmp_path / "f.txt"
        good.write_text("2.0 0.5\n-1.0 0.25\n")
        if role == "function":
            args = ["norm", "--young", "power:2", "--function", str(bad)]
        else:
            args = ["norm", "--young", f"tabulated:{bad}", "--function", str(good)]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("domain error:")

    def test_no_traceback_from_the_command_line(self, tmp_path):
        path = self._write(tmp_path, MALFORMED_MATRICES["truncated"])
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "orlicz_kit.cli", "norm", "--young", "power:2", "--matrix", path],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stderr.startswith("domain error:")


@pytest.mark.parametrize("extra", [[], ["--orlicz"]], ids=["luxemburg", "orlicz"])
def test_a_one_row_tabulated_file_is_a_constant_density(runner, tmp_path, extra):
    # Psi(s) = 2 s: both norms are 2 ||f||_1 = 2 (2 * 0.5 + 1 * 0.25)
    table, f = tmp_path / "one.txt", tmp_path / "f.txt"
    table.write_text("0.0 2.0\n")
    f.write_text("2.0 0.5\n-1.0 0.25\n")
    res = runner.invoke(main, ["norm", "--young", f"tabulated:{table}", "--function", str(f), *extra])
    assert res.exit_code == 0, res.output
    out = json.loads(res.stdout)
    assert out["converged"] and out["value"] == pytest.approx(2.5, rel=1e-12)


class TestInconclusiveQuadrature:
    def test_exits_4_with_one_line_naming_the_quadrature_context(self, runner, tmp_path):
        # cosh(c*log(1/t)) overflows on the certified range of the log head
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({
            "steps": [[0.4 / 0.71, 1.0]],
            "tail": {"kind": "log_singularity", "coeff": 0.7 / 0.71, "width": 0.5},
        }))
        weight = tmp_path / "w.json"
        weight.write_text(json.dumps({"steps": [[1.0, 0.6]]}))
        res = runner.invoke(
            main, ["norm", "--young", "cosh-1", "--profile", str(profile), "--weight", str(weight)]
        )
        assert res.exit_code == 4, res.output
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("inconclusive quadrature: non-finite integrand on [")
        for part in ("error estimate inf", "against budget", "panels"):
            assert part in lines[0]

    def test_exits_4_where_a_tail_vanishes_past_the_largest_double(self, runner, tmp_path):
        # 1e300 (1 + u)**-0.4 falls to 1, below which llogl vanishes, at
        # u = 1e750; membership needs no such point
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({"steps": [], "tail": {"kind": "power", "amplitude": 1e300, "exponent": 0.4}}))
        res = runner.invoke(main, ["norm", "--young", "llogl", "--profile", str(profile)])
        assert res.exit_code == 4, res.output
        assert res.stderr == "inconclusive quadrature: the tail falls to 1, where llogl is 0, past 1.8e308\n"
        res = runner.invoke(main, ["check", "membership", "--young", "llogl", "--profile", str(profile)])
        assert res.exit_code == 0 and json.loads(res.stdout)["member"] is True

    def test_exits_4_where_a_power_tail_bound_overflows(self, runner, tmp_path):
        # (1e300 (0.001 + u)**-0.55)**2 overflows a double on the first rungs
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({"steps": [], "tail": {"kind": "power", "amplitude": 1e300,
                                                             "exponent": 0.55, "offset": 0.001}}))
        res = runner.invoke(main, ["norm", "--young", "power:2", "--profile", str(profile)])
        assert res.exit_code == 4, res.output
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("inconclusive quadrature:")
        assert "Traceback" not in res.output


# mostly well-formed values, so that parsing succeeds often enough for the
# norms and checks behind it to run on odd but valid input
_GOOD = st.floats(min_value=0.05, max_value=5.0)
_ODD = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]),
    st.integers(min_value=-3, max_value=3),
    st.text(max_size=3),
    st.none(),
)
_NUMBERS = st.integers(min_value=0, max_value=9).flatmap(lambda k: _ODD if k == 0 else _GOOD)
_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_STEPS = st.lists(st.tuples(_NUMBERS, _NUMBERS).map(list), max_size=3)
_TAIL = st.fixed_dictionaries(
    {"kind": st.sampled_from(["zero", "exponential", "power", "log_singularity", "inv_power", "x"])},
    optional={k: _NUMBERS for k in ("amplitude", "rate", "exponent", "offset", "coeff", "width")},
)
_PROFILE = st.fixed_dictionaries(
    {"steps": _STEPS.map(lambda s: sorted(s, key=str, reverse=True)) | _STEPS | _JSON},
    optional={"tail": _TAIL | _JSON},
)
_SQUARE = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.lists(_NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n)
)
_MATRIX = st.fixed_dictionaries(
    {"entries": _SQUARE | st.lists(st.lists(_NUMBERS | st.lists(_NUMBERS, max_size=3), max_size=3), max_size=3)},
    optional={"dim": _NUMBERS},
)
_JSON_TEXT = st.one_of(
    (_PROFILE | _MATRIX | _JSON).map(json.dumps),
    (_PROFILE | _MATRIX).map(lambda d: json.dumps(d)[:-1]),  # truncated
    st.text(max_size=30),
)
_CELL = _NUMBERS.map(str) | st.text(alphabet="0123456789.-eE x", max_size=6)
_ROW = st.tuples(_CELL, _CELL).map(list) | st.lists(_CELL, max_size=3)
_TWO_COLUMNS = st.lists(_ROW.map(" ".join), max_size=4).map("\n".join) | st.text(max_size=30)
_JSON_COMMANDS = (
    ["norm", "--young", "power:2", "--profile"],
    ["norm", "--young", "cosh-1", "--orlicz", "--profile"],
    ["check", "membership", "--young", "cosh-1", "--profile"],
    ["norm", "--young", "cosh-1", "--matrix"],
)
_TEXT_COMMANDS = (
    ["norm", "--young", "power:2", "--function"],
    ["check", "embedding-chain", "--p-exponent", "2", "--function"],
)


class TestCliFuzz:
    """Malformed or odd input never ends in a traceback or an exit code
    outside {0 success, 2 domain error, 3 non-convergence, 4 inconclusive}."""

    @staticmethod
    def _check(args, text):
        runner = CliRunner()
        with runner.isolated_filesystem():
            Path("input").write_text(text)
            res = runner.invoke(main, [*args, "input"])
        assert res.exit_code in (0, 2, 3, 4), (args, text, res.output, res.exception)
        assert "Traceback" not in res.output

    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(_JSON_COMMANDS), _JSON_TEXT)
    def test_json_input(self, args, text):
        self._check(args, text)

    @settings(max_examples=200, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(_TEXT_COMMANDS), _TWO_COLUMNS)
    def test_two_column_input(self, args, text):
        self._check(args, text)
