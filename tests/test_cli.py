"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from orlicz_kit.cli import main


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

    def test_matrix_norm(self, runner, fixtures):
        res = runner.invoke(main, ["norm", "--young", "cosh-1", "--matrix", fixtures["matrix"]])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["op"] == "nc_norm"
        # oracle: solve (cosh(3/lam) - 1) + (cosh(1/lam) - 1) = 1
        def mod(lam):
            return (math.cosh(3 / lam) - 1) + (math.cosh(1 / lam) - 1)

        lo, hi = 1e-6, 1e6
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if mod(mid) <= 1:
                hi = mid
            else:
                lo = mid
        assert payload["value"] == pytest.approx(hi, rel=1e-9)

    def test_weighted_profile_norm(self, runner, fixtures):
        res = runner.invoke(
            main,
            ["norm", "--young", "cosh-1", "--profile", fixtures["glog"], "--weight", fixtures["weight"]],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert payload["op"] == "weighted_luxemburg_norm"
        assert payload["value"] > 1.0 and payload["converged"]

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
