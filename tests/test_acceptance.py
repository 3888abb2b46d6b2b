"""Acceptance suite: every criterion at its stated tolerance.

Runs the same registry as `orlicz-kit verify --seed 42` and prints one
pass/fail line per criterion.  Criterion 12 (determinism) re-runs criteria
1-11 and compares canonical report bytes, so this module executes the full
suite twice; expect about half a minute.
"""

import pytest

from orlicz_kit import verification as vf

SEED = 42


@pytest.fixture(scope="module")
def suite_report():
    return vf.run_suite(seed=SEED, include_determinism=True)


@pytest.mark.parametrize("cid", [c[0] for c in vf.CRITERIA])
def test_criterion(cid, suite_report):
    entry = next(c for c in suite_report["criteria"] if c["cid"] == cid)
    mark = "PASS" if entry["passed"] else "FAIL"
    print(f"[{mark}] criterion {cid:2d}: {entry['name']} ({entry['measured']}; tol {entry['tolerance']})")
    assert entry["passed"], f"criterion {cid} failed: {entry['measured']}"


def test_all_passed_flag(suite_report):
    assert suite_report["all_passed"]
    assert len(suite_report["criteria"]) == len(vf.CRITERIA)
