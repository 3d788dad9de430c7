"""Golden solve outputs: `greenbvp solve` must reproduce tests/golden/.

Each case directory holds a problem.cfg and the solution.csv and
report.json that the solver wrote for it, or, for a refusal, a
refusal.json with its exit code and stderr (tests/golden/regenerate.py
rewrites them).  With the numpy and scipy versions recorded in
versions.json installed, the files must match byte for byte; with other
versions, text and structure must match exactly and every number to 1e-12
relative.  A refusal's exit code and stderr must match exactly.
"""
import json
import math
import os
import sys

import numpy as np
import pytest
import scipy

from greenbvp import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
sys.path.insert(0, GOLDEN)
from regenerate import case_dirs, run_case  # noqa: E402

CASES = [d for d in case_dirs()
         if not os.path.isfile(os.path.join(GOLDEN, d, "refusal.json"))]
REFUSALS = [d for d in case_dirs() if d not in CASES]
REL = 1e-12


def _same_versions() -> bool:
    with open(os.path.join(GOLDEN, "versions.json")) as fh:
        stored = json.load(fh)
    return stored == {"numpy": np.__version__, "scipy": scipy.__version__}


def _close(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _close(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=REL), (where, got, want)
    else:
        assert got == want, where


def _csv_close(got: str, want: str, where: str):
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0] and len(got_lines) == len(want_lines), where
    _close([[float(x) for x in line.split(",")] for line in got_lines[1:]],
           [[float(x) for x in line.split(",")] for line in want_lines[1:]], where)


def test_golden_cases_exist():
    assert len(CASES) >= 7
    with_code = {}
    for case in REFUSALS:
        with open(os.path.join(GOLDEN, case, "refusal.json")) as fh:
            with_code[json.load(fh)["exit_code"]] = case
    assert sorted(with_code) == [cli.USAGE_EXIT, cli.REFUSAL_EXIT, cli.SOLVER_EXIT]


@pytest.mark.parametrize("case", CASES)
def test_solve_matches_golden(case, tmp_path):
    src = os.path.join(GOLDEN, case)
    assert cli.main(["solve", os.path.join(src, "problem.cfg"),
                     "--output-dir", str(tmp_path)]) == 0
    exact = _same_versions()
    for name in ("solution.csv", "report.json"):
        got = (tmp_path / name).read_text()
        with open(os.path.join(src, name)) as fh:
            want = fh.read()
        where = f"{case}/{name}"
        if exact:
            assert got == want, where
        elif name.endswith(".csv"):
            _csv_close(got, want, where)
        else:
            _close(json.loads(got), json.loads(want), where)


@pytest.mark.parametrize("case", REFUSALS)
def test_refusal_matches_golden(case, tmp_path):
    with open(os.path.join(GOLDEN, case, "refusal.json")) as fh:
        want = json.load(fh)
    assert run_case(os.path.join(GOLDEN, case), str(tmp_path)) == (
        want["exit_code"], want["stderr"])
