"""Rewrite the golden solve outputs from the current source.

Every directory next to this script that holds a problem.cfg is one case.
`greenbvp solve problem.cfg` runs on it: a solve that exits 0 writes its
solution.csv and report.json into that directory; one that exits with
another code is a refusal, and its exit code and stderr go into
refusal.json instead.  versions.json records the numpy and scipy versions
that made them; tests/test_golden.py compares floats exactly only when the
installed versions match it.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change that regenerates the files on purpose should say which numbers
moved and by how much.
"""
import contextlib
import io
import json
import os
import sys

import numpy as np
import scipy

from greenbvp import cli

HERE = os.path.dirname(os.path.abspath(__file__))


def case_dirs() -> list[str]:
    return sorted(d for d in os.listdir(HERE)
                  if os.path.isfile(os.path.join(HERE, d, "problem.cfg")))


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_case(case_dir: str, out_dir: str) -> tuple[int, str]:
    """Exit code and stderr of `greenbvp solve` on the case, writing into out_dir."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["solve", os.path.join(case_dir, "problem.cfg"),
                         "--output-dir", out_dir])
    return code, err.getvalue()


def main() -> int:
    for name in case_dirs():
        d = os.path.join(HERE, name)
        code, err = run_case(d, d)
        print(f"{name}: exit {code}")
        if code != 0:
            with open(os.path.join(d, "refusal.json"), "w") as fh:
                fh.write(json.dumps({"exit_code": code, "stderr": err}, indent=2) + "\n")
    with open(os.path.join(HERE, "versions.json"), "w") as fh:
        fh.write(json.dumps(versions(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
