"""The greenbvp benchmark: one workload per run, closed loop, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload solve-superlinear --seed 1 --seconds 40 --trace 0

A run starts fresh Python processes (worker.py) that import greenbvp from
src/: a first one to warm the file cache, SETUP_SAMPLES more that only time
set-up, and the one that runs the operations.  That process is driven in a
closed loop: one operation at a time, the next sent only after the previous
one has been checked.  The first operation is a warm-up; the following ones
are timed until their times add up to --seconds.  Every operation's output is
checked against the references in checks.py, outside the timed region.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The full record of the run (every
operation, its check distances, set-up samples, versions) is written to
bench/out/<workload>-s<seed>-t<trace>.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3
GRID_N = 1001
TABLE_N = 1001
# the fractional part of k * GOLDEN is spread evenly over [0, 1) for every
# prefix k = 0..n-1, so a run's draws cover the range whatever its length
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _pos(u):
    return u if u > 0.0 else 0.0


# f as the program reads it, and the same f written in Python for the
# references; the program clamps u at 0, so the references do too.
# BENCHMARK.json lists solve-superlinear and tabulate; the other two are
# run by hand for the layers they stress (README.md, "Noise on this machine").
WORKLOADS = {
    "solve-superlinear": {
        "kind": "solve", "f": "t*u^3 + exp(t*u) - 1", "gamma": 0.0,
        "f_ref": lambda t, u: t * _pos(u) ** 3 + math.exp(t * _pos(u)) - 1.0,
        "draw": "lambda", "range": (0.8, 1.2)},
    "solve-sublinear": {
        "kind": "solve", "f": "sqrt(u)", "gamma": 0.0,
        "f_ref": lambda t, u: math.sqrt(_pos(u)),
        "draw": "lambda", "range": (0.8, 1.2)},
    "solve-hyperbolic": {
        "kind": "solve", "f": "u^2", "gamma": -4.0,
        "f_ref": lambda t, u: _pos(u) ** 2,
        "draw": "lambda", "range": (0.8, 1.2)},
    "tabulate": {
        "kind": "green", "lam": 1.0,
        "draw": "gamma", "range": (-6.0, -2.0)},
}

PER_LAYER = [
    "kernel.calls", "kernel.points", "kernel.self_s",
    "spectrum.calls", "spectrum.self_s",
    "quadrature.calls", "quadrature.self_s",
    "nonlinear.self_s", "nonlinear.iterations",
    "fdsolve.calls", "fdsolve.self_s", "fdsolve.ok_ratio",
    "expr.calls", "expr.points", "expr.self_s",
    "linear.calls", "linear.self_s",
    "profile.calls", "profile.self_s",
    "cli.self_s", "cli.bytes_out",
]


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def draws(seed: int, lo: float, hi: float):
    """Endless per-operation values in [lo, hi): a seeded offset plus k * GOLDEN."""
    offset = np.random.default_rng(seed).random()
    k = 0
    while True:
        yield lo + (hi - lo) * ((offset + k * GOLDEN) % 1.0)
        k += 1


class Operation:
    """One call of the program: its arguments, where it writes, how to check it."""

    def __init__(self, workload: dict, index: int, value: float, run_dir: str):
        self.workload = workload
        self.index = index
        self.value = value
        self.dir = os.path.join(run_dir, f"op-{index:04d}")
        os.makedirs(self.dir)
        if workload["kind"] == "solve":
            cfg = os.path.join(self.dir, "problem.cfg")
            with open(cfg, "w") as fh:
                fh.write(f"gamma = {workload['gamma']!r}\nlambda = {value!r}\n"
                         f"f = \"{workload['f']}\"\ngrid_n = {GRID_N}\ntol = 1e-8\n")
            self.argv = ["solve", cfg, "--output-dir", self.dir]
        else:
            self.table = os.path.join(self.dir, "kernel.csv")
            self.argv = ["green", "--gamma", repr(value), "--lambda", repr(workload["lam"]),
                         "--n", str(TABLE_N), "--format", "csv", "-o", self.table]

    def bytes_out(self) -> int:
        return sum(os.path.getsize(os.path.join(self.dir, name))
                   for name in os.listdir(self.dir) if name != "problem.cfg")

    def check(self) -> tuple[bool, dict]:
        wl = self.workload
        if wl["kind"] == "solve":
            return checks.check_solve(self.dir, wl["gamma"], self.value, wl["f_ref"], GRID_N)
        return checks.check_table(self.table, self.value, wl["lam"], TABLE_N)

    def discard_output(self):
        """Tables are about 56 MB each; solutions are kept for inspection."""
        if self.workload["kind"] == "green" and os.path.exists(self.table):
            os.remove(self.table)


class Worker:
    """A worker.py process; its set-up time runs from launch to its "ready" line."""

    def __init__(self, out_dir: str, trace: bool, setup_only: bool = False):
        argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), SRC_DIR, out_dir,
                "1" if trace else "0"] + (["--setup-only"] if setup_only else [])
        env = dict(os.environ)
        env.pop("GREENBVP_THREADS", None)
        env.pop("PYTHONPATH", None)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        first = self._read()
        self.setup_s = time.perf_counter() - t0
        if first != "ready":
            self.close()
            raise SetupError(f"worker did not get ready: {first!r}")

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            return None
        return json.loads(line)

    def call(self, argv):
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        answer = self._read()
        if answer is None:
            raise SetupError(f"worker ended during {argv} (exit {self.proc.wait()})")
        return answer

    def finish(self) -> dict:
        final = self.call(None)
        self.close()
        return final

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream and not stream.closed:
                stream.close()


def measure_setup(out_dir: str) -> list[float]:
    """Set-up times of SETUP_SAMPLES fresh processes, after one untimed launch."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        w = Worker(out_dir, trace=False, setup_only=True)
        w.close()
        if w.proc.returncode != 0:
            raise SetupError(f"set-up process exited with {w.proc.returncode}")
        if k:
            samples.append(w.setup_s)
    return samples


def layer_metrics(ops: list[dict]) -> dict:
    """Per-operation means of the per-layer counts and times over the timed operations."""
    n = len(ops)
    total = {}
    for op in ops:
        for layer, rec in op["layers"].items():
            acc = total.setdefault(layer, {"calls": 0, "points": 0, "failed": 0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
    values = {}
    for name in PER_LAYER:
        layer, _, what = name.partition(".")
        if name == "nonlinear.iterations":
            values[name] = sum(op["check"].get("iterations") or 0 for op in ops) / n
        elif name == "cli.bytes_out":
            values[name] = sum(op["bytes_out"] for op in ops) / n
        elif what == "ok_ratio":
            calls = total[layer]["calls"]
            values[name] = 1.0 if calls == 0 else (calls - total[layer]["failed"]) / calls
        else:
            values[name] = total[layer][what] / n
    return values


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ok_ratio"):
        return "ratio"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str = OUT_DIR,
        check=None) -> dict:
    """Run one workload; returns the full run record (the result line is record["result"]).

    check(op) -> (ok, details) replaces Operation.check, for the benchmark's own tests.
    """
    if not os.path.isfile(os.path.join(SRC_DIR, "greenbvp", "cli.py")):
        raise SetupError(f"no greenbvp sources under {SRC_DIR}")
    wl = WORKLOADS[workload]
    tag = f"{workload}-s{seed}-t{int(trace)}"
    run_dir = os.path.join(out_dir, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    check = check or Operation.check

    setup = measure_setup(run_dir)
    values = draws(seed, *wl["range"])
    ops: list[dict] = []
    worker = Worker(run_dir, trace)
    try:
        setup.append(worker.setup_s)
        measured = 0.0
        while not ops or measured < seconds:
            op = Operation(wl, len(ops), next(values), run_dir)
            answer = worker.call(op.argv)
            rc = answer["rc"]
            t0 = time.perf_counter()
            ok, details = False, {"error": f"exit code {rc}"}
            if rc == 0:
                try:
                    ok, details = check(op)
                except (OSError, ValueError) as exc:    # missing or malformed output
                    details = {"error": f"{type(exc).__name__}: {exc}"}
            record = {"index": op.index, wl["draw"]: op.value, "rc": rc, "dt": answer["dt"],
                      "ok": ok, "check": details, "check_s": time.perf_counter() - t0,
                      "bytes_out": op.bytes_out()}
            if trace:
                record["layers"] = answer["layers"]
            op.discard_output()
            if ops:                      # the first operation is the warm-up
                measured += answer["dt"]
            ops.append(record)
        final = worker.finish()
    finally:
        worker.close()

    timed = ops[1:]
    times = [op["dt"] for op in timed]
    failed = sum(not op["ok"] for op in ops)
    wrong = sum(op["rc"] == 0 and not op["ok"] for op in ops)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
        "peak_rss_mb": final["peak_rss_mb"],
    }
    if trace:
        per_layer = layer_metrics(timed)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in per_layer.items()}
    else:
        per_layer = None
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    result = {"correct": wrong == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "result": result, "end_to_end": end_to_end, "per_layer": per_layer,
        "setup_samples": setup, "absent": final.get("absent", []),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "machine": platform.machine(),
                     "cpus": os.cpu_count()},
        "operations": ops,
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    for name in record["absent"]:
        print(f"benchmark: entry point {name} is absent", file=sys.stderr)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
