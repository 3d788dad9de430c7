"""Tests of the benchmark itself: every workload runs with all checks on,
and the checks fail on outputs that are slightly wrong."""
import numpy as np
import pytest

import checks
import run


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_checked(workload, tmp_path):
    record = run.run(workload, seed=7, seconds=0.01, trace=True, out_dir=str(tmp_path))
    result = record["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2          # the warm-up and one timed operation
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert record["absent"] == []
    assert set(record["end_to_end"]) == {"setup_s", "ops_per_s", "op_s.p50", "peak_rss_mb"}
    assert all(v > 0 for v in record["end_to_end"].values())
    per_layer = record["per_layer"]
    assert per_layer["cli.bytes_out"] > 0
    if workload == "tabulate":
        assert per_layer["kernel.calls"] == run.TABLE_N
    else:
        assert per_layer["nonlinear.iterations"] > 0
        assert per_layer["quadrature.calls"] >= run.GRID_N


def test_draws_are_seeded_and_spread():
    first = [x for _, x in zip(range(50), run.draws(3, 0.8, 1.2))]
    again = [x for _, x in zip(range(50), run.draws(3, 0.8, 1.2))]
    other = [x for _, x in zip(range(50), run.draws(4, 0.8, 1.2))]
    assert first == again and first != other
    assert len(set(first)) == 50 and min(first) >= 0.8 and max(first) < 1.2
    # every quarter of the range gets between 10 and 15 of the 50 draws
    counts = np.histogram(first, bins=4, range=(0.8, 1.2))[0]
    assert counts.min() >= 10 and counts.max() <= 15


def _scale_solution(op):
    path = f"{op.dir}/solution.csv"
    data = checks.read_csv(path, "t,u", 2)
    data[:, 1] *= 1.0 + 1e-4
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header="t,u", comments="")
    return run.Operation.check(op)


def _perturb_row(op):
    with open(op.table) as fh:
        lines = fh.read().splitlines()
    n = run.TABLE_N
    row = n // 2
    for k in range(1 + row * n, 1 + (row + 1) * n):
        t, s, g = lines[k].split(",")
        lines[k] = f"{t},{s},{float(g) * (1.0 + 1e-4):.17g}"
    with open(op.table, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return run.Operation.check(op)


@pytest.mark.parametrize("workload, corrupt", [
    ("solve-sublinear", _scale_solution),
    ("tabulate", _perturb_row),
])
def test_wrong_outputs_count_as_failed(workload, corrupt, tmp_path):
    record = run.run(workload, seed=7, seconds=0.01, trace=False, out_dir=str(tmp_path),
                     check=corrupt)
    result = record["result"]
    assert result["failed"] == result["attempted"] == 2
    assert not result["correct"]
