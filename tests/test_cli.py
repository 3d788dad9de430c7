"""CLI surface: formats, exit codes, determinism."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import greenbvp
from greenbvp import cli
from greenbvp.cli import fmt, main, to_json
from greenbvp.kernel import GreenKernel
from greenbvp.params import ProblemParams


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_green_csv_row_count_and_value(capsys, tmp_path):
    path = tmp_path / "g.csv"
    code, _, _ = run(capsys, "green", "--gamma", "0", "--lambda", "1",
                     "--n", "101", "--format", "csv", "-o", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,s,G"
    assert len(lines) - 1 == 101 * 101
    assert "0.25,0.5,0.1875" in lines


def test_green_resonance_refusal(capsys):
    code, _, err = run(capsys, "green", "--gamma", "0", "--lambda", "2")
    assert code == 2
    assert "resonan" in err.lower()
    assert '"branch": "lambda_curve"' in err


def test_green_svg_and_json(capsys, tmp_path):
    svg = tmp_path / "g.svg"
    code, _, _ = run(capsys, "green", "--gamma", "-4", "--lambda", "1",
                     "--n", "21", "--format", "svg", "-o", str(svg))
    assert code == 0
    assert svg.read_text().startswith("<svg")
    code, out, _ = run(capsys, "green", "--gamma", "-4", "--lambda", "1",
                       "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["G"]) == 5


def test_green_determinism_and_threads(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "green", "--gamma", "3", "--lambda", "0.5", "--n", "41",
        "--format", "csv", "-o", str(a))
    os.environ["GREENBVP_THREADS"] = "3"
    try:
        run(capsys, "green", "--gamma", "3", "--lambda", "0.5", "--n", "41",
            "--format", "csv", "-o", str(b))
    finally:
        del os.environ["GREENBVP_THREADS"]
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("gamma", ["-1e5", "-4", "1e-12", "0", "3", repr(math.pi ** 2)])
def test_green_bytes_match_per_float_format(capsys, tmp_path, gamma):
    """The template writer gives the bytes of the per-row, per-float loop."""
    n = 23
    kernel = GreenKernel(ProblemParams(float(gamma), 1.0))
    t = np.linspace(0.0, 1.0, n)
    s = t.copy()
    z = np.array([kernel.eval(tv, s) for tv in t])
    lines = ["t,s,G"] + [f"{fmt(tv)},{fmt(sv)},{fmt(z[i, j])}"
                         for i, tv in enumerate(t) for j, sv in enumerate(s)]
    want_csv = "\n".join(lines) + "\n"
    want_json = to_json({"gamma": float(gamma), "lambda": 1.0, "t": list(t), "s": list(s),
                         "G": [list(row) for row in z]}) + "\n"
    if gamma == "-1e5":
        assert "e-" in want_csv
    for form, want in (("csv", want_csv), ("json", want_json)):
        path = tmp_path / f"g.{form}"
        argv = ["green", f"--gamma={gamma}", "--lambda", "1", "--n", str(n), "--format", form]
        code, _, _ = run(capsys, *argv, "-o", str(path))
        assert code == 0
        assert path.read_text() == want
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == want


def test_green_json_non_finite_rows_fall_back_to_to_json():
    t = np.linspace(0.0, 1.0, 4)
    z = np.outer(t, t)
    z[1, 2] = np.nan
    z[3, 0] = -np.inf
    params = ProblemParams(0.0, 1.0)
    want = to_json({"gamma": 0.0, "lambda": 1.0, "t": list(t), "s": list(t),
                    "G": [list(row) for row in z]}) + "\n"
    assert "".join(cli._json_rows(params, t, t, iter(z))) == want


def test_import_cli_leaves_out_scipy_interpolate():
    src = os.path.dirname(os.path.dirname(greenbvp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, greenbvp.cli; "
            "print('scipy.interpolate' in sys.modules, 'scipy.linalg' in sys.modules, "
            "'scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False False False"


def test_delta_rows(capsys):
    code, out, _ = run(capsys, "delta", "--gamma-min", "-1", "--gamma-max", "0",
                       "--steps", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,delta"
    assert lines[1] == f"{fmt(-1.0)},{fmt(math.sinh(1) / (math.cosh(1) - 1))}"
    assert lines[2] == f"{fmt(0.0)},{fmt(2.0)}"


def test_delta_usage_and_domain_errors(capsys):
    code, _, _ = run(capsys, "delta", "--gamma-min", "0", "--gamma-max", "1",
                     "--steps", "0")
    assert code == 1
    code, _, _ = run(capsys, "delta", "--gamma-min", "0", "--gamma-max", "11",
                     "--steps", "5")
    assert code == 2


@pytest.mark.parametrize("flag", ["--gamma-min", "--gamma-max"])
@pytest.mark.parametrize("value", ["-inf", "inf", "nan"])
def test_delta_non_finite_gamma_refused(capsys, flag, value):
    bounds = {"--gamma-min": "-1", "--gamma-max": "0"}
    bounds[flag] = value
    argv = [f"{k}={v}" for k, v in bounds.items()]
    code, out, err = run(capsys, "delta", *argv, "--steps", "3")
    assert code == 1
    assert out == ""
    assert f"{flag} must be finite, got {float(value)}" in err


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--gamma", "0", "--lambda", "1")
    assert code == 0
    data = json.loads(out)
    assert data["classification"] == "positive"
    assert data["delta"] == 2

    code, out, _ = run(capsys, "classify", "--gamma", "0", "--lambda", "3")
    assert json.loads(out)["classification"] == "changes_sign"

    code, _, _ = run(capsys, "classify", "--gamma", "0", "--lambda", "2")
    assert code == 2


def test_solve_and_verify_roundtrip(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text('gamma = 0\nlambda = 1\nf = "sqrt(u)"\ngrid_n = 201\nsvg = true\n')
    outdir = tmp_path / "out"
    code, _, _ = run(capsys, "solve", str(cfg), "--output-dir", str(outdir))
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["passed"] is True
    assert report["cone"]["member"] is True
    assert report["classification"]["classification"] == "sublinear"
    assert (outdir / "profile.svg").exists()

    code, out, _ = run(capsys, "verify", str(outdir / "solution.csv"), str(cfg))
    assert code == 0
    ver = json.loads(out)
    assert ver["residuals"]["bc_right"] < 1e-8
    assert ver["cone"]["member"] is True


def test_solve_superlinear_config(capsys, tmp_path):
    cfg = tmp_path / "cubic.cfg"
    cfg.write_text('gamma = 0\nlambda = 1\nf = "t*u^3 + exp(t*u) - 1"\ngrid_n = 201\n')
    outdir = tmp_path / "out2"
    code, _, _ = run(capsys, "solve", str(cfg), "--output-dir", str(outdir))
    assert code == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["cone"]["member"] is True
    assert report["classification"]["classification"] == "superlinear"
    assert abs(report["norm_inf"] - 2.936) < 0.01


@pytest.mark.parametrize("gamma", ["-1e-3", "0.02"])
def test_solve_and_verify_small_gamma(capsys, tmp_path, gamma):
    # G(1,s) rounds to 0 near the ends at this |gamma|; the cone constants
    # must not divide by it
    cfg = tmp_path / "q.cfg"
    cfg.write_text(f'gamma = {gamma}\nlambda = 1\nf = "u^2"\ngrid_n = 201\n')
    outdir = tmp_path / "out"
    code, _, _ = run(capsys, "solve", str(cfg), "--output-dir", str(outdir))
    assert code == 0
    code, _, _ = run(capsys, "verify", str(outdir / "solution.csv"), str(cfg))
    assert code == 0


@pytest.mark.parametrize("gamma,lam", [("0", "2"), ("-4", repr(2.0 / math.tanh(1.0)))])
def test_verify_resonant_refused_in_every_regime(capsys, tmp_path, gamma, lam):
    # the cone check refuses resonant parameters the same way at gamma = 0
    sol = tmp_path / "s.csv"
    sol.write_text("t,u\n" + "".join(f"{x},{x * (1 - x)}\n" for x in np.linspace(0, 1, 21)))
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f'gamma = {gamma}\nlambda = {lam}\nsigma = "1"\n')
    code, _, err = run(capsys, "verify", str(sol), str(cfg))
    assert code == 2
    assert "resonan" in err.lower()


def test_solve_failure_exit_code(capsys, tmp_path):
    cfg = tmp_path / "z.cfg"
    cfg.write_text('gamma = 0\nlambda = 1\nf = "0"\n')
    code, _, err = run(capsys, "solve", str(cfg), "--output-dir", str(tmp_path / "o"))
    assert code == 3


def test_solve_resonant_config(capsys, tmp_path):
    cfg = tmp_path / "r.cfg"
    cfg.write_text('gamma = 0\nlambda = 2\nf = "sqrt(u)"\n')
    code, _, _ = run(capsys, "solve", str(cfg), "--output-dir", str(tmp_path / "o"))
    assert code == 2


def test_config_validation(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma 0\n")
    code, _, _ = run(capsys, "solve", str(bad), "--output-dir", str(tmp_path))
    assert code == 1
    bad.write_text("volume = 3\n")
    code, _, _ = run(capsys, "solve", str(bad), "--output-dir", str(tmp_path))
    assert code == 1
    bad.write_text('gamma = 0\nlambda = 1\nf = "log("\n')
    code, _, _ = run(capsys, "solve", str(bad), "--output-dir", str(tmp_path))
    assert code == 1


def test_config_malformed_number(capsys, tmp_path):
    cfg = tmp_path / "m.cfg"
    for line, key in (("gamma = abc", "gamma"), ("grid_n = 1.5", "grid_n"),
                      ("init_amplitudes = 1, x", "init_amplitudes")):
        cfg.write_text(f'lambda = 1\nf = "sqrt(u)"\ngamma = 0\n{line}\n')
        code, _, err = run(capsys, "solve", str(cfg), "--output-dir", str(tmp_path / "o"))
        assert code == 1
        assert f"config key '{key}'" in err
    sol = tmp_path / "s.csv"
    sol.write_text("t,u\n" + "".join(f"{x},{x * (1 - x)}\n" for x in np.linspace(0, 1, 21)))
    cfg.write_text('gamma = 0\nlambda = one\nsigma = "2"\n')
    code, _, err = run(capsys, "verify", str(sol), str(cfg))
    assert code == 1
    assert "config key 'lambda'" in err


def test_small_grid_refused_before_search(capsys, tmp_path, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("greenbvp.nonlinear.KernelOperator", no_search)
    cfg = tmp_path / "g.cfg"
    cfg.write_text('gamma = 0\nlambda = 1\nf = "sqrt(u)"\ngrid_n = 5\n')
    code, _, err = run(capsys, "solve", str(cfg), "--output-dir", str(tmp_path / "o"))
    assert code == 1
    assert "need at least 11 points" in err


@pytest.mark.parametrize("line, key", [
    ("init_amplitudes = nan", "init_amplitudes"),
    ("init_amplitudes = 1, inf", "init_amplitudes"),
    ("init_amplitudes = 0.1, -1", "init_amplitudes"),
    ("tol = nan", "tol"),
    ("tol = -1", "tol"),
    ("min_norm = inf", "min_norm"),
    ("max_iter = -3", "max_iter"),
], ids=["amplitude-nan", "amplitude-inf", "amplitude-negative", "tol-nan",
        "tol-negative", "min_norm-inf", "max_iter-negative"])
def test_bad_config_value_refused_before_search(capsys, tmp_path, monkeypatch, line, key):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("greenbvp.nonlinear.KernelOperator", no_search)
    cfg = tmp_path / "v.cfg"
    cfg.write_text(f'gamma = 0\nlambda = 1\nf = "sqrt(u)"\n{line}\n')
    code, _, err = run(capsys, "solve", str(cfg), "--output-dir", str(tmp_path / "o"))
    assert code == 1
    assert f"config key '{key}'" in err
    assert "Traceback" not in err


def test_verify_mismatched_grid(capsys, tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text('gamma = 0\nlambda = 1\nf = "sqrt(u)"\n')
    sol = tmp_path / "s.csv"
    g = np.concatenate([np.linspace(0, 0.5, 6), np.linspace(0.52, 1.0, 20)])
    rows = ["t,u"] + [f"{x},{x * (1 - x)}" for x in g]
    sol.write_text("\n".join(rows) + "\n")
    code, _, _ = run(capsys, "verify", str(sol), str(cfg))
    assert code == 1


def test_verify_linear_sigma(capsys, tmp_path):
    from greenbvp.linear import solve_linear
    from greenbvp.params import ProblemParams

    prof = solve_linear(ProblemParams(0.0, 1.0), lambda s: np.ones_like(s), grid_n=101)
    sol = tmp_path / "lin.csv"
    rows = ["t,u"] + [f"{fmt(t)},{fmt(u)}" for t, u in zip(prof.grid, prof.values)]
    sol.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "lin.cfg"
    cfg.write_text('gamma = 0\nlambda = 1\nsigma = "1"\n')
    code, out, _ = run(capsys, "verify", str(sol), str(cfg))
    assert code == 0
    ver = json.loads(out)
    assert ver["residuals"]["ode_residual_inf"] < 1e-6


def test_usage_exit_codes(capsys):
    assert main([]) == 1
    assert main(["green"]) == 1
    assert main(["green", "--gamma", "0", "--lambda", "1", "--n", "1"]) == 1


def test_to_json_formatting():
    text = to_json({"a": 1 / 3, "b": [1.0, True, None], "c": "x\"y"})
    assert "0.33333333333333331" in text
    assert '"x\\"y"' in text
    assert json.loads(text) == {"a": 1 / 3, "b": [1.0, True, None], "c": 'x"y'}
