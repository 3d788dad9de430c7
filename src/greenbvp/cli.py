"""Command-line interface.

Usage examples:

    greenbvp green --gamma 0 --lambda 1 --n 101 --format csv -o kernel.csv
    greenbvp delta --gamma-min -20 --gamma-max 9.5 --steps 200 --format svg -o delta.svg
    greenbvp classify --gamma 0 --lambda 1
    greenbvp solve problem.cfg --output-dir out/
    greenbvp verify out/solution.csv problem.cfg

Solve/verify configs are flat key = value text; expression values are
quoted.  Recognized keys: gamma, lambda, f, sigma, side, a, b, tol,
max_iter, min_norm, grid_n, init_amplitudes, svg.

Exit codes: 0 success, 1 usage error, 2 resonance or domain refusal,
3 solver search failure.  Numeric output is formatted with 17 significant
digits so identical invocations produce byte-identical files.  Tables
from `green` are written row by row as they are formatted.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext

import numpy as np

from .errors import (ClassificationError, DegenerateConeError, DomainError,
                     ExprDomainError, ExprSyntaxError, GreenBVPError, InputError,
                     QuadratureError, ResonanceError, SearchFailureError)
from .expr import parse as parse_expr
from .kernel import GreenKernel, check_resonance
from .linear import verify_solution
from .nonlinear import NonlinearProblem, SolveConfig, cone_membership, solve_positive
from .params import ProblemParams
from .profile import SolutionProfile
from .spectrum import PI_SQ, classify_sign, delta
from . import svgout

USAGE_EXIT = 1
REFUSAL_EXIT = 2
SOLVER_EXIT = 3

_REFUSALS = (DomainError, ExprDomainError, DegenerateConeError,
             ClassificationError, QuadratureError)


def fmt(x: float) -> str:
    """Fixed 17-significant-digit float formatting (deterministic output)."""
    return f"{float(x):.17g}"


def to_json(obj, indent: int = 0) -> str:
    """JSON with fmt() floats; dict order is preserved as written."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad_in}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v:
            return '"nan"'
        if v == float("inf"):
            return '"inf"'
        if v == float("-inf"):
            return '"-inf"'
        return fmt(v)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _stream(path: str | None, chunks):
    """Write text chunks one at a time to path, or to stdout."""
    with nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.writelines(chunks)


def _write(path: str | None, text: str):
    """Write text to path, or to stdout ending in a newline."""
    _stream(path, [text if path is not None or text.endswith("\n") else text + "\n"])


# -- green --------------------------------------------------------------------

def _csv_rows(t, s, rows):
    """CSV text of the table, one chunk per row; %.17g is the text of fmt()."""
    yield "t,s,G\n"
    template = "".join(f"\0,{fmt(sv)},%.17g\n" for sv in s)
    for tv, row in zip(t, rows):
        yield template.replace("\0", fmt(tv)) % tuple(row.tolist())


def _json_rows(params, t, s, rows):
    """The to_json() text of the table, one chunk per row of G."""
    head = to_json({"gamma": params.gamma, "lambda": params.lam, "t": list(t), "s": list(s)})
    template = "[\n" + ",\n".join(["      %.17g"] * len(s)) + "\n    ]"
    sep = head[:-len("\n}")] + ',\n  "G": [\n    '
    for row in rows:
        vals = row.tolist()
        yield sep + (template % tuple(vals) if np.isfinite(row).all() else to_json(vals, 2))
        sep = ",\n    "
    yield "\n  ]\n}\n"


def cmd_green(args) -> int:
    params = ProblemParams(args.gamma, args.lam)
    if args.n < 2:
        raise InputError(f"--n must be at least 2, got {args.n}")
    kernel = GreenKernel(params)
    t = np.linspace(0.0, 1.0, args.n)
    s = np.linspace(0.0, 1.0, args.n)
    # rows are evaluated as they are written, so only one is held at a time
    rows = (kernel.eval(tv, s) for tv in t)

    if args.format == "csv":
        _stream(args.output, _csv_rows(t, s, rows))
    elif args.format == "json":
        _stream(args.output, _json_rows(params, t, s, rows))
    else:
        title = f"G(t,s) for gamma={params.gamma:g}, lambda={params.lam:g}"
        _write(args.output, svgout.heatmap_svg(t, s, np.array(list(rows)), title))
    return 0


# -- delta --------------------------------------------------------------------

def cmd_delta(args) -> int:
    if args.steps < 1:
        raise InputError(f"--steps must be positive, got {args.steps}")
    for flag, value in (("--gamma-min", args.gamma_min), ("--gamma-max", args.gamma_max)):
        if not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value}")
    if args.gamma_max >= PI_SQ:
        raise DomainError(f"--gamma-max must be below pi^2, got {args.gamma_max}")
    if args.gamma_min > args.gamma_max:
        raise InputError("--gamma-min must not exceed --gamma-max")
    g = np.linspace(args.gamma_min, args.gamma_max, args.steps)
    d = np.array([delta(x) for x in g])
    if args.format == "csv":
        lines = ["gamma,delta"]
        lines.extend(f"{fmt(a)},{fmt(b)}" for a, b in zip(g, d))
        _write(args.output, "\n".join(lines) + "\n")
    elif args.format == "json":
        _write(args.output, to_json({"gamma": list(g), "delta": list(d)}) + "\n")
    else:
        _write(args.output, svgout.line_svg(
            g, [d], labels=["Delta(gamma)"],
            title="positivity frontier Delta(gamma)"))
    return 0


# -- classify -------------------------------------------------------------------

def cmd_classify(args) -> int:
    params = ProblemParams(args.gamma, args.lam)
    sign = classify_sign(params)
    payload = {
        "gamma": params.gamma,
        "lambda": params.lam,
        "classification": sign.kind,
        "source": sign.source,
        "lambda_zero_boundary": sign.lambda_zero_boundary,
    }
    if params.gamma < PI_SQ:
        payload["delta"] = delta(params.gamma)
    print(to_json(payload))
    return 0


# -- config ---------------------------------------------------------------------

_SOLVE_KEYS = {"gamma", "lambda", "f", "sigma", "side", "a", "b", "tol", "max_iter",
               "min_norm", "grid_n", "init_amplitudes", "svg"}


def read_config(path: str) -> dict:
    """Flat key = value config; '#' starts a comment; values may be quoted."""
    cfg: dict[str, str] = {}
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}")
    for ln, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InputError(f"{path}:{ln}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        if key not in _SOLVE_KEYS:
            raise InputError(f"{path}:{ln}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _number(key: str, raw, kind=float):
    """The config value raw of key as kind; a malformed value is an InputError."""
    try:
        return kind(raw)
    except ValueError:
        raise InputError(f"config key {key!r}: expected {kind.__name__}, got {raw!r}") from None


def _require(key: str, value, ok: bool, want: str):
    """An InputError naming config key unless ok."""
    if not ok:
        raise InputError(f"config key {key!r}: expected {want}, got {value!r}")


def _problem_from_config(cfg: dict) -> tuple[NonlinearProblem, SolveConfig, bool]:
    if "gamma" not in cfg or "lambda" not in cfg:
        raise InputError("config must set gamma and lambda")
    if "f" not in cfg:
        raise InputError("config must set f (an expression in t and u)")
    params = ProblemParams(_number("gamma", cfg["gamma"]), _number("lambda", cfg["lambda"]))
    f = parse_expr(cfg["f"])
    side = cfg.get("side", "right")
    interval = None
    if "a" in cfg or "b" in cfg:
        interval = (_number("a", cfg.get("a", 0.5)), _number("b", cfg.get("b", 1.0)))
    problem = NonlinearProblem(params, f, cone_interval=interval, side=side)
    solve_cfg = SolveConfig(
        tol=_number("tol", cfg.get("tol", 1e-8)),
        max_iter=_number("max_iter", cfg.get("max_iter", 500), int),
        min_norm=_number("min_norm", cfg.get("min_norm", 1e-4)),
        grid_n=_number("grid_n", cfg.get("grid_n", 201), int),
    )
    _require("tol", solve_cfg.tol, 0.0 < solve_cfg.tol < math.inf, "a finite value > 0")
    _require("max_iter", solve_cfg.max_iter, solve_cfg.max_iter >= 1, "an integer >= 1")
    _require("min_norm", solve_cfg.min_norm, 0.0 <= solve_cfg.min_norm < math.inf,
             "a finite value >= 0")
    if "init_amplitudes" in cfg:
        amps = tuple(_number("init_amplitudes", x)
                     for x in cfg["init_amplitudes"].split(",") if x.strip())
        if not amps:
            raise InputError("init_amplitudes must list at least one value")
        for a in amps:
            _require("init_amplitudes", a, 0.0 < a < math.inf, "finite values > 0")
        solve_cfg.init_amplitudes = amps
    want_svg = cfg.get("svg", "false").lower() in ("1", "true", "yes")
    return problem, solve_cfg, want_svg


# -- solve ----------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = read_config(args.config)
    problem, solve_cfg, want_svg = _problem_from_config(cfg)
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)

    result = solve_positive(problem, solve_cfg)
    prof = result.profile

    lines = ["t,u"]
    lines.extend(f"{fmt(t)},{fmt(u)}" for t, u in zip(prof.grid, prof.values))
    with open(os.path.join(outdir, "solution.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    report = {
        "gamma": problem.params.gamma,
        "lambda": problem.params.lam,
        "side": problem.side,
        "f": problem.f.source if hasattr(problem.f, "source") else str(problem.f),
        "converged": result.converged,
        "iterations": result.iterations,
        "tu_gap": result.tu_gap,
        "norm_inf": prof.norm_inf,
        "positive_interior": result.positive_interior,
        "outside_theorem": result.outside_theorem,
        "residuals": result.residual.to_dict(),
        "cone": result.cone.to_dict(),
        "classification": result.growth.to_dict() if result.growth else None,
        "sign": result.sign.kind if result.sign else None,
        "resonance": check_resonance(problem.params).to_dict(),
        "condition_f_nonnegative": problem.condition_f_ok(),
        "message": result.message,
        "passed": result.passed,
    }
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        fh.write(to_json(report) + "\n")

    if want_svg or args.svg:
        svg = svgout.line_svg(prof.grid, [prof.values], labels=["u(t)"],
                              title="positive solution profile")
        with open(os.path.join(outdir, "profile.svg"), "w") as fh:
            fh.write(svg)

    if not result.passed:
        print("solve finished but verification checks failed; see report.json",
              file=sys.stderr)
        return SOLVER_EXIT
    return 0


# -- verify ---------------------------------------------------------------------

def _read_solution_csv(path: str) -> SolutionProfile:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read solution file {path}: {exc}")
    if not lines or lines[0].replace(" ", "") != "t,u":
        raise InputError(f"{path}: expected header 't,u'")
    ts, us = [], []
    for ln, line in enumerate(lines[1:], start=2):
        try:
            a, b = line.split(",")
            ts.append(float(a))
            us.append(float(b))
        except ValueError:
            raise InputError(f"{path}:{ln}: malformed row {line!r}")
    try:
        profile = SolutionProfile(np.array(ts), np.array(us))
    except InputError as exc:
        raise InputError(f"{path}: {exc}")
    if not profile.is_uniform():
        raise InputError(f"{path}: verification requires a uniform grid")
    return profile


def cmd_verify(args) -> int:
    cfg = read_config(args.config)
    if "gamma" not in cfg or "lambda" not in cfg:
        raise InputError("config must set gamma and lambda")
    params = ProblemParams(_number("gamma", cfg["gamma"]), _number("lambda", cfg["lambda"]))
    profile = _read_solution_csv(args.solution)

    if "sigma" in cfg:
        sig_expr = parse_expr(cfg["sigma"])
        sigma = lambda tv: sig_expr.eval(tv)
        source = cfg["sigma"]
    elif "f" in cfg:
        f_expr = parse_expr(cfg["f"])
        sigma = lambda tv: f_expr.eval(tv, np.maximum(profile(tv), 0.0))
        source = cfg["f"]
    else:
        raise InputError("config must set either sigma (linear) or f (nonlinear)")

    side = cfg.get("side", "right")
    if side == "left":
        profile_std = profile.reflected()
        sigma_std = (lambda tv: sigma(1.0 - np.asarray(tv, dtype=float)))
        report = verify_solution(params, sigma_std, profile_std)
    else:
        report = verify_solution(params, sigma, profile)
    cone = cone_membership(profile if side == "right" else profile.reflected(), params)
    payload = {
        "gamma": params.gamma,
        "lambda": params.lam,
        "side": side,
        "source": source,
        "residuals": report.to_dict(),
        "cone": cone.to_dict(),
        "norm_inf": profile.norm_inf,
        "resonance": check_resonance(params).to_dict(),
    }
    _write(args.output, to_json(payload) + "\n")
    return 0


# -- entry ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="greenbvp",
                 description="Green's function tools for the nonlocal boundary value problem")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("green", help="tabulate G(t,s) on a grid")
    g.add_argument("--gamma", type=float, required=True)
    g.add_argument("--lambda", dest="lam", type=float, required=True)
    g.add_argument("--n", type=int, default=101)
    g.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    g.add_argument("-o", "--output", default=None)
    g.set_defaults(func=cmd_green)

    d = sub.add_parser("delta", help="tabulate the positivity frontier Delta(gamma)")
    d.add_argument("--gamma-min", type=float, required=True)
    d.add_argument("--gamma-max", type=float, required=True)
    d.add_argument("--steps", type=int, required=True)
    d.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    d.add_argument("-o", "--output", default=None)
    d.set_defaults(func=cmd_delta)

    c = sub.add_parser("classify", help="constant-sign classification of the kernel")
    c.add_argument("--gamma", type=float, required=True)
    c.add_argument("--lambda", dest="lam", type=float, required=True)
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("solve", help="search for a positive solution (config driven)")
    s.add_argument("config")
    s.add_argument("--output-dir", default=".")
    s.add_argument("--svg", action="store_true", help="also write profile.svg")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="residual-check a solution CSV against a config")
    v.add_argument("solution")
    v.add_argument("config")
    v.add_argument("-o", "--output", default=None)
    v.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SearchFailureError as exc:
        print(f"greenbvp: solver failure: {exc}", file=sys.stderr)
        return SOLVER_EXIT
    except ResonanceError as exc:
        print(f"greenbvp: resonance refusal: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(to_json(exc.report.to_dict()), file=sys.stderr)
        return REFUSAL_EXIT
    except _REFUSALS as exc:
        print(f"greenbvp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return REFUSAL_EXIT
    except (InputError, ExprSyntaxError) as exc:
        print(f"greenbvp: usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except GreenBVPError as exc:
        print(f"greenbvp: error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
