"""Checks of the program's outputs against references that share no code
with the program.

A solve is compared with a shooting solution of the boundary value problem;
a kernel table is checked against three properties of G that follow from its
definition.  Each check returns (ok, details); details holds the measured
distances so that the run record can show accuracy next to time.
"""
from __future__ import annotations

import json
import os

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

# Distances seen on correct output are in the comments; each bound leaves a
# wide margin above them and stays far below what a wrong answer gives (a
# solution scaled by 1 + 1e-4 is off by 1e-4 * ||u||, and one table row
# scaled by 1 + 1e-4 moves its second difference by about 1e-4 * G / h^2).
REF_DIFF_REL = 1e-6        # max |u - u_ref| / max |u_ref|; below 1e-7 seen
RESID_DIFF_MAX = 1e-5      # stencil residual difference, as criteria 7 and 8
G_ZERO_MAX = 1e-14         # max |G(0, s)|
SIMPSON_MAX = 1e-5         # max |G(1, s) - lam * Simpson_t G(t, s)|; about 2e-7 seen
ODE_MAX = 1e-5             # max |G_tt + gamma G| off the diagonal; about 2e-7 seen


def read_csv(path: str, header: str, ncols: int) -> np.ndarray:
    """Parse a numeric CSV with the given header line into an (rows, ncols) array."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first != header:
            raise ValueError(f"{path}: header {first[:40]!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != ncols:
        raise ValueError(f"{path}: {data.shape[1]} columns, expected {ncols}")
    return data


def shooting_reference(gamma: float, lam: float, f, grid: np.ndarray,
                       slope_guess: float) -> np.ndarray:
    """The exact solution on grid, by shooting on the slope u'(0).

    DOP853 at rtol 1e-13 integrates u'' = -gamma*u - f(t, u) together with
    w' = u, and brentq zeroes the miss u(1) - lam*w(1) inside a +-10% bracket
    around slope_guess; the guess only selects the solution branch.
    """
    def rhs(t, y):
        return [y[1], -gamma * y[0] - f(t, y[0]), y[0]]

    def shoot(slope, dense=False):
        return solve_ivp(rhs, (0.0, 1.0), [0.0, slope, 0.0], method="DOP853",
                         rtol=1e-13, atol=1e-13, dense_output=dense)

    def miss(slope):
        u1, _, w1 = shoot(slope).y[:, -1]
        return u1 - lam * w1

    lo, hi = sorted((0.9 * slope_guess, 1.1 * slope_guess))
    slope = brentq(miss, lo, hi, xtol=1e-15, rtol=1e-15)
    return shoot(slope, dense=True).sol(grid)[0]


def stencil_residual(gamma: float, f, grid: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Central-difference residual u'' + gamma*u + f(t, u) at the interior nodes."""
    h = grid[1] - grid[0]
    t_in = grid[1:-1]
    f_in = np.array([f(t, v) for t, v in zip(t_in, u[1:-1])])
    return (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2 + gamma * u[1:-1] + f_in


def check_solve(outdir: str, gamma: float, lam: float, f, grid_n: int) -> tuple[bool, dict]:
    """Check solution.csv and report.json of one `greenbvp solve`."""
    with open(os.path.join(outdir, "report.json")) as fh:
        report = json.load(fh)
    data = read_csv(os.path.join(outdir, "solution.csv"), "t,u", 2)
    grid, u = data[:, 0], data[:, 1]
    details = {"passed": report.get("passed"), "iterations": report.get("iterations"),
               "tu_gap": report.get("tu_gap"), "norm_inf": report.get("norm_inf")}
    expected_grid = np.linspace(0.0, 1.0, grid_n)
    if grid.shape != expected_grid.shape or np.max(np.abs(grid - expected_grid)) > 1e-15:
        details["error"] = "solution grid is not linspace(0, 1, grid_n)"
        return False, details
    slope_guess = (u[1] - u[0]) / (grid[1] - grid[0])
    try:
        u_ref = shooting_reference(gamma, lam, f, grid, slope_guess)
    except ValueError as exc:  # brentq: no sign change in the bracket
        details["error"] = f"shooting reference failed: {exc}"
        return False, details
    ref_diff = float(np.max(np.abs(u - u_ref)))
    resid_diff = float(np.max(np.abs(stencil_residual(gamma, f, grid, u)
                                     - stencil_residual(gamma, f, grid, u_ref))))
    details.update(ref_diff=ref_diff, resid_diff=resid_diff,
                   ref_norm=float(np.max(np.abs(u_ref))))
    ok = (report.get("passed") is True and ref_diff <= REF_DIFF_REL * details["ref_norm"]
          and resid_diff <= RESID_DIFF_MAX)
    return ok, details


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights on n points (n odd)."""
    if n % 2 == 0:
        raise ValueError("Simpson's rule needs an odd number of points")
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * h / 3.0


def check_table(path: str, gamma: float, lam: float, n: int) -> tuple[bool, dict]:
    """Check a `greenbvp green --format csv` table of G on an n x n grid."""
    data = read_csv(path, "t,s,G", 3)
    if data.shape[0] != n * n:
        return False, {"error": f"{data.shape[0]} rows, expected {n * n}"}
    axis = np.linspace(0.0, 1.0, n)
    grid_err = max(float(np.max(np.abs(data[:, 0] - np.repeat(axis, n)))),
                   float(np.max(np.abs(data[:, 1] - np.tile(axis, n)))))
    G = data[:, 2].reshape(n, n)          # G[i, j] = G(t_i, s_j)
    h = axis[1] - axis[0]
    g0 = float(np.max(np.abs(G[0])))
    simpson = float(np.max(np.abs(G[-1] - lam * (simpson_weights(n, h) @ G))))
    d2 = (G[:-2] - 2.0 * G[1:-1] + G[2:]) / h**2 + gamma * G[1:-1]
    i, j = np.indices(d2.shape)
    off_diagonal = np.abs((i + 1) - j) > 1
    ode = float(np.max(np.abs(d2[off_diagonal])))
    interior_min = float(np.min(G[1:, 1:-1]))
    details = {"grid_err": grid_err, "g0": g0, "simpson": simpson, "ode": ode,
               "interior_min": interior_min}
    ok = (grid_err <= 1e-15 and g0 <= G_ZERO_MAX and simpson <= SIMPSON_MAX
          and ode <= ODE_MAX and interior_min > 0.0)
    return ok, details
