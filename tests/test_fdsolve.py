"""Finite-difference oracle: accuracy, resonance detection, independence."""
import ast
import math
import pathlib

import numpy as np
import pytest

from greenbvp.errors import InputError, ResonanceError, SearchFailureError
from greenbvp.fdsolve import solve_fd_linear, solve_fd_newton
from greenbvp.params import ProblemParams


def test_linear_closed_forms():
    p = ProblemParams(0.0, 1.0)
    prof = solve_fd_linear(p, lambda t: np.ones_like(t), 1000)
    assert prof(0.5) == pytest.approx(-0.125 + 2 / 3 * 0.5, abs=1e-6)

    prof0 = solve_fd_linear(ProblemParams(0.0, 0.0), lambda t: np.ones_like(t), 1000)
    assert prof0(0.5) == pytest.approx(0.125, abs=1e-6)

    profz = solve_fd_linear(ProblemParams(1.0, 0.5), lambda t: np.zeros_like(t), 200)
    assert profz.norm_inf == 0.0


def test_left_variant_closed_form():
    # u'' + 1 = 0, u(0) = int u, u(1) = 0  =>  u = -t^2/2 + t/3 + 1/6
    p = ProblemParams(0.0, 1.0)
    prof = solve_fd_linear(p, lambda t: np.ones_like(t), 1000, side="left")
    exact = -prof.grid**2 / 2 + prof.grid / 3 + 1 / 6
    assert np.max(np.abs(prof.values - exact)) < 1e-6


def test_order_of_accuracy():
    B = (1 - math.cos(1)) / math.sin(1)
    errs = []
    ns = [100, 200, 400, 800]
    for n in ns:
        prof = solve_fd_linear(ProblemParams(1.0, 0.0), lambda t: np.ones_like(t), n)
        exact = np.cos(prof.grid) + B * np.sin(prof.grid) - 1.0
        errs.append(np.max(np.abs(prof.values - exact)))
    slope = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_near_resonance_raises():
    with pytest.raises(ResonanceError):
        solve_fd_linear(ProblemParams(0.0, 2.0), lambda t: np.ones_like(t), 200)


def test_validation():
    with pytest.raises(InputError):
        solve_fd_linear(ProblemParams(0.0, 1.0), lambda t: t, 20)
    with pytest.raises(InputError):
        solve_fd_linear(ProblemParams(0.0, 1.0), lambda t: t, 100, side="middle")


def test_newton_zero_nonlinearity():
    p = ProblemParams(0.0, 1.0)
    prof = solve_fd_newton(p, lambda t, u: np.zeros_like(t), 100,
                           np.linspace(0, 1, 102))
    assert prof.norm_inf < 1e-12


def test_newton_reduces_to_linear():
    p = ProblemParams(-2.0, 0.7)
    sigma = lambda t: 1.0 + t
    lin = solve_fd_linear(p, sigma, 400)
    newt = solve_fd_newton(p, lambda t, u: sigma(t), 400, None, tol=1e-11)
    assert np.max(np.abs(lin.values - newt.values)) < 1e-10


def test_newton_sublinear_positive_profile():
    p = ProblemParams(0.0, 1.0)
    prof = solve_fd_newton(p, lambda t, u: np.sqrt(np.maximum(u, 0.0)), 800,
                           0.1 * np.linspace(0, 1, 802), tol=3e-9, max_iter=100)
    assert prof.norm_inf == pytest.approx(0.04057, abs=3e-4)
    assert np.all(prof.values[1:-1] > 0)


def test_newton_divergence_reports_failure():
    p = ProblemParams(0.0, 1.0)
    f = lambda t, u: np.exp(np.minimum(u, 600.0)) * 50.0
    with pytest.raises(SearchFailureError):
        solve_fd_newton(p, f, 100, 100.0 * np.linspace(0, 1, 102), max_iter=25)


def test_system_shape_and_trapezoid_weights():
    from greenbvp.fdsolve import _assemble, _trapezoid_weights

    n = 50
    w = _trapezoid_weights(n, 1.0 / (n + 1))
    assert len(w) == n + 2
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    sys_ = _assemble(ProblemParams(0.0, 1.0), np.ones(n), n, "right")
    assert len(sys_.grid) == n + 2
    assert sys_.border_pos == n + 1
    assert len(sys_.border_row) == n + 2


def test_oracle_is_structurally_independent_of_the_kernel():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "greenbvp" / "fdsolve.py"
    tree = ast.parse(src.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("greenbvp"):
                    imported.add(alias.name.split(".", 1)[-1])
    assert imported <= {"errors", "params", "profile"}, imported


def _dense_bordered_solve(params, sigma_vals, n, side):
    """np.linalg.solve of the full (n+2)-square system, border row and all."""
    from greenbvp.fdsolve import _trapezoid_weights

    h = 1.0 / (n + 1)
    A = np.zeros((n + 2, n + 2))
    b = np.zeros(n + 2)
    rows = np.arange(1, n + 1)
    A[rows, rows - 1] = A[rows, rows + 1] = 1.0 / h**2
    A[rows, rows] = params.gamma - 2.0 / h**2
    b[rows] = -sigma_vals
    dirichlet, border = (0, n + 1) if side == "right" else (n + 1, 0)
    # the Dirichlet row at the stencil rows' scale keeps the pivoting LU accurate
    A[dirichlet, dirichlet] = 1.0 / h**2
    A[border] = -params.lam * _trapezoid_weights(n, h)
    A[border, border] += 1.0
    return np.linalg.solve(A, b)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("gamma", [-1e4, -4.0, 0.0, 3.0, 9.0])
def test_linear_matches_dense_bordered_solve(side, gamma):
    n = 50
    sigma = lambda t: 1.0 + t**2
    for lam in (0.0, 0.5, 1.5):
        p = ProblemParams(gamma, lam)
        prof = solve_fd_linear(p, sigma, n, side=side)
        ref = _dense_bordered_solve(p, sigma(prof.grid[1:-1]), n, side)
        assert np.max(np.abs(prof.values - ref)) <= 1e-12 * np.max(np.abs(ref)), lam


def test_newton_left_is_the_reflected_right_solve():
    p = ProblemParams(0.0, 1.0)
    f = lambda t, u: t * u**3 + np.exp(t * u) - 1.0
    grid = np.linspace(0.0, 1.0, 202)
    seed = 4.0 * grid                      # reaches the nontrivial solution, norm 2.936
    left = solve_fd_newton(p, lambda t, u: f(1.0 - t, u), 200, seed[::-1],
                           tol=1e-8, side="left")
    right = solve_fd_newton(p, f, 200, seed, tol=1e-8)
    assert np.array_equal(left.grid, right.grid)
    assert np.max(np.abs(left.values[::-1] - right.values)) <= 1e-12 * right.norm_inf
    assert right.norm_inf == pytest.approx(2.936, abs=1e-3)


def test_singular_block_raises_resonance_error():
    from greenbvp.fdsolve import _assemble

    n = 50
    system = _assemble(ProblemParams(0.0, 1.0), np.ones(n), n, "right")
    system.lower[5] = system.diag[5] = system.upper[5] = 0.0
    with pytest.raises(ResonanceError, match="singular tridiagonal block"):
        system.solve()


def test_newton_gives_up_a_crawl():
    # from 10*t the superlinear criterion-7 problem crawls toward a nonzero
    # minimum of max|F|: each step needs more halvings than the last, so the
    # run must stop at the 12-halving bound instead of creeping on
    calls = []

    def f(t, u):
        calls.append(1)
        u = np.maximum(u, 0.0)
        return t * u**3 + np.exp(t * u) - 1.0

    grid = np.linspace(0.0, 1.0, 202)
    with pytest.raises(SearchFailureError, match="stalled"):
        solve_fd_newton(ProblemParams(0.0, 1.0), f, 200, 10.0 * grid, tol=1e-9, damping=0.5)
    assert len(calls) <= 200
