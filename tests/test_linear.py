"""Kernel-based linear solves and residual verification."""
import math

import numpy as np
import pytest

from greenbvp.errors import InputError, ResonanceError
from greenbvp.kernel import GreenKernel
from greenbvp.linear import integrate_uniform, solve_linear, verify_solution
from greenbvp.params import ProblemParams
from greenbvp.profile import SolutionProfile
from greenbvp.quadrature import integrate_kernel_row


def exact_lam1(t):
    return -t**2 / 2 + 2 * t / 3


def test_solve_linear_closed_forms():
    p = ProblemParams(0.0, 1.0)
    prof = solve_linear(p, lambda s: np.ones_like(s), grid_n=201)
    assert np.max(np.abs(prof.values - exact_lam1(prof.grid))) < 1e-12
    assert prof(0.5) == pytest.approx(5 / 24, abs=1e-10)
    assert prof(1.0) == pytest.approx(1 / 6, abs=1e-10)

    prof0 = solve_linear(ProblemParams(0.0, 0.0), lambda s: np.ones_like(s), grid_n=101)
    assert np.max(np.abs(prof0.values - prof0.grid * (1 - prof0.grid) / 2)) < 1e-13

    profz = solve_linear(ProblemParams(-1.0, 1.0), lambda s: np.zeros_like(s), grid_n=101)
    assert profz.norm_inf == 0.0

    # sigma = sqrt(s) is singular at s = 0: u = (8/21) t - (4/15) t^(5/2), and
    # the row error must be smooth in t for the 1/h^2 stencil to see u
    profs = solve_linear(p, np.sqrt, grid_n=1001)
    g = profs.grid
    err = profs.values - (8.0 / 21.0 * g - 4.0 / 15.0 * g**2.5)
    assert np.max(np.abs(err)) <= 1e-12
    assert np.max(np.abs(err[:-2] - 2.0 * err[1:-1] + err[2:])) / (g[1] - g[0])**2 <= 1e-6


def test_solve_linear_validation():
    with pytest.raises(InputError):
        solve_linear(ProblemParams(0.0, 1.0), lambda s: s, grid_n=5)
    with pytest.raises(ResonanceError):
        solve_linear(ProblemParams(0.0, 2.0), lambda s: s, grid_n=51)


@pytest.mark.parametrize("gamma", [0.0, -4.0, 3.0])
def test_solve_linear_matches_row_by_row_integrals(gamma):
    p = ProblemParams(gamma, 0.9)
    sigma = lambda s: 1.3 + np.sin(4.0 * s + 0.7)
    prof = solve_linear(p, sigma, grid_n=301)
    kernel = GreenKernel(p)
    rows = np.array([integrate_kernel_row(kernel, t, sigma) for t in prof.grid])
    assert np.max(np.abs(prof.values - rows)) <= 1e-14 * np.max(np.abs(rows))


def test_solve_linear_scalar_only_sigma():
    p = ProblemParams(-4.0, 1.0)
    scalar = solve_linear(p, lambda s: math.cos(s), grid_n=21)
    vector = solve_linear(p, np.cos, grid_n=21)
    np.testing.assert_allclose(scalar.values, vector.values, rtol=0, atol=1e-15)


def test_linearity():
    p = ProblemParams(3.0, 0.8)
    s1 = lambda s: np.sin(2 * s)
    s2 = lambda s: s**2
    a, b = 1.7, -0.4
    u1 = solve_linear(p, s1, grid_n=101).values
    u2 = solve_linear(p, s2, grid_n=101).values
    u12 = solve_linear(p, lambda s: a * s1(s) + b * s2(s), grid_n=101).values
    assert np.max(np.abs(u12 - (a * u1 + b * u2))) < 1e-10


def test_verify_exact_profile():
    p = ProblemParams(0.0, 1.0)
    grid = np.linspace(0, 1, 1001)
    prof = SolutionProfile(grid, exact_lam1(grid))
    rep = verify_solution(p, lambda s: np.ones_like(s), prof)
    assert rep.ode_residual_inf < 1e-6
    assert rep.bc_left < 1e-10 and rep.bc_right < 1e-10
    assert rep.integral_value == pytest.approx(1 / 6, abs=1e-12)


def test_verify_zero_profile():
    p = ProblemParams(2.0, 0.5)
    grid = np.linspace(0, 1, 101)
    rep = verify_solution(p, lambda s: np.zeros_like(s), SolutionProfile(grid, np.zeros(101)))
    assert rep.ode_residual_inf == 0.0
    assert rep.bc_left == 0.0 and rep.bc_right == 0.0 and rep.integral_value == 0.0


def test_verify_perturbed_profile_detects_residual():
    gamma = 1.0
    p = ProblemParams(gamma, 0.5)
    grid = np.linspace(0, 1, 1001)
    base = solve_linear(p, lambda s: np.ones_like(s), grid_n=1001)
    eps = 1e-3
    prof = SolutionProfile(grid, base.values + eps * np.sin(math.pi * grid))
    rep = verify_solution(p, lambda s: np.ones_like(s), prof)
    # the perturbation contributes eps*(pi^2 - gamma)*sin(pi t) to the residual
    assert rep.ode_residual_inf >= eps * (math.pi ** 2 - gamma) * 0.99


def test_verify_validation():
    p = ProblemParams(0.0, 1.0)
    grid = np.linspace(0, 1, 9)
    with pytest.raises(InputError):
        verify_solution(p, lambda s: s, SolutionProfile(grid, np.zeros(9)))
    bad = np.concatenate([np.linspace(0, 0.5, 6), np.linspace(0.55, 1.0, 7)])
    with pytest.raises(InputError):
        verify_solution(p, lambda s: s, SolutionProfile(bad, np.zeros(13)))
    ok = np.linspace(0, 1, 21)
    with pytest.raises(InputError):
        verify_solution(p, lambda s: s, SolutionProfile(ok, np.zeros(21)), fd_h=0.01)


def test_integrate_uniform_order():
    grid = np.linspace(0, 1, 1001)
    h = grid[1] - grid[0]
    assert integrate_uniform(grid**2, h) == pytest.approx(1 / 3, abs=1e-14)
    assert integrate_uniform(np.sin(math.pi * grid), h) == pytest.approx(
        2 / math.pi, abs=1e-11)
    grid2 = np.linspace(0, 1, 1000)  # odd interval count path
    h2 = grid2[1] - grid2[0]
    assert integrate_uniform(np.exp(grid2), h2) == pytest.approx(math.e - 1, abs=1e-10)


def test_solve_matches_fd_oracle_single_case():
    from greenbvp.fdsolve import solve_fd_linear

    p = ProblemParams(-3.0, 1.2)
    sigma = lambda s: 1.0 + np.sin(3.0 * s)
    kern = solve_linear(p, sigma, grid_n=1002)
    orac = solve_fd_linear(p, sigma, n=1000)
    assert np.max(np.abs(kern.values - orac.values)) < 1e-5


def test_representation_passes_verification():
    p = ProblemParams(4.0, 0.9)
    sigma = lambda s: np.cos(2.0 * s) + 1.5
    prof = solve_linear(p, sigma, grid_n=401)
    rep = verify_solution(p, sigma, prof)
    # O(grid_n^-2) central-difference floor; bc_right carries the O(h^4)
    # Simpson floor of the verification integral itself
    assert rep.ode_residual_inf < 5e-4
    assert rep.bc_left < 1e-12 and rep.bc_right < 1e-10
