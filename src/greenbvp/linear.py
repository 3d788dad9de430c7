"""Kernel-based solution of the linear problem and residual verification.

solve_linear realizes u(t) = int_0^1 G(t,s) sigma(s) ds on a uniform grid;
verify_solution measures how well any profile satisfies the differential
equation (second-order central differences, one-sided at the endpoints)
and both boundary conditions, with the nonlocal integral evaluated by a
composite Simpson rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernel import GreenKernel
from .params import ProblemParams
from .profile import SolutionProfile
from .quadrature import KernelOperator, QuadratureRule, eval_on

__all__ = ["ResidualReport", "solve_linear", "verify_solution"]


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms of a candidate solution.

    ode_residual_inf: max |D2 u + gamma u + sigma| over interior grid points
    bc_left:          |u(0)|
    bc_right:         |u(1) - lam * int_0^1 u|
    integral_value:   int_0^1 u (Simpson)
    """

    ode_residual_inf: float
    bc_left: float
    bc_right: float
    integral_value: float

    def to_dict(self) -> dict:
        return {
            "ode_residual_inf": self.ode_residual_inf,
            "bc_left": self.bc_left,
            "bc_right": self.bc_right,
            "integral_value": self.integral_value,
        }


def solve_linear(params: ProblemParams, sigma, grid_n: int = 201,
                 rule: QuadratureRule | None = None) -> SolutionProfile:
    """Solve u'' + gamma u + sigma = 0 under the nonlocal conditions.

    Returns the profile of kernel row integrals on a uniform grid of
    grid_n points.  Resonant parameters are refused by the kernel.
    """
    if grid_n < 11:
        raise InputError(f"grid_n must be at least 11, got {grid_n}")
    grid = np.linspace(0.0, 1.0, grid_n)
    return SolutionProfile(grid, KernelOperator(GreenKernel(params), grid, rule).integrate(sigma))


def integrate_uniform(values: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid (3/8 rule patch for even counts)."""
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    if n < 3:
        return float(np.trapezoid(values, dx=h))
    if n % 2 == 0:
        return float(h / 3.0 * (values[0] + values[-1]
                                + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()))
    head = values[:-3]
    total = h * 3.0 / 8.0 * (values[-4] + 3.0 * values[-3] + 3.0 * values[-2] + values[-1])
    if len(head) >= 3:
        total += h / 3.0 * (head[0] + head[-1] + 4.0 * head[1:-1:2].sum()
                            + 2.0 * head[2:-2:2].sum())
    return float(total)


def verify_solution(params: ProblemParams, sigma, profile: SolutionProfile,
                    fd_h: float | None = None) -> ResidualReport:
    """Residual check of a profile against the defining equations.

    The profile grid must be uniform with at least 11 points; fd_h, when
    given, must match the grid spacing.
    """
    grid, u = profile.grid, profile.values
    if len(grid) < 11:
        raise InputError("verification grid too coarse; need at least 11 points")
    if not profile.is_uniform():
        raise InputError("verify_solution requires a uniform grid")
    h = float(grid[1] - grid[0])
    if fd_h is not None and abs(fd_h - h) > 1e-9 * h:
        raise InputError(f"fd_h={fd_h} does not match the grid spacing {h}")

    sig = eval_on(sigma, grid)
    d2 = np.empty_like(u)
    d2[1:-1] = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / h**2
    d2[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / h**2
    d2[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / h**2
    resid = d2 + params.gamma * u + sig

    integral = integrate_uniform(u, h)
    return ResidualReport(
        ode_residual_inf=float(np.max(np.abs(resid[1:-1]))),
        bc_left=float(abs(u[0])),
        bc_right=float(abs(u[-1] - params.lam * integral)),
        integral_value=float(integral),
    )
