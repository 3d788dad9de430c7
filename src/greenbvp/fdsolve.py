"""Finite-difference collocation oracle, independent of the kernel code.

Discretizes u'' + gamma*u + sigma(t) = 0 (or + f(t,u) = 0) on a uniform
grid with n interior points, h = 1/(n+1), by second-order central
differences.  The first row pins u(0) = 0; the last carries the nonlocal
condition u(1) = lam * trapezoid(u), which couples that row to every
unknown:

    [ 1/h^2                              ] [u_0  ]   [ 0        ]
    [ 1/h^2  g-2/h^2  1/h^2              ] [u_1  ]   [ -sigma_1 ]
    [        ...                         ] [ ... ] = [  ...     ]
    [              1/h^2  g-2/h^2  1/h^2 ] [u_n  ]   [ -sigma_n ]
    [ -lw_0  -lw_1   ...    -lw_n  1-lw_N] [u_N  ]   [ 0        ]

with lw = lam * trapezoid weights.  The dense row is eliminated by a
Sherman-type reduction: one LAPACK tridiagonal LU (scipy's solve_banded)
solves the leading block for both the right-hand side and the border
column, then a scalar equation gives the border unknown in O(n).
side="left", the conditions u(0) = lam * int u, u(1) = 0, is solved as the
right-hand problem reflected by t -> 1 - t.

Deliberately imports nothing from the kernel modules so that agreement
between this solver and the Green's function route is meaningful evidence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResonanceError, SearchFailureError
from .params import ProblemParams
from .profile import SolutionProfile

__all__ = ["FDSystem", "solve_fd_linear", "solve_fd_newton"]

_SINGULAR_SYSTEM = ("discrete system is singular (border pivot {:.3e}); "
                    "parameters are at or near resonance")
_SINGULAR_NEWTON = "Newton linearization is singular (border pivot {:.3e})"


def _check_side(side: str):
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")


@dataclass
class FDSystem:
    """Assembled discretization: tridiagonal part plus one dense border row.

    The three diagonals cover the n+1 block rows over u_0..u_n (lower[0]
    and upper[-1] are unused); the border unknown u_{n+1} has its column
    in border_col and the dense trapezoid row border_row.  border_pos is
    the border unknown's index in the solution: n+1, or 0 for side="left",
    whose system is held reflected and whose solution solve() reverses.
    """

    n: int
    h: float
    grid: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    border_col: np.ndarray
    border_row: np.ndarray
    border_pos: int
    rhs: np.ndarray

    def solve(self, border_rhs: float = 0.0, singular: str = _SINGULAR_SYSTEM) -> np.ndarray:
        """Sherman-type reduction: one banded LU for two right-hand sides, then a scalar.

        border_rhs is the right-hand side of the border row; singular is
        the message of the ResonanceError for a vanishing border pivot.
        """
        from scipy.linalg import LinAlgError, solve_banded

        ab = np.zeros((3, self.n + 1))
        ab[0, 1:] = self.upper[:-1]
        ab[1] = self.diag
        ab[2, :-1] = self.lower[1:]
        try:
            pq = solve_banded((1, 1), ab, np.column_stack((self.rhs, -self.border_col)),
                              overwrite_ab=True, overwrite_b=True, check_finite=False)
        except LinAlgError:
            raise ResonanceError("singular tridiagonal block (zero pivot)") from None
        p, q = pq[:, 0], pq[:, 1]
        w_other, w_self = self.border_row[:-1], self.border_row[-1]
        den = w_self + w_other @ q
        if abs(den) < 1e-12 * max(1.0, float(np.max(np.abs(self.border_row)))):
            raise ResonanceError(singular.format(den))
        u_border = (border_rhs - w_other @ p) / den
        u = np.append(p + q * u_border, u_border)
        return u[::-1] if self.border_pos == 0 else u


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 2, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _assemble(params: ProblemParams, sigma_vals: np.ndarray, n: int,
              side: str, diag_shift: np.ndarray | None = None) -> FDSystem:
    if n < 3:
        raise InputError(f"need at least 3 interior points, got {n}")
    _check_side(side)
    h = 1.0 / (n + 1)
    grid = np.linspace(0.0, 1.0, n + 2)

    # Block rows: u(0) = 0, then the n interior rows; the border unknown
    # u_{n+1} enters only the last one, through border_col.  The first row
    # is scaled like the stencil rows, so that partial pivoting in the LU
    # leaves the rows in order and the solve as accurate as a plain sweep.
    inner = params.gamma - 2.0 / h**2
    if diag_shift is not None:
        inner = inner + diag_shift
    diag = np.empty(n + 1)
    diag[0] = 1.0 / h**2
    diag[1:] = inner
    lower = np.full(n + 1, 1.0 / h**2)
    lower[0] = 0.0
    upper = np.full(n + 1, 1.0 / h**2)
    upper[0] = upper[-1] = 0.0
    border_col = np.zeros(n + 1)
    border_col[-1] = 1.0 / h**2
    border_row = -params.lam * _trapezoid_weights(n, h)
    border_row[-1] += 1.0                                # u_N - lam*trap(u) = 0

    rhs = np.zeros(n + 1)
    rhs[1:] = -(sigma_vals if side == "right" else sigma_vals[::-1])
    return FDSystem(n=n, h=h, grid=grid, lower=lower, diag=diag, upper=upper,
                    border_col=border_col, border_row=border_row,
                    border_pos=n + 1 if side == "right" else 0, rhs=rhs)


def _eval_on(f, t: np.ndarray) -> np.ndarray:
    # quadrature.eval_on does the same; the oracle imports no Green's-function code
    try:
        out = np.asarray(f(t), dtype=float)
        if out.shape != t.shape:
            raise TypeError
        return out
    except (TypeError, ValueError):
        return np.array([float(f(x)) for x in t])


def solve_fd_linear(params: ProblemParams, sigma, n: int, side: str = "right") -> SolutionProfile:
    """Direct solve of the discretized linear problem with n interior points."""
    if n < 50:
        raise InputError(f"oracle resolution too low: n={n} < 50")
    grid = np.linspace(0.0, 1.0, n + 2)
    sigma_vals = _eval_on(sigma, grid[1:-1])
    return SolutionProfile(grid, _assemble(params, sigma_vals, n, side).solve())


def solve_fd_newton(params: ProblemParams, f, n: int, u0: SolutionProfile | np.ndarray | None,
                    tol: float = 1e-10, max_iter: int = 60, side: str = "right",
                    damping: float = 1.0, clip_negative: bool = True) -> SolutionProfile:
    """Newton iteration on the discrete residual of u'' + gamma u + f(t,u) = 0.

    f is a plain callable f(t, u) operating on arrays; its u-derivative is
    estimated by central differences.  u0 seeds the iteration (zero profile
    when omitted).  Steps are backtracked by halving, at most 12 times,
    while they fail to reduce the residual; a run that needs more is
    crawling toward a nonzero minimum of max|F| and stops as stalled.
    Convergence is `max|F| < tol`.
    """
    if n < 10:
        raise InputError(f"need at least 10 interior points, got {n}")
    _check_side(side)
    if side == "left":
        # the right-hand problem in s = 1 - t, solved on the same grid
        if isinstance(u0, SolutionProfile):
            u0 = u0(np.linspace(0.0, 1.0, n + 2))
        if u0 is not None:
            u0 = np.asarray(u0, dtype=float)[::-1]
        prof = solve_fd_newton(params, lambda t, u: f(1.0 - t, u), n, u0, tol=tol,
                               max_iter=max_iter, damping=damping,
                               clip_negative=clip_negative)
        return SolutionProfile(prof.grid, prof.values[::-1])
    h = 1.0 / (n + 1)
    grid = np.linspace(0.0, 1.0, n + 2)
    lam = params.lam
    wtrap = lam * _trapezoid_weights(n, h)

    if u0 is None:
        u = np.zeros(n + 2)
    elif isinstance(u0, SolutionProfile):
        u = u0(grid)
    else:
        u = np.asarray(u0, dtype=float).copy()
        if u.shape != grid.shape:
            raise InputError(f"u0 must have {n + 2} values, got {u.shape}")

    def fval(tv, uv):
        ueff = np.maximum(uv, 0.0) if clip_negative else uv
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(f(tv, ueff), dtype=float)

    def residual(uv):
        F = np.empty(n + 2)
        F[0] = uv[0]
        F[1:-1] = (uv[:-2] - 2.0 * uv[1:-1] + uv[2:]) / h**2 + params.gamma * uv[1:-1] \
            + fval(grid[1:-1], uv[1:-1])
        F[-1] = uv[-1] - wtrap @ uv
        return F

    def dfdu(tv, uv):
        """Central-difference u-derivative, one-sided against the u >= 0 clip."""
        base = np.maximum(uv, 0.0) if clip_negative else uv
        step = 1e-7 * np.maximum(1.0, np.abs(base))
        lo = np.maximum(base - step, 0.0) if clip_negative else base - step
        with np.errstate(over="ignore", invalid="ignore"):
            hi_v = np.asarray(f(tv, base + step), dtype=float)
            lo_v = np.asarray(f(tv, lo), dtype=float)
        return (hi_v - lo_v) / (base + step - lo)

    def rnorm(F):
        return float(np.max(np.abs(F))) if np.all(np.isfinite(F)) else np.inf

    F = residual(u)
    best = rnorm(F)
    for _ in range(max_iter):
        cur = rnorm(F)
        best = min(best, cur)
        if cur < tol:
            return SolutionProfile(grid, u)
        shift = dfdu(grid[1:-1], u[1:-1])
        if not np.all(np.isfinite(shift)):
            raise SearchFailureError("fd Newton Jacobian is not finite", best_residual=best)
        system = _assemble(params, np.zeros(n), n, "right", diag_shift=shift)
        # block rows take the non-border residual; the border one enters the
        # scalar stage directly
        system.rhs = -F[:-1]
        system.rhs[0] /= h**2
        step_vec = system.solve(-F[-1], _SINGULAR_NEWTON)

        alpha = damping
        accepted = False
        for _ in range(12):
            trial = u + alpha * step_vec
            Ft = residual(trial)
            if rnorm(Ft) < cur:
                u, F = trial, Ft
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise SearchFailureError(
                f"fd Newton stalled at residual {cur:.3e}", best_residual=best)
    final = rnorm(residual(u))
    if final < tol:
        return SolutionProfile(grid, u)
    raise SearchFailureError(
        f"fd Newton did not converge in {max_iter} iterations "
        f"(residual {final:.3e})", best_residual=min(best, final))
