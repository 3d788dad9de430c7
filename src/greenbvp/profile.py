"""Grid-sampled functions on [0,1] with cubic interpolation.

Kept free of any kernel imports so the finite-difference oracle can share
the type without reaching Green's function code.
"""
from __future__ import annotations

import numpy as np

from .errors import InputError


class SolutionProfile:
    """A function u on [0,1] stored as grid values, evaluated by cubic spline.

    The grid must be strictly increasing and include both endpoints.
    """

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise InputError("grid and values must be 1-d arrays of equal length")
        if len(grid) < 4:
            raise InputError("profile needs at least 4 points for cubic interpolation")
        if grid[0] != 0.0 or grid[-1] != 1.0:
            raise InputError("profile grid must start at 0 and end at 1")
        if np.any(np.diff(grid) <= 0):
            raise InputError("profile grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise InputError("profile values must be finite")
        self.grid = grid
        self.values = values
        self._spline = None

    @property
    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __call__(self, x):
        if self._spline is None:
            from scipy.interpolate import CubicSpline
            self._spline = CubicSpline(self.grid, self.values)
        out = self._spline(np.asarray(x, dtype=float))
        if np.isscalar(x):
            return float(out)
        return out

    def is_uniform(self, rtol: float = 1e-9) -> bool:
        d = np.diff(self.grid)
        return bool(np.max(np.abs(d - d[0])) <= rtol * d[0])

    def reflected(self) -> "SolutionProfile":
        """The profile of t -> u(1-t)."""
        return SolutionProfile(1.0 - self.grid[::-1], self.values[::-1])

    def __repr__(self):
        return (f"SolutionProfile(n={len(self.grid)}, "
                f"norm_inf={self.norm_inf:.6g})")
