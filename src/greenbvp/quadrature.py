"""Composite Gauss-Legendre quadrature on [0,1] and the discretized kernel rows.

The kernel-weighted integrands have a derivative kink along s = t, so the
row integrals always place a panel boundary at s = t.  Smooth pieces are
then integrated to near machine precision by a handful of Gauss panels.
The endpoint s = 0 is not always smooth: where u(0) = 0 and f = sqrt(u),
the integrand behaves like s^(3/2) there.  Row integrals therefore also
grade the first panel geometrically toward s = 0, with a layout that is
the same for every row apart from the cut at s = t.

One KernelOperator holds these rows for a whole grid.  It serves the
linear solve, the fixed-point operator T of the nonlinear solver and the
Jacobian of its Newton iteration.  As the rows share their layout, it
evaluates integrands once per distinct node and sums them into the rows
with one sparse matrix W: T u = W f(points, P u), a product-Nystrom form
(Atkinson, The Numerical Solution of Integral Equations of the Second
Kind, 1997, ch. 4).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, QuadratureError

__all__ = ["KernelOperator", "QuadratureRule", "integrate", "integrate_kernel_row"]

# Kernel rows grade the first panel toward s = 0 by these fixed steps: the
# piece next to s = 0 is 2^-8 of the first panel.
_GRADED_PANELS = 8
_GRADING_RATIO = 0.5

# KernelOperator evaluates the kernel on this many rows per call: one call
# per row is slow, and one call on every node holds all its temporaries
_ROW_BLOCK = 128

_leggauss_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _leggauss(order: int):
    if order not in _leggauss_cache:
        _leggauss_cache[order] = np.polynomial.legendre.leggauss(order)
    return _leggauss_cache[order]


@dataclass(frozen=True)
class QuadratureRule:
    """panels x nodes_per_panel Gauss-Legendre nodes, split at split_points.

    The panel count stays fixed: the panels are distributed over the
    sub-intervals between split points proportionally to length (each
    sub-interval gets at least one), so the total node count is always
    panels * nodes_per_panel.  Kernel rows (row_nodes_weights) add the
    graded panels at s = 0 and the cut at s = t to this layout.
    """

    panels: int = 16
    nodes_per_panel: int = 8
    split_points: tuple = ()

    def __post_init__(self):
        if self.panels < 1:
            raise InputError(f"panels must be >= 1, got {self.panels}")
        if self.nodes_per_panel < 1:
            raise InputError(f"nodes_per_panel must be >= 1, got {self.nodes_per_panel}")
        pts = tuple(float(p) for p in self.split_points)
        for p in pts:
            if not (0.0 < p < 1.0):
                raise InputError(f"split points must lie in (0,1), got {p}")
        object.__setattr__(self, "split_points", tuple(sorted(set(pts))))

    def _panel_edges(self) -> np.ndarray:
        """Panel edges on [0,1], spread over the split intervals by length."""
        bounds = np.array([0.0, *self.split_points, 1.0])
        lengths = np.diff(bounds)
        k = len(lengths)
        if k > self.panels:
            raise InputError(
                f"{k - 1} split points need at least {k} panels, rule has {self.panels}")
        counts = np.maximum(1, np.floor(lengths * self.panels).astype(int))
        while counts.sum() > self.panels:
            counts[np.argmax(counts)] -= 1
        while counts.sum() < self.panels:
            counts[np.argmax(lengths / counts)] += 1
        pieces = [np.linspace(a, b, c + 1)[:-1]
                  for a, b, c in zip(bounds[:-1], bounds[1:], counts)]
        return np.concatenate(pieces + [np.array([1.0])])

    def nodes_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """All nodes and weights on [0,1]; weights sum to 1."""
        return _gauss_panels(self._panel_edges(), self.nodes_per_panel)

    def row_nodes_weights(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights for the kernel row at t; weights sum to 1.

        Every row uses one layout: this rule's panels, with the first one
        graded geometrically toward s = 0, and only the panel that contains
        t cut at t.  Integrands that behave like s^(3/2) at s = 0 (f =
        sqrt(u) on a solution with u(0) = 0) are then integrated to
        rounding level, and the little error left varies smoothly with t,
        so second differences across rows stay small.
        """
        edges = self._row_edges
        i = int(np.searchsorted(edges, t))
        if 0.0 < t < 1.0 and edges[i] != t:
            edges = np.insert(edges, i, t)
        return _gauss_panels(edges, self.nodes_per_panel)

    @cached_property
    def _row_edges(self) -> np.ndarray:
        """The panel edges shared by every kernel row, before the cut at t."""
        edges = self._panel_edges()
        graded = edges[1] * _GRADING_RATIO ** np.arange(_GRADED_PANELS, 0, -1)
        return np.concatenate(([0.0], graded, edges[1:]))


def _gauss_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the given order on each panel."""
    x0, w0 = _leggauss(order)
    lo = edges[:-1, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (half * (x0 + 1.0) + lo).ravel(), (half * w0).ravel()


def eval_on(f, x: np.ndarray) -> np.ndarray:
    """f at the points x: one call on the array, else one call per scalar."""
    try:
        out = np.asarray(f(x), dtype=float)
        if out.shape != x.shape:
            raise TypeError
        return out
    except (TypeError, ValueError):
        return np.array([float(f(v)) for v in x])


def integrate(f, rule: QuadratureRule | None = None) -> float:
    """Integral of f over [0,1] with the given (or default) rule."""
    nodes, weights = (rule or QuadratureRule()).nodes_weights()
    vals = eval_on(f, nodes)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][0]
        raise QuadratureError(f"integrand returned a non-finite value at s={bad!r}", node=bad)
    return float(weights @ vals)


class KernelOperator:
    """The kernel rows int_0^1 G(t_i, s) . ds of every grid point t_i, discretized.

    Row i uses the nodes and weights of rule.row_nodes_weights(t_i), the
    weights multiplied by G(t_i, node).  Rows differ in length, so the nodes
    of all rows are stored flat, with rows[k] the grid index of node k.

    Rows share one panel layout and differ only in the panel cut at t_i:
    points holds the layout's nodes, then each cut row's two half panels,
    and points[index] == nodes byte for byte, since a panel that a row does
    not cut has the same edges, and so the same nodes, in every row.

    W, the CSR matrix of gw at (rows, index), shares both arrays and keeps
    each row's columns in node order, repeats unmerged: W @ v then adds the
    terms gw_k v[index_k] in node order, byte for byte as np.bincount does.
    """

    def __init__(self, kernel, grid, rule: QuadratureRule | None = None):
        from scipy.sparse import csr_array
        rule = rule or QuadratureRule()
        self.grid = np.asarray(grid, dtype=float)
        nodes, weights = zip(*[rule.row_nodes_weights(float(t)) for t in self.grid])
        self.rows = np.repeat(np.arange(len(self.grid)), [len(x) for x in nodes])
        self.nodes, self.gw = np.concatenate(nodes), np.concatenate(weights)
        starts = np.searchsorted(self.rows, np.arange(0, len(self.grid), _ROW_BLOCK))
        for a, b in zip(starts, [*starts[1:], len(self.nodes)]):
            self.gw[a:b] *= kernel.eval(self.grid[self.rows[a:b]], self.nodes[a:b])
        k, edges = rule.nodes_per_panel, rule._row_edges
        shared = _gauss_panels(edges, k)[0]
        n0 = len(shared)
        lengths = np.bincount(self.rows, minlength=len(self.grid))
        cut = lengths > n0
        # a cut row runs through shared points, its own half panels, shared points
        lo = np.where(cut, k * (np.searchsorted(edges, self.grid) - 1), n0)
        self.points = np.concatenate(
            [shared] + [x[a:a + 2 * k] for x, a, c in zip(nodes, lo, cut) if c])
        del nodes, weights
        runs = np.c_[lo, 2 * k * cut, n0 - lo - k * cut]
        start = np.cumsum(lengths) - lengths
        shifts = np.c_[-start, n0 + 2 * k * (np.cumsum(cut) - 1) - lo - start, -k - start]
        self.index = np.repeat(shifts.ravel(), runs.ravel())
        self.index += np.arange(len(self.index))
        self.W = csr_array((self.gw, self.index, np.r_[0, np.cumsum(lengths)]),
                           shape=(len(self.grid), len(self.points)))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """W @ values: the row integrals of values given at the points."""
        return self.W @ values

    def integrate(self, sigma) -> np.ndarray:
        """int_0^1 G(t_i, s) sigma(s) ds for every t_i; sigma may be scalar-only.

        A non-finite integrand raises QuadratureError naming the node.
        """
        sig = eval_on(sigma, self.points)
        finite = np.isfinite(self.gw * sig[self.index])
        if not np.all(finite):
            bad = self.nodes[~finite][0]
            raise QuadratureError(f"kernel row integrand non-finite at s={bad!r}", node=bad)
        return self.apply(sig)

    def sample(self, values: np.ndarray) -> np.ndarray:
        """The cubic spline through (grid, values) at the points, clipped at zero."""
        from scipy.interpolate import CubicSpline
        return np.maximum(CubicSpline(self.grid, values)(self.points), 0.0)

    def hat_projection(self, values: np.ndarray) -> np.ndarray:
        """The matrix A[i, j] = sum over row i of gw_k values_k hat_j(node_k).

        hat_j is the piecewise-linear hat function of point j of a uniform
        grid.  With values = f_u at the nodes, A is the Jacobian of the row
        sums with the spline sample replaced by linear interpolation.
        """
        n = len(self.grid)
        w = self.gw * values
        pos = self.nodes * (n - 1)
        j = np.clip(np.floor(pos).astype(int), 0, n - 2)
        frac = pos - j
        flat = self.rows * n + j
        A = np.bincount(np.concatenate([flat, flat + 1]),
                        weights=np.concatenate([w * (1.0 - frac), w * frac]), minlength=n * n)
        return A.reshape(n, n)


def integrate_kernel_row(kernel, t: float, sigma, rule: QuadratureRule | None = None) -> float:
    """int_0^1 G(t,s) sigma(s) ds on the row layout of rule.row_nodes_weights(t)."""
    return float(KernelOperator(kernel, [float(t)], rule).integrate(sigma)[0])
