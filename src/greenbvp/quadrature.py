"""Composite Gauss-Legendre quadrature on [0,1] with panel splitting.

The kernel-weighted integrands have a derivative kink along s = t, so the
row integrals always place a panel boundary at s = t.  Smooth pieces are
then integrated to near machine precision by a handful of Gauss panels.
The endpoint s = 0 is not always smooth: where u(0) = 0 and f = sqrt(u),
the integrand behaves like s^(3/2) there.  Row integrals therefore also
grade the first panel geometrically toward s = 0, with a layout that is
the same for every row apart from the cut at s = t.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, QuadratureError

__all__ = ["QuadratureRule", "integrate", "integrate_kernel_row"]

# Kernel rows grade the first panel toward s = 0 by these fixed steps: the
# piece next to s = 0 is 2^-8 of the first panel.
_GRADED_PANELS = 8
_GRADING_RATIO = 0.5

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


def integrate(f, rule: QuadratureRule | None = None) -> float:
    """Integral of f over [0,1] with the given (or default) rule."""
    if rule is None:
        rule = QuadratureRule()
    nodes, weights = rule.nodes_weights()
    try:
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in nodes])
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][0]
        raise QuadratureError(f"integrand returned a non-finite value at s={bad!r}", node=bad)
    return float(weights @ vals)


def integrate_kernel_row(kernel, t: float, sigma, rule: QuadratureRule | None = None) -> float:
    """int_0^1 G(t,s) sigma(s) ds on the row layout of rule.row_nodes_weights(t).

    sigma may be a plain callable or anything callable on arrays (a
    SolutionProfile works directly).
    """
    if rule is None:
        rule = QuadratureRule()
    nodes, weights = rule.row_nodes_weights(float(t))
    g = kernel.eval(float(t), nodes)
    try:
        sig = np.asarray(sigma(nodes), dtype=float)
        if sig.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        sig = np.array([float(sigma(x)) for x in nodes])
    vals = g * sig
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][0]
        raise QuadratureError(f"kernel row integrand non-finite at s={bad!r}", node=bad)
    return float(weights @ vals)
