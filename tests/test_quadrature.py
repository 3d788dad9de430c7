"""Composite Gauss-Legendre rules and kernel row integrals."""
import math

import numpy as np
import pytest

from greenbvp.errors import InputError, QuadratureError
from greenbvp.kernel import GreenKernel
from greenbvp.params import ProblemParams
from greenbvp.quadrature import (KernelOperator, QuadratureRule, integrate,
                                 integrate_kernel_row)


def test_rule_invariants():
    rule = QuadratureRule(panels=16, nodes_per_panel=8, split_points=(0.3,))
    nodes, weights = rule.nodes_weights()
    assert len(nodes) == 16 * 8
    assert abs(weights.sum() - 1.0) < 1e-14
    assert np.all((nodes >= 0) & (nodes <= 1))
    # the split point separates two panel families
    assert not np.any(np.isclose(nodes, 0.3, atol=1e-15))
    assert QuadratureRule(split_points=(0.5, 0.25, 0.5)).split_points == (0.25, 0.5)
    with pytest.raises(InputError):
        QuadratureRule(panels=0)
    with pytest.raises(InputError):
        QuadratureRule(split_points=(1.5,))


def test_integrate_basics():
    rule = QuadratureRule()
    assert integrate(lambda s: np.ones_like(s), rule) == pytest.approx(1.0, abs=1e-15)
    assert integrate(lambda s: s, rule) == pytest.approx(0.5, abs=1e-15)
    assert integrate(lambda s: np.sin(math.pi * s), rule) == pytest.approx(
        2.0 / math.pi, abs=1e-14)
    # scalar-only integrands are handled too
    assert integrate(lambda s: float(s) ** 2, rule) == pytest.approx(1 / 3, abs=1e-14)


def test_integrate_nonfinite_raises_with_node():
    rule = QuadratureRule(panels=4)
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda s: np.where(s < 0.5, 1.0, np.inf), rule)
    assert exc.value.node is not None and exc.value.node >= 0.5


def test_kernel_row_closed_forms():
    # sigma = 1, gamma = 0, lam = 1: u(t) = -t^2/2 + 2t/3 from direct integration
    k = GreenKernel(ProblemParams(0.0, 1.0))
    val = integrate_kernel_row(k, 0.5, lambda s: np.ones_like(s))
    assert val == pytest.approx(5.0 / 24.0, abs=1e-13)
    assert integrate_kernel_row(k, 0.0, lambda s: np.ones_like(s)) == 0.0

    # gamma = 1, lam = 0: u = cos t + B sin t - 1 with B = (1 - cos 1)/sin 1
    k2 = GreenKernel(ProblemParams(1.0, 0.0))
    B = (1 - math.cos(1)) / math.sin(1)
    want = math.cos(0.5) + B * math.sin(0.5) - 1.0
    assert integrate_kernel_row(k2, 0.5, lambda s: np.ones_like(s)) == pytest.approx(
        want, abs=1e-13)


def test_kink_handling():
    k = GreenKernel(ProblemParams(0.0, 0.0))
    for t in np.arange(0.1, 0.95, 0.1):
        val = integrate_kernel_row(k, t, lambda s: np.ones_like(s))
        assert abs(val - t * (1 - t) / 2) < 1e-12


def test_halving_convergence():
    # oscillatory target keeps the error above the floor for a few doublings
    exact = (1 - math.cos(40.0)) / 40.0
    errs = []
    for panels in (2, 4, 8, 16):
        rule = QuadratureRule(panels=panels, nodes_per_panel=8)
        errs.append(abs(integrate(lambda s: np.sin(40.0 * s), rule) - exact))
    for a, b in zip(errs, errs[1:]):
        if a < 1e-12:
            break
        assert a / b >= 10.0


def test_row_layout_independent_of_t():
    rule = QuadratureRule(panels=16, nodes_per_panel=8)
    base, wbase = rule.row_nodes_weights(0.0)
    assert abs(wbase.sum() - 1.0) < 1e-14
    # graded toward s = 0: the first panel is 2^-8 of the first base panel
    assert base[0] < 2.0**-8 / 16
    # t on a base edge adds nothing; an interior t cuts only its own panel
    assert np.array_equal(rule.row_nodes_weights(0.5)[0], base)
    nodes, weights = rule.row_nodes_weights(0.3)
    assert len(nodes) == len(base) + 8
    assert abs(weights.sum() - 1.0) < 1e-14
    kept = base[(base < 0.25) | (base > 0.3125)]
    assert np.all(np.isin(kept, nodes))


OP_GAMMAS = [0.0, -4.0, 3.0, -1e4, -1e6, (3 * math.pi) ** 2 + 1e-8]


@pytest.mark.parametrize("gamma", OP_GAMMAS, ids=lambda g: f"{g:g}")
def test_operator_weights_are_the_row_weights(gamma):
    kernel = GreenKernel(ProblemParams(gamma, 0.5))
    rule = QuadratureRule()
    grid = np.linspace(0.0, 1.0, 301)  # three kernel blocks, the last one partial
    op = KernelOperator(kernel, grid, rule)
    start = 0
    for i, t in enumerate(grid):
        nodes, wt = rule.row_nodes_weights(float(t))
        stop = start + len(nodes)
        assert np.array_equal(op.rows[start:stop], np.full(len(nodes), i))
        assert op.nodes[start:stop].tobytes() == nodes.tobytes()
        assert op.gw[start:stop].tobytes() == (wt * kernel.eval(float(t), nodes)).tobytes()
        start = stop
    assert start == len(op.nodes) == len(op.gw) == len(op.rows)


def test_operator_nonfinite_integrand_names_node():
    op = KernelOperator(GreenKernel(ProblemParams(0.0, 1.0)), np.linspace(0.0, 1.0, 21))
    with pytest.raises(QuadratureError) as exc:
        op.integrate(lambda s: np.where(s < 0.5, 1.0, np.nan))
    assert exc.value.node is not None and exc.value.node >= 0.5


POINT_GRIDS = {
    **{f"uniform-{n}": np.linspace(0.0, 1.0, n) for n in (11, 201, 301, 1001)},
    "one-point": np.array([0.3]),
    "chebyshev-33": (1.0 - np.cos(np.arange(33) * math.pi / 32)) / 2.0,
}


@pytest.mark.parametrize("gamma", [0.0, -4.0, 3.0, -1e4], ids=lambda g: f"{g:g}")
def test_operator_points_gather_to_the_nodes(gamma):
    kernel = GreenKernel(ProblemParams(gamma, 0.5))
    for name, grid in POINT_GRIDS.items():
        op = KernelOperator(kernel, grid)
        assert op.points[op.index].tobytes() == op.nodes.tobytes(), name
        # the 24 shared panels of 8 nodes, and at most two half panels per row
        assert len(op.points) <= 8 * 24 + 16 * len(grid), name


@pytest.mark.parametrize("gamma", [0.0, -4.0, 3.0, -1e4], ids=lambda g: f"{g:g}")
def test_operator_apply_is_the_node_order_row_sum(gamma):
    # W keeps each row's columns in node order, so its product adds the
    # terms in the order that bincount does, byte for byte
    kernel = GreenKernel(ProblemParams(gamma, 0.5))
    rng = np.random.default_rng(23)
    for name, grid in POINT_GRIDS.items():
        op = KernelOperator(kernel, grid)
        assert op.W.shape == (len(grid), len(op.points)), name
        assert op.W.nnz == len(op.nodes), name
        assert np.shares_memory(op.W.data, op.gw), name
        v = rng.standard_normal(len(op.points))
        want = np.bincount(op.rows, weights=op.gw * v[op.index], minlength=len(grid))
        assert op.apply(v).tobytes() == want.tobytes(), name


def test_operator_integrate_calls_sigma_once_per_point():
    op = KernelOperator(GreenKernel(ProblemParams(-4.0, 1.0)), np.linspace(0.0, 1.0, 21))
    calls = []

    def scalar_only(s):
        calls.append(float(s))  # float() of an array raises TypeError
        return 1.0 + s * s

    got = op.integrate(scalar_only)
    assert len(calls) == len(op.points)
    assert got.tobytes() == op.integrate(lambda s: 1.0 + s * s).tobytes()
