"""Fixed-point operator, growth classification, cones, the solver."""
import gc
import math
import weakref

import numpy as np
import pytest

from greenbvp import fdsolve, nonlinear
from greenbvp.errors import ExprDomainError, SearchFailureError
from greenbvp.expr import parse
from greenbvp.fdsolve import solve_fd_newton
from greenbvp.kernel import GreenKernel
from greenbvp.nonlinear import (NonlinearProblem, SolveConfig, _apply, _integral_newton,
                                apply_T, cone_membership, growth_report, reflect_problem,
                                solve_positive)
from greenbvp.params import ProblemParams
from greenbvp.profile import SolutionProfile
from greenbvp.quadrature import KernelOperator

P01 = ProblemParams(0.0, 1.0)


def grid_profile(fn, n=201):
    g = np.linspace(0, 1, n)
    return SolutionProfile(g, fn(g))


def test_apply_T_zero_function():
    prob = NonlinearProblem(P01, parse("u"))
    out = apply_T(prob, grid_profile(np.zeros_like))
    assert out.norm_inf == 0.0


def test_apply_T_constant_equals_linear_solve():
    prob = NonlinearProblem(P01, parse("1"))
    out = apply_T(prob, grid_profile(np.zeros_like))
    assert out(0.5) == pytest.approx(5 / 24, abs=1e-12)


def test_apply_T_linear_f_on_identity_profile():
    # int_0^1 G(1,s) s ds = int s^2(1-s) ds = 1/12 for gamma=0, lam=1
    prob = NonlinearProblem(P01, parse("u"))
    out = apply_T(prob, grid_profile(lambda g: g))
    assert out(1.0) == pytest.approx(1 / 12, abs=1e-12)


def test_growth_examples():
    assert growth_report(NonlinearProblem(P01, parse("t*u^3 + exp(t*u) - 1"))
                         ).classification == "superlinear"
    assert growth_report(NonlinearProblem(P01, parse("sqrt(u)"))
                         ).classification == "sublinear"
    assert growth_report(NonlinearProblem(P01, parse("u"))
                         ).classification == "indeterminate"


def test_growth_estimates():
    rep = growth_report(NonlinearProblem(P01, parse("sqrt(u)")))
    assert math.isinf(rep.f0_est)
    assert rep.f_sup_inf_est == pytest.approx(1e-3, rel=1e-6)  # u^(-1/2) at u=1e6


def test_cone_membership_examples():
    m = cone_membership(grid_profile(lambda g: g), P01)
    assert m.member and m.margin == pytest.approx(0.0, abs=1e-14)

    m2 = cone_membership(grid_profile(lambda g: g * (1 - g)), P01)
    assert not m2.member
    assert m2.margin == pytest.approx(-0.125, abs=1e-6)  # at t=1: 0 - 0.5*0.25

    m3 = cone_membership(grid_profile(np.zeros_like), P01)
    assert m3.member and m3.margin == 0.0 and m3.nonneg


def test_cone_membership_nonzero_gamma():
    p = ProblemParams(-4.0, 1.0)
    from greenbvp.spectrum import bound_constants

    spec = bound_constants(p)
    m = cone_membership(grid_profile(lambda g: g), p, spec)
    assert m.nonneg and isinstance(m.margin, float)


def test_reflect_problem():
    prob = NonlinearProblem(P01, parse("t*u^3 + exp(t*u) - 1"))
    r = reflect_problem(prob)
    assert r.side == "left"
    assert r.cone_interval == (0.0, 0.5)
    ts = np.linspace(0, 1, 9)
    us = np.linspace(0, 2, 9)
    np.testing.assert_allclose(r.f_eval(ts, us), prob.f_eval(1 - ts, us), atol=1e-14)
    rr = reflect_problem(r)
    np.testing.assert_allclose(rr.f_eval(ts, us), prob.f_eval(ts, us), atol=1e-14)
    assert rr.cone_interval == (0.5, 1.0)

    sym = NonlinearProblem(P01, parse("sqrt(u)"))
    rsym = reflect_problem(sym)
    np.testing.assert_allclose(rsym.f_eval(ts, us), sym.f_eval(ts, us), atol=1e-14)


def test_monotonicity_of_T_in_f():
    prof = grid_profile(lambda g: 0.5 * g)
    lo = apply_T(NonlinearProblem(P01, parse("u")), prof)
    hi = apply_T(NonlinearProblem(P01, parse("u + 0.3")), prof)
    assert np.min(hi.values - lo.values) > -1e-10


def test_cone_preservation_of_iterates():
    prob = NonlinearProblem(P01, parse("sqrt(u)"))
    u = grid_profile(lambda g: 0.05 * g)
    for _ in range(4):
        u = apply_T(prob, u)
        assert cone_membership(u, P01).member


def test_solve_positive_constant_f():
    # T is a constant map; the fixed point is the linear solve with sigma = 1
    res = solve_positive(NonlinearProblem(P01, parse("1")), SolveConfig(grid_n=101))
    assert res.converged and res.positive_interior and res.cone.member
    assert res.tu_gap < 1e-12
    assert res.profile(0.5) == pytest.approx(5 / 24, abs=1e-10)
    assert res.residual.ode_residual_inf < 1e-8
    assert not res.outside_theorem


def test_solve_positive_sublinear():
    res = solve_positive(NonlinearProblem(P01, parse("sqrt(u)")), SolveConfig(grid_n=201))
    assert res.converged and res.tu_gap < 1e-8
    assert res.positive_interior and res.cone.member
    assert res.profile.norm_inf == pytest.approx(0.04057, abs=2e-4)
    # oracle agreement
    fd = solve_fd_newton(P01, lambda t, u: np.sqrt(np.maximum(u, 0.0)), 1000,
                         np.interp(np.linspace(0, 1, 1002), res.profile.grid,
                                   res.profile.values), tol=3e-9)
    assert np.max(np.abs(fd(res.profile.grid) - res.profile.values)) < 1e-4


def test_solve_positive_trivial_only():
    with pytest.raises(SearchFailureError):
        solve_positive(NonlinearProblem(P01, parse("0")), SolveConfig(grid_n=101))


def test_solve_positive_tiny_solution_when_zero_is_no_fixed_point():
    # f(t, 0) = 1e-5 is never zero, so u = 0 is no fixed point and min_norm
    # (1e-4 by default) does not apply.  u'' + m^2 (1 + u) = 0, u(0) = 0 gives
    # u = cos(mt) - 1 + B sin(mt), and u(1) = lam * int u fixes B.
    lam, m = 1.0, math.sqrt(1e-5)
    res = solve_positive(NonlinearProblem(ProblemParams(0.0, lam), parse("1e-5*(1 + u)")),
                         SolveConfig(grid_n=1001))
    B = ((lam * (math.sin(m) / m - 1.0) - math.cos(m) + 1.0)
         / (math.sin(m) - lam * (1.0 - math.cos(m)) / m))
    g = res.profile.grid
    want = np.cos(m * g) - 1.0 + B * np.sin(m * g)
    assert res.passed and res.profile.norm_inf < 0.1 * SolveConfig().min_norm
    assert np.max(np.abs(res.profile.values - want)) <= 1e-8 * np.max(np.abs(want))


def test_callable_non_finite_value_names_t_and_u():
    prob = NonlinearProblem(P01, lambda t, u: np.where(u > 0.25, np.nan, u))
    with pytest.raises(ExprDomainError, match=r"at t=0\.5, u=0\.5$"):
        prob.f_eval(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
    # t and u broadcast against each other: a column of t by a row of u
    with pytest.raises(ExprDomainError, match=r"at t=0\.0, u=0\.3$"):
        prob.f_eval(np.array([[0.0], [0.5]]), np.array([[0.1, 0.3]]))


def test_solve_positive_outside_theorem_flag():
    # lam = 0 sits outside 0 < lam < Delta but the Dirichlet problem still
    # has the positive solution of u'' + 1 = 0
    res = solve_positive(NonlinearProblem(ProblemParams(0.0, 0.0), parse("1")),
                         SolveConfig(grid_n=101))
    assert res.outside_theorem
    assert res.positive_interior
    assert res.profile(0.5) == pytest.approx(0.125, abs=1e-10)


def test_solve_positive_left_side():
    prob = NonlinearProblem(P01, parse("sqrt(u)"), side="left")
    res = solve_positive(prob, SolveConfig(grid_n=201))
    # mirrored profile: Dirichlet end at t = 1, integral condition at t = 0
    assert res.profile.values[-1] == pytest.approx(0.0, abs=1e-12)
    std = solve_positive(NonlinearProblem(P01, parse("sqrt(u)")), SolveConfig(grid_n=201))
    np.testing.assert_allclose(res.profile.values, std.profile.values[::-1], atol=1e-10)


def test_fixed_point_equivalence_checked():
    res = solve_positive(NonlinearProblem(P01, parse("sqrt(u)")), SolveConfig(grid_n=201))
    again = apply_T(NonlinearProblem(P01, parse("sqrt(u)")), res.profile)
    assert np.max(np.abs(again.values - res.profile.values)) < 1e-8
    assert res.residual.bc_left < 1e-10 and res.residual.bc_right < 1e-8


def test_condition_f_check():
    assert NonlinearProblem(P01, parse("sqrt(u)")).condition_f_ok()
    # log(3t + u) is negative near t = 0, u small: condition (f) fails
    assert not NonlinearProblem(
        P01, parse("(u^3+u)^(1/5) + log(3*t+u)")).condition_f_ok()


def test_apply_T_sqrt_smooth_across_rows():
    # f = sqrt(u) on u = t: T u solves v'' = -sqrt(t), v(0) = 0, v(1) = int v,
    # so T u = (8/21) t - (4/15) t^(5/2).  The integrand behaves like s^(3/2)
    # at s = 0; its quadrature error must be small and smooth from row to
    # row, or the 1/h^2 residual stencil amplifies it.
    prob = NonlinearProblem(P01, parse("sqrt(u)"))
    prof = grid_profile(lambda g: g, n=1001)
    g = prof.grid
    err = apply_T(prob, prof).values - (8.0 / 21.0 * g - 4.0 / 15.0 * g**2.5)
    h = g[1] - g[0]
    assert np.max(np.abs(err)) <= 1e-12
    assert np.max(np.abs(err[:-2] - 2.0 * err[1:-1] + err[2:])) / h**2 <= 1e-6


@pytest.mark.parametrize("gamma, f_src", [(0.0, "t*u^3 + exp(t*u) - 1"), (-4.0, "u^2")],
                         ids=["criterion-7", "u^2-gamma-4"])
def test_integral_newton_returns_to_fixed_point(gamma, f_src):
    prob = NonlinearProblem(ProblemParams(gamma, 1.0), parse(f_src))
    res = solve_positive(prob, SolveConfig(grid_n=201))
    grid, u_star = res.profile.grid, res.profile.values
    op = KernelOperator(GreenKernel(prob.params), grid)
    u0 = u_star + 1e-2 * np.sin(math.pi * grid) * res.profile.norm_inf
    u, rn, it = _integral_newton(op, prob._nl, u0, 1e-12)
    assert rn < 1e-12 and it <= 8
    assert np.max(np.abs(u - u_star)) < 1e-8

    # the Jacobian is the hat-weight projection of gw * f_u onto the grid
    fu = 2.0 + np.cos(3.0 * op.nodes)
    n = len(grid)
    pos = np.clip(op.nodes, 0.0, 1.0) * (n - 1)
    j = np.clip(np.floor(pos).astype(int), 0, n - 2)
    frac = pos - j
    ref = np.zeros((n, n))
    np.add.at(ref, (op.rows, j), op.gw * fu * (1.0 - frac))
    np.add.at(ref, (op.rows, j + 1), op.gw * fu * frac)
    assert op.hat_projection(fu).tobytes() == ref.tobytes()


@pytest.mark.parametrize("gamma, f_src", [(0.0, "t*u^3 + exp(t*u) - 1"), (0.0, "sqrt(u)"),
                                          (-4.0, "u^2")])
def test_apply_evaluates_f_once_per_point(gamma, f_src):
    # f and the spline are evaluated on the distinct points and W sums them
    # into the rows; the result is the flat per-node formula, byte for byte
    from scipy.interpolate import CubicSpline

    prob = NonlinearProblem(ProblemParams(gamma, 1.0), parse(f_src))
    grid = np.linspace(0.0, 1.0, 201)
    op = KernelOperator(GreenKernel(prob.params), grid)
    u = 2.0 * grid * (1.0 - 0.5 * grid) + 0.1 * np.sin(7.0 * grid)
    fvals = prob._nl.eval(op.nodes, np.maximum(CubicSpline(grid, u)(op.nodes), 0))
    flat = np.bincount(op.rows, weights=op.gw * fvals, minlength=len(grid))
    assert _apply(op, prob._nl, u).tobytes() == flat.tobytes()


C7 = "t*u^3 + exp(t*u) - 1"


def _record_fd_seeds(monkeypatch, solve):
    """Route fdsolve.solve_fd_newton through solve, recording each seed's amplitude."""
    seeds = []

    def recorder(params, f, n, u0, **kw):
        seeds.append(float(u0[-1]))  # a start c*t keeps c at t = 1
        return solve(params, f, n, u0, **kw)

    monkeypatch.setattr(fdsolve, "solve_fd_newton", recorder)
    return seeds


def _all_rungs_then_breadth_first(amplitudes, depth, outcome):
    """The amplitudes the search tried before brackets were bisected as they appear."""
    outcomes = {c: outcome(c) for c in amplitudes}
    frontier = list(zip(amplitudes[:-1], amplitudes[1:]))
    for _ in range(depth):
        next_frontier = []
        for lo, hi in frontier:
            if outcomes.get(lo) == outcomes.get(hi):
                continue
            mid = math.sqrt(lo * hi)
            if mid in outcomes:
                continue
            outcomes[mid] = outcome(mid)
            next_frontier.extend([(lo, mid), (mid, hi)])
        if not next_frontier:
            break
        frontier = next_frontier
    return set(outcomes)


def test_search_bisects_each_bracket_as_soon_as_it_appears(monkeypatch):
    seeds = _record_fd_seeds(monkeypatch, solve_fd_newton)
    res = solve_positive(NonlinearProblem(P01, parse(C7)), SolveConfig(grid_n=201))
    assert res.passed
    # the rung at 10 fails, (1, 10) is bisected at once, and the rung at 100
    # is never tried
    assert seeds == [1e-3, 1e-2, 0.1, 1.0, 10.0, math.sqrt(10.0)]


def test_failing_search_tries_the_same_amplitudes(monkeypatch):
    def fake(params, f, n, u0, **kw):
        if u0[-1] > 2.0:
            raise SearchFailureError("fake failure")
        return SolutionProfile(np.linspace(0.0, 1.0, n + 2), np.zeros(n + 2))

    seeds = _record_fd_seeds(monkeypatch, fake)
    cfg = SolveConfig(grid_n=201)
    with pytest.raises(SearchFailureError):
        solve_positive(NonlinearProblem(P01, parse(C7)), cfg)
    want = _all_rungs_then_breadth_first(list(cfg.init_amplitudes), cfg.bisect_depth,
                                         lambda c: "fail" if c > 2.0 else "trivial")
    assert len(seeds) == len(want) and set(seeds) == want


def test_solve_frees_its_operator_without_the_cycle_collector(monkeypatch):
    refs = []

    def recording(*args, **kwargs):
        op = KernelOperator(*args, **kwargs)
        refs.append(weakref.ref(op))
        return op

    monkeypatch.setattr(nonlinear, "KernelOperator", recording)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for f_src in (C7, "sqrt(u)"):
            solve_positive(NonlinearProblem(P01, parse(f_src)), SolveConfig(grid_n=201))
            assert refs[-1]() is None, f_src
        try:
            solve_positive(NonlinearProblem(P01, parse("0")), SolveConfig(grid_n=201))
        except SearchFailureError:
            pass
        assert refs[-1]() is None
        assert len(refs) == 3
    finally:
        if was_enabled:
            gc.enable()
