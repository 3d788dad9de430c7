"""Positive solutions of u'' + gamma*u + f(t,u) = 0 as fixed points of

    T u (t) = int_0^1 G_gamma(t,s) f(s, u(s)) ds.

Search strategy: Picard iteration with Anderson acceleration (depth 3)
from straight-line starts c*t over a ladder of amplitudes; stagnant or
collapsing runs fall back to damped Newton on the finite-difference
collocation system, whose output is polished back to a fixed point of the
quadrature-accurate operator (Anderson again, then a Newton iteration on
the discretized integral equation when the fixed point is Picard-unstable).
Where f(t, 0) vanishes, u = 0 is rejected by a minimum-norm threshold, and
because the superlinear basins are narrow the amplitude ladder is refined
by log-bisection: as soon as a start lands on a different outcome from the
start before it, that bracket is bisected before the next start is tried.

f is clamped to f(t, max(u, 0)) and iterates are clipped at zero, matching
the condition that f lives on [0,1] x [0,inf).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (ClassificationError, DegenerateConeError, ExprDomainError,
                     InputError, QuadratureError, ResonanceError, SearchFailureError)
from .expr import Expression
from .kernel import GreenKernel
from .linear import ResidualReport, verify_solution
from .params import ProblemParams
from .profile import SolutionProfile
from .quadrature import KernelOperator, QuadratureRule
from .spectrum import PI_SQ, ConeSpec, SignClass, bound_constants, classify_sign, delta
from . import fdsolve

__all__ = [
    "NonlinearProblem", "GrowthReport", "ConeMembership", "SolveConfig",
    "SolveResult", "apply_T", "growth_report", "solve_positive",
    "cone_membership", "reflect_problem",
]


class _Nonlinearity:
    """Uniform array-evaluation wrapper over an Expression or a callable."""

    def __init__(self, f):
        self.raw = f
        self._is_expr = isinstance(f, Expression)

    def eval(self, t, u):
        """f(t, max(u, 0)); domain violations raise ExprDomainError."""
        u_eff = np.maximum(u, 0.0)
        if self._is_expr:
            return self.raw.eval(t, u_eff)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.asarray(self.raw(t, u_eff), dtype=float)
        if not np.all(np.isfinite(out)):
            tb, ub, ob = np.broadcast_arrays(t, u_eff, out)
            k = np.flatnonzero(~np.isfinite(ob))[0]
            raise ExprDomainError(f"nonlinearity returned a non-finite value at "
                                  f"t={float(tb.flat[k])!r}, u={float(ub.flat[k])!r}")
        return out

    def ratio_or_inf(self, t, u_scalar):
        """f(t, u)/u for the growth ladder; failures count as +inf."""
        try:
            vals = self.eval(t, np.full_like(np.asarray(t, dtype=float), u_scalar))
            return np.asarray(vals, dtype=float) / u_scalar
        except ExprDomainError:
            return np.full(np.asarray(t).shape, math.inf)

    def eval_or_inf(self, t, u):
        """Like eval but maps domain failures to +inf (for line searches)."""
        try:
            return self.eval(t, u)
        except ExprDomainError:
            return np.full(np.broadcast(np.asarray(t), np.asarray(u)).shape, math.inf)


@dataclass
class NonlinearProblem:
    """Parameters, nonlinearity and the cone comparison interval [a, b].

    side records which endpoint carries the integral condition: "right" is
    the standard problem u(1) = lam * int u; "left" is the mirrored one,
    handled by reflection.
    """

    params: ProblemParams
    f: object
    cone_interval: tuple[float, float] | None = None
    side: str = "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise InputError(f"side must be 'left' or 'right', got {self.side!r}")
        if self.cone_interval is None:
            self.cone_interval = (0.5, 1.0) if self.side == "right" else (0.0, 0.5)
        a, b = self.cone_interval
        # the kernel vanishes at the Dirichlet end, which the comparison
        # interval must avoid: t = 0 for the standard problem, t = 1 mirrored
        ok = (0.0 < a < b <= 1.0) if self.side == "right" else (0.0 <= a < b < 1.0)
        if not ok:
            raise InputError(
                f"cone interval {self.cone_interval} invalid for side={self.side!r}")
        self._nl = _Nonlinearity(self.f)

    def f_eval(self, t, u):
        return self._nl.eval(t, u)

    def condition_f_ok(self, u_max: float = 100.0) -> bool:
        """Sampled check of f >= 0 on [0,1] x [0, u_max]."""
        tg = np.linspace(0.0, 1.0, 21)
        ug = np.concatenate(([0.0], np.logspace(-6, math.log10(u_max), 17)))
        try:
            vals = self._nl.eval(tg[:, None], ug[None, :] * np.ones((21, 1)))
        except ExprDomainError:
            return False
        return bool(np.min(vals) >= -1e-12)


def reflect_problem(problem: NonlinearProblem) -> NonlinearProblem:
    """Map between the left- and right-integral problems via t -> 1 - t."""
    a, b = problem.cone_interval
    if isinstance(problem.f, Expression):
        f_hat = problem.f.reflect_t()
    else:
        orig = problem.f
        f_hat = lambda t, u, _g=orig: _g(1.0 - np.asarray(t, dtype=float), u)
    return NonlinearProblem(
        params=problem.params,
        f=f_hat,
        cone_interval=(1.0 - b, 1.0 - a),
        side="right" if problem.side == "left" else "left",
    )


# -- the operator ----------------------------------------------------------

def _apply(op: KernelOperator, nl: _Nonlinearity, u_vec: np.ndarray) -> np.ndarray:
    """T on grid values: the row sums of f(s, u(s)), u the spline through u_vec."""
    return op.apply(nl.eval(op.points, op.sample(u_vec)))


def apply_T(problem: NonlinearProblem, u: SolutionProfile, grid_n: int | None = None,
            rule: QuadratureRule | None = None) -> SolutionProfile:
    """One application of the fixed-point operator, resampled on grid_n points."""
    grid = u.grid if grid_n is None else np.linspace(0.0, 1.0, grid_n)
    op = KernelOperator(GreenKernel(problem.params), grid, rule)
    return SolutionProfile(grid, _apply(op, problem._nl, u.values if grid_n is None else u(grid)))


# -- growth classification --------------------------------------------------

@dataclass(frozen=True)
class GrowthReport:
    """Sampled growth ratios of f and the resulting heuristic classification.

    f0_est / f_inf_est track min_{t in [a,b]} f(t,u)/u at the small and
    large ends of the ladder; f_sup0_est / f_sup_inf_est the max over [0,1].
    Estimates are +inf when the ladder diverges off scale.  classification
    is "sublinear", "superlinear" or "indeterminate" and is advisory only.
    """

    f0_est: float
    f_inf_est: float
    f_sup0_est: float
    f_sup_inf_est: float
    classification: str
    ladder: tuple = field(repr=False, default=())

    def to_dict(self) -> dict:
        return {
            "f0_est": self.f0_est, "f_inf_est": self.f_inf_est,
            "f_sup0_est": self.f_sup0_est, "f_sup_inf_est": self.f_sup_inf_est,
            "classification": self.classification,
        }


def _diverging(seq) -> bool:
    """Strictly rising toward the limit end, or off the finite scale there."""
    a, b, c = seq  # ordered toward the limit
    if math.isinf(c):
        return True
    if math.isinf(b) or math.isinf(a):
        return False
    return c > b > a


def _decaying(seq) -> bool:
    a, b, c = seq
    if any(math.isinf(x) for x in (a, b, c)):
        return False
    return c < b < a


def growth_report(problem: NonlinearProblem, u_ladder=None, t_samples: int = 101) -> GrowthReport:
    """Estimate the sub/superlinear character of f from ratio ladders."""
    if u_ladder is None:
        u_ladder = np.logspace(-6.0, 6.0, 25)
    u_ladder = np.asarray(u_ladder, dtype=float)
    if len(u_ladder) < 6 or u_ladder[0] <= 0:
        raise InputError("ladder needs at least 6 positive rungs")
    if math.log10(u_ladder[-1] / u_ladder[0]) < 8.0:
        raise InputError("ladder must span at least 8 decades")
    a, b = problem.cone_interval
    t_min = np.linspace(a, b, t_samples)
    t_max = np.linspace(0.0, 1.0, t_samples)
    nl = problem._nl

    r_min = np.array([float(np.min(nl.ratio_or_inf(t_min, u))) for u in u_ladder])
    r_max = np.array([float(np.max(nl.ratio_or_inf(t_max, u))) for u in u_ladder])

    zero_min_div = _diverging((r_min[2], r_min[1], r_min[0]))
    zero_max_dec = _decaying((r_max[2], r_max[1], r_max[0]))
    inf_min_div = _diverging((r_min[-3], r_min[-2], r_min[-1]))
    inf_max_dec = _decaying((r_max[-3], r_max[-2], r_max[-1]))

    sub = zero_min_div and inf_max_dec
    sup = zero_max_dec and inf_min_div
    if sub and not sup:
        cls = "sublinear"
    elif sup and not sub:
        cls = "superlinear"
    else:
        cls = "indeterminate"

    def est(val, div):
        return math.inf if (div and (math.isinf(val) or val > 1e3)) else float(val)

    return GrowthReport(
        f0_est=est(r_min[0], zero_min_div),
        f_inf_est=est(r_min[-1], inf_min_div),
        f_sup0_est=float(r_max[0]) if math.isfinite(r_max[0]) else math.inf,
        f_sup_inf_est=float(r_max[-1]) if math.isfinite(r_max[-1]) else math.inf,
        classification=cls,
        ladder=tuple(zip(u_ladder.tolist(), r_min.tolist(), r_max.tolist())),
    )


# -- cone membership ---------------------------------------------------------

@dataclass(frozen=True)
class ConeMembership:
    """Whether a profile lies in the positivity cone.

    margin is the minimum of u(t) - envelope(t) * ||u|| over the grid; the
    envelope is h(t)/C from bound_constants, (lam/2) t for gamma = 0, and 0
    where the kernel has no cone constants.
    """

    member: bool
    margin: float
    nonneg: bool

    def to_dict(self) -> dict:
        return {"member": self.member, "margin": self.margin, "nonneg": self.nonneg}


def cone_membership(profile: SolutionProfile, params: ProblemParams,
                    cone: ConeSpec | None = None, tol_cone: float = 1e-10) -> ConeMembership:
    """Check u >= 0 and u(t) >= envelope(t) ||u|| on the profile grid."""
    u = profile.values
    norm = profile.norm_inf
    nonneg = bool(np.min(u) >= -1e-12 * max(1.0, norm))
    if cone is None:
        try:
            cone = bound_constants(params)
        except (ClassificationError, DegenerateConeError):
            cone = None
    env = cone.lower_cone_envelope(profile.grid) if cone is not None else np.zeros_like(u)
    margin = float(np.min(u - env * norm))
    return ConeMembership(member=bool(nonneg and margin >= -tol_cone),
                          margin=margin, nonneg=nonneg)


# -- the solver --------------------------------------------------------------

@dataclass
class SolveConfig:
    """Knobs for solve_positive; defaults fit the acceptance problems.

    bisect_depth bounds the log-bisection of each bracket of neighbouring
    init_amplitudes whose fd Newton outcomes differ; a bracket is bisected
    as soon as its second start has been tried.
    """

    tol: float = 1e-8
    max_iter: int = 500
    min_norm: float = 1e-4
    init_amplitudes: tuple = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)
    grid_n: int = 201
    rule: QuadratureRule | None = None
    anderson_depth: int = 3
    newton_damping: float = 0.5
    fd_n: int | None = None
    bisect_depth: int = 4


@dataclass
class SolveResult:
    profile: SolutionProfile
    residual: ResidualReport
    cone: ConeMembership
    iterations: int
    tu_gap: float
    converged: bool
    positive_interior: bool
    outside_theorem: bool
    tol: float
    growth: GrowthReport | None = None
    sign: SignClass | None = None
    message: str = ""

    @property
    def passed(self) -> bool:
        return (self.converged and self.positive_interior and self.cone.member
                and self.tu_gap < self.tol
                and self.residual.bc_left < 100.0 * self.tol
                and self.residual.bc_right < 100.0 * self.tol)


def _anderson_iterate(T, u0, tol, max_iter, depth, min_norm):
    """Anderson-accelerated Picard; returns (u, status, iterations)."""
    u = np.maximum(u0, 0.0)
    g_hist: list[np.ndarray] = []
    r_hist: list[np.ndarray] = []
    best = math.inf
    stall = 0
    for k in range(max_iter):
        try:
            g = T(u)
        except (ExprDomainError, QuadratureError):
            return u, "diverged", k + 1
        if not np.all(np.isfinite(g)):
            return u, "diverged", k + 1
        r = g - u
        rn = float(np.max(np.abs(r)))
        scale = max(1.0, float(np.max(np.abs(u))))
        if rn < tol:
            status = "converged" if np.max(np.abs(u)) >= min_norm else "trivial"
            return u, status, k + 1
        if rn < 0.98 * best:
            best, stall = rn, 0
        else:
            stall += 1
            if stall >= 25:
                return u, "stagnated", k + 1
        if np.max(np.abs(g)) < 0.02 * min_norm and np.max(np.abs(u)) < 0.02 * min_norm:
            return u, "trivial", k + 1
        g_hist.append(g)
        r_hist.append(r)
        if len(g_hist) > depth + 1:
            g_hist.pop(0)
            r_hist.pop(0)
        if len(g_hist) >= 2:
            dR = np.stack([r_hist[i + 1] - r_hist[i] for i in range(len(r_hist) - 1)], axis=1)
            dG = np.stack([g_hist[i + 1] - g_hist[i] for i in range(len(g_hist) - 1)], axis=1)
            gamma, *_ = np.linalg.lstsq(dR, r, rcond=None)
            u_new = g - dG @ gamma
        else:
            u_new = g
        u_new = np.maximum(u_new, 0.0)
        if not np.all(np.isfinite(u_new)) or np.max(np.abs(u_new)) > 1e8 * scale + 1e8:
            return u, "diverged", k + 1
        u = u_new
    return u, "maxiter", max_iter


def _integral_newton(op: KernelOperator, nl: _Nonlinearity, u0, tol, max_iter=15):
    """Newton on the collocated integral equation u = T u (hat-weight Jacobian)."""
    u = np.maximum(np.asarray(u0, dtype=float), 0.0)
    it = 0

    def T(vec):  # T vec, and the point sample of vec that the Jacobian reuses
        at = op.sample(vec)
        return op.apply(nl.eval(op.points, at)), at

    try:
        Tu, u_at = T(u)
    except (ExprDomainError, QuadratureError):
        return u, math.inf, 0
    for it in range(1, max_iter + 1):
        R = u - Tu
        rn = float(np.max(np.abs(R)))
        if rn < tol:
            return u, rn, it
        step = 1e-7 * np.maximum(1.0, np.abs(u_at))
        lo = np.maximum(u_at - step, 0.0)
        try:
            fu = (nl.eval(op.points, u_at + step) - nl.eval(op.points, lo)) / (u_at + step - lo)
            d = np.linalg.solve(np.eye(len(u)) - op.hat_projection(fu[op.index]), -R)
        except (ExprDomainError, QuadratureError, np.linalg.LinAlgError):
            return u, rn, it
        alpha, accepted = 1.0, False
        for _ in range(12):
            trial = np.maximum(u + alpha * d, 0.0)
            try:
                Tt, at = T(trial)
            except (ExprDomainError, QuadratureError):
                alpha *= 0.5
                continue
            if np.all(np.isfinite(Tt)) and np.max(np.abs(trial - Tt)) < rn:
                u, Tu, u_at = trial, Tt, at
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return u, rn, it
    return u, float(np.max(np.abs(u - Tu))), it


def solve_positive(problem: NonlinearProblem, config: SolveConfig | None = None) -> SolveResult:
    """Find a nontrivial nonnegative fixed point of T and verify it.

    Args:
        problem: the nonlinear problem; side="left" is solved by reflection.
        config: solver knobs (tolerance, amplitude ladder, grid size, ...).

    Returns:
        SolveResult with the profile, residual report, cone membership and
        iteration count.

    Raises:
        SearchFailureError: no start produced an acceptable fixed point.
        ResonanceError: the parameters admit no Green's function.
        InputError: grid_n is below the 11 points that verification needs.
    """
    cfg = config or SolveConfig()
    if cfg.grid_n < 11:
        raise InputError("verification grid too coarse; need at least 11 points")
    if problem.side == "left":
        mirrored = solve_positive(reflect_problem(problem), cfg)
        prof = mirrored.profile.reflected()
        return replace(mirrored, profile=prof,
                       message=(mirrored.message + " (solved by reflection of the "
                                "left-integral problem)").strip())

    params = problem.params
    kernel = GreenKernel(params)
    lam = params.lam

    delta_val = delta(params.gamma) if params.gamma < PI_SQ else None
    outside = not (delta_val is not None and 0.0 < lam < delta_val)

    sign = None
    cone_spec = None
    try:
        sign = classify_sign(params)
        cone_spec = bound_constants(params)
    except (ClassificationError, DegenerateConeError, ResonanceError):
        pass

    growth = None
    try:
        growth = growth_report(problem)
    except (InputError, ExprDomainError):
        pass

    grid = np.linspace(0.0, 1.0, cfg.grid_n)
    op = KernelOperator(kernel, grid, cfg.rule)
    nl = problem._nl
    T = lambda vec: _apply(op, nl, vec)
    # min_norm applies only where u = 0 can be a fixed point: f(t, 0) = 0
    try:
        zero_fixed = not np.any(nl.eval(grid, np.zeros_like(grid)))
    except ExprDomainError:
        zero_fixed = True
    min_norm = cfg.min_norm if zero_fixed else 0.0
    iterations = 0
    best_residual = math.inf

    def finalize(u_vec) -> SolveResult | None:
        nonlocal best_residual
        try:
            values = T(u_vec)
            gap = float(np.max(np.abs(T(values) - values)))
        except (ExprDomainError, QuadratureError):
            return None
        best_residual = min(best_residual, gap)
        if not np.all(np.isfinite(values)) or gap >= cfg.tol:
            return None
        profile = SolutionProfile(grid, values)
        if profile.norm_inf < min_norm:
            return None
        positive = bool(np.all(profile.values[1:-1] > 0.0))
        sigma = lambda tv: nl.eval(tv, np.maximum(profile(tv), 0.0))
        report = verify_solution(params, sigma, profile)
        cone = cone_membership(profile, params, cone_spec)
        msg = "outside the existence theorem (lambda not in (0, Delta))" if outside else ""
        return SolveResult(
            profile=profile, residual=report, cone=cone, iterations=iterations,
            tu_gap=gap, converged=True, positive_interior=positive,
            outside_theorem=outside, tol=cfg.tol, growth=growth, sign=sign,
            message=msg)

    def polish(u_vec) -> SolveResult | None:
        nonlocal iterations
        u, status, it = _anderson_iterate(T, u_vec, cfg.tol * 0.5, 80,
                                          cfg.anderson_depth, min_norm)
        iterations += it
        if status == "converged":
            out = finalize(u)
            if out is not None:
                return out
        u2, rn, it2 = _integral_newton(op, nl, u_vec, cfg.tol * 0.5)
        iterations += it2
        if rn < cfg.tol:
            return finalize(u2)
        return None

    def fd_attempt(seed_vec) -> tuple[str, np.ndarray | None]:
        nonlocal iterations
        fd_n = cfg.fd_n or max(800, cfg.grid_n - 1)
        fd_grid = np.linspace(0.0, 1.0, fd_n + 2)
        seed = np.interp(fd_grid, grid, seed_vec)
        # the discrete residual cannot drop below ~eps/h^2 * ||u||
        floor = 30.0 * 2.3e-16 * (fd_n + 1) ** 2 * max(1.0, float(np.max(np.abs(seed))))
        try:
            prof = fdsolve.solve_fd_newton(
                params, nl.eval_or_inf, fd_n, seed,
                tol=max(1e-9, floor), max_iter=150, damping=cfg.newton_damping)
        except (SearchFailureError, ResonanceError, ExprDomainError):
            return "fail", None
        iterations += 1
        if prof.norm_inf < min_norm:
            return "trivial", None
        return "solution", prof(grid)

    # stage 1: accelerated Picard from every start
    fallback_seeds: list[np.ndarray] = []
    for c in cfg.init_amplitudes:
        u0 = float(c) * grid
        u, status, it = _anderson_iterate(T, u0, cfg.tol, cfg.max_iter,
                                          cfg.anderson_depth, min_norm)
        iterations += it
        if status == "converged":
            out = finalize(u)
            if out is not None:
                return out
        nrm = float(np.max(np.abs(u)))
        if status in ("stagnated", "maxiter") and min_norm <= nrm <= 1e4:
            fallback_seeds.append(u)

    # stage 2: damped Newton on the fd collocation, seeded by the Picard
    # leftovers and the raw starts, with log-bisection of the amplitude
    # ladder between starts whose outcomes differ
    for seed in fallback_seeds:
        status, vec = fd_attempt(seed)
        if status == "solution":
            out = polish(vec)
            if out is not None:
                return out

    amplitudes = [float(c) for c in cfg.init_amplitudes]
    outcomes: dict[float, str] = {}

    def try_amplitude(c) -> SolveResult | None:
        status, vec = fd_attempt(c * grid)
        outcomes[c] = status
        if status == "solution":
            return polish(vec)
        return None

    # each rung's bracket with the rung before is bisected, breadth first,
    # as soon as it appears, so that the first solution found ends the search
    for i, c in enumerate(amplitudes):
        out = try_amplitude(c)
        if out is not None:
            return out
        frontier = [(amplitudes[i - 1], c)] if i else []
        for _ in range(cfg.bisect_depth):
            next_frontier = []
            for lo, hi in frontier:
                if outcomes.get(lo) == outcomes.get(hi):
                    continue
                mid = math.sqrt(lo * hi)
                if mid in outcomes:
                    continue
                out = try_amplitude(mid)
                if out is not None:
                    return out
                next_frontier.extend([(lo, mid), (mid, hi)])
            frontier = next_frontier

    raise SearchFailureError(
        f"no nontrivial positive fixed point found (best residual {best_residual:.3e})",
        best_residual=best_residual)
