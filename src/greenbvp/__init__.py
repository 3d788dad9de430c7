"""Green's functions and positive solutions for u'' + gamma*u + f(t,u) = 0
under u(0) = 0, u(1) = lambda * int_0^1 u(s) ds."""

from .params import ProblemParams, Regime, classify_gamma
from .kernel import (
    GreenKernel,
    ResonanceReport,
    check_resonance,
    resonance_curve,
)
from .spectrum import ConeSpec, SignClass, bound_constants, classify_sign, delta, max_kernel_bound
from .profile import SolutionProfile
from .quadrature import QuadratureRule, integrate, integrate_kernel_row
from .linear import ResidualReport, solve_linear, verify_solution
from .fdsolve import FDSystem, solve_fd_linear, solve_fd_newton
from .expr import Expression, parse
from .nonlinear import (
    ConeMembership,
    GrowthReport,
    NonlinearProblem,
    SolveConfig,
    SolveResult,
    apply_T,
    cone_membership,
    growth_report,
    reflect_problem,
    solve_positive,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ProblemParams", "Regime", "classify_gamma",
    "GreenKernel", "ResonanceReport", "check_resonance", "resonance_curve",
    "delta", "SignClass", "classify_sign", "ConeSpec", "bound_constants",
    "max_kernel_bound",
    "SolutionProfile",
    "QuadratureRule", "integrate", "integrate_kernel_row",
    "ResidualReport", "solve_linear", "verify_solution",
    "FDSystem", "solve_fd_linear", "solve_fd_newton",
    "Expression", "parse",
    "NonlinearProblem", "SolveConfig", "SolveResult", "GrowthReport",
    "ConeMembership", "apply_T", "growth_report", "solve_positive",
    "cone_membership", "reflect_problem",
    "errors",
]
