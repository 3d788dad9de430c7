"""Constant-sign classification of the kernel and the data behind the cones.

The positivity frontier is

    Delta(gamma) = m sinh(m)/(cosh(m) - 1)   (gamma = -m^2 < 0)
                 = 2                          (gamma = 0)
                 = m sin(m)/(1 - cos(m))      (gamma = m^2 > 0)

which is the resonance curve lam = C(1/2)/S(1/2) of kernel.py, computed
through the half-angle ratios m/tanh(m/2) and m/tan(m/2).  The kernel is
positive on (0,1)^2 exactly for 0 <= lam < Delta(gamma), with the
trigonometric case certified only for m <= pi; beyond that the
classification falls back to a grid scan and says so.

For a positive kernel with 0 < lam < Delta and gamma < pi^2 the two-sided
bound

    h(t) * G(1, s) <= G(t, s) <= C * G(1, s)

is produced by bound_constants in closed form.  With q = (Delta - lam)/lam,
w(x) = S(x)/S(1) for the S of kernel.py (sin(mx)/sin m, sinh(mx)/sinh m
for gamma < 0) and c = cos (cosh for gamma < 0), the ratio G(t,s)/G(1,s)
at fixed t rises on (0,t) and falls on (t,1): its s-derivative has the
sign of c(m/2) > 0.  Hence

    h(t) = min(lim_{s->0} ratio, lim_{s->1} ratio)
         = min(w(1-t) q + w(t), w(t) Delta/lam),

and C is the maximum over x of the diagonal ratio

    D(x) = G(x,x)/G(1,x) = w(x) + q c(mx/2) c(m(1-x)/2)/c(m/2),

which runs from D(0) = q to D(1) = Delta/lam.  For gamma < 0, D is convex,
so C = Delta/lam.  For gamma > 0, D = A sin(mx) + B cos(mx) + B with
A = 1/sin m + B tan(m/2) and B = q/2, whose maximum on [0,1] lies at
x = atan2(A, B)/m or, past it, at x = 1.  These forms hold for every
nonzero gamma, however small, since S and C have no cancelling differences.
At gamma = 0 itself the exact forms h(t) = t, C = 2/lam are used; t lies
below the limit of h(t) as gamma -> 0.  C is inflated by one part in 1e9
against rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ClassificationError, DegenerateConeError, DomainError, InputError
from .kernel import GreenKernel, _Basis, check_resonance, resonance_curve
from .params import ProblemParams, Regime

__all__ = ["delta", "SignClass", "classify_sign", "ConeSpec", "bound_constants",
           "max_kernel_bound"]

PI_SQ = math.pi ** 2


def delta(gamma: float) -> float:
    """Positivity frontier Delta(gamma) for gamma < pi^2."""
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise InputError(f"gamma must be finite, got {gamma!r}")
    if gamma >= PI_SQ:
        raise DomainError(f"Delta(gamma) requires gamma < pi^2, got {gamma}")
    return resonance_curve(gamma)


@dataclass(frozen=True)
class SignClass:
    """Sign classification of the kernel on the open square.

    kind is "positive" or "changes_sign".  source records whether the answer
    is analytic ("analytic": decided by the closed-form frontier) or a
    numerical grid scan (gamma > pi^2).  At lam = 0 the
    kernel is still positive inside but G(1, s) vanishes identically, which
    degenerates the cone construction; that boundary case is flagged.
    """

    kind: str
    source: str = "analytic"
    lambda_zero_boundary: bool = False

    @property
    def positive(self) -> bool:
        return self.kind == "positive"


def classify_sign(params: ProblemParams, grid_n: int = 201) -> SignClass:
    """Classify the sign of G on (0,1)^2; refuses resonant parameters."""
    report = check_resonance(params)
    if report.resonant:
        from .errors import ResonanceError

        raise ResonanceError(
            f"cannot classify sign at resonant parameters "
            f"gamma={params.gamma}, lambda={params.lam}", report=report)

    lam = params.lam
    boundary = lam == 0.0
    if params.gamma <= PI_SQ:
        frontier = resonance_curve(params.gamma)
        if params.gamma == PI_SQ:
            frontier = 0.0
        kind = "positive" if (0.0 <= lam < frontier) else "changes_sign"
        return SignClass(kind=kind, source="analytic", lambda_zero_boundary=boundary)

    # m > pi: the frontier characterization is certified only up to
    # m = pi; beyond it, classify by scanning a mesh.
    kernel = GreenKernel(params)
    pts = np.linspace(0.0, 1.0, grid_n + 2)[1:-1]
    vals = kernel.eval(pts[:, None], pts[None, :])
    kind = "changes_sign" if vals.min() < -1e-8 else "positive"
    return SignClass(kind=kind, source="numerical", lambda_zero_boundary=boundary)


@dataclass
class ConeSpec:
    """Lower envelope h and constant C with h(t) G(1,s) <= G(t,s) <= C G(1,s).

    For gamma = 0 the envelope is exactly t and C = 2/lam.  Otherwise
    envelope() evaluates the closed form h(t) = min(w(1-t) q + w(t),
    w(t) Delta/lam), the smaller of the two endpoint limits of the ratio
    G(t,s)/G(1,s), which is its minimum over s because the ratio rises up
    to s = t and falls after it.
    """

    gamma: float
    lam: float
    regime: str
    constant: float
    exact: bool = False

    def envelope(self, t):
        """Evaluate the lower envelope h at t (scalar or array)."""
        t_arr = np.asarray(t, dtype=float)
        if self.exact:
            out = t_arr.astype(float)
        else:
            frontier = delta(self.gamma)
            w_t = _w(self.gamma, t_arr)
            out = np.minimum(_w(self.gamma, 1.0 - t_arr) * (frontier - self.lam) / self.lam + w_t,
                             w_t * frontier / self.lam)
        if np.isscalar(t):
            return float(out)
        return out

    def lower_cone_envelope(self, t):
        """h(t)/C, the coefficient in the cone inequality u >= (h/C)||u||."""
        if self.exact:
            # (lam/2) t is t/C without the rounding of C = 2/lam
            return 0.5 * self.lam * self.envelope(t)
        return self.envelope(t) / self.constant


def max_kernel_bound(params: ProblemParams) -> float:
    """Uniform bound G <= 1/(2(2-lam)) valid for gamma = 0, lam in [0,2)."""
    if params.regime is not Regime.ZERO:
        raise DomainError("max_kernel_bound applies to the gamma = 0 kernel only")
    if not (0.0 <= params.lam < 2.0):
        raise DomainError(f"max_kernel_bound requires lambda in [0,2), got {params.lam}")
    return 1.0 / (2.0 * (2.0 - params.lam))


def _w(gamma: float, x):
    """The homogeneous solution S(x)/S(1), with value 1 at x = 1."""
    b = _Basis(gamma)
    x = np.asarray(x, dtype=float)
    return b.scale(b.s(x) / b.s(1.0), x, 1.0)


def bound_constants(params: ProblemParams) -> ConeSpec:
    """Compute the ConeSpec (envelope h, constant C) for a positive kernel.

    Both come in closed form (see the module docstring): h(t) is the
    smaller endpoint limit of G(t,s)/G(1,s) over s, and C the maximum of
    the diagonal ratio D(x) = G(x,x)/G(1,x), which is Delta/lam for
    gamma < 0 and sits at x = min(atan2(A, B)/m, 1) for gamma > 0.

    Args:
        params: problem parameters; the kernel must be Positive-classified,
            lam must be strictly positive and gamma below pi^2.

    Returns:
        ConeSpec whose envelope and constant satisfy the sandwich
        h(t) G(1,s) <= G(t,s) <= C G(1,s) on [0,1]^2.

    Raises:
        DegenerateConeError: lam = 0 (G(1,s) vanishes identically).
        ClassificationError: the kernel changes sign, or gamma >= pi^2,
            where the closed forms are not proved.
        ResonanceError: the kernel does not exist at these parameters.
    """
    sign = classify_sign(params)
    if not sign.positive:
        raise ClassificationError(
            f"kernel with gamma={params.gamma}, lambda={params.lam} is not of constant sign")
    if params.lam == 0.0:
        raise DegenerateConeError("lambda = 0 makes G(1,s) identically zero; no cone constants")

    if params.regime is Regime.ZERO:
        return ConeSpec(
            gamma=params.gamma, lam=params.lam, regime=Regime.ZERO.value,
            constant=2.0 / params.lam, exact=True)
    if params.gamma >= PI_SQ:
        raise ClassificationError(
            f"cone constants are proved only for gamma < pi^2, got gamma={params.gamma}")

    # the kernel also refuses tiny lam inside its m = k*pi limit windows
    kernel = GreenKernel(params)
    lam, m = params.lam, kernel.m
    frontier = delta(params.gamma)
    if params.gamma < 0.0:
        # D is convex, so its maximum is D(1)
        c_max = frontier / lam
    else:
        # D = A sin(mx) + B cos(mx) + B rises up to mx = atan2(A, B)
        q = (frontier - lam) / lam
        a = 1.0 / math.sin(m) + 0.5 * q * math.tan(0.5 * m)
        x = min(math.atan2(a, 0.5 * q) / m, 1.0)
        c_max = (math.sin(m * x) / math.sin(m)
                 + q * math.cos(0.5 * m * x) * math.cos(0.5 * m * (1.0 - x)) / math.cos(0.5 * m))
    constant = c_max * (1.0 + 1e-9) + 1e-12

    return ConeSpec(
        gamma=params.gamma, lam=lam, regime=kernel.regime.value,
        constant=float(constant), exact=False)
