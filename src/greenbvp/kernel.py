"""Closed-form Green's function for u'' + gamma*u + sigma = 0 with
u(0) = 0 and u(1) = lam * int_0^1 u(s) ds.

Let S and C be the solutions of u'' + gamma*u = 0 with S(0) = 0, S'(0) = 1
and C(0) = 1, C'(0) = 0:

    S(x) = sin(mx)/m,  C(x) = cos(mx)    (gamma = m^2 > 0)
    S(x) = sinh(mx)/m, C(x) = cosh(mx)   (gamma = -m^2 < 0)
    S(x) = x,          C(x) = 1          (gamma = 0).

Both are entire in gamma, and S' = C, C' = -gamma*S.  The Dirichlet kernel
is Gv = S(min(t,s)) S(1-max(t,s))/S(1), the homogeneous solution with
w(0) = 0, w(1) = 1 is w = S(t)/S(1), and by the half-angle identities

    int_0^1 Gv(tau, s) dtau = 2 S(s/2) S((1-s)/2)/C(1/2),
    int_0^1 w = S(1/2)/C(1/2).

The kernel Gv + lam w(t) int Gv(., s)/(1 - lam int w) is then one formula
for every gamma,

    G(t, s) = [S(min) S(1-max) + lam S(t) 2 S(s/2) S((1-s)/2)/E] / S(1),
    E = C(1/2) - lam S(1/2),

with dG/dt from S' = C.  It is continuous at t = s by construction, gamma =
0 is its limit rather than a separate case, and no factor is a difference
that cancels as s -> 0, s -> 1 or gamma -> 0 (Poschel & Trubowitz, Inverse
Spectral Theory, 1987, ch. 1).  For gamma < 0, S and C are evaluated scaled
by exp(-mx), and each term carries the one exponential left after the
scales cancel, so no factor overflows for large m.

E vanishes exactly on the resonance curve lam = C(1/2)/S(1/2), which is

    gamma = 0:  lam = 2
    gamma > 0:  lam = m/tan(m/2) = m sin m/(1 - cos m),  plus every m = 2k*pi
    gamma < 0:  lam = m/tanh(m/2) = m sinh m/(cosh m - 1);

at m = 2k*pi, sin(mt) solves the homogeneous problem for every lam.
For m = k*pi with k odd, S(1) and the numerator vanish together, so inside
the window |m - k*pi| < BRANCH_EPS the limit formulas are used instead;
they require lam != 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResonanceError
from .params import ProblemParams, Regime, classify_gamma

__all__ = [
    "RESONANCE_EPS",
    "BRANCH_EPS",
    "ResonanceReport",
    "resonance_curve",
    "check_resonance",
    "GreenKernel",
    "classify_gamma",
    "ProblemParams",
    "Regime",
]

RESONANCE_EPS = 1e-9
BRANCH_EPS = 1e-6

_TWO_PI = 2.0 * math.pi


def resonance_curve(gamma: float) -> float:
    """Value of lambda on the resonance curve for the given gamma.

    Uses the half-angle forms m/tan(m/2) and m/tanh(m/2), which equal the
    textbook ratios m sin m/(1-cos m) and m sinh m/(cosh m - 1) but stay
    accurate near m = 0.  Returns +inf where the curve has a pole.
    """
    regime, m = classify_gamma(gamma)
    if regime is Regime.ZERO:
        return 2.0
    if regime is Regime.NEGATIVE:
        return m / math.tanh(0.5 * m)
    denom = math.tan(0.5 * m)
    if denom == 0.0 or not math.isfinite(denom):
        return math.inf
    value = m / denom
    return value if math.isfinite(value) else math.inf


@dataclass(frozen=True)
class ResonanceReport:
    """Outcome of a resonance proximity test.

    branch is "lambda_curve", "trig_null_m" or "none"; k indexes the
    trigonometric null m = 2*k*pi when that branch fires.  distance is the
    absolute gap to the nearest resonant set.
    """

    resonant: bool
    branch: str
    k: int | None
    distance: float

    def to_dict(self) -> dict:
        return {
            "resonant": self.resonant,
            "branch": self.branch,
            "k": self.k,
            "distance": self.distance,
        }


def check_resonance(params: ProblemParams, epsilon: float = RESONANCE_EPS) -> ResonanceReport:
    """Measure the gap between (gamma, lambda) and the resonant set."""
    if not (epsilon > 0.0):
        raise InputError(f"epsilon must be positive, got {epsilon!r}")
    regime, m = classify_gamma(params.gamma)
    curve = resonance_curve(params.gamma)
    d_curve = abs(params.lam - curve) if math.isfinite(curve) else math.inf

    if regime is Regime.POSITIVE:
        k = max(1, int(round(m / _TWO_PI)))
        d_trig = abs(m - _TWO_PI * k)
        if d_trig <= d_curve:
            dist, branch, kk = d_trig, "trig_null_m", k
        else:
            dist, branch, kk = d_curve, "lambda_curve", None
    else:
        dist, branch, kk = d_curve, "lambda_curve", None

    resonant = dist < epsilon
    if not resonant:
        branch, kk = "none", None
    return ResonanceReport(resonant=resonant, branch=branch, k=kk, distance=dist)


class _Basis:
    """S and C of u'' + gamma*u = 0 (see the module docstring), scaled.

    s(x) and c(x) hold the factors S(x) = exp(kx) s(x)/unit and C(x) =
    exp(kx) c(x), with k = m for gamma < 0 and 0 otherwise, so a product or
    ratio of factors needs one scale() by the exponential of its net
    argument.  unit = max(m, 1) keeps s of order one for every m: below m = 1
    it is S itself, and above it no factor carries a rounded 1/m.
    """

    def __init__(self, gamma: float):
        self.regime, self.m = classify_gamma(gamma)
        self.unit = max(self.m, 1.0)
        self._div = min(self.m, 1.0)

    def s(self, x):
        m = self.m
        if self.regime is Regime.POSITIVE:
            return np.sin(m * x) / self._div
        if self.regime is Regime.NEGATIVE:
            return np.expm1(-2.0 * m * x) / (-2.0 * self._div)
        return x

    def c(self, x):
        m = self.m
        if self.regime is Regime.POSITIVE:
            return np.cos(m * x)
        if self.regime is Regime.NEGATIVE:
            return 0.5 * (1.0 + np.exp(-2.0 * m * x))
        return 1.0

    def scale(self, value, lo, hi):
        """value * exp(k (lo - hi)): value with its scaled factors restored."""
        if self.regime is Regime.NEGATIVE:
            return value * np.exp(self.m * (lo - hi))
        return value


class GreenKernel:
    """Immutable evaluator of G_gamma(t, s) on [0,1]^2 for fixed parameters.

    Construction refuses resonant parameters outright (the kernel does not
    exist there), raising ResonanceError with the offending report.  All
    evaluation methods are pure and accept scalars or broadcastable arrays.
    """

    def __init__(self, params: ProblemParams):
        report = check_resonance(params)
        if report.resonant:
            raise ResonanceError(
                f"parameters gamma={params.gamma}, lambda={params.lam} are resonant "
                f"({report.branch}, distance {report.distance:.3e})",
                report=report,
            )
        self.params = params
        self._basis = b = _Basis(params.gamma)
        self.regime, self.m = b.regime, b.m
        lam = params.lam
        # in the scaled factors, G = [gv + rank_one] / (unit s(1)) with
        # rank_one = lam s(t) 2 s(s/2) s((1-s)/2)/E, the 2 taken into E/2.
        # At gamma = 0 the factors are their arguments and the constants are
        # powers of two, so G rounds exactly as min(t,s)(1 - max(t,s)) +
        # lam t s (1-s)/(2 - lam) does
        self._s1 = b.s(1.0)
        self._norm = b.unit * self._s1
        self._half_E = 0.5 * (b.unit * b.c(0.5) - lam * b.s(0.5))

        self._degenerate_k = None
        k = int(round(self.m / math.pi))
        if (self.regime is Regime.POSITIVE and k % 2 == 1
                and abs(self.m - k * math.pi) < BRANCH_EPS):
            if abs(lam) < 1e-6:
                raise ResonanceError(
                    f"gamma={params.gamma} lies in the degenerate m=k*pi window "
                    f"and lambda={lam} is too close to the resonant value 0 there",
                    report=ResonanceReport(True, "lambda_curve", None, abs(lam)),
                )
            self._degenerate_k = k

    # -- evaluation ------------------------------------------------------

    @staticmethod
    def _unit_square(t, s):
        t_arr = np.asarray(t, dtype=float)
        s_arr = np.asarray(s, dtype=float)
        for name, arr in (("t", t_arr), ("s", s_arr)):
            if arr.size and (np.min(arr) < -1e-9 or np.max(arr) > 1.0 + 1e-9):
                raise InputError(f"{name} must lie in [0, 1]")
        return np.clip(t_arr, 0.0, 1.0), np.clip(s_arr, 0.0, 1.0)

    def eval(self, t, s):
        """G(t, s); scalars in, scalar out; arrays broadcast."""
        t_arr, s_arr = self._unit_square(t, s)
        out = self._eval_arrays(t_arr, s_arr)
        if np.isscalar(t) and np.isscalar(s):
            return float(out)
        return out

    def dt(self, t, s, side: str = "right"):
        """One-sided dG/dt; `side` selects the branch exactly at t = s."""
        if side not in ("left", "right"):
            raise InputError(f"side must be 'left' or 'right', got {side!r}")
        t_arr, s_arr = self._unit_square(t, s)
        out = self._dt_arrays(t_arr, s_arr, side)
        if np.isscalar(t) and np.isscalar(s):
            return float(out)
        return out

    def _eval_arrays(self, t, s):
        if self._degenerate_k is not None:
            return self._eval_degenerate(t, s)
        b = self._basis
        mn = np.minimum(t, s)
        mx = np.maximum(t, s)
        gv = b.scale(b.s(mn) * b.s(1.0 - mx), mn, mx)
        rank_one = (self.params.lam * b.s(t) * b.s(0.5 * s) * b.s(0.5 * (1.0 - s))
                    / self._half_E)
        return (gv + b.scale(rank_one, t, 1.0)) / self._norm

    def _eval_degenerate(self, t, s):
        k = self._degenerate_k
        lam = self.params.lam
        w = math.pi * k
        ss, cs = np.sin(w * s), np.cos(w * s)
        st, ct = np.sin(w * t), np.cos(w * t)
        g1 = (2.0 * lam * ss * ct + st * (lam * (1.0 - cs) - w * ss)) / (2.0 * w * lam)
        g2 = st * (lam * (1.0 + cs) - w * ss) / (2.0 * w * lam)
        return np.where(s <= t, g1, g2)

    def _dt_arrays(self, t, s, side):
        lam = self.params.lam
        if side == "right":
            upper = s <= t     # branch with s below the diagonal is active
        else:
            upper = s < t

        if self._degenerate_k is not None:
            k = self._degenerate_k
            w = math.pi * k
            ss, cs = np.sin(w * s), np.cos(w * s)
            st, ct = np.sin(w * t), np.cos(w * t)
            d1 = (-2.0 * lam * ss * st + ct * (lam * (1.0 - cs) - w * ss)) / (2.0 * lam)
            d2 = ct * (lam * (1.0 + cs) - w * ss) / (2.0 * lam)
            return np.where(upper, d1, d2)

        b = self._basis
        dgv = np.where(upper, -b.s(s) * b.c(1.0 - t), b.c(t) * b.s(1.0 - s))
        rank_one = lam * b.c(t) * b.s(0.5 * s) * b.s(0.5 * (1.0 - s)) / self._half_E
        return (b.scale(dgv, np.minimum(t, s), np.maximum(t, s))
                + b.scale(rank_one, t, 1.0)) / self._s1
