"""Closed-form Green's functions for u'' + gamma*u + sigma = 0 with
u(0) = 0 and u(1) = lam * int_0^1 u(s) ds.

Three regimes share one structure.  Writing Gv for the Green's function of
the two-point Dirichlet problem of the same equation and w for the solution
of the homogeneous equation with w(0) = 0, w(1) = 1, the full kernel is

    G(t, s) = Gv(t, s) + lam * w(t) * J(s) / E,

where J collects the integral of the Dirichlet kernel column and E is the
scalar whose vanishing marks resonance:

    gamma = 0:      Gv = min(t,s)(1 - max(t,s)),      w = t,
                    J = s(1-s),                        E = 2 - lam
    gamma = m^2:    Gv = sin(m*min)sin(m(1-max))/(m sin m),
                    w = sin(mt)/sin m,
                    J = [sin(ms)+sin(m(1-s))-sin m]/m, E = m sin m - lam(1-cos m)
    gamma = -m^2:   hyperbolic mirror of the above with
                    E = m sinh m + lam(1 - cosh m).

Expanding these recovers the usual two-branch piecewise formulas; the
combined form is continuous at t = s by construction and keeps every factor
bounded (the hyperbolic helpers switch to exponential ratios for large m).

For gamma = (k*pi)^2 with k odd the trigonometric denominators cancel only
analytically, so inside a small window |m - k*pi| < branch_eps the limit
formulas are used instead; they require lam != 0.

The resonant set, where no Green's function exists, is

    gamma = 0:  lam = 2
    gamma > 0:  lam = m sin m/(1 - cos m) = m/tan(m/2),  plus every m = 2k*pi
    gamma < 0:  lam = m sinh m/(cosh m - 1) = m/tanh(m/2).
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

# Above this m the raw hyperbolic functions overflow; switch to exp ratios.
_HYPER_DIRECT_MAX = 300.0


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


def _sinh_ratio(m: float, a):
    """sinh(m*a)/sinh(m) for a in [0, 1], overflow-safe in m."""
    a = np.asarray(a, dtype=float)
    if m <= _HYPER_DIRECT_MAX:
        return np.sinh(m * a) / math.sinh(m)
    return np.exp(m * (a - 1.0)) * (-np.expm1(-2.0 * m * a)) / (-math.expm1(-2.0 * m))


def _cosh_ratio(m: float, a):
    """cosh(m*a)/sinh(m), overflow-safe in m."""
    a = np.asarray(a, dtype=float)
    if m <= _HYPER_DIRECT_MAX:
        return np.cosh(m * a) / math.sinh(m)
    return np.exp(m * (a - 1.0)) * (1.0 + np.exp(-2.0 * m * a)) / (-math.expm1(-2.0 * m))


def _pair_ss(m: float, a, b):
    """sinh(m*a)*sinh(m*b)/sinh(m) for a + b <= 1, overflow-safe."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if m <= _HYPER_DIRECT_MAX:
        return np.sinh(m * a) * np.sinh(m * b) / math.sinh(m)
    num = np.exp(m * (a + b - 1.0)) * (-np.expm1(-2.0 * m * a)) * (-np.expm1(-2.0 * m * b))
    return num / (2.0 * (-math.expm1(-2.0 * m)))


def _pair_sc(m: float, a, b):
    """sinh(m*a)*cosh(m*b)/sinh(m) for a + b <= 1, overflow-safe."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if m <= _HYPER_DIRECT_MAX:
        return np.sinh(m * a) * np.cosh(m * b) / math.sinh(m)
    num = np.exp(m * (a + b - 1.0)) * (-np.expm1(-2.0 * m * a)) * (1.0 + np.exp(-2.0 * m * b))
    return num / (2.0 * (-math.expm1(-2.0 * m)))


class GreenKernel:
    """Immutable evaluator of G_gamma(t, s) on [0,1]^2 for fixed parameters.

    Construction refuses resonant parameters outright (the kernel does not
    exist there), raising ResonanceError with the offending report.  All
    evaluation methods are pure and accept scalars or broadcastable arrays.
    """

    def __init__(self, params: ProblemParams, resonance_eps: float = RESONANCE_EPS,
                 branch_eps: float = BRANCH_EPS):
        report = check_resonance(params, resonance_eps)
        if report.resonant:
            raise ResonanceError(
                f"parameters gamma={params.gamma}, lambda={params.lam} are resonant "
                f"({report.branch}, distance {report.distance:.3e})",
                report=report,
            )
        self.params = params
        self.resonance_eps = float(resonance_eps)
        self.branch_eps = float(branch_eps)
        regime, m = classify_gamma(params.gamma)
        self.regime = regime
        self.m = m
        lam = params.lam

        self._degenerate_k = None
        if regime is Regime.ZERO:
            self._E = 2.0 - lam
        elif regime is Regime.POSITIVE:
            k = int(round(m / math.pi))
            if k >= 1 and k % 2 == 1 and abs(m - k * math.pi) < branch_eps:
                if abs(lam) < 1e-6:
                    raise ResonanceError(
                        f"gamma={params.gamma} lies in the degenerate m=k*pi window "
                        f"and lambda={lam} is too close to the resonant value 0 there",
                        report=ResonanceReport(True, "lambda_curve", None, abs(lam)),
                    )
                self._degenerate_k = k
            self._sm = math.sin(m)
            self._cm = math.cos(m)
            self._E = m * self._sm - lam * (1.0 - self._cm)
        else:
            # q = lam/Delta(gamma); E = m^2 (1 - q) = m * Dbar / sinh m
            self._q = lam * math.tanh(0.5 * m) / m
            self._E = m * m * (1.0 - self._q)

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
        lam = self.params.lam
        m = self.m
        mn = np.minimum(t, s)
        mx = np.maximum(t, s)

        if self._degenerate_k is not None:
            return self._eval_degenerate(t, s)

        if self.regime is Regime.ZERO:
            gv = mn * (1.0 - mx)
            return gv + lam * t * s * (1.0 - s) / self._E

        if self.regime is Regime.POSITIVE:
            sm = self._sm
            gv = np.sin(m * mn) * np.sin(m * (1.0 - mx)) / (m * sm)
            r = np.sin(m * s) + np.sin(m * (1.0 - s)) - sm
            return gv + lam * np.sin(m * t) * r / (sm * m * self._E)

        gv = _pair_ss(m, mn, 1.0 - mx) / m
        b = 1.0 - _sinh_ratio(m, s) - _sinh_ratio(m, 1.0 - s)
        return gv + lam * _sinh_ratio(m, t) * b / self._E

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
        m = self.m
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

        if self.regime is Regime.ZERO:
            dgv = np.where(upper, -s, 1.0 - s)
            return dgv + lam * s * (1.0 - s) / self._E

        if self.regime is Regime.POSITIVE:
            sm = self._sm
            dgv = np.where(
                upper,
                -np.sin(m * s) * np.cos(m * (1.0 - t)) / sm,
                np.cos(m * t) * np.sin(m * (1.0 - s)) / sm,
            )
            r = np.sin(m * s) + np.sin(m * (1.0 - s)) - sm
            return dgv + lam * np.cos(m * t) * r / (sm * self._E)

        dgv = np.where(upper, -_pair_sc(m, s, 1.0 - t), _pair_sc(m, 1.0 - s, t))
        b = 1.0 - _sinh_ratio(m, s) - _sinh_ratio(m, 1.0 - s)
        return dgv + lam * m * _cosh_ratio(m, t) * b / self._E
