"""Kernel evaluation: literal-formula oracle, examples, jump, invariants."""
import math

import mpmath
import numpy as np
import pytest

from greenbvp.errors import InputError, ResonanceError
from greenbvp.kernel import GreenKernel, ResonanceReport, check_resonance, resonance_curve
from greenbvp.params import ProblemParams, Regime, classify_gamma
from greenbvp.quadrature import QuadratureRule, integrate


# -- literal two-branch formulas, used as an independent oracle ------------
# lib supplies sin and cos (sinh and cosh): numpy, or mpmath for an exact
# reference

def literal_zero(lam, t, s):
    e = 2.0 - lam
    g1 = (t * (1 - s) * (2 - lam + lam * s) - (2 - lam) * (t - s)) / e
    g2 = t * (1 - s) * (2 - lam + lam * s) / e
    return np.where(s <= t, g1, g2)


def literal_pos(m, lam, t, s, lib=np):
    sin = lib.sin
    sm, cm = sin(m), lib.cos(m)
    d = m * sm - lam * (1 - cm)
    den = m * sm * d
    g1 = (sin(m * s) * (sin(m - m * t) * d + lam * sin(m * t))
          + lam * sin(m * t) * (sin(m - m * s) - sm)) / den
    g2 = sin(m * t) * (sin(m - m * s) * (m * sm + lam * cm)
                       + lam * (sin(m * s) - sm)) / den
    return np.where(s <= t, g1, g2)


def literal_neg(m, lam, t, s, lib=np):
    sinh = lib.sinh
    sh, ch = sinh(m), lib.cosh(m)
    db = m * sh + lam * (1 - ch)
    den = m * sh * db
    g1 = (sinh(m * s) * (sinh(m - m * t) * db - lam * sinh(m * t))
          - lam * sinh(m * t) * (sinh(m - m * s) - sh)) / den
    g2 = sinh(m * t) * (sinh(m - m * s) * (m * sh - lam * ch)
                        - lam * (sinh(m * s) - sh)) / den
    return np.where(s <= t, g1, g2)


def test_classify_gamma():
    assert classify_gamma(0.0) == (Regime.ZERO, 0.0)
    assert classify_gamma(4.0) == (Regime.POSITIVE, 2.0)
    assert classify_gamma(-1.0) == (Regime.NEGATIVE, 1.0)
    with pytest.raises(InputError):
        classify_gamma(float("nan"))
    with pytest.raises(InputError):
        classify_gamma(float("inf"))


def test_params_regime_and_m():
    p = ProblemParams(-9.0, 1.5)
    assert p.regime is Regime.NEGATIVE
    assert p.m == 3.0
    assert p.m ** 2 == abs(p.gamma)


def test_check_resonance_examples():
    rep = check_resonance(ProblemParams(0.0, 2.0), 1e-9)
    assert rep == ResonanceReport(True, "lambda_curve", None, 0.0)

    rep = check_resonance(ProblemParams((2 * math.pi) ** 2, 0.7), 1e-9)
    assert rep.resonant and rep.branch == "trig_null_m" and rep.k == 1

    # sin(1)/(1 - cos(1)) = 1.8304877...; the probe value sits 2.8e-7 away
    rep = check_resonance(ProblemParams(1.0, 1.830488), 1e-5)
    assert rep.resonant and rep.branch == "lambda_curve"
    assert abs(rep.distance - abs(1.830488 - math.sin(1) / (1 - math.cos(1)))) < 1e-12

    rep = check_resonance(ProblemParams(1.0, 1.0), 1e-9)
    assert not rep.resonant and rep.branch == "none" and rep.k is None
    with pytest.raises(InputError):
        check_resonance(ProblemParams(1.0, 1.0), 0.0)


def test_resonance_curve_matches_textbook_ratios():
    for m in [0.3, 1.0, 2.5, 3.0, 4.7, 6.0]:
        assert resonance_curve(m * m) == pytest.approx(
            m * math.sin(m) / (1 - math.cos(m)), rel=1e-12)
        assert resonance_curve(-m * m) == pytest.approx(
            m * math.sinh(m) / (math.cosh(m) - 1), rel=1e-12)
    assert resonance_curve(0.0) == 2.0


def test_green_eval_spec_examples():
    k = GreenKernel(ProblemParams(0.0, 1.0))
    assert k.eval(0.25, 0.5) == pytest.approx(0.1875, abs=1e-15)
    assert k.eval(0.75, 0.5) == pytest.approx(0.3125, abs=1e-15)
    assert k.eval(0.3, 1.0) == 0.0

    k2 = GreenKernel(ProblemParams(-1.0, 0.0))
    want = math.sinh(0.5) ** 2 / math.sinh(1.0)
    assert k2.eval(0.5, 0.5) == pytest.approx(want, rel=1e-14)


def test_matches_literal_formulas():
    rng = np.random.default_rng(7)
    t = rng.uniform(0, 1, 500)
    s = rng.uniform(0, 1, 500)
    for lam in [0.0, 0.5, 1.9, 3.0, -1.0]:
        k = GreenKernel(ProblemParams(0.0, lam))
        assert np.max(np.abs(k.eval(t, s) - literal_zero(lam, t, s))) < 1e-13
    for gamma, lam in [(1.0, 0.5), (9.5, 0.05), (0.25, 1.5), (50.0, -2.0)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        m = math.sqrt(gamma)
        assert np.max(np.abs(k.eval(t, s) - literal_pos(m, lam, t, s))) < 1e-12
    for gamma, lam in [(-1.0, 0.5), (-25.0, 2.0), (-0.25, 1.5), (-100.0, 3.0)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        m = math.sqrt(-gamma)
        assert np.max(np.abs(k.eval(t, s) - literal_neg(m, lam, t, s))) < 1e-12


def test_gamma_zero_bytes_pinned():
    # the gamma = 0 kernel is the product min(t,s)(1 - max(t,s)) plus
    # lam t s (1-s)/(2 - lam), rounded in exactly this order
    rng = np.random.default_rng(21)
    t = rng.uniform(0, 1, 100_000)
    s = rng.uniform(0, 1, 100_000)
    for lam in [0.8, 1.0, 1.2, 1.9]:
        want = np.minimum(t, s) * (1 - np.maximum(t, s)) + lam * t * s * (1 - s) / (2 - lam)
        assert np.array_equal(GreenKernel(ProblemParams(0.0, lam)).eval(t, s), want)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_tiny_gamma_tends_to_gamma_zero(sign):
    x = np.linspace(0, 1, 51)
    tt, ss = np.meshgrid(x, x)
    g0 = GreenKernel(ProblemParams(0.0, 1.0)).eval(tt, ss)
    for size in [1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4]:
        g = GreenKernel(ProblemParams(sign * size, 1.0)).eval(tt, ss)
        assert np.max(np.abs(g - g0)) <= 10 * size + 1e-15, size


@pytest.mark.parametrize("gamma", [0.02, -0.02, 1e-5, -1e-5])
def test_relative_accuracy_next_to_the_ends(gamma):
    # G(t, s) = O(s) and O(1 - s) at the ends, which no term may cancel to
    literal = literal_pos if gamma > 0 else literal_neg
    k = GreenKernel(ProblemParams(gamma, 1.0))
    with mpmath.workdps(50):
        m = mpmath.sqrt(abs(mpmath.mpf(gamma)))
        for s in [1e-7, 1 - 1e-7]:
            for t in [1e-7, 0.3, 0.5, 1 - 1e-7, 1.0]:
                want = literal(m, 1, mpmath.mpf(t), mpmath.mpf(s), lib=mpmath)[()]
                assert abs(k.eval(t, s) - want) <= 1e-14 * abs(want), (t, s)


def test_resonance_refusal():
    with pytest.raises(ResonanceError) as exc:
        GreenKernel(ProblemParams(0.0, 2.0))
    assert exc.value.report is not None and exc.value.report.resonant
    with pytest.raises(ResonanceError):
        GreenKernel(ProblemParams((2 * math.pi) ** 2, 1.3))


def test_green_dt_examples_and_jump():
    k = GreenKernel(ProblemParams(0.0, 0.0))
    assert k.dt(0.5, 0.5, "left") == pytest.approx(0.5, abs=1e-15)
    assert k.dt(0.5, 0.5, "right") == pytest.approx(-0.5, abs=1e-15)
    with pytest.raises(InputError):
        k.dt(0.5, 0.5, "up")

    ss = np.linspace(0.1, 0.9, 9)
    for gamma, lam in [(0.0, 1.0), (4.0, 1.3), (-9.0, 2.0), (9.5, 0.05),
                       (math.pi ** 2, 0.7), (-25.0, 1.0)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        jump = k.dt(ss, ss, "right") - k.dt(ss, ss, "left")
        assert np.max(np.abs(jump + 1.0)) < 1e-8


def test_dt_matches_finite_differences_off_diagonal():
    rng = np.random.default_rng(3)
    h = 1e-6
    for gamma, lam in [(0.0, 1.2), (6.0, 0.4), (-12.0, 2.0)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        for _ in range(20):
            t = rng.uniform(0.05, 0.95)
            s = rng.uniform(0.05, 0.95)
            if abs(t - s) < 0.01:
                continue
            fd = (k.eval(t + h, s) - k.eval(t - h, s)) / (2 * h)
            assert k.dt(t, s) == pytest.approx(fd, abs=5e-9, rel=1e-6)


def test_boundary_annihilation():
    pts = np.linspace(0.0, 1.0, 37)
    for gamma, lam in [(0.0, 1.3), (7.0, 0.5), (-16.0, 2.0), (math.pi ** 2, 0.8)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        assert np.max(np.abs(k.eval(0.0, pts))) < 1e-14
        assert np.max(np.abs(k.eval(pts, 0.0))) < 1e-14
        assert np.max(np.abs(k.eval(pts, 1.0))) < 1e-14


def test_ode_residual_in_t():
    h = 1e-4
    tg = np.linspace(0.05, 0.95, 19)
    for gamma, lam in [(0.0, 0.7), (4.0, 1.1), (-9.0, 1.5)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        for s in (0.3, 0.62):
            ts = tg[np.abs(tg - s) > 0.02]
            resid = (k.eval(ts - h, s) - 2 * k.eval(ts, s) + k.eval(ts + h, s)) / h**2 \
                + gamma * k.eval(ts, s)
            assert np.max(np.abs(resid)) < 1e-5


def test_boundary_functional_in_t():
    # the kernel itself satisfies G(1,s) = lam * int_0^1 G(tau,s) dtau
    for gamma, lam in [(0.0, 1.5), (5.0, 0.8), (-4.0, 2.2)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        for s in (0.2, 0.5, 0.77):
            rule = QuadratureRule(split_points=(s,))
            total = integrate(lambda tau: k.eval(tau, s), rule)
            assert abs(k.eval(1.0, s) - lam * total) < 1e-13


def test_continuity_by_dense_sampling():
    rng = np.random.default_rng(11)
    for gamma, lam in [(0.0, 1.0), (8.0, 0.3), (-20.0, 1.0)]:
        k = GreenKernel(ProblemParams(gamma, lam))
        t = rng.uniform(0, 1, 300)
        s = rng.uniform(0, 1, 300)
        d = 1e-7 * rng.choice([-1.0, 1.0], size=300)
        t2 = np.clip(t + d, 0, 1)
        s2 = np.clip(s + np.roll(d, 1), 0, 1)
        assert np.max(np.abs(k.eval(t2, s2) - k.eval(t, s))) < 1e-5


def test_degenerate_branch_consistency():
    lam = 1.0
    kd = GreenKernel(ProblemParams(math.pi ** 2, lam))
    assert kd._degenerate_k == 1
    tt, ss = np.meshgrid(np.linspace(0, 1, 41), np.linspace(0, 1, 41))
    for dm in (1e-4, -1e-4):
        kg = GreenKernel(ProblemParams((math.pi + dm) ** 2, lam))
        assert kg._degenerate_k is None
        assert np.max(np.abs(kg.eval(tt, ss) - kd.eval(tt, ss))) < 1e-3


def test_degenerate_branch_near_lambda_zero_is_refused():
    with pytest.raises(ResonanceError):
        GreenKernel(ProblemParams(math.pi ** 2, 1e-8))


def test_eval_shapes():
    k = GreenKernel(ProblemParams(2.0, 0.4))
    assert isinstance(k.eval(0.3, 0.7), float)
    out = k.eval(np.linspace(0, 1, 5)[:, None], np.linspace(0, 1, 7)[None, :])
    assert out.shape == (5, 7)


def test_eval_rejects_points_outside_the_square():
    k = GreenKernel(ProblemParams(2.0, 0.4))
    with pytest.raises(InputError):
        k.eval(1.2, 0.5)
    with pytest.raises(InputError):
        k.eval(0.5, -0.1)
