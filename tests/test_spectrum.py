"""Positivity frontier, sign classification and cone bound data."""
import math
import time

import numpy as np
import pytest

from greenbvp.errors import (ClassificationError, DegenerateConeError, DomainError,
                             ResonanceError)
from greenbvp.kernel import GreenKernel
from greenbvp.params import ProblemParams
from greenbvp.spectrum import (bound_constants, classify_sign, delta,
                               max_kernel_bound)


def test_delta_examples():
    assert delta(0.0) == 2.0
    assert delta(math.pi ** 2 / 4) == pytest.approx(math.pi / 2, rel=1e-12)
    assert delta(-1.0) == pytest.approx(math.sinh(1) / (math.cosh(1) - 1), rel=1e-12)
    assert delta(math.pi ** 2 - 1e-6) < 1e-2
    with pytest.raises(DomainError):
        delta(math.pi ** 2)
    with pytest.raises(DomainError):
        delta(15.0)


def test_delta_continuity_at_zero():
    assert abs(delta(1e-8) - 2.0) < 1e-6
    assert abs(delta(-1e-8) - 2.0) < 1e-6


def test_delta_equals_textbook_ratios():
    for gamma in np.linspace(-30, 9.8, 57):
        if gamma == 0:
            continue
        m = math.sqrt(abs(gamma))
        if gamma > 0:
            want = m * math.sin(m) / (1 - math.cos(m))
        else:
            want = m * math.sinh(m) / (math.cosh(m) - 1)
        assert delta(gamma) == pytest.approx(want, rel=1e-12)


def test_classify_sign_examples():
    assert classify_sign(ProblemParams(0.0, 1.0)).kind == "positive"
    assert classify_sign(ProblemParams(0.0, 3.0)).kind == "changes_sign"
    assert classify_sign(ProblemParams((math.pi / 2) ** 2, 1.0)).kind == "positive"
    sign = classify_sign(ProblemParams(-1.0, 0.0))
    assert sign.kind == "positive" and sign.lambda_zero_boundary
    with pytest.raises(ResonanceError):
        classify_sign(ProblemParams(0.0, 2.0))


def test_classify_sign_negative_lambda_changes_sign():
    assert classify_sign(ProblemParams(0.0, -0.5)).kind == "changes_sign"
    assert classify_sign(ProblemParams(-4.0, -1.0)).kind == "changes_sign"


def test_classify_sign_numerical_above_pi_squared():
    sign = classify_sign(ProblemParams(12.0, 0.5))
    assert sign.source == "numerical"
    assert sign.kind == "changes_sign"


def test_max_kernel_bound():
    assert max_kernel_bound(ProblemParams(0.0, 0.0)) == 0.25
    assert max_kernel_bound(ProblemParams(0.0, 1.0)) == 0.5
    assert max_kernel_bound(ProblemParams(0.0, 1.9)) == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(DomainError):
        max_kernel_bound(ProblemParams(1.0, 1.0))
    with pytest.raises(DomainError):
        max_kernel_bound(ProblemParams(0.0, 2.5))


def test_gamma_zero_closed_identities():
    s = np.linspace(0.0, 1.0, 501)
    for lam in (0.7, 1.4):
        k = GreenKernel(ProblemParams(0.0, lam))
        g1 = k.eval(1.0, s)
        assert np.max(np.abs((2 - lam) * g1 - lam * s * (1 - s))) < 1e-12
        gss = k.eval(s, s)
        assert np.max(np.abs((2 - lam) * gss - s * (1 - s) * (2 - lam * (1 - s)))) < 1e-12


def test_bound_constants_zero_regime_exact():
    spec = bound_constants(ProblemParams(0.0, 1.0))
    assert spec.exact and spec.constant == 2.0
    t = np.linspace(0, 1, 11)
    assert np.allclose(spec.envelope(t), t)
    assert bound_constants(ProblemParams(0.0, 1.5)).constant == pytest.approx(4 / 3, rel=1e-12)
    # only gamma = 0 itself takes the exact path; tiny gamma takes the closed
    # forms, whose limit at lam = 1 is h(t) = min(1, 2t), above the exact t
    for gamma in (1e-9, -1e-9):
        spec = bound_constants(ProblemParams(gamma, 1.0))
        assert not spec.exact
        assert spec.constant == pytest.approx(2.0, abs=1e-8)
        assert np.allclose(spec.envelope(t), np.minimum(1.0, 2.0 * t), rtol=0, atol=1e-8)


def test_bound_constants_errors():
    with pytest.raises(DegenerateConeError):
        bound_constants(ProblemParams(0.0, 0.0))
    with pytest.raises(ClassificationError):
        bound_constants(ProblemParams(0.0, 3.0))


@pytest.mark.parametrize("gamma,lam", [((math.pi / 2) ** 2, 1.0), (-4.0, 1.0)])
def test_bound_constants_sandwich_on_fine_mesh(gamma, lam):
    # brute-force verification mesh, independent of the 201-point build grid
    spec = bound_constants(ProblemParams(gamma, lam))
    k = GreenKernel(ProblemParams(gamma, lam))
    tv = np.linspace(0, 1, 501)
    sv = np.linspace(0, 1, 501)[1:-1]
    G = k.eval(tv[:, None], sv[None, :])
    G1 = k.eval(1.0, sv)
    h = spec.envelope(tv)
    assert spec.constant >= 1.0
    assert np.max(h[:, None] * G1[None, :] - G) <= 1e-10
    assert np.max(G - spec.constant * G1[None, :]) <= 1e-10
    assert np.all(spec.envelope(np.linspace(0.01, 1, 50)) > 0)
    assert spec.envelope(0.0) == 0.0


def test_frontier_consistency_smoke():
    pts = np.linspace(0.0, 1.0, 103)[1:-1]
    for gamma in (-9.0, -1.0, 0.5, 6.0):
        d = delta(gamma)
        for lam, positive in ((0.5 * d, True), (1.3 * d, False)):
            k = GreenKernel(ProblemParams(gamma, lam))
            vals = k.eval(pts[:, None], pts[None, :])
            if positive:
                assert vals.min() > 0
            else:
                assert vals.min() < -1e-8
            assert classify_sign(ProblemParams(gamma, lam)).positive == positive


@pytest.mark.parametrize("gamma", [1e-16, -1e-16, 1e-12, -1e-12, 1e-7, -1e-7, 1e-5, -1e-5,
                                   1e-3, -1e-3, 0.02, -0.02])
def test_bound_constants_small_gamma(gamma):
    spec = bound_constants(ProblemParams(gamma, 1.0))
    k = GreenKernel(ProblemParams(gamma, 1.0))
    tv = np.linspace(0, 1, 501)
    sv = np.linspace(0, 1, 501)[1:-1]
    G = k.eval(tv[:, None], sv[None, :])
    G1 = k.eval(1.0, sv)
    assert not spec.exact
    assert np.max(spec.envelope(tv)[:, None] * G1[None, :] - G) <= 1e-10
    assert np.max(G - spec.constant * G1[None, :]) <= 1e-10
    # C carries the 1e-9 relative inflation plus 1e-12, 2.001e-9 at C = 2
    assert abs(spec.constant - 2.0) <= abs(gamma) + 2.002e-9


SWEEP_GAMMAS = (-1e5, -400.0, -30.0, -4.0, -1.0, -0.02, 0.02, 1.0, (math.pi / 2) ** 2,
                3.0, 6.0, 9.0, 9.8, 9.86)


@pytest.mark.parametrize("gamma", SWEEP_GAMMAS)
def test_bound_constants_closed_forms_against_dense_mesh(gamma):
    s_log = np.logspace(-7.0, math.log10(0.5), 400)
    s_ends = np.unique(np.concatenate([s_log, 1.0 - s_log]))
    tv = np.linspace(0, 1, 501)
    sv = tv[1:-1]
    t_in = np.linspace(0, 1, 41)[1:-1]
    xd = np.linspace(1e-6, 1.0 - 1e-6, 100_000)
    for frac in (0.05, 0.5, 0.95):
        p = ProblemParams(gamma, frac * delta(gamma))
        spec = bound_constants(p)
        k = GreenKernel(p)
        # (a) the sandwich on a 501^2 mesh
        G = k.eval(tv[:, None], sv[None, :])
        G1 = k.eval(1.0, sv)
        assert np.max(spec.envelope(tv)[:, None] * G1[None, :] - G) <= 1e-10
        assert np.max(G - spec.constant * G1[None, :]) <= 1e-10
        # (b) h(t) is the minimum over s, found on a mesh dense at both ends
        ratio_min = np.min(k.eval(t_in[:, None], s_ends[None, :])
                           / k.eval(1.0, s_ends)[None, :], axis=1)
        h = spec.envelope(t_in)
        # ten times the largest shortfall measured over this sweep, 3.3e-16
        assert np.all(ratio_min >= h * (1.0 - 3.4e-15)), (frac, np.max(1.0 - ratio_min / h))
        assert np.all(ratio_min <= h * (1.0 + 1e-4)), (frac, np.max(ratio_min / h - 1.0))
        # (c) C bounds the mesh ratio and is close to the largest diagonal ratio
        assert np.max(G / G1[None, :]) <= spec.constant
        diag_max = np.max(k.eval(xd, xd) / k.eval(1.0, xd))
        assert spec.constant <= (1.0 + 1e-3) * diag_max, (frac, spec.constant / diag_max)


@pytest.mark.parametrize("gamma,lam,search_c", [
    (-400.0, 5.0, 4.013048656452333), (-30.0, 1.5, 3.687587413850514),
    (-1.0, 1.9, 1.1424517950763364), (1.0, 1.0, 1.8425341605768422),
    (3.0, 0.5, 3.339662115462468), (6.0, 0.2, 8.23925312141171)])
def test_bound_constants_not_above_search_values(gamma, lam, search_c):
    # C as the former golden-section search found it; the closed form may
    # only tighten it
    assert bound_constants(ProblemParams(gamma, lam)).constant <= search_c * (1.0 + 1e-9)


@pytest.mark.parametrize("gamma,lam", [(-4.0, 1.0), (3.0, 1.0)])
def test_bound_constants_without_kernel_scans(gamma, lam, monkeypatch):
    calls = []
    real_eval = GreenKernel.eval

    def counting_eval(self, t, s):
        calls.append((t, s))
        return real_eval(self, t, s)

    monkeypatch.setattr(GreenKernel, "eval", counting_eval)
    elapsed = []
    for _ in range(5):
        calls.clear()
        t0 = time.perf_counter()
        bound_constants(ProblemParams(gamma, lam))
        elapsed.append(time.perf_counter() - t0)
        assert len(calls) <= 2
    assert min(elapsed) < 0.02


def test_bound_constants_refuses_gamma_above_pi_squared():
    # the grid scan calls this kernel positive, but the closed forms are
    # proved only for gamma < pi^2
    p = ProblemParams(math.pi ** 2 + 1e-6, -1e-3)
    sign = classify_sign(p)
    assert sign.positive and sign.source == "numerical"
    with pytest.raises(ClassificationError):
        bound_constants(p)
