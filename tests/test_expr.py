"""Expression language: grammar, precedence, domain signals, round trips."""
import math

import numpy as np
import pytest

from greenbvp.errors import ExprDomainError, ExprSyntaxError
from greenbvp.expr import BinOp, Num, Unary, Var, parse


def test_basic_eval():
    e = parse("t*u^3 + exp(t*u) - 1")
    assert e.eval(1.0, 0.0) == 0.0
    assert parse("sqrt(u)").eval(0.3, 4.0) == 2.0
    assert parse("u").eval(0.5, 7.0) == 7.0


def test_precedence():
    assert parse("2+3*4^2").eval(0, 0) == 50.0
    assert parse("2^3^2").eval(0, 0) == 512.0
    assert parse("-2^2").eval(0, 0) == -4.0
    assert parse("2^-3").eval(0, 0) == 0.125
    assert parse("6/3/2").eval(0, 0) == 1.0
    assert parse("1-2-3").eval(0, 0) == -4.0


def test_example_one_nonlinearity():
    # fifth root of (u^3 + u) plus log(3t + u) at (1, 1)
    e = parse("(u^3+u)^(1/5) + log(3*t+u)")
    assert e.eval(1.0, 1.0) == pytest.approx(2 ** 0.2 + math.log(4.0), rel=1e-14)


def test_syntax_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("log(")
    assert exc.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x + 1")
    assert "unknown identifier" in str(exc.value)
    with pytest.raises(ExprSyntaxError):
        parse("min(1)")
    with pytest.raises(ExprSyntaxError):
        parse("sin(1, 2)")
    with pytest.raises(ExprSyntaxError):
        parse("1 + ")
    with pytest.raises(ExprSyntaxError):
        parse("foo(1)")
    with pytest.raises(ExprSyntaxError):
        parse("(1 + 2")


def test_domain_errors():
    with pytest.raises(ExprDomainError):
        parse("log(3*t+u)").eval(0.0, 0.0)
    with pytest.raises(ExprDomainError):
        parse("sqrt(u)").eval(0.0, -1.0)
    with pytest.raises(ExprDomainError):
        parse("(-2)^0.5").eval(0, 0)
    with pytest.raises(ExprDomainError):
        parse("0^-1").eval(0, 0)
    with pytest.raises(ExprDomainError):
        parse("1/(t-t)").eval(0.3, 0.0)
    with pytest.raises(ExprDomainError):
        parse("exp(u)").eval(0.0, 1e6)


def test_functions():
    assert parse("min(t, u)").eval(0.3, 0.7) == 0.3
    assert parse("max(t, u)").eval(0.3, 0.7) == 0.7
    assert parse("pow(u, 2)").eval(0.0, 3.0) == 9.0
    assert parse("abs(-u)").eval(0.0, 2.5) == 2.5
    assert parse("sinh(u)").eval(0.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)
    assert parse("cosh(t)").eval(1.0, 0.0) == pytest.approx(math.cosh(1.0), rel=1e-15)


def test_round_trip_pretty_print():
    sources = [
        "t*u^3 + exp(t*u) - 1",
        "-(t+u)^2/3 - 4",
        "min(t, max(u, 0.5))*2",
        "2^3^2",
        "1 - -u",
        "1 - 2 - 3 - u",
        "t/(u+1)/2",
        "sqrt(abs(t - u))",
    ]
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.01, 1.0, 25)
    us = rng.uniform(0.01, 2.0, 25)
    for src in sources:
        e = parse(src)
        e2 = parse(e.pretty())
        assert e2.pretty() == e.pretty()
        np.testing.assert_allclose(e.eval(ts, us), e2.eval(ts, us), rtol=1e-15)


def test_array_broadcast_and_constants():
    e = parse("1")
    out = e.eval(np.array([0.1, 0.2, 0.3]))
    assert out.shape == (3,) and np.all(out == 1.0)
    e2 = parse("t + 0*u")
    out2 = e2.eval(np.array([[0.1], [0.2]]), np.array([[1.0, 2.0]]))
    assert out2.shape == (2, 2)


def test_sigma_expression_without_u():
    e = parse("sin(t)")
    assert e.uses_u is False
    assert e.eval(0.5) == pytest.approx(math.sin(0.5), rel=1e-15)
    with pytest.raises(ExprDomainError):
        parse("u").eval(0.5)  # u required but not supplied


def test_reflection():
    e = parse("t*u^3 + exp(t*u) - 1")
    r = e.reflect_t()
    ts = np.linspace(0, 1, 13)
    us = np.linspace(0, 2, 13)
    np.testing.assert_allclose(r.eval(ts, us), e.eval(1 - ts, us), atol=1e-14)
    rr = r.reflect_t()
    np.testing.assert_allclose(rr.eval(ts, us), e.eval(ts, us), atol=1e-14)


# -- the compiled evaluator against the tree walk it replaced ----------------
# _walk and _walk_pow are the per-call tree walk that Expression.eval used
# before the AST was compiled; compiled evaluation must give the same bytes,
# types and shapes, and the same errors at the same offsets.

_WALK_UNARY = {"sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
               "exp": np.exp, "abs": np.abs}


def _walk_finite(vals, pos, what):
    if not np.all(np.isfinite(vals)):
        raise ExprDomainError(f"{what} produced a non-finite value", pos)
    return vals


def _walk(node, t, u):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "t":
            return t
        if u is None:
            raise ExprDomainError("expression uses 'u' but no u value was supplied", node.pos)
        return u
    if isinstance(node, Unary):
        return -_walk(node.operand, t, u)
    if isinstance(node, BinOp):
        a = _walk(node.left, t, u)
        b = _walk(node.right, t, u)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.divide(a, b)
            return _walk_finite(out, node.pos, "division")
        return _walk_pow(a, b, node.pos)
    args = [_walk(arg, t, u) for arg in node.args]
    name = node.name
    if name in _WALK_UNARY:
        with np.errstate(over="ignore"):
            return _walk_finite(_WALK_UNARY[name](args[0]), node.pos, name)
    if name == "log":
        if np.any(np.asarray(args[0]) <= 0.0):
            raise ExprDomainError("log of a non-positive value", node.pos)
        return np.log(args[0])
    if name == "sqrt":
        if np.any(np.asarray(args[0]) < 0.0):
            raise ExprDomainError("sqrt of a negative value", node.pos)
        return np.sqrt(args[0])
    if name == "min":
        return np.minimum(args[0], args[1])
    if name == "max":
        return np.maximum(args[0], args[1])
    return _walk_pow(args[0], args[1], node.pos)


def _walk_pow(base, expo, pos):
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    frac = e != np.round(e)
    if np.any((b < 0.0) & frac):
        raise ExprDomainError("negative base under a non-integer power", pos)
    if np.any((b == 0.0) & (e < 0.0)):
        raise ExprDomainError("zero base under a negative power", pos)
    with np.errstate(over="ignore", divide="ignore"):
        out = np.power(b, e)
    out = _walk_finite(out, pos, "power")
    if np.isscalar(base) and np.isscalar(expo):
        return float(out)
    return out


WALK_SOURCES = [
    "t*u^3 + exp(t*u) - 1", "sqrt(u)", "u^2", "1 + u^2", "1e-5*(1 + u)",
    "(u^3+u)^(1/5) + 0.1*t", "log(3*t+u)", "sin(t)*cos(u) - sinh(u)/cosh(t)",
    "max(u, t) - abs(t - u)", "u^-1", "u^(-2)", "-u^-3", "0^(-1)", "(-2)^3", "(-2)^0.5",
    "u^0.5", "u^0", "pow(u, 2.5)", "pow(u-1, t)", "2^(1000*u)", "exp(1000*u)",
    "min(u,t)/0", "1/(t-t)", "(t - 0.5)^2", "t", "1",
]
_ts = np.linspace(0.0, 1.0, 9)
WALK_INPUTS = {
    "arrays": (_ts, np.linspace(-0.5, 2.0, 9)),
    "nonneg-arrays": (_ts, np.linspace(0.0, 2.0, 9)),
    "scalars": (0.3, 0.7),
    "negative-u": (0.3, -0.7),
    "zeros": (0, 0),
    "array-no-u": (_ts, None),
    "scalar-no-u": (0.3, None),
    "column-row": (_ts[:, None], np.linspace(0.0, 2.0, 5)[None, :]),
}


def _outcome(fn, t, u):
    try:
        with np.errstate(all="ignore"):
            out = fn(t, u)
    except ExprDomainError as exc:
        return ("error", str(exc), exc.offset)
    return (type(out), np.shape(out), np.asarray(out).tobytes())


def _walk_eval(e, t, u):
    # Expression.eval's treatment of the walk's result, unchanged
    out = _walk(e.ast, t, u)
    if np.isscalar(t) and (u is None or np.isscalar(u)):
        return float(out)
    shapes = [np.asarray(t).shape] + ([] if u is None else [np.asarray(u).shape])
    return np.broadcast_to(np.asarray(out, dtype=float), np.broadcast_shapes(*shapes)).copy()


@pytest.mark.parametrize("src", WALK_SOURCES)
def test_compiled_eval_matches_tree_walk(src):
    e = parse(src)
    for name, (t, u) in WALK_INPUTS.items():
        want = _outcome(lambda t, u: _walk(e.ast, t, u), t, u)
        assert _outcome(e._fn, t, u) == want, name
        assert _outcome(e.eval, t, u) == _outcome(lambda t, u: _walk_eval(e, t, u), t, u), name
