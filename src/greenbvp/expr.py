"""Tiny expression language for user-supplied nonlinearities f(t, u).

Grammar (standard precedence, no implicit multiplication):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right associative, binds above '-'
    atom    := NUMBER | 't' | 'u' | name '(' expr (',' expr)* ')' | '(' expr ')'

Functions: sin cos sinh cosh exp log sqrt abs (one argument) and
min max pow (two).  Evaluation is IEEE double over numpy arrays; domain
violations (log of a nonpositive value, sqrt of a negative, a negative base
under a fractional power, division blowing up) raise ExprDomainError with
the offset of the offending sub-expression instead of propagating NaN.

Expression compiles its syntax tree once into closures that make the numpy
calls and checks of a tree walk, in its order.  A power drops the checks its
literal exponent rules out: an integer >= 0 needs no check, a negative
integer only the zero-base one, a non-integer >= 0 only the negative-base one.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprDomainError, ExprSyntaxError

__all__ = ["Expression", "parse"]

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_FUNCTIONS = {
    "sin": 1, "cos": 1, "sinh": 1, "cosh": 1, "exp": 1,
    "log": 1, "sqrt": 1, "abs": 1, "min": 2, "max": 2, "pow": 2,
}
_VARIABLES = ("t", "u")


@dataclass(frozen=True)
class _Tok:
    kind: str   # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    pos = 0
    while pos < len(text):
        mo = _TOKEN_RE.match(text, pos)
        if mo is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if mo.lastgroup != "ws":
            toks.append(_Tok(mo.lastgroup, mo.group(), pos))
        pos = mo.end()
    toks.append(_Tok("end", "", len(text)))
    return toks


# -- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class Unary:
    operand: object
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: int


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple
    pos: int


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(
                f"expected {op!r}, found {tok.text or 'end of input'!r}",
                tok.pos, expected=(op,))
        return self.next()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.pos,
                expected=("end of input",))
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.next()
            node = BinOp(tok.text, node, self.term(), tok.pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.next()
            node = BinOp(tok.text, node, self.unary(), tok.pos)
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Unary(self.unary(), tok.pos)
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            return BinOp("^", node, self.unary(), tok.pos)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(float(tok.text), tok.pos)
        if tok.kind == "name":
            self.next()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in _FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {tok.text!r}", tok.pos,
                                          expected=tuple(sorted(_FUNCTIONS)))
                self.next()
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                arity = _FUNCTIONS[tok.text]
                if len(args) != arity:
                    raise ExprSyntaxError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}", tok.pos)
                return Call(tok.text, tuple(args), tok.pos)
            if tok.text in _VARIABLES:
                return Var(tok.text, tok.pos)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos,
                                  expected=_VARIABLES + tuple(sorted(_FUNCTIONS)))
        if tok.kind == "op" and tok.text == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected expression, found {tok.text or 'end of input'!r}", tok.pos,
            expected=("number", "t", "u", "function", "("))


_UNARY_FNS = {
    "sin": np.sin, "cos": np.cos, "sinh": np.sinh, "cosh": np.cosh,
    "exp": np.exp, "abs": np.abs,
}
_PLAIN_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "min": np.minimum, "max": np.maximum}
_PARTIAL_FNS = {"log": (np.log, np.less_equal, "log of a non-positive value"),
                "sqrt": (np.sqrt, np.less, "sqrt of a negative value")}


def _check_finite(vals, pos, what):
    if not np.all(np.isfinite(vals)):
        raise ExprDomainError(f"{what} produced a non-finite value", pos)
    return vals


def _compile(node):
    """The node as one function of (t, u), built once per expression."""
    if isinstance(node, Num):
        return lambda t, u: node.value
    if isinstance(node, Var) and node.name == "t":
        return lambda t, u: t
    if isinstance(node, Var):
        def var_u(t, u):
            if u is None:
                raise ExprDomainError("expression uses 'u' but no u value was supplied", node.pos)
            return u
        return var_u
    if isinstance(node, Unary):
        fa = _compile(node.operand)
        return lambda t, u: -fa(t, u)
    name, args = (node.op, (node.left, node.right)) if isinstance(node, BinOp) else (
        node.name, node.args)
    fs, pos = [_compile(a) for a in args], node.pos
    fa, fb = fs[0], fs[-1]
    if name in _PLAIN_FNS:
        fn = _PLAIN_FNS[name]
        return lambda t, u: fn(fa(t, u), fb(t, u))
    if name in ("^", "pow"):
        checks = _pow_checks(args[1])
        return lambda t, u: _eval_pow(fa(t, u), fb(t, u), pos, *checks)
    if name == "/":
        def divide(t, u):
            a, b = fa(t, u), fb(t, u)
            with np.errstate(divide="ignore", invalid="ignore"):
                return _check_finite(np.divide(a, b), pos, "division")
        return divide
    if name in _PARTIAL_FNS:
        fn, outside, message = _PARTIAL_FNS[name]
        def partial(t, u):
            a = fa(t, u)
            if np.any(outside(a, 0.0)):
                raise ExprDomainError(message, pos)
            return fn(a)
        return partial
    fn = _UNARY_FNS[name]
    def unary_fn(t, u):
        a = fa(t, u)
        with np.errstate(over="ignore"):
            return _check_finite(fn(a), pos, name)
    return unary_fn


def _pow_checks(expo) -> tuple[bool, bool]:
    """Whether a power needs its negative-base and zero-base checks."""
    sign = 1.0
    while isinstance(expo, Unary):
        expo, sign = expo.operand, -sign
    e = sign * expo.value if isinstance(expo, Num) else np.nan  # nan: not a literal
    return not e == np.round(e), not e >= 0.0


def _eval_pow(base, expo, pos, negative_check, zero_check):
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    if negative_check and np.any((b < 0.0) & (e != np.round(e))):
        raise ExprDomainError("negative base under a non-integer power", pos)
    if zero_check and np.any((b == 0.0) & (e < 0.0)):
        raise ExprDomainError("zero base under a negative power", pos)
    with np.errstate(over="ignore", divide="ignore"):
        out = np.power(b, e)
    out = _check_finite(out, pos, "power")
    if np.isscalar(base) and np.isscalar(expo):
        return float(out)
    return out


def _to_string(node, parent_prec=0) -> str:
    # precedence: + - : 1, * / : 2, unary - : 3, ^ : 4
    if isinstance(node, Num):
        return repr(node.value) if node.value != int(node.value) else str(int(node.value))
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        inner = _to_string(node.operand, 3)
        out = f"-{inner}"
        return f"({out})" if parent_prec > 3 else out
    if isinstance(node, BinOp):
        prec = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
        # '^' is right associative, the rest left associative
        left = _to_string(node.left, prec + 1 if node.op == "^" else prec)
        right = _to_string(node.right, prec if node.op == "^" else prec + 1)
        out = f"{left} {node.op} {right}"
        return f"({out})" if prec < parent_prec else out
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_to_string(a) for a in node.args)})"
    raise TypeError(f"unknown node {node!r}")


def _reflect_node(node):
    """Substitute t -> (1 - t) throughout."""
    if isinstance(node, Var) and node.name == "t":
        return BinOp("-", Num(1.0, node.pos), Var("t", node.pos), node.pos)
    if isinstance(node, Unary):
        return Unary(_reflect_node(node.operand), node.pos)
    if isinstance(node, BinOp):
        return BinOp(node.op, _reflect_node(node.left), _reflect_node(node.right), node.pos)
    if isinstance(node, Call):
        return Call(node.name, tuple(_reflect_node(a) for a in node.args), node.pos)
    return node


def _uses_var(node, name: str) -> bool:
    if isinstance(node, Var):
        return node.name == name
    if isinstance(node, Unary):
        return _uses_var(node.operand, name)
    if isinstance(node, BinOp):
        return _uses_var(node.left, name) or _uses_var(node.right, name)
    if isinstance(node, Call):
        return any(_uses_var(a, name) for a in node.args)
    return False


class Expression:
    """A parsed expression in the variables t and u."""

    def __init__(self, ast, source: str):
        self.ast = ast
        self.source = source
        self._fn = _compile(ast)

    def eval(self, t, u=None):
        """Evaluate at scalars or arrays; raises ExprDomainError on violations."""
        out = self._fn(t, u)
        if np.isscalar(t) and (u is None or np.isscalar(u)):
            return float(out)
        shapes = [np.asarray(t).shape]
        if u is not None:
            shapes.append(np.asarray(u).shape)
        shape = np.broadcast_shapes(*shapes)
        out_arr = np.asarray(out, dtype=float)
        if out_arr.shape != shape:
            out_arr = np.broadcast_to(out_arr, shape).copy()
        return out_arr

    def __call__(self, t, u=None):
        return self.eval(t, u)

    @property
    def uses_u(self) -> bool:
        return _uses_var(self.ast, "u")

    def reflect_t(self) -> "Expression":
        """The expression with t replaced by (1 - t)."""
        ast = _reflect_node(self.ast)
        return Expression(ast, _to_string(ast))

    def pretty(self) -> str:
        return _to_string(self.ast)

    def __repr__(self):
        return f"Expression({self.pretty()!r})"


def parse(text: str) -> Expression:
    """Parse an expression string; raises ExprSyntaxError with an offset."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return Expression(_Parser(text).parse(), text)
