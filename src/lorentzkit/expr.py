"""Scalar expression parser and evaluator.

Expressions are written over a chart's symbol table (coordinate names plus
named parameters). Grammar is ordinary infix:

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?            -- right associative
    atom   := number | symbol | func '(' expr ')' | '(' expr ')'

with functions exp, log, sin, cos, tan, sinh, cosh, tanh, sqrt. `abs` is
deliberately not provided (not twice differentiable at 0). The parsed tree is
immutable and has one evaluator, `Expr.eval(xs, params)`: the coordinate
values `xs` are plain floats (values only) or Jet2 seeds (values with
analytic gradients, and Hessians unless seeded at order 1), at one point or,
as (B,) arrays and batched seeds, at B points at once. Numbers and
parameters always evaluate to floats, so constant subtrees never allocate
jets; Jet2's mixed float operators carry them into the coordinate-dependent
parts. `evaluate` seeds and evaluates a list of expressions at a point or a
batch of points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownSymbol
from .jets import Jet2, any_true, first_bad

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh", "sqrt")


# --- AST ---------------------------------------------------------------------

class Expr:
    """Base node. Subclasses are frozen dataclasses; trees are immutable."""

    def eval(self, xs: Sequence, params: Mapping[str, float]):
        """Value at coordinates `xs` (floats or Jet2 seeds, chart order).

        Returns a float when the result does not depend on a Jet2 seed.
        Raises DomainError outside an operation's domain, on division by
        zero and on floating-point overflow.
        """
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        raise NotImplementedError

    def symbols(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def eval(self, xs, params):
        return self.value

    @property
    def is_constant(self):
        return True

    def symbols(self):
        return set()


@dataclass(frozen=True)
class Sym(Expr):
    name: str
    coord_index: int | None   # None for parameters

    def eval(self, xs, params):
        if self.coord_index is not None:
            return xs[self.coord_index]
        return float(params[self.name])

    @property
    def is_constant(self):
        return self.coord_index is None

    def symbols(self):
        return {self.name}


_MATH_FUNCS = {
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
    "tan": math.tan, "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "sqrt": math.sqrt,
}


def _apply(op: str, a):
    """The function `op` of a float (math), of a batch of values (numpy) or
    of a Jet2 (its method)."""
    if isinstance(a, Jet2):
        return getattr(a, op)()
    if isinstance(a, np.ndarray):
        return getattr(np, op)(a)
    try:
        return _MATH_FUNCS[op](a)
    except ValueError as exc:
        raise DomainError(f"{op}({a}): {exc}") from exc


def _power(a, b):
    if isinstance(b, Jet2):
        # the exponent depends on the coordinates
        return (_apply("log", a) * b).exp()
    if isinstance(b, np.ndarray):
        # values at a batch of points, the exponent depending on them
        bad = (a <= 0.0) & (b != np.floor(b))
    elif float(b).is_integer():
        return a ** int(b)          # exact: repeated multiplication for jets
    elif isinstance(a, Jet2):
        return a ** b               # the jet checks its base
    else:
        bad = a <= 0.0
    if any_true(bad):
        raise DomainError(f"real exponent requires positive base, got "
                          f"{first_bad(a, bad)}")
    return a ** b


@dataclass(frozen=True)
class Unary(Expr):
    op: str             # 'neg' or a function name
    arg: Expr

    def eval(self, xs, params):
        a = self.arg.eval(xs, params)
        if self.op == "neg":
            return -a
        try:
            return _apply(self.op, a)
        except ArithmeticError as exc:
            raise DomainError(f"{self.op}: {exc}") from exc

    @property
    def is_constant(self):
        return self.arg.is_constant

    def symbols(self):
        return self.arg.symbols()


@dataclass(frozen=True)
class Binary(Expr):
    op: str             # '+', '-', '*', '/', '^'
    left: Expr
    right: Expr

    def eval(self, xs, params):
        a = self.left.eval(xs, params)
        b = self.right.eval(xs, params)
        try:
            if self.op == "+":
                return a + b
            if self.op == "-":
                return a - b
            if self.op == "*":
                return a * b
            if self.op == "/":
                return a / b
            return _power(a, b)
        except ArithmeticError as exc:
            raise DomainError(f"{self.op!r}: {exc}") from exc

    @property
    def is_constant(self):
        return self.left.is_constant and self.right.is_constant

    def symbols(self):
        return self.left.symbols() | self.right.symbols()
# --- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*(\^\d+)?)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)
# Note: identifiers like x^1 are allowed as coordinate names when declared in
# the symbol table; the tokenizer only fuses ident^digits when that exact
# spelling is a declared symbol (see _tokenize).


@dataclass(frozen=True)
class _Token:
    kind: str   # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str, declared: set[str]) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ExprSyntaxError(i, f"unexpected character {text[i]!r}")
        kind = m.lastgroup
        tok = m.group()
        if kind == "ws":
            i = m.end()
            continue
        if kind == "ident" and "^" in tok and tok not in declared:
            # not a declared caret-name: split back into ident + '^' + digits
            base = tok.split("^", 1)[0]
            tokens.append(_Token("ident", base, i))
            i += len(base)
            continue
        tokens.append(_Token(kind, tok, i))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# --- parser --------------------------------------------------------------------

class SymbolTable:
    """Declared names for one chart: ordered coordinates plus parameter names."""

    def __init__(self, coordinates: Sequence[str],
                 parameters: Sequence[str] = ()):
        if not coordinates:
            raise ValueError("symbol table needs at least one coordinate")
        dupes = set(coordinates) & set(parameters)
        if dupes:
            raise ValueError(f"names declared twice: {sorted(dupes)}")
        self.coordinates = tuple(coordinates)
        self.parameters = tuple(parameters)
        self.coord_index = {c: i for i, c in enumerate(coordinates)}

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def all_names(self) -> set[str]:
        return set(self.coordinates) | set(self.parameters)


class _Parser:
    def __init__(self, tokens: list[_Token], table: SymbolTable):
        self.tokens = tokens
        self.table = table
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.advance()
        if t.kind != "op" or t.text != op:
            raise ExprSyntaxError(t.pos, f"expected {op!r}")

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(t.pos, f"unexpected {t.text!r}")
        return e

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            # right associative; exponent binds tighter than unary minus
            # in `a^-b`, so allow a signed exponent here
            return Binary("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        t = self.advance()
        if t.kind == "num":
            return Num(float(t.text))
        if t.kind == "ident":
            if t.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(t.text, arg)
            if t.text == "abs":
                raise ExprSyntaxError(t.pos, "abs is not supported "
                                      "(not twice differentiable at 0)")
            idx = self.table.coord_index.get(t.text)
            if idx is None and t.text not in self.table.parameters:
                raise UnknownSymbol(t.text)
            return Sym(t.text, idx)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ExprSyntaxError(t.pos, f"unexpected {t.text or 'end of input'!r}")


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse `text` against a chart symbol table.

    Raises ExprSyntaxError on malformed input and UnknownSymbol for
    undeclared identifiers.
    """
    tokens = _tokenize(text, table.all_names())
    return _Parser(tokens, table).parse()


def evaluate(exprs, points: np.ndarray, params: Mapping[str, float],
             order: int = 0) -> tuple[list, tuple]:
    """Expressions over one symbol table at a point (n,) or at points (B, n).

    Returns the results and their batch shape. Order 0 gives values, orders
    1 and 2 Jet2s seeded on the coordinates; an expression that does not
    depend on them stays a float. A point, and a batch of one, is evaluated
    on floats (math, with its errors): batch shape (). A batch of B > 1
    points is evaluated on (B,) arrays, batch shape (B,), where numpy raises
    on overflow, division by zero and invalid values as math does; the
    evaluator turns either into DomainError.
    """
    n = points.shape[-1]
    many = points.ndim > 1 and points.shape[0] > 1
    if many:
        xs = list(np.ascontiguousarray(points.T))
    else:
        xs = (points if points.ndim == 1 else points[0]).tolist()
    if order:
        xs = [Jet2.variable(x, i, n, order) for i, x in enumerate(xs)]
    if not many:
        return [e.eval(xs, params) for e in exprs], ()
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        return [e.eval(xs, params) for e in exprs], points.shape[:1]


def batch_first(a: np.ndarray, points: np.ndarray) -> np.ndarray:
    """An array filled from `evaluate` at points (B, n), batch axis last,
    with its batch axis first; at a point (n,), `a` as it is."""
    if points.ndim == 1:
        return a
    return a[None] if points.shape[0] == 1 else np.moveaxis(a, -1, 0)


def eval2(e: Expr, point: Sequence[float],
          params: Mapping[str, float] | None = None,
          table: SymbolTable | None = None, order: int = 2) -> Jet2:
    """Evaluate an expression as a jet (second order unless `order` is 1) at
    a chart point.

    The gradient/Hessian are with respect to the chart coordinates, in the
    order declared by the symbol table used at parse time.
    """
    point = np.asarray(point, dtype=float)
    n = point.shape[0]
    if table is not None and table.dim != n:
        raise ValueError(f"point dimension {n} != chart dimension {table.dim}")
    seeds = [Jet2.variable(x, i, n, order) for i, x in enumerate(point.tolist())]
    jet = e.eval(seeds, params or {})
    if not isinstance(jet, Jet2):
        return Jet2.constant(jet, n, order)
    return jet.symmetrized()
