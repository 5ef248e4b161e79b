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
immutable.

`parse` is memoized module-wide by the text and the table's names, so a
spacetime loaded again re-derives no tree. Fields evaluate expressions
through `compile`: one straight-line kernel per tuple of expressions and
order (0, 1 or 2), with every derivative rule and domain check of the
package, cached module-wide by structure (see the section below). Jets
composed from other jets (a bump's core on its chart's coordinate jets,
the cutoff, e^{2sf}) are kernels pulled back through their inner jets by
`jets.compose`. The tree walker `Expr.eval(xs, params)`
evaluates floats only: the kernels fold constant subtrees with it.
"""

from __future__ import annotations

import builtins
import functools
import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, ExprSyntaxError, UnknownSymbol
from .jets import Jet2, any_true, first_bad, reciprocal

FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh", "sqrt")


# --- AST ---------------------------------------------------------------------

class Expr:
    """Base node. Subclasses are frozen dataclasses; trees are immutable.

    Equality is structural (the dataclasses' own). The hash is computed
    once, when a node is built, from its fields and its children's cached
    hashes, so hashing a tree (every memo and kernel-cache lookup) takes
    constant time instead of a walk over the tree. Each subclass binds
    `__hash__ = Expr.__hash__`, which keeps the dataclass decorator from
    generating its recursive one.
    """

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(
            (type(self).__name__,)
            + tuple(getattr(self, f) for f in self.__dataclass_fields__)))

    def __hash__(self):
        return self._hash

    def eval(self, xs: Sequence, params: Mapping[str, float]):
        """Value at coordinates `xs` (floats, chart order).

        Raises DomainError outside an operation's domain, on division by
        zero and on floating-point overflow.
        """
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    __hash__ = Expr.__hash__

    def __post_init__(self):
        # -0.0 equals and hashes as 0.0, so the kernel compiled for one
        # would serve the other
        if self.value == 0.0:
            object.__setattr__(self, "value", 0.0)
        super().__post_init__()

    def eval(self, xs, params):
        return self.value

    @property
    def is_constant(self):
        return True


@dataclass(frozen=True)
class Sym(Expr):
    name: str
    coord_index: int | None   # None for parameters

    __hash__ = Expr.__hash__

    def eval(self, xs, params):
        if self.coord_index is not None:
            return xs[self.coord_index]
        return float(params[self.name])

    @property
    def is_constant(self):
        return self.coord_index is None


_MATH_FUNCS = {
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
    "tan": math.tan, "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "sqrt": math.sqrt,
}


def _apply(op: str, a: float) -> float:
    """The function `op` of a float, through math."""
    try:
        return _MATH_FUNCS[op](a)
    except ValueError as exc:
        raise DomainError(f"{op}({a}): {exc}") from exc


def _power(a: float, b: float) -> float:
    if float(b).is_integer():
        return a ** int(b)
    if a <= 0.0:
        raise DomainError(f"real exponent requires positive base, got {a}")
    return a ** b


@dataclass(frozen=True)
class Unary(Expr):
    op: str             # 'neg' or a function name
    arg: Expr

    __hash__ = Expr.__hash__

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


@dataclass(frozen=True)
class Binary(Expr):
    op: str             # '+', '-', '*', '/', '^'
    left: Expr
    right: Expr

    __hash__ = Expr.__hash__

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


# The deepest expression the parser accepts, as levels of nesting (brackets,
# function calls, signs and exponents) and as tree depth (which long
# + - * / chains reach without nesting). Every recursive consumer (the
# parser, Expr.eval, the nodes' equality, the kernel emitter at order 2) then
# stays far below Python's recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens: list[_Token], table: SymbolTable):
        self.tokens = tokens
        self.table = table
        self.i = 0
        self.nesting = 0
        self.depths: dict[int, int] = {}    # id(node) -> tree depth

    def nested(self, pos: int, parse) -> Expr:
        """parse(), one level of nesting further in."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExprSyntaxError(pos, f"nested more than {MAX_DEPTH} deep")
        node = parse()
        self.nesting -= 1
        return node

    def node(self, pos: int, node: Expr) -> Expr:
        """An operator node, after checking the depth of its tree."""
        children = (node.arg,) if isinstance(node, Unary) \
            else (node.left, node.right)
        depth = 1 + max(self.depths.get(id(c), 1) for c in children)
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(pos, f"expression tree deeper than "
                                  f"{MAX_DEPTH}")
        self.depths[id(node)] = depth
        return node

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
            op = self.advance()
            node = self.node(op.pos, Binary(op.text, node, self.term()))
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            node = self.node(op.pos, Binary(op.text, node, self.unary()))
        return node

    def unary(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.advance()
            return self.node(t.pos, Unary("neg", self.nested(t.pos,
                                                             self.unary)))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.advance()
            # right associative; exponent binds tighter than unary minus
            # in `a^-b`, so allow a signed exponent here
            return self.node(t.pos, Binary("^", base,
                                           self.nested(t.pos, self.unary)))
        return base

    def atom(self) -> Expr:
        t = self.advance()
        if t.kind == "num":
            return Num(float(t.text))
        if t.kind == "ident":
            if t.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(t.pos, self.expr)
                self.expect_op(")")
                return self.node(t.pos, Unary(t.text, arg))
            if t.text == "abs":
                raise ExprSyntaxError(t.pos, "abs is not supported "
                                      "(not twice differentiable at 0)")
            idx = self.table.coord_index.get(t.text)
            if idx is None and t.text not in self.table.parameters:
                raise UnknownSymbol(t.text)
            return Sym(t.text, idx)
        if t.kind == "op" and t.text == "(":
            e = self.nested(t.pos, self.expr)
            self.expect_op(")")
            return e
        raise ExprSyntaxError(t.pos, f"unexpected {t.text or 'end of input'!r}")


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse `text` against a chart symbol table.

    Raises ExprSyntaxError on malformed input and UnknownSymbol for
    undeclared identifiers. Trees are memoized module-wide by the text and
    the table's names (see `_parsed`).
    """
    return _parsed(text, table.coordinates, table.parameters)


@functools.lru_cache(maxsize=4096)
def _parsed(text: str, coordinates: tuple, parameters: tuple) -> Expr:
    """The tree of `text` over a table with these names, shared by every
    caller (trees are immutable); an error is raised again on every call."""
    table = SymbolTable(coordinates, parameters)
    return _Parser(_tokenize(text, table.all_names()), table).parse()


# --- compiled jet kernels -----------------------------------------------------
#
# `compile` turns a tuple of expressions into one straight-line Python
# function per order: forward-mode value, gradient and (at order 2) Hessian
# terms, each one statement. Shared subtrees are emitted once (the frozen
# nodes hash by structure), numbers, parameters and constant subtrees are
# folded to literals, and a derivative that is structurally zero is never
# formed. Every derivative rule and domain check lives here, once; one rule
# holds at every order, so order 0 is the value part of order 1.
# The source runs on floats at a point (math) and on (B,) arrays at a
# batch (numpy, overflow and invalid values raising): only the function
# names and the check helpers bound to it differ.


class Kernel:
    """Compiled jets of a tuple of expressions, placed in a fixed layout.

    Expression k fills the positions `slots[k]` of an array of shape
    `shape`. A call at a point (n,) returns (value, grad, hess) of shapes
    shape, (n,) + shape and (n, n) + shape; at points (B, n) each leads
    with the batch axis (B,), as views of one (size, B) buffer. Parts above
    the kernel's order are None. Raises DomainError outside an operation's
    domain, and when a result is not finite. A floating-point error names
    the operation it arose in, as `Expr.eval` does ("exp: math range error"
    at a point, "'*': overflow encountered in multiply" in a batch):
    `labels[i]` is the operation of source line i + 2.
    """

    def __init__(self, source: str, constants: dict, labels: list, n: int,
                 order: int, shape: tuple):
        self.source, self.labels = source, labels
        self.n, self.order, self.shape = n, order, shape
        self._width = math.prod(shape)
        self.size = self._width * (1, 1 + n, 1 + n + n * n)[order]
        code = builtins.compile(source, _FILENAME, "exec")
        self._point = _load(code, constants, _POINT_NAMES)
        self._batch = _load(code, constants, _BATCH_NAMES)

    def __call__(self, points: np.ndarray):
        one = points.ndim == 1 or len(points) == 1
        try:
            if one:
                out = np.zeros(self.size)
                self._point(out, *points.reshape(-1).tolist())
            else:
                out = np.zeros((self.size, len(points)))
                with np.errstate(divide="raise", over="raise",
                                 invalid="raise"):
                    self._batch(out, *np.ascontiguousarray(points.T))
        except (ArithmeticError, ValueError) as exc:
            raise DomainError(self._message(exc)) from exc
        # the buffer is (size,) or (size, B); its transpose puts a batch first
        rows = out[None] if points.ndim > 1 and one else out.T
        lead, n, w = rows.shape[:-1], self.n, self._width
        value = rows[..., :w].reshape(lead + self.shape)
        grad = rows[..., w:w * (1 + n)].reshape(lead + (n,) + self.shape) \
            if self.order >= 1 else None
        hess = rows[..., w * (1 + n):].reshape(lead + (n, n) + self.shape) \
            if self.order >= 2 else None
        return value, grad, hess

    def _message(self, exc: Exception) -> str:
        tb, line = exc.__traceback__, None
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == _FILENAME:
                line = tb.tb_lineno
            tb = tb.tb_next
        label = self.labels[line - 2]
        return label if label == _NOT_FINITE else f"{label}: {exc}"


_FILENAME = "<lorentzkit kernel>"
_NOT_FINITE = "result is not finite"


def _bad_point(message, value=None, mask=None):
    raise DomainError(message if value is None else f"{message} {value}")


def _bad_batch(message, value=None, mask=None):
    raise DomainError(message if value is None
                      else f"{message} {first_bad(value, mask)}")


def _clip_point(z):
    return min(max(z, 0.0), 1.0)


def _clip_batch(z):
    return np.clip(z, 0.0, 1.0)


_POINT_NAMES = dict(_MATH_FUNCS, _any=bool, _bad=_bad_point, _clip=_clip_point)
_BATCH_NAMES = dict({f: getattr(np, f) for f in FUNCTIONS},
                    _any=any_true, _bad=_bad_batch, _clip=_clip_batch)


def _load(code, constants: dict, names: dict):
    namespace = dict(names, **constants)
    exec(code, namespace)
    return namespace["kernel"]


def compile(exprs: Sequence[Expr], n: int,
            params: Mapping[str, float] | None = None, order: int = 2,
            shape: Sequence[int] | None = None,
            slots: Sequence[Sequence[int]] | None = None) -> Kernel:
    """The jet kernel of `exprs` over n coordinates at `order` (0, 1, 2).

    By default expression k fills position k of a (len(exprs),) layout.
    Kernels are cached module-wide by expression structure, parameter
    values, order and layout.
    """
    exprs = tuple(exprs)
    if shape is None:
        shape, slots = (len(exprs),), [(k,) for k in range(len(exprs))]
    return _compiled(exprs, n, tuple(sorted((params or {}).items())), order,
                     tuple(shape), tuple(tuple(s) for s in slots))


@functools.lru_cache(maxsize=512)
def _compiled(exprs, n, params, order, shape, slots) -> Kernel:
    emitter = _Emitter(n, dict(params), order)
    source = emitter.source(exprs, slots, math.prod(shape))
    return Kernel(source, emitter.constants, emitter.labels, n, order, shape)


class Kernels:
    """The kernels of one tuple of expressions, compiled per order on first
    use; a call evaluates them at a point or a batch (see Kernel)."""

    def __init__(self, exprs: Sequence[Expr], n: int,
                 params: Mapping[str, float] | None = None,
                 shape: Sequence[int] | None = None,
                 slots: Sequence[Sequence[int]] | None = None):
        self._args = (tuple(exprs), n, params, shape, slots)
        self._by_order: dict[int, Kernel] = {}

    def kernel(self, order: int) -> Kernel:
        kernel = self._by_order.get(order)
        if kernel is None:
            exprs, n, params, shape, slots = self._args
            kernel = self._by_order[order] = compile(exprs, n, params, order,
                                                     shape, slots)
        return kernel

    def __call__(self, points: np.ndarray, order: int):
        return self.kernel(order)(points)


def eval2(e: Expr, point: Sequence[float],
          params: Mapping[str, float] | None = None,
          table: SymbolTable | None = None, order: int = 2) -> Jet2:
    """The jet of an expression (second order unless `order` is 1) at a
    chart point, from its compiled kernel.

    The gradient/Hessian are with respect to the chart coordinates, in the
    order declared by the symbol table used at parse time.
    """
    point = np.asarray(point, dtype=float)
    n = point.shape[0]
    if table is not None and table.dim != n:
        raise ValueError(f"point dimension {n} != chart dimension {table.dim}")
    value, grad, hess = compile((e,), n, params, order, shape=(),
                                slots=[(0,)])(point)
    return Jet2(float(value), grad, hess)


class _Emitter:
    """Forward-mode source for expressions over coordinates x0 .. x{n-1}.

    A jet is (value, grad, hess): grad a list of n terms, hess a dict of
    terms keyed (k, l) with k <= l (filled at order 2 only). A term is a
    local name (t<i>, or h<i> for a term only the Hessian needs), a float
    folded at compile time, or None for a structural zero; a piece is a
    term or an inline product `a * b`. Each line is labelled with the
    operation it belongs to, as `Expr.eval` names it in its errors.
    """

    def __init__(self, n: int, params: dict, order: int):
        self.n, self.params, self.order = n, params, order
        self.kind = "t"
        self.lines: list[str] = []
        self.labels: list[str | None] = []
        self.label: str | None = None
        self.constants: dict[str, float] = {}
        self.memo: dict[Expr, tuple] = {}
        self.calls: dict[tuple[str, str], str] = {}     # sin(t) for cos(t)
        self.pairs = [(k, l) for k in range(n) for l in range(k, n)]

    # -- terms and pieces -----------------------------------------------

    def lit(self, t) -> str:
        """Source of a term or piece, parenthesized unless atomic."""
        if isinstance(t, str):
            return t if t.isidentifier() else f"({t})"
        if math.isfinite(t):
            text = repr(t)
            return f"({text})" if text.startswith("-") else text
        name = f"_k{len(self.constants)}"
        self.constants[name] = t
        return name

    def line(self, code: str, label: str | None = None):
        self.lines.append(code)
        self.labels.append(label or self.label)

    def let(self, code: str) -> str:
        name = f"{self.kind}{len(self.lines)}"
        self.line(f"{name} = {code}")
        return name

    def term(self, piece):
        if piece is None or isinstance(piece, float) or piece.isidentifier():
            return piece
        return self.let(piece)

    def product(self, a, b):
        if a is None or b is None:
            return None
        if isinstance(a, float) and isinstance(b, float):
            return a * b
        if isinstance(a, float) and a == 1.0:
            return b
        if isinstance(b, float) and b == 1.0:
            return a
        return f"{self.lit(a)} * {self.lit(b)}"

    def total(self, pieces):
        """The sum of pieces left to right, structural zeros left out."""
        pieces = [p for p in pieces if p is not None]
        if not pieces:
            return None
        if all(isinstance(p, float) for p in pieces):
            s = pieces[0]
            for p in pieces[1:]:
                s = s + p
            return s
        if len(pieces) == 1:
            return self.term(pieces[0])
        return self.let(" + ".join(
            p if isinstance(p, str) else self.lit(p) for p in pieces))

    def neg(self, t):
        if t is None or isinstance(t, float):
            return None if t is None else -t
        return self.let(f"-{t}")

    def diff(self, a, b):
        if b is None:
            return a
        if a is None:
            return self.neg(b)
        if isinstance(a, float) and isinstance(b, float):
            return a - b
        return self.let(f"{self.lit(a)} - {self.lit(b)}")

    def factor(self, order: int, code: str):
        """A chain-rule factor needed from `order` on, else None."""
        if self.order < order:
            return None
        self.kind = "h" if order == 2 else "t"
        name = self.let(code)
        self.kind = "t"
        return name

    def hessian(self, entry) -> dict:
        """{(k, l): entry(k, l)} at order 2, structural zeros left out."""
        if self.order < 2:
            return {}
        self.kind = "h"
        hess = {kl: t for kl in self.pairs if (t := entry(*kl)) is not None}
        self.kind = "t"
        return hess

    def check(self, cond: str, message: str, value=None):
        args = f"{message!r}" if value is None \
            else f"{message!r}, {value}, {cond}"
        self.line(f"if _any({cond}): _bad({args})")

    # -- jets ---------------------------------------------------------------

    def fail(self, message: str):
        """The jet of a subtree whose folding failed: the kernel raises
        DomainError(message) where the subtree would be evaluated."""
        self.line(f"_bad({message!r})")
        return self.constant(math.nan)

    def constant(self, c: float):
        return (c, [None] * self.n, {})

    def entrywise(self, f, a, b):
        (av, ag, ah), (bv, bg, bh) = a, b
        return (f(av, bv), [f(x, y) for x, y in zip(ag, bg)],
                self.hessian(lambda k, l: f(ah.get((k, l)), bh.get((k, l)))))

    def scale(self, a, c: float):
        """A jet times a float."""
        v, g, h = a
        return (self.term(self.product(v, c)),
                [self.term(self.product(t, c)) for t in g],
                self.hessian(lambda k, l: self.term(self.product(h.get((k, l)),
                                                                 c))))

    def mul(self, a, b):
        (av, ag, ah), (bv, bg, bh) = a, b
        if isinstance(av, float):
            return self.scale(b, av)
        if isinstance(bv, float):
            return self.scale(a, bv)
        hess = self.hessian(lambda k, l: self.total([
            self.product(av, bh.get((k, l))), self.product(bv, ah.get((k, l))),
            self.product(ag[k], bg[l]), self.product(ag[l], bg[k])]))
        return (self.term(self.product(av, bv)),
                [self.total([self.product(av, y), self.product(bv, x)])
                 for x, y in zip(ag, bg)], hess)

    def compose(self, a, f, fp=None, fpp=None):
        """Jet of f(u) from f, f' and f'' at u = a's value."""
        _, ag, ah = a
        hess = self.hessian(lambda k, l: self.total([
            self.product(fp, ah.get((k, l))),
            self.product(fpp, self.product(ag[k], ag[l]))]))
        return (f, [self.term(self.product(fp, t)) for t in ag], hess)

    def reciprocal(self, a):
        v = self.lit(a[0])
        self.check(f"{v} == 0.0", "division by zero")
        return self.compose(
            a, self.let(f"1.0 / {v}"), self.factor(1, f"-1.0 / ({v} * {v})"),
            self.factor(2, f"2.0 / ({v} * {v} * {v})"))

    def function(self, op: str, a):
        v, order = self.lit(a[0]), self.order

        def call(name):
            if (name, v) not in self.calls:
                self.calls[name, v] = self.let(f"{name}({v})")
            return self.calls[name, v]

        if op == "neg":
            return (self.neg(a[0]), [self.neg(t) for t in a[1]],
                    self.hessian(lambda k, l: self.neg(a[2].get((k, l)))))
        if op == "exp":
            e = call("exp")
            return self.compose(a, e, e, e)
        if op == "cutoff":
            return self.cutoff(a)
        if op in ("log", "sqrt"):
            self.check(f"{v} <= 0.0", f"{op} of nonpositive value", v)
            if op == "log":
                return self.compose(a, call("log"),
                                    self.factor(1, f"1.0 / {v}"),
                                    self.factor(2, f"-1.0 / ({v} * {v})"))
            s = call("sqrt")
            return self.compose(a, s, self.factor(1, f"0.5 / {s}"),
                                self.factor(2, f"-0.25 / ({s} * {v})"))
        if op in ("sin", "cos", "sinh", "cosh"):
            pair = ("sin", "cos") if op in ("sin", "cos") else ("sinh", "cosh")
            f = call(op)
            other = call(pair[1] if op == pair[0] else pair[0]) \
                if order >= 1 else None
            if op == "sin":
                return self.compose(a, f, other, self.factor(2, f"-{f}"))
            if op == "cos":
                return self.compose(a, f, self.factor(1, f"-{other}"),
                                    self.factor(2, f"-{f}"))
            return self.compose(a, f, other, f)
        if op == "tan":
            c = call("cos")
            self.check(f"abs({c}) < 1e-300", "tan at a pole")
            t = call("tan")
            sec2 = self.factor(1, f"1.0 + {t} * {t}")
            return self.compose(a, t, sec2,
                                self.factor(2, f"2.0 * {t} * {sec2}"))
        t = call("tanh")
        sech2 = self.factor(1, f"1.0 - {t} * {t}")
        return self.compose(a, t, sech2,
                            self.factor(2, f"-2.0 * {t} * {sech2}"))

    def cutoff(self, a):
        """chi(u): 1 on u <= 1/4, the quintic C^2 ramp 1 - s(z) with
        z = (u - 1/4) / (3/4) on [1/4, 1], and 0 beyond.

        The ramp is the unique quintic with value, slope and curvature
        matching at both ends, so z is clipped to [0, 1] (`_clip`: min/max
        at a point, np.clip in a batch) and no point takes a branch: at
        either end the ramp is exactly 1 or 0 with zero derivatives. Powers
        are products, which round alike on floats and arrays. An internal
        operation of the perturbation bumps, outside the grammar.
        """
        z = self.let(f"_clip(({self.lit(a[0])} - 0.25) / 0.75)")
        c = repr(1.0 / 0.75)            # dz/du
        value = self.let(f"1.0 - {z} * {z} * {z} * "
                         f"(10.0 - 15.0 * {z} + 6.0 * {z} * {z})")
        fp = self.factor(1, f"-(30.0 * {z} * {z} * ((1.0 - {z}) * "
                            f"(1.0 - {z}))) * {c}")
        fpp = self.factor(2, f"-(60.0 * {z} * (1.0 - 3.0 * {z} + "
                             f"2.0 * {z} * {z})) * {c} * {c}")
        return self.compose(a, value, fp, fpp)

    def power(self, e: "Binary"):
        a, b = self.jet(e.left), self.jet(e.right)
        if not e.right.is_constant:
            # exp(b log a): the exponent depends on the coordinates; a
            # constant base's log is folded
            log_a = self.jet(Unary("log", e.left)) if e.left.is_constant \
                else self.function("log", a)
            return self.function("exp", self.mul(log_a, b))
        c, v = b[0], self.lit(a[0])
        if not float(c).is_integer():
            self.check(f"{v} <= 0.0",
                       "real exponent requires positive base, got", v)
            return self.function("exp",
                                 self.scale(self.function("log", a), c))
        k = int(c)
        if k < 0:
            a, k = self.reciprocal(a), -k
        if k == 0:
            return self.constant(1.0)
        out = a
        for bit in bin(k)[3:]:      # repeated squaring, leading bit first
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def jet(self, e: Expr):
        hit = self.memo.get(e)
        if hit is None:
            outer = self.label
            if isinstance(e, Unary):
                self.label = e.op
            elif isinstance(e, Binary):
                self.label = repr(e.op)
            hit = self.memo[e] = self._jet(e)
            self.label = outer
        return hit

    def _jet(self, e: Expr):
        if e.is_constant:
            try:
                jet = self.constant(float(e.eval((), self.params)))
            except DomainError as exc:
                jet = self.fail(str(exc))
        elif isinstance(e, Sym):
            if e.coord_index >= self.n:
                raise ValueError(f"coordinate {e.name!r} outside {self.n} "
                                 "kernel coordinates")
            grad = [None] * self.n
            if self.order >= 1:
                grad[e.coord_index] = 1.0
            jet = (f"x{e.coord_index}", grad, {})
        elif isinstance(e, Unary):
            jet = self.function(e.op, self.jet(e.arg))
        elif e.op == "^":
            jet = self.power(e)
        else:
            a, b = self.jet(e.left), self.jet(e.right)
            if e.op == "+":
                jet = self.entrywise(lambda x, y: self.total([x, y]), a, b)
            elif e.op == "-":
                jet = self.entrywise(self.diff, a, b)
            elif e.op == "*":
                jet = self.mul(a, b)
            elif isinstance(b[0], float):
                try:
                    jet = self.scale(a, reciprocal(b[0]))
                except DomainError as exc:
                    jet = self.fail(str(exc))
            elif isinstance(a[0], float):
                jet = self.scale(self.reciprocal(b), a[0])
            else:
                jet = self.mul(a, self.reciprocal(b))
        return jet

    # -- the kernel -----------------------------------------------------------

    def source(self, exprs, slots, width: int) -> str:
        n = self.n
        writes: list[tuple[int, object]] = []
        for e, where in zip(exprs, slots):
            v, g, h = self.jet(e)
            for s in where:
                writes.append((s, v))
                if self.order >= 1:
                    writes += [(width * (1 + k) + s, t)
                               for k, t in enumerate(g)]
                for (k, l), t in h.items():
                    writes.append((width * (1 + n + k * n + l) + s, t))
                    if k != l:
                        writes.append((width * (1 + n + l * n + k) + s, t))
        writes = [(i, t) for i, t in writes
                  if t is not None and not (isinstance(t, float) and t == 0.0
                                            and math.copysign(1.0, t) > 0.0)]
        # finiteness: 0 * t is 0 for a finite t and NaN otherwise
        names = list(dict.fromkeys(t for _, t in writes if isinstance(t, str)))
        if any(isinstance(t, float) and not math.isfinite(t)
               for _, t in writes):
            self.line(f"_bad({_NOT_FINITE!r})")
        for start in range(0, len(names), 32):
            terms = " + ".join(f"0.0 * {t}" for t in names[start:start + 32])
            self.line(f"_z = {terms}" if start == 0 else f"_z = _z + {terms}",
                      _NOT_FINITE)
        if names:
            self.check("_z != _z", _NOT_FINITE)
        for i, t in writes:
            self.line(f"_o[{i}] = {self.lit(t)}")
        args = "".join(f", x{k}" for k in range(n))
        return "\n    ".join([f"def kernel(_o{args}):"] + self.lines
                             + ["return None"]) + "\n"
