"""The reference the compiled jet kernels are tested against.

This is the tree-walking jet arithmetic the package evaluated jets with
before every jet moved onto the kernels of `lorentzkit.expr`: `Jet2` with
its operators and univariate functions, and `jet_eval`, the walk of an
expression tree on `Jet2` seeds with `Expr.eval`'s error wrapping (an
`ArithmeticError` of a node's own operation becomes `DomainError`, named
after the operation). It is a twin of the kernels, kept apart from them on
purpose: the kernels are emitted code, this is plain operator arithmetic,
and a rule or message that drifts in one shows up as a disagreement.

A sympy reference cannot take its place without loosening the property
test: scored against 30-digit sympy derivatives, 3 of 418 trees drawn by
`test_kernels`' own strategy miss the 1e-12 bound, each one ill-conditioned
in floating point (the gradient of exp(x) - x at x = 5.8e-196 is exactly
5.8e-196, but every float evaluation of it gives 0).

A jet seeded at order 1 carries no Hessian (`hess` is None) and everything
derived from it is order 1 too: value and gradient follow exactly the same
arithmetic as at order 2, and the Hessian terms are never formed, nor the
second-derivative factors of 1/v, log and sqrt (so an order-1 jet cannot
fail on one). Mixing an order-1 with an order-2 jet gives an order-1 jet.

A jet is either at one point (a float value, gradient (n,), Hessian (n, n))
or at a batch of B points, with the batch axis last: value (B,), gradient
(n, B), Hessian (n, n, B). Both share the arithmetic: products take outer
products with `np.outer` at a point and by broadcasting over a batch,
univariate functions call `math` on a float and numpy on a batch, and every
domain check tests each element. One point keeps the float arithmetic of a
scalar jet bit for bit. Batched and single-point jets do not mix.

Arithmetic accepts plain floats on either side (`2.0 * j`, `1.0 / j`,
`c - j`), which is how the walk keeps constant subtrees as floats instead
of constant jets. Derivative factors form powers as products (v * v, not
v ** 2), which round alike on floats and arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lorentzkit.errors import DomainError
from lorentzkit.expr import Binary, Expr, Num, Sym, Unary


def any_true(mask) -> bool:
    """Whether a domain check fails: a bool, or any element of a batch."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def first_bad(v, mask):
    """The value that fails the check `mask`: v itself, or the first batch
    element where the mask holds."""
    if isinstance(mask, np.ndarray):
        return np.broadcast_to(v, mask.shape)[mask][0]
    return v


def reciprocal(c: float) -> float:
    """1 / c for a float divisor, refusing 0 and a c so small (subnormal)
    that 1 / c overflows: the walk on jets and the compiled kernels raise
    the same DomainError for either."""
    if c == 0:
        raise DomainError("division by zero")
    r = 1.0 / c
    if math.isinf(r):
        raise DomainError(f"'/': 1/{c!r} overflows")
    return r


@dataclass(slots=True)
class Jet2:
    """Value, gradient and (symmetric) Hessian of a scalar at a point, or at
    a batch of points (batch axis last)."""

    value: float | np.ndarray   # float, or shape (B,)
    grad: np.ndarray            # shape (n,) or (n, B)
    hess: np.ndarray | None     # (n, n) or (n, n, B), symmetric; None at order 1

    @staticmethod
    def constant(c, n: int, order: int = 2) -> "Jet2":
        """The constant c: a float, or a (B,) array for a batch."""
        if isinstance(c, np.ndarray):
            return Jet2(c, np.zeros((n,) + c.shape),
                        np.zeros((n, n) + c.shape) if order >= 2 else None)
        return Jet2(float(c), np.zeros(n),
                    np.zeros((n, n)) if order >= 2 else None)

    @staticmethod
    def variable(x, index: int, n: int, order: int = 2) -> "Jet2":
        """Coordinate `index` seeded at x: a float, or a (B,) array."""
        if isinstance(x, np.ndarray):
            jet = Jet2.constant(x, n, order)
            jet.grad[index] = 1.0
            return jet
        g = np.zeros(n)
        g[index] = 1.0
        return Jet2(float(x), g, np.zeros((n, n)) if order >= 2 else None)

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    @property
    def order(self) -> int:
        return 1 if self.hess is None else 2

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            hess = None if self.hess is None or other.hess is None \
                else self.hess + other.hess
            return Jet2(self.value + other.value, self.grad + other.grad, hess)
        return Jet2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad,
                    None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            hess = None if self.hess is None or other.hess is None \
                else self.hess - other.hess
            return Jet2(self.value - other.value, self.grad - other.grad, hess)
        return Jet2(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            grad = self.value * other.grad + other.value * self.grad
            if self.hess is None or other.hess is None:
                return Jet2(self.value * other.value, grad, None)
            if self.grad.ndim == 1:
                cross = np.outer(self.grad, other.grad)
                cross_t = cross.T
            else:                       # batch axis last
                cross = self.grad[:, None] * other.grad[None, :]
                cross_t = cross.swapaxes(0, 1)
            return Jet2(
                self.value * other.value, grad,
                self.value * other.hess + other.value * self.hess
                + cross + cross_t,
            )
        return Jet2(self.value * other, self.grad * other,
                    None if self.hess is None else self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "Jet2":
        v = self.value
        zero = v == 0.0
        if zero.any() if isinstance(zero, np.ndarray) else zero:
            raise DomainError("division by zero")
        return self._compose(1.0 / v, -1.0 / (v * v),
                             None if self.hess is None else 2.0 / (v * v * v))

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (isinstance(exponent, float)
                                         and exponent.is_integer()):
            return self._int_pow(int(exponent))
        # real exponent: exp(b log a), requires a > 0 so the jet stays exact
        bad = self.value <= 0.0
        if bad.any() if isinstance(bad, np.ndarray) else bad:
            raise DomainError(f"real exponent requires positive base, got "
                              f"{first_bad(self.value, bad)}")
        return (self.log() * float(exponent)).exp()

    def _int_pow(self, k: int) -> "Jet2":
        if k < 0:
            return self._reciprocal()._int_pow(-k)
        if k == 0:
            one = np.ones_like(self.value) \
                if isinstance(self.value, np.ndarray) else 1.0
            return Jet2.constant(one, self.dim, self.order)
        out = self
        for bit in bin(k)[3:]:      # repeated squaring, leading bit first
            out = out * out
            if bit == "1":
                out = out * self
        return out

    # -- univariate chain rule -------------------------------------------

    def _compose(self, f, fp, fpp) -> "Jet2":
        """Jet of f(u) from f, f', f'' at u = self.value. An order-1 jet
        ignores fpp, so callers whose f'' can fail (a division by an
        underflowed power) pass None for it there."""
        g = self.grad
        if self.hess is None:
            return Jet2(f, fp * g, None)
        outer = np.outer(g, g) if g.ndim == 1 else g[:, None] * g[None, :]
        return Jet2(f, fp * g, fp * self.hess + fpp * outer)

    def exp(self):
        v = self.value
        e = np.exp(v) if isinstance(v, np.ndarray) else math.exp(v)
        return self._compose(e, e, e)

    def log(self):
        v = self.value
        batch = isinstance(v, np.ndarray)
        bad = v <= 0.0
        if bad.any() if batch else bad:
            raise DomainError(f"log of nonpositive value {first_bad(v, bad)}")
        lv = np.log(v) if batch else math.log(v)
        return self._compose(lv, 1.0 / v,
                             None if self.hess is None else -1.0 / (v * v))

    def sqrt(self):
        v = self.value
        batch = isinstance(v, np.ndarray)
        bad = v <= 0.0
        if bad.any() if batch else bad:
            raise DomainError(f"sqrt of nonpositive value {first_bad(v, bad)}")
        s = np.sqrt(v) if batch else math.sqrt(v)
        return self._compose(s, 0.5 / s,
                             None if self.hess is None else -0.25 / (s * v))

    def sin(self):
        m = np if isinstance(self.value, np.ndarray) else math
        s, c = m.sin(self.value), m.cos(self.value)
        return self._compose(s, c, -s)

    def cos(self):
        m = np if isinstance(self.value, np.ndarray) else math
        # the function before its partner, as the kernels: an overflow
        # names the same call
        c, s = m.cos(self.value), m.sin(self.value)
        return self._compose(c, -s, -c)

    def tan(self):
        m = np if isinstance(self.value, np.ndarray) else math
        c = m.cos(self.value)
        if any_true(abs(c) < 1e-300):
            raise DomainError("tan at a pole")
        t = m.tan(self.value)
        sec2 = 1.0 + t * t
        return self._compose(t, sec2, 2.0 * t * sec2)

    def sinh(self):
        m = np if isinstance(self.value, np.ndarray) else math
        s, c = m.sinh(self.value), m.cosh(self.value)
        return self._compose(s, c, s)

    def cosh(self):
        m = np if isinstance(self.value, np.ndarray) else math
        # the function before its partner, as the kernels: an overflow
        # names the same call
        c, s = m.cosh(self.value), m.sinh(self.value)
        return self._compose(c, s, c)

    def tanh(self):
        v = self.value
        t = np.tanh(v) if isinstance(v, np.ndarray) else math.tanh(v)
        sech2 = 1.0 - t * t
        return self._compose(t, sech2, -2.0 * t * sech2)

    def symmetrized(self) -> "Jet2":
        if self.hess is None:
            return self
        return Jet2(self.value, self.grad,
                    0.5 * (self.hess + self.hess.swapaxes(0, 1)))


# --- the tree walk on Jet2 seeds ------------------------------------------------

_MATH_FUNCS = {
    "exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
    "tan": math.tan, "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "sqrt": math.sqrt,
}


def _apply(op: str, a):
    """The function `op` of a float (math) or of a Jet2 (its method)."""
    if isinstance(a, Jet2):
        return getattr(a, op)()
    try:
        return _MATH_FUNCS[op](a)
    except ValueError as exc:
        raise DomainError(f"{op}({a}): {exc}") from exc


def _power(a, b):
    if isinstance(b, Jet2):
        # the exponent depends on the coordinates
        return (_apply("log", a) * b).exp()
    if float(b).is_integer():
        return a ** int(b)          # exact: repeated squaring for jets
    if not isinstance(a, Jet2) and a <= 0.0:    # a jet checks its base
        raise DomainError(f"real exponent requires positive base, got {a}")
    return a ** b


def jet_eval(e: Expr, xs, params):
    """Value of `e` at coordinates `xs` (floats or Jet2 seeds, chart order).

    Numbers and parameters evaluate to floats, so the result is a float
    when it does not depend on a Jet2 seed. Raises DomainError outside an
    operation's domain, on division by zero and on floating-point overflow.
    """
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Sym):
        if e.coord_index is not None:
            return xs[e.coord_index]
        return float(params[e.name])
    if isinstance(e, Unary):
        a = jet_eval(e.arg, xs, params)
        if e.op == "neg":
            return -a
        try:
            return _apply(e.op, a)
        except ArithmeticError as exc:
            raise DomainError(f"{e.op}: {exc}") from exc
    assert isinstance(e, Binary)
    a = jet_eval(e.left, xs, params)
    b = jet_eval(e.right, xs, params)
    try:
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            return a / b
        return _power(a, b)
    except ArithmeticError as exc:
        raise DomainError(f"{e.op!r}: {exc}") from exc
