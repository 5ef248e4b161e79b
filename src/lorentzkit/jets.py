"""Second-order jets: (value, gradient, Hessian) propagated together.

A Jet2 is the universal currency of differentiation in this package: every
scalar quantity that geometry needs derivatives of (metric components,
conformal factors, embedding maps) is evaluated as a Jet2, so Christoffel
symbols and curvature come out of analytic derivatives, never finite
differences.

A jet seeded at order 1 carries no Hessian (`hess` is None) and everything
derived from it is order 1 too: value and gradient follow exactly the same
arithmetic as at order 2, and the Hessian terms are never formed. Mixing an
order-1 with an order-2 jet gives an order-1 jet.

Arithmetic accepts plain floats on either side (`2.0 * j`, `1.0 / j`,
`c - j`), which is how the expression evaluator keeps constant subtrees as
floats instead of constant jets. Jets are never changed after construction;
all arithmetic returns fresh instances. The class is not a frozen dataclass
because a frozen `__init__` costs about 0.7 us more per jet, and an order-1
metric query builds a dozen or more jets on the geodesic hot path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(slots=True)
class Jet2:
    """Value, gradient and (symmetric) Hessian of a scalar at a point."""

    value: float
    grad: np.ndarray            # shape (n,)
    hess: np.ndarray | None     # shape (n, n), symmetric; None at order 1

    @staticmethod
    def constant(c: float, n: int, order: int = 2) -> "Jet2":
        return Jet2(float(c), np.zeros(n),
                    np.zeros((n, n)) if order >= 2 else None)

    @staticmethod
    def variable(x: float, index: int, n: int, order: int = 2) -> "Jet2":
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
            cross = np.outer(self.grad, other.grad)
            return Jet2(
                self.value * other.value, grad,
                self.value * other.hess + other.value * self.hess
                + cross + cross.T,
            )
        return Jet2(self.value * other, self.grad * other,
                    None if self.hess is None else self.hess * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        if other == 0:
            raise DomainError("division by zero")
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "Jet2":
        if self.value == 0.0:
            raise DomainError("division by zero")
        return self._compose(1.0 / self.value,
                             -1.0 / self.value ** 2,
                             2.0 / self.value ** 3)

    def __pow__(self, exponent):
        if isinstance(exponent, int) or (isinstance(exponent, float)
                                         and exponent.is_integer()):
            return self._int_pow(int(exponent))
        # real exponent: exp(b log a), requires a > 0 so the jet stays exact
        if self.value <= 0.0:
            raise DomainError(
                f"real exponent requires positive base, got {self.value}")
        return (self.log() * float(exponent)).exp()

    def _int_pow(self, k: int) -> "Jet2":
        if k < 0:
            return self._reciprocal()._int_pow(-k)
        if k == 0:
            return Jet2.constant(1.0, self.dim, self.order)
        out = self
        for _ in range(k - 1):      # exponents are small in practice
            out = out * self
        return out

    # -- univariate chain rule -------------------------------------------

    def _compose(self, f: float, fp: float, fpp: float) -> "Jet2":
        """Jet of f(u) from f, f', f'' at u = self.value."""
        if self.hess is None:
            return Jet2(f, fp * self.grad, None)
        return Jet2(f,
                    fp * self.grad,
                    fp * self.hess + fpp * np.outer(self.grad, self.grad))

    def exp(self):
        e = math.exp(self.value)
        return self._compose(e, e, e)

    def log(self):
        if self.value <= 0.0:
            raise DomainError(f"log of nonpositive value {self.value}")
        v = self.value
        return self._compose(math.log(v), 1.0 / v, -1.0 / v ** 2)

    def sqrt(self):
        if self.value <= 0.0:
            raise DomainError(f"sqrt of nonpositive value {self.value}")
        s = math.sqrt(self.value)
        return self._compose(s, 0.5 / s, -0.25 / (s * self.value))

    def sin(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(s, c, -s)

    def cos(self):
        s, c = math.sin(self.value), math.cos(self.value)
        return self._compose(c, -s, -c)

    def tan(self):
        c = math.cos(self.value)
        if abs(c) < 1e-300:
            raise DomainError("tan at a pole")
        t = math.tan(self.value)
        sec2 = 1.0 + t * t
        return self._compose(t, sec2, 2.0 * t * sec2)

    def sinh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._compose(s, c, s)

    def cosh(self):
        s, c = math.sinh(self.value), math.cosh(self.value)
        return self._compose(c, s, c)

    def tanh(self):
        t = math.tanh(self.value)
        sech2 = 1.0 - t * t
        return self._compose(t, sech2, -2.0 * t * sech2)

    def symmetrized(self) -> "Jet2":
        if self.hess is None:
            return self
        return Jet2(self.value, self.grad, 0.5 * (self.hess + self.hess.T))
