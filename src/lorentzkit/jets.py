"""Second-order jets: (value, gradient, Hessian) propagated together.

A Jet2 is the universal currency of differentiation in this package: every
scalar quantity that geometry needs derivatives of (metric components,
conformal factors, embedding maps) is evaluated as a Jet2, so Christoffel
symbols and curvature come out of analytic derivatives, never finite
differences.

Arithmetic accepts plain floats on either side (`2.0 * j`, `1.0 / j`,
`c - j`), which is how the expression evaluator keeps constant subtrees as
floats instead of constant jets. Jets are immutable; all arithmetic returns
fresh instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class Jet2:
    """Value, gradient and (symmetric) Hessian of a scalar at a point."""

    value: float
    grad: np.ndarray    # shape (n,)
    hess: np.ndarray    # shape (n, n), symmetric

    @staticmethod
    def constant(c: float, n: int) -> "Jet2":
        return Jet2(float(c), np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(x: float, index: int, n: int) -> "Jet2":
        g = np.zeros(n)
        g[index] = 1.0
        return Jet2(float(x), g, np.zeros((n, n)))

    @property
    def dim(self) -> int:
        return self.grad.shape[0]

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.grad + other.grad,
                        self.hess + other.hess)
        return Jet2(self.value + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.grad - other.grad,
                        self.hess - other.hess)
        return Jet2(self.value - other, self.grad, self.hess)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            cross = np.outer(self.grad, other.grad)
            return Jet2(
                self.value * other.value,
                self.value * other.grad + other.value * self.grad,
                self.value * other.hess + other.value * self.hess
                + cross + cross.T,
            )
        return Jet2(self.value * other, self.grad * other, self.hess * other)

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
            return Jet2.constant(1.0, self.dim)
        out = self
        for _ in range(k - 1):      # exponents are small in practice
            out = out * self
        return out

    # -- univariate chain rule -------------------------------------------

    def _compose(self, f: float, fp: float, fpp: float) -> "Jet2":
        """Jet of f(u) from f, f', f'' at u = self.value."""
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
        return Jet2(self.value, self.grad, 0.5 * (self.hess + self.hess.T))
