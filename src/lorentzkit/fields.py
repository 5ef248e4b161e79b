"""Scalar and vector fields over a chart, with jet-level queries.

A scalar field answers `jet2(p, order)`: a Jet2 (a container of value,
gradient and Hessian) at order 2, or a Hessian-free one at order 1, at a
point p (n,) or, as a batch Jet2 with the batch axis first, at points p
(B, n). `ExprScalarField` (its compiled kernel), `ZeroScalarField` and the
bump fields of `perturb` (kernels composed on inner jets) answer both with
one code path; the base class stacks per-point jets for fields without a
batched pass. A vector field's `value` takes a point (n,) or points (B, n).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .expr import Expr, Kernels, SymbolTable, parse
from .jets import Jet2


class ScalarField:
    """A real function on the chart exposing exact second-order jets."""

    dim: int

    def jet2(self, p: Sequence[float], order: int = 2) -> Jet2:
        """The jet at a point p (n,), or the batch jet at points p (B, n);
        order 1 carries no Hessian.

        This base answers points one at a time and stacks their jets, for
        fields without a batched pass.
        """
        points = np.asarray(p, dtype=float)
        if points.ndim == 1:
            raise NotImplementedError
        jets = [self.jet2(q, order) for q in points]
        return Jet2(np.array([j.value for j in jets]),
                    np.stack([j.grad for j in jets]),
                    np.stack([j.hess for j in jets]) if order >= 2 else None)

    def value(self, p: Sequence[float]) -> float:
        return self.jet2(p, 1).value


class ExprScalarField(ScalarField):
    def __init__(self, expr: Expr | str, table: SymbolTable,
                 params: Mapping[str, float] | None = None):
        self.table = table
        self.expr = parse(expr, table) if isinstance(expr, str) else expr
        self.params = dict(params or {})
        self.dim = table.dim
        self._kernels = Kernels((self.expr,), self.dim, self.params,
                                shape=(), slots=[(0,)])

    def jet2(self, p, order: int = 2):
        q = np.asarray(p, dtype=float)
        value, grad, hess = self._kernels(q, order)
        return Jet2(float(value) if q.ndim == 1 else value, grad, hess)


class ZeroScalarField(ScalarField):
    def __init__(self, dim: int):
        self.dim = dim

    def jet2(self, p, order: int = 2):
        return Jet2.constant(np.zeros(np.shape(p)[:-1]), self.dim, order)


class VectorField:
    """Contravariant vector field with expression components."""

    def __init__(self, components: Sequence[Expr | str], table: SymbolTable,
                 params: Mapping[str, float] | None = None):
        if len(components) != table.dim:
            raise ValueError("component count != chart dimension")
        self.table = table
        self.components = tuple(
            parse(c, table) if isinstance(c, str) else c for c in components)
        self.params = dict(params or {})
        self.dim = table.dim
        self._kernels = Kernels(self.components, self.dim, self.params)

    @staticmethod
    def constant(vec: Sequence[float], table: SymbolTable) -> "VectorField":
        return VectorField([repr(float(v)) for v in vec], table)

    def value(self, p: Sequence[float]) -> np.ndarray:
        """Components at a point (n,), or stacked (B, n) at points (B, n)."""
        return self._kernels(np.asarray(p, dtype=float), 0)[0]
