"""Scalar and vector fields over a chart, with jet-level queries.

A scalar field answers `jet2(p, order)`: a Jet2 at order 2, or a
Hessian-free one at order 1. A vector field's `value` takes a point (n,) or
points (B, n).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .expr import Expr, SymbolTable, eval2, evaluate, parse
from .jets import Jet2


class ScalarField:
    """A real function on the chart exposing exact second-order jets."""

    dim: int

    def jet2(self, p: Sequence[float], order: int = 2) -> Jet2:
        """The jet at p; order 1 carries no Hessian."""
        raise NotImplementedError

    def value(self, p: Sequence[float]) -> float:
        return self.jet2(p, 1).value

    def scaled(self, factor: float) -> "ScaledScalarField":
        return ScaledScalarField(self, factor)


class ExprScalarField(ScalarField):
    def __init__(self, expr: Expr | str, table: SymbolTable,
                 params: Mapping[str, float] | None = None):
        self.table = table
        self.expr = parse(expr, table) if isinstance(expr, str) else expr
        self.params = dict(params or {})
        self.dim = table.dim

    def jet2(self, p, order: int = 2):
        return eval2(self.expr, p, self.params, self.table, order)


class ZeroScalarField(ScalarField):
    def __init__(self, dim: int):
        self.dim = dim

    def jet2(self, p, order: int = 2):
        return Jet2.constant(0.0, self.dim, order)


class ScaledScalarField(ScalarField):
    """factor * base, used for the 1/n members of perturbation families."""

    def __init__(self, base: ScalarField, factor: float):
        self.base = base
        self.factor = float(factor)
        self.dim = base.dim

    def jet2(self, p, order: int = 2):
        return self.base.jet2(p, order) * self.factor


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

    @staticmethod
    def constant(vec: Sequence[float], table: SymbolTable) -> "VectorField":
        return VectorField([repr(float(v)) for v in vec], table)

    def value(self, p: Sequence[float]) -> np.ndarray:
        """Components at a point (n,), or stacked (B, n) at points (B, n)."""
        q = np.asarray(p, dtype=float)
        values, _ = evaluate(self.components, q, self.params)
        if q.ndim == 1:
            return np.array(values)
        return np.stack([np.broadcast_to(v, q.shape[:-1]) for v in values],
                        axis=-1)
