"""Metric tensor fields over a chart.

A MetricField answers second-order jet queries for its components: at a point
p it returns (g, dg, d2g) with

    g[i, j]        component values,
    dg[k, i, j]    first partials  d_k g_ij,
    d2g[k, l, i, j] second partials d_k d_l g_ij,

all analytic (propagated jets, no finite differences). Every field also
answers a batch of points p (B, n), with a leading batch axis on each
result: expression metrics evaluate it in one batched jet pass, other fields
one point at a time. Charts may declare
periodic coordinates (quotient spacetimes); points are canonicalized modulo
the periods before every field query, while curves are integrated in the
covering chart and reported both raw and canonicalized.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from .errors import LorentzkitError, ParamError
from .expr import Expr, SymbolTable, batch_first, evaluate, parse
from .fields import ScalarField
from .jets import Jet2
from .tensors import MetricValue


def lower_triangle_count(n: int) -> int:
    return n * (n + 1) // 2


class MetricField:
    """Interface shared by expression-backed metrics and conformal wrappers."""

    dim: int
    table: SymbolTable
    params: dict
    periods: tuple[float | None, ...]
    domain: tuple[tuple[float, float], ...]
    constant_components: bool

    # -- chart bookkeeping -------------------------------------------------

    def canonicalize(self, p: Sequence[float]) -> np.ndarray:
        """A point (n,) or points (B, n) modulo the periods."""
        q = np.array(p, dtype=float)
        coords = q.T                    # coordinate i is coords[i]
        for i, per in enumerate(self.periods):
            if per is not None:
                coords[i] %= per
        return q

    def contains(self, p: Sequence[float], margin: float = 0.0) -> bool:
        q = np.asarray(p, dtype=float)
        for i, (lo, hi) in enumerate(self.domain):
            if self.periods[i] is not None:
                continue
            if not (lo + margin <= q[i] <= hi - margin):
                return False
        return True

    def boundary_distance(self, p: Sequence[float]) -> float:
        """Distance (chart Euclidean, per-axis min) to the domain boundary."""
        q = np.asarray(p, dtype=float)
        d = np.inf
        for i, (lo, hi) in enumerate(self.domain):
            if self.periods[i] is not None:
                continue
            if np.isfinite(lo):
                d = min(d, q[i] - lo)
            if np.isfinite(hi):
                d = min(d, hi - q[i])
        return float(d)

    # -- queries -------------------------------------------------------------

    def component_jets(self, p: Sequence[float], order: int = 2):
        """(g, dg, d2g) at p; dg/d2g are None when order cuts them off.

        Points p (B, n) give results with a leading batch axis. This base
        answers them one point at a time, for fields without a batched pass.
        """
        points = np.asarray(p, dtype=float)
        if points.ndim == 1:
            raise NotImplementedError
        jets = [self.component_jets(q, order) for q in points]
        return tuple(None if part[0] is None else np.stack(part)
                     for part in zip(*jets))

    def value(self, p: Sequence[float]) -> np.ndarray:
        return self.component_jets(p, order=0)[0]

    def metric_value(self, p: Sequence[float]) -> MetricValue:
        return MetricValue.from_matrix(self.value(p))


class ExprMetricField(MetricField):
    """Metric with n(n+1)/2 lower-triangle component expressions."""

    def __init__(self, table: SymbolTable,
                 lower_triangle: Mapping[tuple[int, int], Expr | str] | Sequence,
                 params: Mapping[str, float] | None = None,
                 periods: Sequence[float | None] | None = None,
                 domain: Sequence[tuple[float, float]] | None = None):
        n = table.dim
        self.table = table
        self.dim = n
        self.params = dict(params or {})
        self.periods = tuple(periods) if periods is not None else (None,) * n
        self.domain = tuple(domain) if domain is not None \
            else tuple((-np.inf, np.inf) for _ in range(n))
        if len(self.periods) != n or len(self.domain) != n:
            raise ParamError("periods/domain length must match dimension")

        entries: dict[tuple[int, int], Expr] = {}
        items = lower_triangle.items() if isinstance(lower_triangle, Mapping) \
            else lower_triangle
        for (i, j), raw in items:
            if not (0 <= j <= i < n):
                raise ParamError(f"lower-triangle index out of range: {(i, j)}")
            entries[(i, j)] = parse(raw, table) if isinstance(raw, str) else raw
        if len(entries) != lower_triangle_count(n):
            raise ParamError(
                f"need all {lower_triangle_count(n)} lower-triangle components, "
                f"got {len(entries)}")
        self.entries = entries
        # the component arrays start at +0.0, so those entries are skipped
        self._nonzero = {k: e for k, e in entries.items()
                         if not _is_plus_zero(e, self.params)}
        self.constant_components = all(e.is_constant for e in entries.values())
        if any(per is not None for per in self.periods):
            self._check_periodicity()

    def _check_periodicity(self, samples: int = 5, tol: float = 1e-10):
        rng = np.random.default_rng(1234)
        pts = rng.uniform(-1.0, 1.0, size=(samples, self.dim))
        # keep samples inside the domain for bounded coordinates
        for i, (lo, hi) in enumerate(self.domain):
            if np.isfinite(lo) or np.isfinite(hi):
                a = lo if np.isfinite(lo) else hi - 2.0
                b = hi if np.isfinite(hi) else lo + 2.0
                pts[:, i] = a + (b - a) * (0.25 + 0.5 * rng.random(samples))
        exprs = list(self.entries.values())
        for axis, per in enumerate(self.periods):
            if per is None:
                continue
            for p in pts:
                q = p.copy()
                q[axis] += per
                a = [e.eval(p.tolist(), self.params) for e in exprs]
                b = [e.eval(q.tolist(), self.params) for e in exprs]
                if not np.allclose(a, b, atol=tol, rtol=0.0):
                    raise ParamError(
                        f"components not invariant under period {per} "
                        f"along coordinate {self.table.coordinates[axis]}")

    def component_jets(self, p, order: int = 2):
        q = self.canonicalize(p)
        n = self.dim
        # order 0 evaluates on floats, order 1 on Hessian-free jets;
        # constant components stay floats. Filled batch axis last, as the
        # jets carry it.
        jets, batch = evaluate(self._nonzero.values(), q, self.params, order)
        g = np.zeros((n, n) + batch)
        dg = np.zeros((n, n, n) + batch) if order >= 1 else None
        d2g = np.zeros((n, n, n, n) + batch) if order >= 2 else None
        for (i, j), jet in zip(self._nonzero, jets):
            if not isinstance(jet, Jet2):
                g[i, j] = g[j, i] = jet
                continue
            g[i, j] = g[j, i] = jet.value
            dg[:, i, j] = dg[:, j, i] = jet.grad
            if order >= 2:
                h = jet.hess
                h = 0.5 * (h + (h.swapaxes(0, 1) if batch else h.T))
                d2g[:, :, i, j] = d2g[:, :, j, i] = h
        if q.ndim == 1:
            return g, dg, d2g
        return tuple(None if a is None else batch_first(a, q)
                     for a in (g, dg, d2g))


def _is_plus_zero(e: Expr, params: Mapping[str, float]) -> bool:
    """Whether e is the constant +0.0 (an entry that raises is not)."""
    if not e.is_constant:
        return False
    try:
        v = e.eval((), params)
    except LorentzkitError:
        return False
    return v == 0.0 and math.copysign(1.0, v) > 0.0


def minkowski_field(n: int = 4,
                    coordinates: Sequence[str] | None = None) -> ExprMetricField:
    """Flat metric diag(-1, 1, ..., 1); handy default for tests and demos."""
    coords = list(coordinates) if coordinates is not None else \
        ["t"] + [f"x{i}" for i in range(1, n)]
    table = SymbolTable(coords)
    entries = {}
    for i in range(n):
        for j in range(i + 1):
            entries[(i, j)] = "-1" if i == j == 0 else ("1" if i == j else "0")
    return ExprMetricField(table, entries)


class ConformalScaledMetric(MetricField):
    """e^{2 s f} g as a first-class metric field.

    Component jets apply the product/chain rule exactly, so this wrapper is
    the ground-truth oracle for every closed-form conformal transformation
    law in the package.
    """

    def __init__(self, base: MetricField, factor: ScalarField, scale: float = 1.0):
        if factor.dim != base.dim:
            raise ParamError("conformal factor dimension != metric dimension")
        self.base = base
        self.factor = factor
        self.scale = float(scale)
        self.table = base.table
        self.dim = base.dim
        self.params = base.params
        self.periods = base.periods
        self.domain = base.domain
        self.constant_components = False

    def component_jets(self, p, order: int = 2):
        if isinstance(p, np.ndarray) and p.ndim > 1:
            return super().component_jets(p, order)
        q = self.base.canonicalize(p)
        g, dg, d2g = self.base.component_jets(q, order=order)
        f = self.factor.jet2(q, max(order, 1)) * self.scale
        e = (2.0 * f).exp()
        if order == 0:
            return e.value * g, None, None
        new_g = e.value * g
        new_dg = np.einsum("k,ij->kij", e.grad, g) + e.value * dg
        if order < 2:
            return new_g, new_dg, None
        new_d2g = (np.einsum("kl,ij->klij", e.hess, g)
                   + np.einsum("k,lij->klij", e.grad, dg)
                   + np.einsum("l,kij->klij", e.grad, dg)
                   + e.value * d2g)
        return new_g, new_dg, new_d2g
