"""Metric tensor fields over a chart.

A MetricField answers second-order jet queries for its components: at a point
p it returns (g, dg, d2g) with

    g[i, j]        component values,
    dg[k, i, j]    first partials  d_k g_ij,
    d2g[k, l, i, j] second partials d_k d_l g_ij,

all analytic (compiled forward-mode kernels; no finite differences). Every
field also answers a batch of points p (B, n) in one pass, with a leading
batch axis on each result; `product_jets` is the product rule of a
conformal rescaling, shared by point and batch queries. Charts may declare
periodic coordinates (quotient spacetimes); points are canonicalized modulo
the periods before every field query, while curves are integrated in the
covering chart and reported both raw and canonicalized. `displacement` is
the one offset rule on a quotient: q - p to the nearest image of p.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

from .errors import ParamError
from .expr import Binary, Expr, Kernels, Num, Sym, SymbolTable, Unary, parse
from .fields import ScalarField
from .jets import Jet2, compose
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
        for i, per in enumerate(self.periods):
            if per is not None:
                q[..., i] %= per
        return q

    def displacement(self, q: Sequence[float], p) -> np.ndarray:
        """q - p for a point q (n,) or points (B, n), each periodic axis
        wrapped to the nearest image of p."""
        d = np.asarray(q, dtype=float) - p
        for i, per in enumerate(self.periods):
            if per is not None:
                d[..., i] = (d[..., i] + per / 2.0) % per - per / 2.0
        return d

    def contains(self, p: Sequence[float]) -> bool:
        q = np.asarray(p, dtype=float)
        for i, (lo, hi) in enumerate(self.domain):
            if self.periods[i] is not None:
                continue
            if not (lo <= q[i] <= hi):
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

        Points p (B, n) give results with a leading batch axis.
        """
        raise NotImplementedError

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
        self.constant_components = all(e.is_constant for e in entries.values())
        # entry (i, j) fills g[i, j] and g[j, i]
        self._kernels = Kernels(entries.values(), n, self.params, (n, n),
                                [{i * n + j, j * n + i} for i, j in entries])
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
        # the base points and one shifted copy per periodic axis, in one call
        periodic = [(a, per) for a, per in enumerate(self.periods)
                    if per is not None]
        stack = np.repeat(pts[None], 1 + len(periodic), axis=0)
        for k, (axis, per) in enumerate(periodic, 1):
            stack[k, :, axis] += per
        values = self._kernels(stack.reshape(-1, self.dim), 0)[0].reshape(
            len(stack), samples, -1)
        for k, (axis, per) in enumerate(periodic, 1):
            if not np.allclose(values[0], values[k], atol=tol, rtol=0.0):
                raise ParamError(
                    f"components not invariant under period {per} "
                    f"along coordinate {self.table.coordinates[axis]}")

    def component_jets(self, p, order: int = 2):
        return self._kernels(self.canonicalize(p), order)


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

    Component jets apply the product/chain rule exactly: e^{2 s f} is the
    kernel of exp(2 s y) composed on the factor's jet, and `product_jets`
    multiplies it into g's, at a point or a batch of points alike. This
    wrapper is the ground-truth oracle for every closed-form conformal
    transformation law in the package.
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
        self._exp = exp_kernels(2.0 * self.scale)

    def component_jets(self, p, order: int = 2):
        q = self.base.canonicalize(p)
        g, dg, d2g = self.base.component_jets(q, order=order)
        order = max(order, 1)
        f = self.factor.jet2(q, order)
        e = compose(self._exp(np.asarray(f.value)[..., None], order), [f])
        return product_jets(e, g, dg, d2g)


@functools.lru_cache(maxsize=64)
def exp_kernels(c: float) -> Kernels:
    """The kernels of exp(c y) in one variable y, to compose (`jets.compose`)
    on a conformal factor's jet: e^{2 s f} with c = 2 s."""
    return Kernels((Unary("exp", Binary("*", Num(c), Sym("y", 0))),), 1,
                   shape=(), slots=[(0,)])


def product_jets(e: Jet2, g, dg=None, d2g=None):
    """Component jets of e g from a scalar jet e and g's component jets.

    At a point e is a float jet and g, dg, d2g are (n, n), (n, n, n) and
    (n, n, n, n); at points (B, n) each leads with the batch axis, as the
    fields return them. The result has the components' layout, up to the
    order dg and d2g reach:

        order 0   e g
        order 1   de (x) g + e dg
        order 2   d2e (x) g + de (x) dg + (de (x) dg)^T + e d2g
    """
    v = np.asarray(e.value)[..., None, None]
    eg = v * g
    if dg is None:
        return eg, None, None
    de = e.grad[..., :, None, None]
    deg = de * g[..., None, :, :] + v[..., None] * dg
    if d2g is None:
        return eg, deg, None
    cross = de[..., None] * dg[..., None, :, :, :]      # d_k e d_l g_ij
    return eg, deg, (e.hess[..., None, None] * g[..., None, None, :, :] + cross
                     + cross.swapaxes(-4, -3) + v[..., None, None] * d2g)
