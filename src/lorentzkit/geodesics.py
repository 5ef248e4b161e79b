"""Geodesic integration and parallel transport (adaptive Dormand-Prince 5(4)).

Integration happens in the covering chart: periodic coordinates are never
wrapped inside the ODE state, so curves unwrap naturally; metric queries
canonicalize internally. Solutions report both raw and canonical points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StepFailure, ToleranceExceeded
from .geometry import DEFAULT_TOLS, TangentVector, Tolerances
from .metric import MetricField
from .tensors import invert_metric

# solve_ivp warns below this rtol and raises it to the floor itself
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _minus_gamma(field_: MetricField, x, xdot, w) -> np.ndarray:
    """-Gamma^k_ij x'^i w^j at x, for w of shape (n,) or (n, m).

    Contracts before inverting, so no Christoffel array is built:
    Gamma^k_ij x'^i w^j = g^kl c_l with
    c_l = 1/2 (d_i g_jl x'^i w^j + d_j g_il x'^i w^j - d_l g_ij x'^i w^j).
    """
    n = field_.dim
    g, dg, _ = field_.component_jets(x, order=1)
    g_inv, _ = invert_metric(g)
    a = (xdot @ dg.reshape(n, n * n)).reshape(n, n)   # a[j, l] = x'^i d_i g_jl
    u = dg @ xdot                                     # u[k, l] = d_k g_li x'^i
    return -0.5 * (g_inv @ ((a + u.T - u) @ w))


def _geodesic_rhs(field_: MetricField):
    n = field_.dim

    def rhs(_s, y):
        x, xdot = y[:n], y[n:]
        return np.concatenate([xdot, _minus_gamma(field_, x, xdot, xdot)])

    return rhs


def _transport_rhs(field_: MetricField, solution, m: int):
    n = field_.dim

    def rhs(s, wflat):
        x, xdot = solution.evaluate(s)
        return _minus_gamma(field_, x, xdot, wflat.reshape(n, m)).reshape(-1)

    return rhs


def _boundary_events(field_: MetricField, margin: float = 0.0):
    events = []
    n = field_.dim
    for i, (lo, hi) in enumerate(field_.domain):
        if field_.periods[i] is not None:
            continue
        if np.isfinite(lo):
            def ev_lo(_s, y, i=i, lo=lo):
                return y[i] - (lo + margin)
            ev_lo.terminal = True
            events.append(ev_lo)
        if np.isfinite(hi):
            def ev_hi(_s, y, i=i, hi=hi):
                return (hi - margin) - y[i]
            ev_hi.terminal = True
            events.append(ev_hi)
    return events


@dataclass
class GeodesicSolution:
    """Solution of x''^k + Gamma^k_ij x'^i x'^j = 0 with diagnostics."""

    field: MetricField
    p0: np.ndarray
    v0: np.ndarray
    t_end: float                  # requested affine length
    t_reached: float              # may stop early on chart exit
    chart_exit: bool
    norm_drift: float             # max |g(x',x') - g(v0,v0)| over samples
    n_rhs_evals: int              # every attempt's, a discarded one included
    _dense: object
    refinements: int = 0          # 1 when the first attempt was discarded

    def evaluate(self, s: float) -> tuple[np.ndarray, np.ndarray]:
        """Raw (unwrapped) point and velocity at affine parameter s."""
        n = self.field.dim
        y = self._dense(float(np.clip(s, 0.0, self.t_reached)))
        return y[:n], y[n:]

    def point(self, s: float, canonical: bool = False) -> np.ndarray:
        x, _ = self.evaluate(s)
        return self.field.canonicalize(x) if canonical else x

    def samples(self, num: int = 200):
        for s in np.linspace(0.0, self.t_reached, num):
            x, xdot = self.evaluate(s)
            yield float(s), x, xdot

    def end_state(self) -> TangentVector:
        x, xdot = self.evaluate(self.t_reached)
        return TangentVector(x, xdot)


def geodesic(field_: MetricField, p, v, t_end: float,
             tols: Tolerances = DEFAULT_TOLS,
             _rtol: float | None = None) -> GeodesicSolution:
    """Integrate the geodesic from (p, v) over affine parameter [0, t_end].

    Stops early with chart_exit set if the curve leaves the chart domain.
    Raises StepFailure on integrator breakdown (a numerical signal only) and
    ToleranceExceeded if g(x',x') cannot be held to eps_geo even after one
    refinement retry at rtol * 1e-3 (an rtol below scipy's floor runs at the
    floor, with atol still rtol * 1e-2). A retry sets `refinements` to 1,
    and `n_rhs_evals` counts the discarded attempt's right-hand sides too.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if float(v @ v) == 0.0:
        raise ValueError("geodesic needs a nonzero initial velocity")
    rtol = _rtol if _rtol is not None else max(1e-12, min(1e-9, tols.eps_geo * 0.1))
    y0 = np.concatenate([p, v])
    sol = solve_ivp(_geodesic_rhs(field_), (0.0, float(t_end)), y0,
                    method="RK45", rtol=max(rtol, _RTOL_FLOOR),
                    atol=rtol * 1e-2,
                    dense_output=True, events=_boundary_events(field_))
    if sol.status == -1:
        last = sol.y[:, -1] if sol.y.size else y0
        raise StepFailure(sol.message, last_point=last[:field_.dim],
                          last_time=float(sol.t[-1]) if sol.t.size else 0.0)
    chart_exit = sol.status == 1
    t_reached = float(sol.t[-1])

    g0 = field_.value(p)
    q0 = float(v @ g0 @ v)
    drift = 0.0
    for s in np.linspace(0.0, t_reached, 33):
        y = sol.sol(s)
        x, xdot = y[:field_.dim], y[field_.dim:]
        q = float(xdot @ field_.value(x) @ xdot)
        drift = max(drift, abs(q - q0))
    budget = tols.eps_geo * (1.0 + abs(q0))
    if drift > budget:
        if _rtol is None:
            refined = geodesic(field_, p, v, t_end, tols, _rtol=rtol * 1e-3)
            refined.n_rhs_evals += int(sol.nfev)
            refined.refinements = 1
            return refined
        raise ToleranceExceeded(
            f"norm drift {drift:.3e} exceeds budget {budget:.3e}")
    return GeodesicSolution(field=field_, p0=p, v0=v, t_end=float(t_end),
                            t_reached=t_reached, chart_exit=chart_exit,
                            norm_drift=drift, n_rhs_evals=int(sol.nfev),
                            _dense=sol.sol)


@dataclass
class TransportSolution:
    """Vector(s) parallel-transported along a stored geodesic."""

    geodesic: GeodesicSolution
    w0: np.ndarray                # (n,) or (n, m)
    product_drift: float          # max drift of any pairwise g-inner product
    n_rhs_evals: int              # every attempt's, a discarded one included
    _dense: object
    refinements: int = 0          # 1 when the first attempt was discarded

    def evaluate(self, s: float) -> np.ndarray:
        n = self.geodesic.field.dim
        w = self._dense(float(np.clip(s, 0.0, self.geodesic.t_reached)))
        return w.reshape(n, -1) if self.w0.ndim == 2 else w

    def samples(self, num: int = 200):
        for s in np.linspace(0.0, self.geodesic.t_reached, num):
            yield float(s), self.evaluate(s)


def parallel_transport(field_: MetricField, solution: GeodesicSolution, w0,
                       tols: Tolerances = DEFAULT_TOLS,
                       _rtol: float | None = None) -> TransportSolution:
    """Solve w'^k + Gamma^k_ij gamma'^i w^j = 0 along the stored curve.

    w0 may be a single vector (n,) or a matrix of columns (n, m); columns are
    transported together. All pairwise g-inner products are checked to stay
    constant within eps_geo, with one refinement retry as in `geodesic`.
    The retry is skipped when g(gamma', gamma') alone drifts over budget:
    that product comes from the stored geodesic, which no retry changes.
    """
    n = field_.dim
    w0 = np.asarray(w0, dtype=float)
    cols = w0.reshape(n, -1)
    m = cols.shape[1]
    rtol = _rtol if _rtol is not None else max(1e-12, min(1e-9, tols.eps_geo * 0.1))

    sol = solve_ivp(_transport_rhs(field_, solution, m),
                    (0.0, solution.t_reached), cols.reshape(-1),
                    method="RK45", rtol=max(rtol, _RTOL_FLOOR),
                    atol=rtol * 1e-2,
                    dense_output=True)
    if sol.status != 0:
        raise StepFailure(sol.message)

    # conservation: pairwise products among transported columns and gamma'
    g0 = field_.value(solution.p0)
    base = np.hstack([cols, solution.v0[:, None]])
    prod0 = base.T @ g0 @ base
    drift = curve_drift = 0.0
    for s in np.linspace(0.0, solution.t_reached, 17):
        x, xdot = solution.evaluate(s)
        w = sol.sol(s).reshape(n, m)
        stack = np.hstack([w, xdot[:, None]])
        diff = np.abs(stack.T @ field_.value(x) @ stack - prod0)
        drift = max(drift, float(np.max(diff)))
        curve_drift = max(curve_drift, float(diff[-1, -1]))
    budget = tols.eps_geo * (1.0 + float(np.max(np.abs(prod0))))
    if drift > budget:
        if _rtol is None and curve_drift <= budget:
            refined = parallel_transport(field_, solution, w0, tols,
                                         _rtol=rtol * 1e-3)
            refined.n_rhs_evals += int(sol.nfev)
            refined.refinements = 1
            return refined
        raise ToleranceExceeded(
            f"transport product drift {drift:.3e} over budget")
    return TransportSolution(geodesic=solution, w0=w0, product_drift=drift,
                             n_rhs_evals=int(sol.nfev), _dense=sol.sol)
