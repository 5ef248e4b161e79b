"""Geodesic integration and parallel transport (Dormand-Prince 8(5,3)).

The integrator is the package's own DOP853 (`dop853.solve_ivp`, numpy
only), called through this module's global `solve_ivp`. One solve serves
both: transported vectors ride in the geodesic's own state, so a transport
is one solve of (x, x', w_1 ... w_m) whose right-hand side takes one metric
jet per stage. `geodesic(..., transport=w0)` runs it from (p, v);
`parallel_transport` runs it again along a curve the caller already holds.

Integration happens in the covering chart: periodic coordinates are never
wrapped inside the ODE state, so curves unwrap naturally; metric queries
canonicalize internally. Solutions report both raw and canonical points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dop853 import solve_ivp
from .errors import StepFailure, ToleranceExceeded, batch_or_replay
from .geometry import DEFAULT_TOLS, Tolerances
from .metric import MetricField
from .tensors import invert_metric

# the smallest rtol asked of DOP853 (scipy's solve_ivp has the same floor):
# below about 100 eps its error estimate is rounding, so a retry at
# rtol * 1e-3 that would go lower runs here instead
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _contraction(g, dg, xdot) -> tuple[np.ndarray, np.ndarray]:
    """(g^-1, m) with Gamma^k_ij x'^i w^j = 1/2 g^kl (m w)_l for every w.

    Contracts before inverting, so no Christoffel array is built:
    (m w)_l = d_i g_jl x'^i w^j + d_j g_il x'^i w^j - d_l g_ij x'^i w^j.
    """
    n = len(xdot)
    g_inv, _ = invert_metric(g)
    a = (xdot @ dg.reshape(n, n * n)).reshape(n, n)   # a[j, l] = x'^i d_i g_jl
    u = dg @ xdot                                     # u[k, l] = d_k g_li x'^i
    return g_inv, a + u.T - u


def _minus_gamma(field_: MetricField, x, xdot, w) -> np.ndarray:
    """-Gamma^k_ij x'^i w^j at x, for w of shape (n,) or (n, m)."""
    g, dg, _ = field_.component_jets(x, order=1)
    g_inv, m = _contraction(g, dg, xdot)
    return -0.5 * (g_inv @ (m @ w))


def _geodesic_rhs(field_: MetricField, cols: int = 0):
    """The geodesic with `cols` parallel-transported vectors: state
    (x, x', w_1 ... w_cols), each vector contiguous. One contraction gives
    the acceleration and every w_a' as -1/2 g^-1 m [x' | w_1 ... w_cols]."""
    n = field_.dim

    def rhs(_s, y):
        x, xdot = y[:n], y[n:2 * n]
        vel = y[n:].reshape(cols + 1, n).T if cols else xdot
        return np.concatenate([xdot, _minus_gamma(field_, x, xdot, vel)
                               .T.reshape(-1)])

    return rhs


def _variational_rhs(field_: MetricField, cols: int):
    """The geodesic with `cols` Jacobi fields: state (x, x', J, J'), J and
    J' of shape (n, cols), flattened.

    The first variation of g x'' + c = 0, with c = 1/2 m x' (see
    `_contraction`), along J: J'' = -g^-1 [(d_J g) x'' + d_J c] - 2 Gamma(x', J'),
    where d_J c_l = x'^i x'^j J^k (d_k d_i g_jl - 1/2 d_k d_l g_ij) and
    2 Gamma(x', J') = g^-1 m J'.
    """
    n = field_.dim

    def rhs(_s, y):
        x, xdot = y[:n], y[n:2 * n]
        jac, jac_dot = y[2 * n:].reshape(2, n, cols)
        g, dg, d2g = field_.component_jets(x, order=2)
        g_inv, m = _contraction(g, dg, xdot)
        xddot = -0.5 * (g_inv @ (m @ xdot))
        r = d2g @ xdot                  # r[k, i, l] = d_k d_i g_lj x'^j
        t = (xdot @ r.reshape(n, n * n)).reshape(n, n)
        k = (dg @ xddot + t - 0.5 * (r @ xdot)).T   # (d_J g) x'' + d_J c = k J
        jac_ddot = -(g_inv @ (k @ jac + m @ jac_dot))
        return np.concatenate([xdot, xddot, jac_dot.reshape(-1),
                               jac_ddot.reshape(-1)])

    return rhs


def _boundary_events(field_: MetricField):
    events = []
    n = field_.dim
    for i, (lo, hi) in enumerate(field_.domain):
        if field_.periods[i] is not None:
            continue
        if np.isfinite(lo):
            def ev_lo(_s, y, i=i, lo=lo):
                return y[i] - lo
            ev_lo.terminal = True
            events.append(ev_lo)
        if np.isfinite(hi):
            def ev_hi(_s, y, i=i, hi=hi):
                return hi - y[i]
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
    transport: TransportSolution | None = None   # with `transport` columns

    def evaluate(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Raw (unwrapped) point and velocity at affine parameter s, (n,)
        each; parameters s (B,) give points and velocities (B, n) from one
        dense-output call, equal to the calls one s at a time."""
        n = self.field.dim
        y = self._dense(np.clip(s, 0.0, self.t_reached))
        return y[:n].T, y[n:2 * n].T

    def jacobi(self, s: float) -> np.ndarray:
        """The Jacobi fields J (n, m) at affine parameter s, of a solution
        integrated with `jacobi` columns J'(0) (J(0) = 0)."""
        n = self.field.dim
        y = self._dense(float(np.clip(s, 0.0, self.t_reached)))
        return y[2 * n:].reshape(2, n, -1)[0]

    def point(self, s: float, canonical: bool = False) -> np.ndarray:
        x, _ = self.evaluate(s)
        return self.field.canonicalize(x) if canonical else x

    def samples(self, num: int = 200):
        """(s, x, x') at num parameters from 0 to t_reached, read at once."""
        s = np.linspace(0.0, self.t_reached, num)
        return zip(s.tolist(), *self.evaluate(s))


def _product_drift(field_: MetricField, p0, base0, x,
                   vecs) -> tuple[np.ndarray, np.ndarray]:
    """(|g(a, b) - g(a0, b0)|, g(a0, b0)) for every pair of columns a, b of
    vecs (B, n, k) at the points x (B, n), against the columns a0, b0 of
    base0 (n, k) at p0: shapes (B, k, k) and (k, k). The B metric values
    are read in one batch."""
    prod0 = base0.T @ field_.value(p0) @ base0
    g = batch_or_replay(field_.value, x)
    return np.abs(np.einsum("bia,bij,bjc->bac", vecs, g, vecs) - prod0), prod0


def geodesic(field_: MetricField, p, v, t_end: float,
             tols: Tolerances = DEFAULT_TOLS, jacobi=None, transport=None,
             _rtol: float | None = None) -> GeodesicSolution:
    """Integrate the geodesic from (p, v) over affine parameter [0, t_end].

    t_end must be finite and positive (ValueError otherwise). Stops early
    with chart_exit set if the curve leaves the chart domain.
    Raises StepFailure on integrator breakdown (a numerical signal only) and
    ToleranceExceeded if g(x',x') cannot be held to eps_geo even after one
    refinement retry at rtol * 1e-3 (an rtol below the integrator's floor of
    100 eps runs at the floor, with atol still rtol * 1e-2). A retry sets
    `refinements` to 1, and `n_rhs_evals` counts the discarded attempt's
    right-hand sides too.

    With `jacobi` columns (n, m), the Jacobi fields with J(0) = 0 and
    J'(0) = jacobi ride along as the first variational equation, under the
    same step control (`GeodesicSolution.jacobi`); for t_end = 1 they are
    the differential of the exponential map, d exp_p(v) jacobi.

    With `transport` vectors, (n,) or columns (n, m), those vectors are
    parallel-transported in the same solve (`GeodesicSolution.transport`,
    a `TransportSolution`): one right-hand side gives the acceleration and
    every w' from one metric jet. All pairwise g-inner products among the
    columns and x' must then also stay within eps_geo; the one retry runs
    if either drift is over its budget, and the transport's `n_rhs_evals`
    and `refinements` are the shared solve's. `jacobi` and `transport`
    cannot be combined.
    """
    return _solve(field_, p, v, t_end, tols, jacobi, transport, _rtol,
                  lambda rtol: geodesic(field_, p, v, t_end, tols, jacobi,
                                        transport, _rtol=rtol))


@dataclass
class TransportSolution:
    """Vector(s) parallel-transported along a geodesic."""

    geodesic: GeodesicSolution
    w0: np.ndarray                # (n,) or (n, m)
    product_drift: float          # max drift of any pairwise g-inner product
    n_rhs_evals: int              # every attempt's, a discarded one included
    _dense: object
    refinements: int = 0          # 1 when the first attempt was discarded

    def evaluate(self, s) -> np.ndarray:
        """The transported w0, (n,) or (n, m), at affine parameter s;
        parameters s (B,) give (B, n) or (B, n, m) from one call."""
        n = self.geodesic.field.dim
        w = self._dense(np.clip(s, 0.0, self.geodesic.t_reached)).T
        return w.reshape(w.shape[:-1] + (n, -1)) if self.w0.ndim == 2 else w


def parallel_transport(field_: MetricField, solution: GeodesicSolution, w0,
                       tols: Tolerances = DEFAULT_TOLS,
                       _rtol: float | None = None) -> TransportSolution:
    """Solve w'^k + Gamma^k_ij gamma'^i w^j = 0 along the curve of `solution`.

    w0 may be a single vector (n,) or a matrix of columns (n, m); columns are
    transported together. The curve is integrated again from
    (solution.p0, solution.v0) over solution.t_end with w0 in its state,
    the solve of `geodesic(..., transport=w0)`: the same drift checks on
    every pairwise g-inner product among the columns and gamma', and the
    same one retry. So `TransportSolution.geodesic` is the curve of that
    solve, within eps_geo of `solution`, not `solution` itself.
    """
    return _solve(field_, solution.p0, solution.v0, solution.t_end, tols,
                  None, w0, _rtol,
                  lambda rtol: parallel_transport(field_, solution, w0, tols,
                                                  _rtol=rtol).geodesic
                  ).transport


def _solve(field_: MetricField, p, v, t_end, tols: Tolerances, jacobi,
           transport, _rtol: float | None, again) -> GeodesicSolution:
    """The one integration behind `geodesic` and `parallel_transport`.

    A first attempt (`_rtol` None) that misses a drift budget is retried
    once through `again(rtol * 1e-3)`, a nested call of the public
    function, so a tracer that wraps it sees the retry; a retry that misses
    raises ToleranceExceeded.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    t_end = float(t_end)
    if not (np.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"geodesic needs a finite length > 0, not {t_end!r}")
    if float(v @ v) == 0.0:
        raise ValueError("geodesic needs a nonzero initial velocity")
    if jacobi is not None and transport is not None:
        raise ValueError("geodesic takes jacobi or transport columns, not both")
    rtol = _rtol if _rtol is not None else max(1e-12, min(1e-9, tols.eps_geo * 0.1))
    n = field_.dim
    w0 = None if transport is None else np.asarray(transport, dtype=float)
    cols = np.empty((n, 0)) if w0 is None else w0.reshape(n, -1)
    m = cols.shape[1]
    if jacobi is None:
        rhs = _geodesic_rhs(field_, m)
        y0 = np.concatenate([p, v, cols.T.reshape(-1)])
    else:
        jacobi = np.asarray(jacobi, dtype=float)
        rhs = _variational_rhs(field_, jacobi.shape[1])
        y0 = np.concatenate([p, v, np.zeros(jacobi.size), jacobi.reshape(-1)])
    sol = solve_ivp(rhs, (0.0, t_end), y0, rtol=max(rtol, _RTOL_FLOOR),
                    atol=rtol * 1e-2,
                    dense_output=True, events=_boundary_events(field_))
    if sol.status == -1:
        last = sol.y[:, -1] if sol.y.size else y0
        raise StepFailure(sol.message, last_point=last[:n],
                          last_time=float(sol.t[-1]) if sol.t.size else 0.0)
    chart_exit = sol.status == 1
    t_reached = float(sol.t[-1])

    # conservation: g(x', x') and the pairwise products of [x' | w_1 ... w_m]
    y = sol.sol(np.linspace(0.0, t_reached, 33))
    vecs = y[n:(m + 2) * n].T.reshape(-1, m + 1, n).transpose(0, 2, 1)
    diff, prod0 = _product_drift(field_, p, np.column_stack([v, cols]),
                                 y[:n].T, vecs)
    drift, product_drift = float(np.max(diff[:, 0, 0])), float(np.max(diff))
    budget = tols.eps_geo * (1.0 + abs(prod0[0, 0]))
    product_budget = tols.eps_geo * (1.0 + float(np.max(np.abs(prod0))))
    if drift > budget or product_drift > product_budget:
        if _rtol is None:
            refined = again(rtol * 1e-3)
            for out in (refined, refined.transport):
                if out is not None:
                    out.n_rhs_evals += int(sol.nfev)
                    out.refinements = 1
            return refined
        if drift > budget:
            raise ToleranceExceeded(
                f"norm drift {drift:.3e} exceeds budget {budget:.3e}")
        raise ToleranceExceeded(
            f"transport product drift {product_drift:.3e} over budget")
    out = GeodesicSolution(field=field_, p0=p, v0=v, t_end=t_end,
                           t_reached=t_reached, chart_exit=chart_exit,
                           norm_drift=drift, n_rhs_evals=int(sol.nfev),
                           _dense=sol.sol)
    if w0 is not None:
        # the dense rows of w_1 ... w_m, in the (n, m) order of cols
        rows = (2 * n + n * np.arange(m) + np.arange(n)[:, None]).reshape(-1)
        out.transport = TransportSolution(
            geodesic=out, w0=w0, product_drift=product_drift,
            n_rhs_evals=int(sol.nfev), _dense=lambda s: sol.sol(s)[rows])
    return out
