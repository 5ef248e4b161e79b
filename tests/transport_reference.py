"""The reference the one transport solve is tested against.

This is the stored-curve transport the package ran before transported
vectors moved into the geodesic's own state: a second DOP853 solve of
w'^k = -Gamma^k_ij gamma'^i w^j alone, whose every right-hand side reads
the curve's dense output and takes its own metric jet there. It is a twin
of `lorentzkit.geodesics`, kept apart on purpose: the package integrates
the curve and the vectors together under one step control, this follows a
curve that is already fixed, so a sign or index slip in either shows up as
a disagreement. It shares only the contraction `_minus_gamma`, which the
right-hand-side tests check against sympy's Christoffel symbols, and the
drift helper `_product_drift`.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from lorentzkit.errors import StepFailure, ToleranceExceeded
from lorentzkit.geodesics import (_RTOL_FLOOR, TransportSolution,
                                  _minus_gamma, _product_drift)
from lorentzkit.geometry import DEFAULT_TOLS, Tolerances


def _transport_rhs(field_, solution, m: int):
    """dw/ds of m columns along the stored curve: state (n, m), flattened."""
    n = field_.dim

    def rhs(s, wflat):
        x, xdot = solution.evaluate(s)
        return _minus_gamma(field_, x, xdot, wflat.reshape(n, m)).reshape(-1)

    return rhs


def parallel_transport(field_, solution, w0, tols: Tolerances = DEFAULT_TOLS,
                       _rtol: float | None = None) -> TransportSolution:
    """Transport w0 (n,) or columns (n, m) along the stored curve
    `solution`, in a solve of its own.

    Every pairwise g-inner product among the columns and gamma' is checked
    at 17 samples to stay within eps_geo, with one retry at rtol * 1e-3;
    the retry is skipped when g(gamma', gamma') alone drifts over budget,
    since that product comes from the stored curve, which no retry changes.
    """
    n = field_.dim
    w0 = np.asarray(w0, dtype=float)
    cols = w0.reshape(n, -1)
    m = cols.shape[1]
    rtol = _rtol if _rtol is not None else max(1e-12, min(1e-9, tols.eps_geo * 0.1))

    sol = solve_ivp(_transport_rhs(field_, solution, m),
                    (0.0, solution.t_reached), cols.reshape(-1),
                    method="DOP853", rtol=max(rtol, _RTOL_FLOOR),
                    atol=rtol * 1e-2, dense_output=True)
    if sol.status != 0:
        raise StepFailure(sol.message)

    ts = np.linspace(0.0, solution.t_reached, 17)
    x, xdot = solution.evaluate(ts)
    stack = np.concatenate([sol.sol(ts).T.reshape(-1, n, m),
                            xdot[:, :, None]], axis=2)
    diff, prod0 = _product_drift(field_, solution.p0,
                                 np.hstack([cols, solution.v0[:, None]]),
                                 x, stack)
    drift, curve_drift = float(np.max(diff)), float(np.max(diff[:, -1, -1]))
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
