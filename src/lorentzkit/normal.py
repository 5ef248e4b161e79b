"""Normal coordinate charts built from the exponential map.

A NormalChart maps normal coordinates x to manifold points exp_p(x^i e_i) by
geodesic integration, and back by damped Newton iteration on the forward map.
For metrics with constant components in their chart (flat charts) geodesics
are straight lines, so both maps are exact affine maps; the affine inverse
takes q - p to the nearest image of the center, so it is smooth on quotient
charts.

On a curved chart the forward Jacobian DF(x) is exact: the Jacobi fields
J(1) with J(0) = 0 and J'(0) = frame, integrated with the geodesic as its
first variational equation under the same step control. A Newton step of
the inverse is one such solve, which returns both F and DF at its trial
point; the pullback metric takes the same DF. Nothing here takes finite
differences.

The positivity-exit bump does not use this chart: it needs only the 2-jet
of the normal coordinates at p, which second-order normal coordinates
(`perturb.NormalCoordBump`) have in closed form.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import FrameNotOrthonormal, InversionFailure
from .geometry import DEFAULT_TOLS, Tolerances
from .geodesics import geodesic
from .metric import MetricField

_FRAME_TOL = 1e-9


class NormalChart:
    """Chart map x -> exp_p(x^i e_i) and its inverse around a center point."""

    def __init__(self, field_: MetricField, p, frame: np.ndarray,
                 radius: float | None = None,
                 tols: Tolerances = DEFAULT_TOLS):
        self.field = field_
        self.p = np.asarray(p, dtype=float)
        self.frame = np.asarray(frame, dtype=float)   # columns e_i
        self.tols = tols
        n = field_.dim
        if self.frame.shape != (n, n):
            raise FrameNotOrthonormal(f"frame must be {n}x{n}")
        mv = field_.metric_value(self.p)
        eta = np.diag([-1.0] * mv.index + [1.0] * (n - mv.index))
        gram = self.frame.T @ mv.g @ self.frame
        err = float(np.max(np.abs(gram - eta)))
        if err > _FRAME_TOL:
            raise FrameNotOrthonormal(
                f"frame Gram matrix deviates from the signature form by {err:.3e}")
        self.frame_inv = np.linalg.inv(self.frame)
        self.affine = bool(getattr(field_, "constant_components", False))
        self._tight = replace(tols, eps_geo=1e-11)
        if radius is None:
            bd = field_.boundary_distance(self.p)
            radius = min(1.0, bd / 2.0) if np.isfinite(bd) else 1.0
        self.radius = float(radius)
        if not self.affine:
            self._shrink_to_invertible()

    # -- forward / inverse ----------------------------------------------------

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.affine:
            return self.p + self.frame @ x
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return self.p.copy()
        return self._exp(x).point(1.0)

    def inverse(self, q, max_iter: int = 25) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.affine:
            return self.frame_inv @ self.field.displacement(q, self.p)
        x = self.frame_inv @ (q - self.p)      # exact for flat, good seed else
        scale = 1.0 + float(np.linalg.norm(q - self.p))
        res = self.forward(x) - q
        jac = None
        for _ in range(max_iter):
            if np.linalg.norm(res) < 1e-11 * scale:
                return x
            if jac is None:     # DF at the seed; then the accepted trial's
                jac = self._forward_jacobian(x)
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError as exc:
                raise InversionFailure(f"singular Jacobian: {exc}") from exc
            lam = 1.0
            for _ in range(8):                  # damping: insist on progress
                trial = x - lam * step
                point, trial_jac = self._forward_and_jacobian(trial)
                trial_res = point - q
                if np.linalg.norm(trial_res) < np.linalg.norm(res):
                    x, res, jac = trial, trial_res, trial_jac
                    break
                lam *= 0.5
            else:
                raise InversionFailure("damped Newton stalled")
        if np.linalg.norm(res) < 1e-9 * scale:
            return x
        raise InversionFailure(
            f"Newton did not converge (|residual| = {np.linalg.norm(res):.3e})")

    def _exp(self, x, jacobi=None):
        """The geodesic from p with velocity frame x over [0, 1], with Jacobi
        fields J'(0) = jacobi riding along; leaving the chart fails."""
        sol = geodesic(self.field, self.p, self.frame @ x, 1.0,
                       tols=self._tight, jacobi=jacobi)
        if sol.chart_exit:
            raise InversionFailure("exponential map left the chart domain")
        return sol

    def _forward_and_jacobian(self, x) -> tuple[np.ndarray, np.ndarray]:
        """F(x) and the exact DF(x): the Jacobi fields J(1) with J(0) = 0
        and J'(0) = frame, from one variational solve."""
        if float(np.linalg.norm(x)) == 0.0:
            return self.p.copy(), self.frame.copy()
        sol = self._exp(x, jacobi=self.frame)
        return sol.point(1.0), sol.jacobi(1.0)

    def _forward_jacobian(self, x) -> np.ndarray:
        return self._forward_and_jacobian(x)[1]

    def _shrink_to_invertible(self, max_shrinks: int = 10):
        n = self.field.dim
        dirs = list(np.eye(n)) + list(-np.eye(n))
        for _ in range(max_shrinks):
            try:
                for d in dirs:
                    x = self.radius * d
                    q = self.forward(x)
                    xr = self.inverse(q)
                    if np.linalg.norm(xr - x) > 1e-7 * (1 + self.radius):
                        raise InversionFailure("round trip drifted")
                return
            except InversionFailure:
                self.radius *= 0.7
        raise InversionFailure(
            f"no invertible radius found (down to {self.radius:.3g})")

    # -- pullback diagnostics -----------------------------------------------------

    def pullback_metric(self, x) -> np.ndarray:
        """Components of the metric in normal coordinates at x (exact DF)."""
        x = np.asarray(x, dtype=float)
        if self.affine:
            point, jac = self.forward(x), self.frame
        else:
            point, jac = self._forward_and_jacobian(x)
        return jac.T @ self.field.value(point) @ jac


def orthonormal_frame_from(field_: MetricField, p,
                           first: np.ndarray | None = None,
                           second: np.ndarray | None = None) -> np.ndarray:
    """Build a g-orthonormal frame at p, optionally aligning leading legs.

    `first` must be timelike; it becomes e_0 after unit normalization.
    `second`, if given, is projected orthogonal to `first` and becomes e_1.
    Remaining legs come from Gram-Schmidt over the coordinate axes.
    """
    g = field_.value(np.asarray(p, dtype=float))
    n = field_.dim
    seeds = []
    if first is not None:
        seeds.append(np.asarray(first, dtype=float))
    if second is not None:
        seeds.append(np.asarray(second, dtype=float))
    seeds.extend(np.eye(n))
    frame = []
    for s in seeds:
        u = s.copy()
        for k, f in enumerate(frame):
            sign = -1.0 if k == 0 else 1.0
            u = u - sign * float(u @ g @ f) * f
        q = float(u @ g @ u)
        if not frame:
            if q >= 0:
                raise FrameNotOrthonormal("leading frame vector must be timelike")
            frame.append(u / np.sqrt(-q))
            continue
        if q < 1e-12:
            continue                      # dependent seed, skip
        frame.append(u / np.sqrt(q))
        if len(frame) == n:
            break
    if len(frame) != n:
        raise FrameNotOrthonormal("could not complete an orthonormal frame")
    return np.column_stack(frame)
