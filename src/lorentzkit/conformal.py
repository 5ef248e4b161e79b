"""Closed-form conformal transformation laws, with the rescaled-metric wrapper
as their ground-truth oracle.

For ghat = e^{2f} g the package treats direct recomputation on the wrapper
(rescale + the ordinary geometry code paths) as authoritative; the closed
forms below are the objects under test. The correspondence is asserted by the
test suite on random (metric, factor, point) triples, which pins down every
sign in the formulas against this package's curvature conventions.

Closed forms implemented:

  connection   nabla-hat_X Y = nabla_X Y + (Xf) Y + (Yf) X - g(X,Y) grad f
  shape/mean   Hhat = e^{-2f} (H - m (grad f)^perp)
  |H|^2        ghat(Hhat,Hhat) = e^{-2f} [ g(H,H) - 2 m g(H, grad f)
                                           + m^2 g((grad f)^perp, (grad f)^perp) ]
  Riemann      Rhat = e^{2f} ( R - T (*) g ),
               T = Hess f - df x df + 1/2 |df|^2 g,
               (A (*) B)[ijkl] = A_il B_jk + A_jk B_il - A_ik B_jl - A_jl B_ik
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .geometry import (DEFAULT_TOLS, CurvatureData, Tolerances,
                       curvature_data)
from .jets import Jet2
from .metric import ConformalScaledMetric, MetricField
from .submanifold import (Embedding, MeanCurvature, mean_curvature,
                          normal_part)
from .tensors import LOWER, TensorValue, invert_metric


def rescale(field_: MetricField, factor: ScalarField,
            scale: float = 1.0) -> ConformalScaledMetric:
    """The metric e^{2 * scale * factor} g as a queryable field."""
    return ConformalScaledMetric(field_, factor, scale)


def _factor_jet(field_: MetricField, factor: ScalarField, p, scale: float,
                order: int = 2):
    jet = factor.jet2(field_.canonicalize(p), order)
    return Jet2(jet.value * scale, jet.grad * scale,
                None if jet.hess is None else jet.hess * scale)


def connection_delta(field_: MetricField, factor: ScalarField, p,
                     x_vec, y_vec, scale: float = 1.0) -> np.ndarray:
    """Correction (Xf) Y + (Yf) X - g(X,Y) grad f to the connection at p."""
    p = np.asarray(p, dtype=float)
    x_vec = np.asarray(x_vec, dtype=float)
    y_vec = np.asarray(y_vec, dtype=float)
    g = field_.value(p)
    g_inv, _ = invert_metric(g)
    df = _factor_jet(field_, factor, p, scale, order=1).grad
    grad_f = g_inv @ df
    return (float(df @ x_vec) * y_vec + float(df @ y_vec) * x_vec
            - float(x_vec @ g @ y_vec) * grad_f)


def conformal_mean_curvature(field_: MetricField, X, emb: Embedding,
                             factor: ScalarField, u, scale: float = 1.0,
                             tols: Tolerances = DEFAULT_TOLS,
                             base: MeanCurvature | None = None
                             ) -> tuple[np.ndarray, float]:
    """Closed-form (Hhat, ghat(Hhat, Hhat)) at a submanifold point.

    Both returned values come from the transformation law only; compare with
    mean_curvature on rescale(field, factor) to exercise the oracle. `base`
    is mean_curvature(field_, X, emb, u) when the caller already has it.
    """
    mc = base if base is not None else mean_curvature(field_, X, emb, u, tols)
    g = mc.g
    g_inv, _ = invert_metric(g)
    fj = _factor_jet(field_, factor, mc.point, scale, order=1)
    grad_f = g_inv @ fj.grad
    grad_perp = normal_part(g, mc.jac, grad_f)
    m = emb.m
    e2f = np.exp(2.0 * fj.value)
    h_hat = (mc.h_vec - m * grad_perp) / e2f
    norm_sq = (float(mc.g_hh)
               - 2.0 * m * float(mc.h_vec @ g @ grad_f)
               + m * m * float(grad_perp @ g @ grad_perp)) / e2f
    return h_hat, norm_sq


def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A (*) B)[ijkl] in this package's curvature slot convention."""
    return (np.einsum("il,jk->ijkl", a, b) + np.einsum("jk,il->ijkl", a, b)
            - np.einsum("ik,jl->ijkl", a, b) - np.einsum("jl,ik->ijkl", a, b))


def conformal_riemann(field_: MetricField, factor: ScalarField, p,
                      scale: float = 1.0,
                      base: CurvatureData | None = None) -> TensorValue:
    """Closed-form covariant Riemann tensor of e^{2f} g at p. `base` is
    curvature_data(field_, p) when the caller already has it."""
    p = np.asarray(p, dtype=float)
    data = base if base is not None else curvature_data(field_, p)
    fj = _factor_jet(field_, factor, p, scale)
    df = fj.grad
    # covariant Hessian: coordinate Hessian minus the connection term
    hess = 0.5 * (fj.hess + fj.hess.T) - np.einsum("kij,k->ij", data.gamma, df)
    grad_sq = float(df @ data.g_inv @ df)
    t = hess - np.outer(df, df) + 0.5 * grad_sq * data.g
    riem_hat = np.exp(2.0 * fj.value) * (data.riem - kulkarni_nomizu(t, data.g))
    return TensorValue(riem_hat, (LOWER, LOWER, LOWER, LOWER))
