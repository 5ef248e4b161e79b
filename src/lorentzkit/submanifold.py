"""Geometry of embedded spacelike submanifolds.

An Embedding is a parametric map u -> x(u) from an m-dimensional parameter
box into the chart; `first_second(u)` is its one evaluation (point, tangent
frame J, second derivatives H, rank check), at one parameter point or
stacked over a batch of them.

The mean-curvature pass `_mean_curvatures` takes parameter points U (B, m)
and evaluates them together: one `first_second`, one order-1 metric jet
pass, one factorisation and Christoffel symbols (no curvature tensor), the
stacked shape tensor (normal part of H + Gamma(J, J)) and its trace. Its
MeanCurvature keeps the metric g and frame J, so expansions, trapped
verdicts, conformal closed forms and perturbation families reuse them.
`mean_curvature` is that pass at one point, and `classify_trapped` runs it
once over its whole grid. The normal-bundle algebra is
`normal_part(g, J, vecs)` (one Gram solve, any codimension) and
`normal_frame(g, J)` (`geometry.screen` of the rows g J: eigenvalues of g
on the normal space and g-unit eigenvectors); both take stacks too.

Pointwise conditions over a closed submanifold are certified on the grid
with explicit margins; verdicts never claim more than that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (DegenerateEmbedding, LorentzkitError, NotSpacelike,
                     OrientationHintDegenerate, WrongCodimension)
from .expr import Expr, SymbolTable, batch_first, evaluate, parse
from .fields import VectorField
from .geometry import (DEFAULT_TOLS, CausalClass, TangentVector, Tolerances,
                       _orientation_field_value, _require_timelike,
                       causal_class_in, christoffel_from_jets, screen)
from .jets import Jet2
from .metric import MetricField
from .tensors import MetricValue


class Embedding:
    """Parametric submanifold x^i = x^i(u^1..u^m) over a parameter box."""

    def __init__(self, param_table: SymbolTable,
                 coordinate_exprs: Sequence[Expr | str],
                 ambient_dim: int,
                 domain: Sequence[tuple[float, float]],
                 periodic: Sequence[float | None] | None = None,
                 params: Mapping[str, float] | None = None,
                 grid_shape: Sequence[int] | None = None,
                 name: str = ""):
        self.param_table = param_table
        self.m = param_table.dim
        self.n = ambient_dim
        if len(coordinate_exprs) != ambient_dim:
            raise ValueError("need one coordinate expression per ambient coordinate")
        self.exprs = tuple(parse(e, param_table) if isinstance(e, str) else e
                           for e in coordinate_exprs)
        self.domain = tuple((float(a), float(b)) for a, b in domain)
        if len(self.domain) != self.m:
            raise ValueError("domain length != parameter count")
        self.periodic = tuple(periodic) if periodic is not None else (None,) * self.m
        self.params = dict(params or {})
        if grid_shape is None:
            grid_shape = (32,) * self.m
        self.grid_shape = tuple(int(k) for k in grid_shape)
        self.name = name

    @property
    def codim(self) -> int:
        return self.n - self.m

    @property
    def is_closed(self) -> bool:
        """Compact without boundary as parametrized: every parameter periodic."""
        return all(p is not None for p in self.periodic)

    def grid(self) -> list[tuple[int, ...]]:
        return list(np.ndindex(*self.grid_shape))

    def _grid_axis(self, a: int, i):
        """Parameter a at grid index i (an int or an array of them)."""
        lo, hi = self.domain[a]
        k = self.grid_shape[a]
        if self.periodic[a] is not None:
            return lo + (hi - lo) * i / k
        # cell centers; keeps clear of parametrization poles
        return lo + (hi - lo) * (i + 0.5) / k

    def grid_point(self, idx: tuple[int, ...]) -> np.ndarray:
        return np.array([self._grid_axis(a, i) for a, i in enumerate(idx)],
                        dtype=float)

    def grid_points(self) -> np.ndarray:
        """Every grid point, (B, m) in np.ndindex order."""
        axes = [self._grid_axis(a, np.arange(k))
                for a, k in enumerate(self.grid_shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([c.reshape(-1) for c in mesh], axis=-1)

    def point(self, u) -> np.ndarray:
        us = np.asarray(u, dtype=float).tolist()
        return np.array([e.eval(us, self.params) for e in self.exprs])

    def first_second(self, u):
        """(point, J (n,m), H (n,m,m)) with H[i,a,b] = d2 x^i / du^a du^b;
        J is checked to have rank m. Parameter points u (B, m) give every
        result a leading batch axis, from one batched jet pass, and the
        rank error names the first failing point."""
        q = np.asarray(u, dtype=float)
        n, m = self.n, self.m
        jets, batch = evaluate(self.exprs, q, self.params, 2)
        x = np.zeros((n,) + batch)
        jac = np.zeros((n, m) + batch)
        hess = np.zeros((n, m, m) + batch)
        for i, jet in enumerate(jets):
            if not isinstance(jet, Jet2):
                x[i] = jet
                continue
            x[i], jac[i], hess[i] = jet.value, jet.grad, jet.symmetrized().hess
        x, jac, hess = (batch_first(a, q) for a in (x, jac, hess))
        sv = np.linalg.svd(jac, compute_uv=False)
        low = np.reshape(sv[..., -1] <= 1e-10 * np.maximum(sv[..., 0], 1.0), -1)
        if low.any():
            bad = np.reshape(np.asarray(u), (-1, m))[np.argmax(low)]
            raise DegenerateEmbedding(
                f"Jacobian rank < {m} at u = {bad.tolist()}")
        return x, jac, hess


def normal_part(g: np.ndarray, jac: np.ndarray, vecs) -> np.ndarray:
    """g-normal part of a vector (n,) or rows (k, n) against the columns of
    jac: one m x m Gram solve for all of them, no normal frame needed.
    Stacks g (B, n, n), jac (B, n, m) and rows (B, k, n) solve per point."""
    vecs = np.asarray(vecs, dtype=float)
    rows = vecs if vecs.ndim == jac.ndim else vecs[..., None, :]
    jtg = jac.swapaxes(-1, -2) @ g
    first = jtg @ jac
    coeff = np.linalg.solve(0.5 * (first + first.swapaxes(-1, -2)),
                            jtg @ rows.swapaxes(-1, -2))
    out = rows - (jac @ coeff).swapaxes(-1, -2)
    return out if rows is vecs else out[..., 0, :]


def normal_frame(g: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, frame): ascending eigenvalues of g on the normal space of jac's
    columns and eigenvectors scaled so that g(frame_k, frame_k) = sign lam_k;
    stacked for stacks of g and jac."""
    return screen(g, (g @ jac).swapaxes(-1, -2))


def induced_metric(field_: MetricField, emb: Embedding, u,
                   tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, bool]:
    """First fundamental form J^T g J and whether it is positive definite."""
    x, jac, _ = emb.first_second(u)
    first = jac.T @ field_.value(x) @ jac
    first = 0.5 * (first + first.T)
    spacelike = bool(np.linalg.eigvalsh(first)[0] > tols.tau_c)
    return first, spacelike


def _fundamental_forms(field_: MetricField, emb: Embedding, u,
                       tols: Tolerances):
    """(x, J, g, first fundamental form, II) at parameter points u (B, m),
    each with a leading batch axis: one embedding jet pass, one order-1
    metric jet pass, one factorisation and Gamma for all of them.

    II[b, a, c, :] is the normal part of d2x/du^a du^c + Gamma(dx/du^a,
    dx/du^c). Raises NotSpacelike at the first point whose induced metric
    is not positive definite.
    """
    x, jac, hess = emb.first_second(u)
    g, dg, _ = field_.component_jets(x, order=1)
    mv = MetricValue.from_matrix(g)
    g = mv.g
    gamma = christoffel_from_jets(mv.g_inv, dg)
    first = jac.swapaxes(-1, -2) @ g @ jac
    first = 0.5 * (first + first.swapaxes(-1, -2))
    low = np.linalg.eigvalsh(first)[:, 0] <= tols.tau_c
    if low.any():
        raise NotSpacelike(f"induced metric not positive definite at u = "
                           f"{np.asarray(u)[np.argmax(low)].tolist()}")
    b, n, m = jac.shape
    # ambient acceleration of the coordinate grid curves:
    # H^k_ac + Gamma^k_ij J^i_a J^j_c, contracted as two matmuls
    gamma_jj = jac.swapaxes(1, 2)[:, None] @ (gamma @ jac[:, None])
    acc = np.einsum("ziac->zaci", hess) + gamma_jj.transpose(0, 2, 3, 1)
    ii = normal_part(g, jac, acc.reshape(b, m * m, n)).reshape(b, m, m, n)
    return x, jac, g, first, 0.5 * (ii + ii.swapaxes(1, 2))


def shape_tensor(field_: MetricField, emb: Embedding, u,
                 tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """II[a, b, :] = normal part of (d2x/du^a du^b + Gamma(dx/du^a, dx/du^b))."""
    return _fundamental_forms(field_, emb, np.asarray(u)[None], tols)[4][0]


@dataclass(frozen=True)
class MeanCurvature:
    """Mean curvature vector of the submanifold at one point, or stacked over
    points (every field with a leading batch axis, and `causal` None)."""

    u: np.ndarray
    point: np.ndarray
    h_vec: np.ndarray              # ambient components of H
    causal: CausalClass | None
    g_hh: float
    g_hx: float
    tangency_defect: float         # max |g(H, tangent)| over unit tangents
    g: np.ndarray                  # ambient metric at point
    jac: np.ndarray                # tangent frame J[i, a] = dx^i/du^a


def _inner(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """g(a, b) at every point of a stack: a, b (B, n) or (B, k, n) against
    g (B, n, n); two-operand einsums, much faster than one of three."""
    return np.einsum("z...i,z...i->z...", a,
                     np.einsum("zij,z...j->z...i", g, b))


def _mean_curvatures(field_: MetricField, X, emb: Embedding, u,
                     tols: Tolerances) -> MeanCurvature:
    """The mean-curvature pass, stacked over parameter points u (B, m).

    H is the trace of the shape tensor with the inverse induced metric.
    Raises the errors `mean_curvature` raises, at the first point in batch
    order that has one; that includes causal_class_in's OrientationError
    where H is causal and X is not timelike.
    """
    x, jac, g, first, ii = _fundamental_forms(field_, emb, u, tols)
    h = np.einsum("zab,zabi->zi", np.linalg.inv(first), ii)
    xv = np.broadcast_to(_orientation_field_value(X, x), x.shape)
    g_hh = _inner(h, g, h)
    h2 = np.einsum("zi,zi->z", h, h)
    # causal_class_in orients a causal H (nonzero, g(H,H) within the band)
    # against X and raises where X is not timelike: run it at those points
    causal = (np.sqrt(h2) >= tols.tau_zero) & (g_hh <= tols.tau_c * h2)
    not_timelike = _inner(xv, g, xv) >= -tols.tau_c * np.einsum("zi,zi->z", xv, xv)
    for k in np.flatnonzero(causal & not_timelike):
        causal_class_in(g[k], TangentVector(x[k], h[k]), X, tols)
    # orthogonality diagnostic, h-normalized
    tang = jac / np.linalg.norm(jac, axis=1, keepdims=True)
    hn = np.sqrt(h2)
    gh = np.einsum("zij,zj->zi", g, h)
    defect = np.abs(np.einsum("zia,zi->za", tang, gh)).max(axis=1) \
        / np.where(hn > tols.tau_zero, hn, 1.0)
    return MeanCurvature(u=np.asarray(u, dtype=float), point=x, h_vec=h,
                         causal=None, g_hh=g_hh,
                         g_hx=_inner(h, g, xv),
                         tangency_defect=defect, g=g, jac=jac)


def mean_curvature(field_: MetricField, X: VectorField | np.ndarray,
                   emb: Embedding, u,
                   tols: Tolerances = DEFAULT_TOLS) -> MeanCurvature:
    """Trace of the shape tensor with the inverse induced metric: the
    mean-curvature pass at one point, with the causal class of H."""
    mc = _mean_curvatures(field_, X, emb, np.asarray(u)[None], tols)
    x, h, g = mc.point[0], mc.h_vec[0], mc.g[0]
    return MeanCurvature(u=mc.u[0], point=x, h_vec=h,
                         causal=causal_class_in(g, TangentVector(x, h), X, tols),
                         g_hh=float(mc.g_hh[0]), g_hx=float(mc.g_hx[0]),
                         tangency_defect=float(mc.tangency_defect[0]),
                         g=g, jac=mc.jac[0])


@dataclass(frozen=True)
class NullFrame:
    """Future null normal pair spanning a codimension-2 normal bundle fiber,
    normalized to g(K+, K-) = -1 (stacked over the points of a stacked
    pass)."""

    k_plus: np.ndarray
    k_minus: np.ndarray


def _null_expansions(mc: MeanCurvature, X, hint: VectorField | np.ndarray,
                     tols: Tolerances) -> tuple[NullFrame, np.ndarray, np.ndarray]:
    """Null normal frames and theta_pm = -g(H, K_pm) of a stacked pass."""
    g, x = mc.g, mc.point
    lam, frame = normal_frame(g, mc.jac)
    if frame.shape[-1] != 2:
        raise WrongCodimension("normal space is not two-dimensional")
    if not np.all((lam[:, 0] < 0.0) & (0.0 < lam[:, 1])):
        raise NotSpacelike("normal plane is not Lorentzian")
    xv = np.broadcast_to(_orientation_field_value(X, x), x.shape)
    # the rays are scaled by 1/g(ray, X): X must be timelike at every point
    not_timelike = _inner(xv, g, xv) >= \
        -tols.tau_c * np.einsum("zi,zi->z", xv, xv)
    for k in np.flatnonzero(not_timelike):
        _require_timelike(g[k], xv[k], x[k], tols)
    rays = np.stack([frame[:, :, 0] + frame[:, :, 1],
                     frame[:, :, 0] - frame[:, :, 1]], axis=1)
    gx = _inner(rays, g, xv[:, None])
    # g(K, X) = -1: future-directed
    scaled = np.where(gx[..., None] > 0, -rays, rays) / np.abs(gx)[..., None]
    hv = np.broadcast_to(_orientation_field_value(hint, x), x.shape)
    dots = np.einsum("zri,zi->zr", scaled, hv)
    sep = np.abs(dots[:, 0] - dots[:, 1])
    norms = np.maximum(np.linalg.norm(hv, axis=-1)
                       * np.linalg.norm(scaled, axis=-1).max(axis=1), 1e-300)
    if np.any(sep <= tols.tau_c * norms):
        raise OrientationHintDegenerate(
            "hint cannot distinguish the null normal directions")
    ray0_plus = (dots[:, 0] > dots[:, 1])[:, None]
    k_plus = np.where(ray0_plus, scaled[:, 0], scaled[:, 1])
    k_minus = np.where(ray0_plus, scaled[:, 1], scaled[:, 0])
    mu = -_inner(k_plus, g, k_minus)
    if np.any(mu <= 0):
        raise OrientationHintDegenerate("null rays collapsed; frame invalid")
    k_plus = k_plus / np.sqrt(mu)[:, None]
    k_minus = k_minus / np.sqrt(mu)[:, None]
    theta_plus = -_inner(mc.h_vec, g, k_plus)
    theta_minus = -_inner(mc.h_vec, g, k_minus)
    return NullFrame(k_plus=k_plus, k_minus=k_minus), theta_plus, theta_minus


def null_frame_and_expansions(field_: MetricField, X, emb: Embedding, u,
                              hint: VectorField | np.ndarray,
                              tols: Tolerances = DEFAULT_TOLS
                              ) -> tuple[NullFrame, float, float]:
    """Null normal frame and expansions theta_pm = -g(H, K_pm).

    K_pm are labeled by the outward hint: after normalizing both rays against
    X (so the comparison is scale-free), K+ is the ray with the larger
    Euclidean inner product with the hint. This extends the naive
    'positive product' rule through the marginal case where the outgoing ray
    has no hint component at all.
    """
    if emb.codim != 2:
        raise WrongCodimension(f"null frame needs codimension 2, got {emb.codim}")
    mc = _mean_curvatures(field_, X, emb, np.asarray(u)[None], tols)
    frame, tp, tm = _null_expansions(mc, X, hint, tols)
    return (NullFrame(k_plus=frame.k_plus[0], k_minus=frame.k_minus[0]),
            float(tp[0]), float(tm[0]))


def _grid_margins(mc: MeanCurvature, X, hint, tols: Tolerances) -> tuple:
    """(g(H,H), g(H,X) with h-normalized H and X, |H|_h, theta+, theta-) of
    a stacked pass; the expansions are None without a hint."""
    xv = np.broadcast_to(_orientation_field_value(X, mc.point), mc.point.shape)
    xh = xv / np.linalg.norm(xv, axis=1, keepdims=True)
    nh = np.linalg.norm(mc.h_vec, axis=1)
    # H below tau_zero counts as zero: both margins read 0 there
    hn = mc.h_vec / np.where(nh > tols.tau_zero, nh, np.inf)[:, None]
    hh = _inner(hn, mc.g, hn)
    hx = _inner(hn, mc.g, xh)
    if hint is None:
        return hh, hx, nh, None, None
    _, tp, tm = _null_expansions(mc, X, hint, tols)
    return hh, hx, nh, tp, tm


def _grid_margins_point_by_point(field_: MetricField, X, emb: Embedding,
                                 hint, tols: Tolerances) -> tuple:
    """_grid_margins over the grid one point at a time, in np.ndindex order:
    the error path of the batched pass, so that an error is the one the
    first failing point raises."""
    rows = []
    for idx in np.ndindex(*emb.grid_shape):
        u = emb.grid_point(idx)
        try:
            mc = _mean_curvatures(field_, X, emb, u[None], tols)
        except NotSpacelike:
            raise NotSpacelike(f"submanifold not spacelike at grid index "
                               f"{idx}, u = {u.tolist()}") from None
        rows.append(_grid_margins(mc, X, hint, tols))
    return tuple(None if col[0] is None else np.concatenate(col)
                 for col in zip(*rows))


@dataclass
class TrappedVerdict:
    """Grid-certified trapped classification of (g, Sigma)."""

    class_name: str                # 'future-trapped' | 'weakly-future-trapped' | 'not-weakly-trapped'
    subtype: str | None            # for FA: 'extremal' | 'MOTS' | 'null-H' | 'mixed'
    closed: bool
    spacelike: bool
    grid_shape: tuple[int, ...]
    margins_hh: np.ndarray         # g(H,H), h-normalized H, per grid point
    margins_hx: np.ndarray         # g(H,X), h-normalized H and X
    theta_plus: np.ndarray | None
    theta_minus: np.ndarray | None
    witness_index: tuple[int, ...] | None
    witness_u: np.ndarray | None

    def summary(self) -> dict:
        out = {
            "class": self.class_name,
            "subtype": self.subtype,
            "closed": self.closed,
            "spacelike": self.spacelike,
            "grid": list(self.grid_shape),
            "max_g_hh": float(np.max(self.margins_hh)),
            "min_g_hh": float(np.min(self.margins_hh)),
            "min_g_hx": float(np.min(self.margins_hx)),
        }
        if self.theta_plus is not None:
            out["theta_plus_range"] = [float(np.min(self.theta_plus)),
                                       float(np.max(self.theta_plus))]
            out["theta_minus_range"] = [float(np.min(self.theta_minus)),
                                        float(np.max(self.theta_minus))]
        if self.witness_index is not None:
            out["witness_u"] = [float(v) for v in self.witness_u]
        return out


def classify_trapped(field_: MetricField, X, emb: Embedding,
                     hint: VectorField | np.ndarray | None = None,
                     tols: Tolerances = DEFAULT_TOLS) -> TrappedVerdict:
    """Evaluate the trapped-class inequalities at every grid point.

    future-trapped        g(H,H) < -tau and g(H,X) > +tau everywhere
    weakly-future-trapped g(H,H) <= tau and g(H,X) >= -tau everywhere
    otherwise             not weakly trapped, witness recorded

    Margins use h-normalized H and X. Subtypes follow the H profile:
    extremal (H = 0 everywhere), MOTS (codim 2, theta_+ = 0), null-H
    (H nonzero null past-directed somewhere), mixed otherwise.
    """
    tau = tols.tau_trap
    shape = emb.grid_shape
    if emb.codim != 2:
        hint = None
    # one pass over the whole grid; an error (or numpy's overflow in the
    # batched jets) re-runs the grid point by point to name the first point
    try:
        margins = _grid_margins(
            _mean_curvatures(field_, X, emb, emb.grid_points(), tols),
            X, hint, tols)
    except (LorentzkitError, ArithmeticError, ValueError):
        margins = _grid_margins_point_by_point(field_, X, emb, hint, tols)
    hh, hx, hnorm, tp, tm = (None if a is None else a.reshape(shape)
                             for a in margins)

    is_a = bool(np.all(hh < -tau) and np.all(hx > tau))
    is_fa = bool(np.all(hh <= tau) and np.all(hx >= -tau))
    witness_index = None
    if not is_fa:
        bad = (hh > tau) | (hx < -tau)
        witness_index = tuple(int(i) for i in np.argwhere(bad)[0])
    elif not is_a:
        bad = (hh >= -tau) | (hx <= tau)
        witness_index = tuple(int(i) for i in np.argwhere(bad)[0])

    subtype = None
    if is_a:
        cls = "future-trapped"
    elif is_fa:
        cls = "weakly-future-trapped"
        if np.max(hnorm) <= tau:
            subtype = "extremal"
        elif tp is not None and np.max(np.abs(tp)) <= tau * (1 + np.max(np.abs(tm))):
            subtype = "MOTS"
        elif np.any((hnorm > tau) & (np.abs(hh) <= tau) & (hx > 0)):
            subtype = "null-H"
        else:
            subtype = "mixed"
    else:
        cls = "not-weakly-trapped"
    return TrappedVerdict(
        class_name=cls, subtype=subtype, closed=emb.is_closed, spacelike=True,
        grid_shape=shape, margins_hh=hh, margins_hx=hx,
        theta_plus=tp, theta_minus=tm,
        witness_index=witness_index,
        witness_u=emb.grid_point(witness_index) if witness_index is not None else None)
