"""Geometry of embedded spacelike submanifolds.

An Embedding is a parametric map u -> x(u) from an m-dimensional parameter
box into the chart; `first_second(u)` is its one evaluation (point, tangent
frame J, second derivatives H, rank check). `mean_curvature` is the one pass
per submanifold point: one `first_second`, one `curvature_data`, the shape
tensor (normal part of H + Gamma(J, J)) and its trace. Its MeanCurvature
keeps the metric g and frame J, so expansions, trapped verdicts, conformal
closed forms and perturbation families reuse them. The normal-bundle algebra
is `normal_part(g, J, vecs)` (one Gram solve, any codimension) and
`normal_frame(g, J)` (`geometry.screen` of the rows g J: eigenvalues of g
on the normal space and g-unit eigenvectors).

Pointwise conditions over a closed submanifold are certified on the grid
with explicit margins; verdicts never claim more than that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (DegenerateEmbedding, NotSpacelike, OrientationHintDegenerate,
                     WrongCodimension)
from .expr import Expr, SymbolTable, parse
from .fields import VectorField
from .geometry import (DEFAULT_TOLS, CausalClass, CurvatureData, TangentVector,
                       Tolerances, _orientation_field_value, causal_class_in,
                       curvature_data, screen)
from .jets import Jet2
from .metric import MetricField


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

    def grid_point(self, idx: tuple[int, ...]) -> np.ndarray:
        u = np.zeros(self.m)
        for a, (lo, hi) in enumerate(self.domain):
            k = self.grid_shape[a]
            if self.periodic[a] is not None:
                u[a] = lo + (hi - lo) * idx[a] / k
            else:
                # cell centers; keeps clear of parametrization poles
                u[a] = lo + (hi - lo) * (idx[a] + 0.5) / k
        return u

    def jets(self, u) -> list[Jet2]:
        u = np.asarray(u, dtype=float)
        seeds = [Jet2.variable(x, a, self.m) for a, x in enumerate(u.tolist())]
        jets = [e.eval(seeds, self.params) for e in self.exprs]
        return [j if isinstance(j, Jet2) else Jet2.constant(j, self.m)
                for j in jets]

    def point(self, u) -> np.ndarray:
        us = np.asarray(u, dtype=float).tolist()
        return np.array([e.eval(us, self.params) for e in self.exprs])

    def first_second(self, u):
        """(point, J (n,m), H (n,m,m)) with H[i,a,b] = d2 x^i / du^a du^b;
        J is checked to have rank m."""
        jets = self.jets(u)
        x = np.array([j.value for j in jets])
        jac = np.vstack([j.grad for j in jets])
        hess = np.stack([0.5 * (j.hess + j.hess.T) for j in jets])
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= 1e-10 * max(sv[0], 1.0):
            raise DegenerateEmbedding(
                f"Jacobian rank < {self.m} at u = {np.asarray(u).tolist()}")
        return x, jac, hess


def normal_part(g: np.ndarray, jac: np.ndarray, vecs) -> np.ndarray:
    """g-normal part of a vector (n,) or rows (k, n) against the columns of
    jac: one m x m Gram solve for all of them, no normal frame needed."""
    vecs = np.asarray(vecs, dtype=float)
    first = jac.T @ g @ jac
    coeff = np.linalg.solve(0.5 * (first + first.T), jac.T @ g @ vecs.T)
    return vecs - (jac @ coeff).T


def normal_frame(g: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, frame): ascending eigenvalues of g on the normal space of jac's
    columns and eigenvectors scaled so that g(frame_k, frame_k) = sign lam_k."""
    return screen(g, (g @ jac).T)


def induced_metric(field_: MetricField, emb: Embedding, u,
                   tols: Tolerances = DEFAULT_TOLS) -> tuple[np.ndarray, bool]:
    """First fundamental form J^T g J and whether it is positive definite."""
    x, jac, _ = emb.first_second(u)
    first = jac.T @ field_.value(x) @ jac
    first = 0.5 * (first + first.T)
    spacelike = bool(np.linalg.eigvalsh(first)[0] > tols.tau_c)
    return first, spacelike


def _shape(jac: np.ndarray, hess: np.ndarray, data: CurvatureData, u,
           tols: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """(first fundamental form, II) from one jet pass and one curvature pass."""
    first = jac.T @ data.g @ jac
    first = 0.5 * (first + first.T)
    if np.linalg.eigvalsh(first)[0] <= tols.tau_c:
        raise NotSpacelike(f"induced metric not positive definite at u = "
                           f"{np.asarray(u).tolist()}")
    n, m = jac.shape
    # ambient acceleration of the coordinate grid curves
    acc = np.einsum("iab->abi", hess) \
        + np.einsum("kij,ia,jb->abk", data.gamma, jac, jac)
    ii = normal_part(data.g, jac, acc.reshape(m * m, n)).reshape(m, m, n)
    return first, 0.5 * (ii + np.transpose(ii, (1, 0, 2)))


def shape_tensor(field_: MetricField, emb: Embedding, u,
                 tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """II[a, b, :] = normal part of (d2x/du^a du^b + Gamma(dx/du^a, dx/du^b))."""
    x, jac, hess = emb.first_second(u)
    return _shape(jac, hess, curvature_data(field_, x), u, tols)[1]


@dataclass(frozen=True)
class MeanCurvature:
    """Mean curvature vector of the submanifold at one point."""

    u: np.ndarray
    point: np.ndarray
    h_vec: np.ndarray              # ambient components of H
    causal: CausalClass
    g_hh: float
    g_hx: float
    tangency_defect: float         # max |g(H, tangent)| over unit tangents
    g: np.ndarray                  # ambient metric at point
    jac: np.ndarray                # tangent frame J[i, a] = dx^i/du^a


def mean_curvature(field_: MetricField, X: VectorField | np.ndarray,
                   emb: Embedding, u,
                   tols: Tolerances = DEFAULT_TOLS) -> MeanCurvature:
    """Trace of the shape tensor with the inverse induced metric."""
    x, jac, hess = emb.first_second(u)
    data = curvature_data(field_, x)
    first, ii = _shape(jac, hess, data, u, tols)
    g = data.g
    h_vec = np.einsum("ab,abi->i", np.linalg.inv(first), ii)
    xv = _orientation_field_value(X, x)
    g_hh = float(h_vec @ g @ h_vec)
    g_hx = float(h_vec @ g @ xv)
    # orthogonality diagnostic, h-normalized
    tang = jac / np.linalg.norm(jac, axis=0, keepdims=True)
    hn = np.linalg.norm(h_vec)
    defect = float(np.max(np.abs(tang.T @ g @ h_vec))) / (hn if hn > tols.tau_zero else 1.0)
    cls = causal_class_in(g, TangentVector(x, h_vec), X, tols)
    return MeanCurvature(u=np.asarray(u, dtype=float), point=x, h_vec=h_vec,
                         causal=cls, g_hh=g_hh, g_hx=g_hx,
                         tangency_defect=defect, g=g, jac=jac)


@dataclass(frozen=True)
class NullFrame:
    """Future null normal pair spanning a codimension-2 normal bundle fiber,
    normalized to g(K+, K-) = -1."""

    k_plus: np.ndarray
    k_minus: np.ndarray


def _null_expansions(mc: MeanCurvature, X, hint: VectorField | np.ndarray,
                     tols: Tolerances) -> tuple[NullFrame, float, float]:
    """Null normal frame at mc.point and theta_pm = -g(H, K_pm)."""
    g, x = mc.g, mc.point
    lam, frame = normal_frame(g, mc.jac)
    if frame.shape[1] != 2:
        raise WrongCodimension("normal space is not two-dimensional")
    if not (lam[0] < 0.0 < lam[1]):
        raise NotSpacelike("normal plane is not Lorentzian")
    xv = _orientation_field_value(X, x)
    scaled = []
    for ray in (frame[:, 0] + frame[:, 1], frame[:, 0] - frame[:, 1]):
        gx = float(ray @ g @ xv)
        if gx > 0:
            ray, gx = -ray, -gx
        scaled.append(ray / (-gx))          # now g(K, X) = -1: future-directed
    hv = _orientation_field_value(hint, x)
    dots = [float(k @ hv) for k in scaled]
    sep = abs(dots[0] - dots[1])
    norms = max(np.linalg.norm(hv) * max(np.linalg.norm(k) for k in scaled), 1e-300)
    if sep <= tols.tau_c * norms:
        raise OrientationHintDegenerate(
            "hint cannot distinguish the null normal directions")
    k_plus, k_minus = (scaled[0], scaled[1]) if dots[0] > dots[1] \
        else (scaled[1], scaled[0])
    mu = -float(k_plus @ g @ k_minus)
    if mu <= 0:
        raise OrientationHintDegenerate("null rays collapsed; frame invalid")
    k_plus = k_plus / np.sqrt(mu)
    k_minus = k_minus / np.sqrt(mu)
    theta_plus = -float(mc.h_vec @ g @ k_plus)
    theta_minus = -float(mc.h_vec @ g @ k_minus)
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
    return _null_expansions(mean_curvature(field_, X, emb, u, tols), X, hint,
                            tols)


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
    hh = np.zeros(shape)
    hx = np.zeros(shape)
    hnorm = np.zeros(shape)
    tp = np.zeros(shape) if (emb.codim == 2 and hint is not None) else None
    tm = np.zeros(shape) if tp is not None else None
    spacelike = True
    witness = None
    for idx in np.ndindex(*shape):
        u = emb.grid_point(idx)
        try:
            mc = mean_curvature(field_, X, emb, u, tols)
        except NotSpacelike:
            spacelike = False
            witness = idx
            break
        xv = _orientation_field_value(X, mc.point)
        xh = xv / np.linalg.norm(xv)
        nh = np.linalg.norm(mc.h_vec)
        hnorm[idx] = nh
        if nh > tols.tau_zero:
            hn = mc.h_vec / nh
            hh[idx] = float(hn @ mc.g @ hn)
            hx[idx] = float(hn @ mc.g @ xh)
        if tp is not None:
            _, tp[idx], tm[idx] = _null_expansions(mc, X, hint, tols)
    if not spacelike:
        raise NotSpacelike(
            f"submanifold not spacelike at grid index {witness}, "
            f"u = {emb.grid_point(witness).tolist()}")

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
