"""Metric-level differential geometry.

Curvature conventions (fixed once, validated by the test suite):

    Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    Rup^i_jkl  = d_k Gamma^i_lj - d_l Gamma^i_kj
                 + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    R[i,j,k,l] = -g_im Rup^m_jkl
    Ric[j,k]   = g^{il} R[i,j,k,l]

With these choices Riem(w,v,v,w) := R[ijkl] w^i v^j v^k w^l is the sectional
curvature for orthonormal pairs (round sphere > 0), constant-curvature c
spaces satisfy Riem(w,v,v,w) = c (g(w,w) g(v,v) - g(v,w)^2), and an expanding
vacuum with Hubble rate H has Ric = 3 H^2 g while dust satisfies
Ric(v,v) > 0 on causal vectors. Signature is (-, +, ..., +): index 1, and a
causal v is future-directed iff g(v, X) < 0 for the future timelike X.

The auxiliary Riemannian metric h used for all normalizations is the
Euclidean metric of the chart coordinates.

`screen(g, rows)` is the one screen helper: the h-orthogonal complement of
some constraint rows in closed form (`complement`: a Householder reflection
for one row, a complete QR for more), with g diagonalised on it.
`tidal_screen` (on `tidal_rows`: g v, plus v when v is null) is the screen
of `tidal` and of the O margin in `conditions`; `submanifold.null_normals`
builds on the screen of the tangent rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (NotApplicable, NotCausal, OrientationError,
                     batch_or_replay)
from .fields import VectorField
from .metric import MetricField
from .tensors import LOWER, UPPER, MetricValue, TensorValue, invert_metric


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds; user-overridable everywhere they matter."""

    tau_zero: float = 1e-12    # below this (h-norm) a vector counts as zero
    tau_c: float = 1e-9        # causal-type classification band
    eps_geo: float = 1e-8      # geodesic / transport conservation budget
    tau_cond: float = 1e-8     # strict-vs-weak band for condition margins
    tau_trap: float = 1e-9     # trapped-classification margin

    def as_dict(self) -> dict:
        return {
            "tau_zero": self.tau_zero,
            "tau_c": self.tau_c,
            "eps_geo": self.eps_geo,
            "tau_cond": self.tau_cond,
            "tau_trap": self.tau_trap,
        }


DEFAULT_TOLS = Tolerances()


@dataclass(frozen=True)
class TangentVector:
    point: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "components",
                           np.asarray(self.components, dtype=float))
        if self.point.shape != self.components.shape:
            raise ValueError("point / component dimensions differ")


@dataclass(frozen=True)
class CausalClass:
    kind: str          # 'timelike' | 'null' | 'spacelike' | 'zero'
    orientation: str   # 'future' | 'past' | 'none'
    g_vv: float

    def __str__(self):
        if self.orientation == "none":
            return self.kind
        return f"{self.kind}, {self.orientation}-directed"


# --- curvature ---------------------------------------------------------------


@dataclass(frozen=True)
class CurvatureData:
    """Everything curvature-related at one point, computed in one pass; from
    points (B, n), every field carries the batch axis first (`index` is then
    an array (B,)). `inner`, `riem_quad`, `scalar` and `kretschmann` take
    one point's data; `riem_matrix` and `riem_bilinear` take either."""

    point: np.ndarray
    g: np.ndarray          # (n, n)
    g_inv: np.ndarray
    gamma: np.ndarray      # (k, i, j) = Gamma^k_ij
    riem: np.ndarray       # (i, j, k, l), fully covariant, convention above
    ric: np.ndarray        # (j, k)
    index: int | np.ndarray

    @property
    def dim(self) -> int:
        return self.g.shape[-1]

    def inner(self, v, w) -> float:
        return float(np.asarray(v) @ self.g @ np.asarray(w))

    def riem_quad(self, w, v) -> float:
        """Riem(w, v, v, w)."""
        return float(np.einsum("ijkl,i,j,k,l->", self.riem, w, v, v, w))

    @cached_property
    def riem_matrix(self) -> np.ndarray:
        """Riem as an (n^2, n^2) matrix, rows (j, k) and columns (i, l),
        made exactly symmetric in (i, l): Riem(., v, v, .) is one product
        of v (x) v with it. Stacked data gives a stack (B, n^2, n^2)."""
        n = self.dim
        r = np.moveaxis(self.riem, -4, -2)
        return (0.5 * (r + r.swapaxes(-2, -1))).reshape(
            r.shape[:-4] + (n * n, n * n))

    def riem_bilinear(self, v) -> np.ndarray:
        """Matrix M[i, l] = Riem(e_i, v, v, e_l), symmetric; a stack of
        vectors (B, n) gives a stack (B, n, n), at one point or, from
        stacked data, one vector per point."""
        v = np.asarray(v)
        n = self.dim
        vv = (v[..., :, None] * v[..., None, :]).reshape(v.shape[:-1] + (n * n,))
        if self.riem.ndim > 4:
            vv = vv[..., None, :]
        return (vv @ self.riem_matrix).reshape(v.shape[:-1] + (n, n))

    def scalar(self) -> float:
        return float(np.einsum("jk,jk->", self.g_inv, self.ric))

    def kretschmann(self) -> float:
        r_up = np.einsum("ai,bj,ck,dl,ijkl->abcd",
                         self.g_inv, self.g_inv, self.g_inv, self.g_inv,
                         self.riem)
        return float(np.einsum("abcd,abcd->", r_up, self.riem))


def christoffel_from_jets(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[k, i, j] from g^-1 and dg[l, i, j] = d_l g_ij; stacks of both
    (leading batch axis) give stacked symbols."""
    # d[i, j, l] = d_i g_jl + d_j g_il - d_l g_ij
    d = dg + dg.swapaxes(-3, -2) - dg.swapaxes(-3, -2).swapaxes(-2, -1)
    return 0.5 * np.einsum("...kl,...ijl->...kij", g_inv, d)


def curvature_data(field_: MetricField, p) -> CurvatureData:
    """Curvature at a point p (n,), or at points (B, n) in one pass, with
    the batch axis first on every field of the result."""
    p = np.asarray(p, dtype=float)
    g, dg, d2g = field_.component_jets(p, order=2)
    mv = MetricValue.from_matrix(g)
    g_inv = mv.g_inv
    gamma = christoffel_from_jets(g_inv, dg)

    # d_m g^{kl} = -g^{ka} (d_m g_ab) g^{bl}
    dginv = -np.einsum("...ka,...mab,...bl->...mkl", g_inv, dg, g_inv)
    # D[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij and its derivative
    d_sym = dg + dg.swapaxes(-3, -2) - np.moveaxis(dg, -3, -1)
    dd_sym = d2g + d2g.swapaxes(-3, -2) - np.moveaxis(d2g, -3, -1)
    # dGamma[m, k, i, j] = d_m Gamma^k_ij
    dgamma = 0.5 * (np.einsum("...mkl,...ijl->...mkij", dginv, d_sym)
                    + np.einsum("...kl,...mijl->...mkij", g_inv, dd_sym))

    rup = (np.einsum("...kilj->...ijkl", dgamma)
           - np.einsum("...likj->...ijkl", dgamma)
           + np.einsum("...ikm,...mlj->...ijkl", gamma, gamma)
           - np.einsum("...ilm,...mkj->...ijkl", gamma, gamma))
    riem = -np.einsum("...im,...mjkl->...ijkl", g, rup)
    ric = np.einsum("...il,...ijkl->...jk", g_inv, riem)
    ric = 0.5 * (ric + ric.swapaxes(-1, -2))
    return CurvatureData(point=p, g=g, g_inv=g_inv, gamma=gamma,
                         riem=riem, ric=ric, index=mv.index)


def signature(field_: MetricField, p) -> int:
    """Number of negative eigenvalues of g(p); Lorentzian iff 1."""
    return field_.metric_value(p).index


def christoffel(field_: MetricField, p) -> TensorValue:
    g, dg, _ = field_.component_jets(p, order=1)
    g_inv, _ = invert_metric(g)
    return TensorValue(christoffel_from_jets(g_inv, dg), (UPPER, LOWER, LOWER))


def riemann(field_: MetricField, p) -> TensorValue:
    return TensorValue(curvature_data(field_, p).riem,
                       (LOWER, LOWER, LOWER, LOWER))


def ricci(field_: MetricField, p) -> TensorValue:
    return TensorValue(curvature_data(field_, p).ric, (LOWER, LOWER))


# --- causal classification ----------------------------------------------------


def _orientation_field_value(X, p) -> np.ndarray:
    if isinstance(X, VectorField):
        return X.value(p)
    return np.asarray(X, dtype=float)


def causal_class(field_: MetricField, v: TangentVector,
                 X: VectorField | np.ndarray | None = None,
                 tols: Tolerances = DEFAULT_TOLS) -> CausalClass:
    """Classify v at its base point; orient causal vectors against X."""
    return causal_class_in(field_.metric_value(v.point).g, v, X, tols)


def causal_class_in(g: np.ndarray, v: TangentVector,
                    X: VectorField | np.ndarray | None = None,
                    tols: Tolerances = DEFAULT_TOLS) -> CausalClass:
    """causal_class for a caller that already holds g, the metric at v.point."""
    h2 = float(v.components @ v.components)
    if np.sqrt(h2) < tols.tau_zero:
        return CausalClass("zero", "none", 0.0)
    q = float(v.components @ g @ v.components)
    band = tols.tau_c * h2
    if q < -band:
        kind = "timelike"
    elif q > band:
        kind = "spacelike"
    else:
        kind = "null"
    orientation = "none"
    if kind in ("timelike", "null") and X is not None:
        xv = _orientation_field_value(X, v.point)
        _require_timelike(g, xv, v.point, tols)
        orientation = "future" if float(v.components @ g @ xv) < 0.0 else "past"
    return CausalClass(kind, orientation, q)


def _require_timelike(g: np.ndarray, xv: np.ndarray, point: np.ndarray,
                      tols: Tolerances = DEFAULT_TOLS) -> None:
    """Raise OrientationError unless the orientation vector xv is timelike
    in g, the metric at `point`."""
    gxx = float(xv @ g @ xv)
    if gxx >= -tols.tau_c * float(xv @ xv):
        raise OrientationError(
            f"orientation field not timelike at {point.tolist()} "
            f"(g(X,X) = {gxx:.3e})")


# --- frames ---------------------------------------------------------------------


def lorentz_frame(g: np.ndarray) -> np.ndarray:
    """Columns f_0 (timelike), f_1..f_{n-1} (spacelike) with g(f_i,f_j) = eta_ij.

    eigh returns ascending eigenvalues, so the single negative one is first.
    """
    lam, q = np.linalg.eigh(g)
    index = int(np.sum(lam < 0))
    if index != 1:
        raise OrientationError(f"metric index is {index}, need 1")
    return q / np.sqrt(np.abs(lam))


@lru_cache(maxsize=None)
def _columns_past_first(n: int) -> np.ndarray:
    """Columns 1..n-1 of the n x n identity (read-only: it is shared)."""
    eye = np.eye(n, n - 1, -1)
    eye.setflags(write=False)
    return eye


def complement(rows: np.ndarray) -> np.ndarray:
    """Euclidean-orthonormal basis (columns) of the orthogonal complement of
    k linearly independent rows (k, n); a stack (B, k, n) gives stacked
    bases (B, n, n - k). One row u takes the Householder reflection
    I - 2 w w^T / |w|^2, w = u + sign(u_0) |u| e_0, whose columns past the
    first span the complement; more rows take a complete QR."""
    k, n = rows.shape[-2:]
    if k > 1:
        return np.linalg.qr(rows.swapaxes(-1, -2), mode="complete")[0][..., k:]
    u = rows[..., 0, :]
    norm = np.sqrt((u * u).sum(-1))
    w = u.copy()
    w[..., 0] += np.copysign(norm, u[..., 0])
    # |w|^2 = 2 |u| |w_0|
    scaled = w / (norm * abs(w[..., 0]))[..., None]
    return _columns_past_first(n) - w[..., :, None] * scaled[..., None, 1:]


def screen(g: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam, basis): ascending eigenvalues of g on the h-orthogonal complement
    of the rows, and its eigenvectors scaled so that g(b_k, b_k) = sign lam_k.
    Stacks g (B, n, n) and rows (B, k, n) give stacked results."""
    comp = complement(rows)
    lam, q = np.linalg.eigh(comp.swapaxes(-1, -2) @ g @ comp)
    return lam, comp @ (q / np.sqrt(np.abs(lam))[..., None, :])


def tidal_rows(g: np.ndarray, v: np.ndarray, null: bool) -> np.ndarray:
    """The rows whose complement is the screen of a causal v: g v, and v
    too when v is null; (k, n) for a vector, (B, k, n) for a stack, at one
    point g (n, n) or at one point each, g (B, n, n)."""
    gv = (v @ g)[..., None, :] if g.ndim == 2 else v[..., None, :] @ g
    return np.concatenate([gv, v[..., None, :]], axis=-2) if null else gv


def tidal_screen(g: np.ndarray, v: np.ndarray, null: bool) -> np.ndarray:
    """g-orthonormal screen of a causal v: the h-complement of its
    `tidal_rows` (realising the quotient v^perp / <v> when v is null). A
    stack of vectors (B, n) of one kind gives stacked screens. The screen
    of a null vector is empty in dimension 2: NotApplicable."""
    lam, basis = screen(g, tidal_rows(g, v, null))
    if not lam.shape[-1]:
        raise NotApplicable(f"the screen of a null vector is empty in "
                            f"dimension {g.shape[-1]}: the tidal operator "
                            f"needs dimension 3 or more")
    if (lam[..., 0] <= 0).any():
        raise NotCausal("screen is not g-positive definite")
    return basis


# --- tidal operators -------------------------------------------------------------


@dataclass(frozen=True)
class TidalOperator:
    """Screen-space matrix of w -> Riem(w, v, v, .) along a causal v."""

    vector: TangentVector
    kind: str                  # 'timelike' | 'null'
    screen: np.ndarray         # columns: the screen basis (g-orthonormal)
    matrix: np.ndarray
    eigenvalues: np.ndarray = field(default=None)

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


def tidal(field_: MetricField, v: TangentVector,
          tols: Tolerances = DEFAULT_TOLS) -> TidalOperator:
    """Tidal operator of a causal v.

    Timelike v is normalized to a unit vector and the screen is its
    g-orthogonal complement. For null v the screen realizes the quotient
    v^perp / <v> as the subspace of v^perp that is also h-orthogonal to v.
    """
    data = curvature_data(field_, v.point)
    cls = causal_class_in(data.g, v, None, tols)
    if cls.kind in ("spacelike", "zero"):
        raise NotCausal(f"tidal operator needs a causal vector, got {cls.kind}")
    vc = v.components
    if cls.kind == "timelike":
        vc = vc / np.sqrt(-data.inner(vc, vc))
    basis = tidal_screen(data.g, vc, cls.kind == "null")
    m = basis.T @ data.riem_bilinear(vc) @ basis
    m = 0.5 * (m + m.T)
    return TidalOperator(vector=v, kind=cls.kind, screen=basis, matrix=m,
                         eigenvalues=np.linalg.eigvalsh(m))


# --- generic condition ------------------------------------------------------------


@dataclass(frozen=True)
class GenericCheckResult:
    satisfied: bool
    parameter: float | None      # first s* where the threshold is exceeded
    max_ratio: float

    def __str__(self):
        if self.satisfied:
            return f"satisfied at s = {self.parameter:.6g}"
        return "not detected"


def generic_check(field_: MetricField, solution, tau: float = 1e-10) -> GenericCheckResult:
    """Scan a stored geodesic for the generic condition.

    For a timelike curve the scan statistic at each sample is the largest
    h-operator norm of w -> R(w, gamma') gamma' over h-unit w. For a null
    curve it is the operator norm of that map on the screen
    gamma'^perp / <gamma'> (`tidal_screen`): there the condition asks for
    k_[a R_b]cd[e k_f] k^c k^d != 0 (Hawking & Ellis 1973, 4.4), and a part
    of R(., k) k along k alone does not count. Either is scaled by
    |gamma'|_h^2, which never vanishes on a geodesic. The 200 samples are
    read in one `evaluate` call and their curvature in one batched pass
    (`batch_or_replay`), as in `gs_trace`: a sample that cannot be
    evaluated raises its own error, one past s* included. A 'not detected'
    answer is a statement about the samples, not a proof.
    """
    v0 = TangentVector(solution.p0, solution.v0)
    null = causal_class_in(field_.value(solution.p0), v0).kind == "null"

    def ratios(x, xdot):
        data = curvature_data(field_, x)
        denom = (xdot * xdot).sum(-1)
        if null:
            # gamma' is null to the integrator's tolerance only, and the
            # screen part of R(., k) k moves with g(k, k): put k on the null
            # cone to first order, along g^-1 k (where g(k, g^-1 k) = |k|_h^2)
            q = np.einsum("bi,bij,bj->b", xdot, data.g, xdot)
            k = xdot - (q / (2.0 * denom))[:, None] \
                * (data.g_inv @ xdot[..., None])[..., 0]
            basis = tidal_screen(data.g, k, null=True)
            a = basis.swapaxes(-1, -2) @ data.riem_bilinear(k) @ basis
        else:
            a = -data.g_inv @ data.riem_bilinear(xdot)   # mixed operator on w
        return np.linalg.norm(a, 2, axis=(-2, -1)) / denom

    s = np.linspace(0.0, solution.t_reached, 200)
    ratio = batch_or_replay(ratios, *solution.evaluate(s))
    hits = np.flatnonzero(ratio > tau)
    if hits.size:
        return GenericCheckResult(True, float(s[hits[0]]),
                                  float(ratio[hits[0]]))
    return GenericCheckResult(False, None, float(ratio.max()))
