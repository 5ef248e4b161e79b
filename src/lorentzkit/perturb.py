"""Compactly supported conformal perturbation families with certificates.

Two constructions are provided, both of the form g_n = e^{2 phi / n} g with a
compactly supported phi built from a C^2 bump:

* trapped_exit_family: at a point of a submanifold that is weakly but not
  strictly trapped by `classify_trapped`'s rule (mean curvature zero, or
  null past-directed), a bump whose gradient is a unit normal (spacelike,
  or a past null normal from `submanifold.null_normals` not collinear with
  H) makes ghat(Hhat, Hhat) > 0: the metric is no longer weakly trapped.

* positivity_exit_family: at a point with a causal v and non-collinear w
  where Riem(w, v, v, w) = 0, a bump-extended function of second-order
  normal coordinates makes Riem(g_n)(w, v, v, w) < 0, so the perturbed
  metric leaves the weak curvature-positivity class.

Both run one pipeline (`_family`): each supplies its bump, its detail and,
per n, a certificate computed twice (closed-form transformation law and
direct recomputation on the rescaled metric) beside the literature's printed
closed form; where they disagree the measured value is authoritative and the
deviation is logged, never patched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (LorentzkitError, NotApplicable, NotCausal, RadiusError,
                     SupportNotContained)
from .expr import Binary, Kernels, Num, Sym, SymbolTable, Unary, parse
from .fields import ScalarField
from .geometry import (DEFAULT_TOLS, TangentVector, Tolerances,
                       causal_class_in, curvature_data, lorentz_frame)
from .jets import Jet2, compose
from .metric import (ConformalScaledMetric, MetricField, exp_kernels,
                     product_jets)
from .normal import orthonormal_frame_from
from .conformal import conformal_mean_curvature, conformal_riemann, rescale
from .submanifold import (Embedding, _trapped_margins, mean_curvature,
                          null_normals)


DEFAULT_RHO = 0.25


def _default_rho(boundary_distance: float) -> float:
    # small default amplitude keeps e^{2 phi/n} in its linear regime, so
    # family seminorms decay like 1/n already from n = 1
    return min(DEFAULT_RHO, boundary_distance / 4.0)


# --- bumps: a core times the C^2 cutoff ------------------------------------------
#
# Both bumps are kernels composed on inner jets (`jets.compose`): the cutoff
# chi(u) is the kernels' internal `cutoff` operation, 1 on [0, 1/4], the
# quintic C^2 ramp on [1/4, 1] and 0 beyond, so the field is C^2 everywhere
# and its jets are exact.

# core * chi(u) over the variables (core, u), shared by every BumpField
_BUMP = Kernels((Binary("*", Sym("c", 0), Unary("cutoff", Sym("u", 1))),), 2,
                shape=(), slots=[(0,)])


class BumpField(ScalarField):
    """Affine core times a radial C^2 cutoff, exactly zero outside radius rho.

    field(x) = (v0 + dphi . (x - p)) * chi(|x - p|^2 / rho^2)

    The cutoff is identically 1 within rho/2 of the center, so the prescribed
    value and gradient at p are exact. Periodic chart coordinates are wrapped
    to the nearest image of p (`MetricField.displacement`), making the bump
    well defined on quotient charts.
    A point (n,) and points (B, n) take the same code, the batch in one
    pass (batch axis first), and agree bit for bit.
    """

    def __init__(self, chart_field: MetricField, p, value: float,
                 dphi, rho: float | None = None):
        self.dim = chart_field.dim
        self.center = np.asarray(p, dtype=float)
        self.v0 = float(value)
        self.dphi = np.asarray(dphi, dtype=float)
        self.chart_field = chart_field
        bd = chart_field.boundary_distance(self.center)
        if rho is None:
            rho = _default_rho(bd)
        if rho <= 0:
            raise RadiusError("bump radius must be positive")
        if np.isfinite(bd) and bd < rho:
            raise RadiusError(
                f"center is {bd:.3g} from the chart boundary, radius {rho:.3g} "
                "does not fit")
        self.rho = float(rho)

    def jet2(self, q, order: int = 2) -> Jet2:
        n = self.dim
        # (n,) or (B, n); sums run term by term so that a point and a batch
        # round alike, and the constant parts broadcast over the batch
        d = self.chart_field.displacement(q, self.center)
        r2 = self.rho ** 2
        second = order >= 2
        u = Jet2(sum(d[..., c] * d[..., c] for c in range(n)) / r2,
                 2.0 * d / r2, 2.0 * np.eye(n) / r2 if second else None)
        core = Jet2(self.v0 + sum(w * d[..., c]
                                  for c, w in enumerate(self.dphi)),
                    self.dphi, np.zeros((n, n)) if second else None)
        inner = np.stack([core.value, u.value], axis=-1)
        return compose(_BUMP(inner, order), [core, u])

    def support_box(self) -> list[tuple[float, float]]:
        return [(float(c - self.rho), float(c + self.rho)) for c in self.center]


class NormalCoordBump(ScalarField):
    """core(x(q)) * chi(|x(q)|^2 / rho^2) on second-order normal coordinates.

    x = A (d + Gamma_p(d, d) / 2), with d = q - p (periodic axes to the
    nearest image of p), A = frame^-1 and Gamma_p the Christoffel symbols
    at p, has the 2-jet at p of the exponential map's normal coordinates
    (so Gamma vanishes at p in x), and exact jets everywhere:
    dx^k/dq^m = A^k_c (delta^c_m + Gamma^c_mb d^b), d2x^k = A^k_c Gamma^c_ab.
    On constant-component charts Gamma_p = 0 and x = A d.

    In frame components y = A d, x = y + Q(y, y) / 2 with
    Q^k_ij = A^k_c Gamma^c_ab E^a_i E^b_j (E = frame); gamma = |Q|_F. For
    |y| < 1/gamma, y -> x is injective and |x| >= |y| (1 - gamma |y| / 2).
    The jets are exactly 0 where |x| >= rho or |y| >= 1/gamma, so no far
    copy of the level set enters; rho <= 1/(2 gamma) keeps the field C^2,
    and the default is min(`_default_rho`, 1/(4 gamma)). A point (n,) and
    points (B, n) take the same code (batch axis first) and agree bit for
    bit.
    """

    def __init__(self, field_: MetricField, p, frame, core_text: str,
                 rho: float | None = None):
        self.field = field_
        self.p = np.asarray(p, dtype=float)
        self.frame = np.asarray(frame, dtype=float)     # columns e_i
        self.dim = n = field_.dim
        self.frame_inv = np.linalg.inv(self.frame)
        self.gamma_p = np.zeros((n, n, n)) if field_.constant_components \
            else curvature_data(field_, self.p).gamma
        self.gamma = float(np.linalg.norm(np.einsum(
            "kc,cab,ai,bj->kij", self.frame_inv, self.gamma_p, self.frame,
            self.frame)))
        limit = 0.5 / self.gamma if self.gamma else np.inf     # 1/(2 gamma)
        if rho is None:
            rho = min(_default_rho(field_.boundary_distance(self.p)),
                      limit / 2)
        if not 0 < rho <= limit:
            raise RadiusError(
                f"bump radius {rho:.3g} is not in (0, {limit:.3g}]")
        self.rho = float(rho)
        for i, (lo, hi) in enumerate(self.support_box()):
            dlo, dhi = field_.domain[i]
            if field_.periods[i] is None and (lo < dlo or hi > dhi):
                raise RadiusError(f"bump support [{lo:.3g}, {hi:.3g}] leaves "
                                  f"the chart domain along axis {i}")
        # the coordinates' Hessians are constant: exactly the 2-jet at p
        self._coord_hess = np.einsum("kc,cab->kab", self.frame_inv,
                                     self.gamma_p)
        # core(x) * chi(|x|^2 / rho^2) over the normal coordinates
        table = SymbolTable([f"n{k}" for k in range(n)])
        r2 = parse(" + ".join(f"n{k}*n{k}" for k in range(n)), table)
        chi = Unary("cutoff", Binary("*", r2, Num(1.0 / self.rho ** 2)))
        self._kernels = Kernels((Binary("*", parse(core_text, table), chi),),
                                n, shape=(), slots=[(0,)])

    def _coords(self, q, order: int):
        """x, the jets of each x^k and |y|^2 at a point q (n,) or points
        (B, n). Sums run term by term, so a point and a batch round alike;
        x^k's Hessian is constant, (n, n) broadcast over a batch."""
        n = self.dim
        a, gam = self.frame_inv, self.gamma_p
        d = self.field.displacement(q, self.p)          # (n,) or (B, n)
        coords = [d[..., b, None] for b in range(n)]
        # gd[c, m] = Gamma^c_mb d^b; jac = delta + gd = d(d + Gamma(d, d)/2)/dq
        gd = sum(gam[:, :, b] * coords[b][..., None] for b in range(n))
        jac = np.eye(n) + gd
        z = d + 0.5 * sum(gd[..., m] * coords[m] for m in range(n))
        x = sum(a[:, c] * z[..., c, None] for c in range(n))
        y = sum(a[:, c] * coords[c] for c in range(n))
        # grad[k] = dx^k/dq, one contiguous (B, n) array per k
        grad = sum(np.multiply.outer(a[:, c], jac[..., c, :])
                   for c in range(n))
        hess = self._coord_hess if order >= 2 else [None] * n
        return x, [Jet2(x[..., k], grad[k], hess[k]) for k in range(n)], \
            sum(y[..., k] * y[..., k] for k in range(n))

    def jet2(self, q, order: int = 2) -> Jet2:
        x, seeds, y2 = self._coords(np.asarray(q, dtype=float), order)
        # outside the support the jets are exactly 0, and the core is taken
        # at x = 0 there: a far point cannot overflow it
        inside = (np.sum(x * x, axis=-1) < self.rho ** 2) \
            & (self.gamma ** 2 * y2 < 1.0)
        jets = self._kernels(np.where(inside[..., None], x, 0.0), order)
        # mask each part over its batch axis: value, grad (B, n), hess
        return compose([None if part is None
                        else part * inside[(...,) + (None,) * k]
                        for k, part in enumerate(jets)], seeds)

    def support_box(self) -> list[tuple[float, float]]:
        # the support lies in |y| < s, the root of s (1 - gamma s / 2) = rho
        # (s = rho when gamma = 0), and q - p = E y
        root = np.sqrt(max(0.0, 1.0 - 2.0 * self.gamma * self.rho))
        spans = 2.0 * self.rho / (1.0 + root) * np.linalg.norm(self.frame,
                                                                axis=1)
        return [(float(c - s), float(c + s)) for c, s in zip(self.p, spans)]


def bump(chart_field: MetricField, p, value: float, dphi,
         rho: float | None = None) -> BumpField:
    """Bump with prescribed value and coordinate gradient dphi at p.

    To prescribe a gradient *vector* v (grad_g phi = v), pass dphi = g(p) v.
    """
    return BumpField(chart_field, p, value, dphi, rho)


# --- C^s seminorms -----------------------------------------------------------------
#
# Family tables take one batched pass per grid slab: base component jets and
# phi jets at points (B, n), every n from the conformal product rule
# `metric.product_jets` with e = e^{2 phi/n} - 1, the rule the rescaled
# metrics use. `_seminorm_orders` is the per-point difference of two
# metrics' jets, the reference the tables are tested against and the error
# path.


def _grid(box, grid_per_axis: int) -> np.ndarray:
    """The points (G^n, n) of a box grid with G points per axis, the first
    axis varying slowest: each run of G^(n-1) points is one slab, at one
    value of the first coordinate."""
    axes = [np.linspace(lo, hi, grid_per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def _seminorm_orders(g1: MetricField, g2: MetricField,
                     box, grid_per_axis: int) -> tuple[float, float, float]:
    """Max-abs differences of the component jets of two metrics, order by
    order, over a box grid, one point at a time."""
    m0 = m1 = m2 = 0.0
    for p in _grid(box, grid_per_axis):
        a_g, a_d, a_h = g1.component_jets(p, order=2)
        b_g, b_d, b_h = g2.component_jets(p, order=2)
        m0 = max(m0, float(np.max(np.abs(a_g - b_g))))
        m1 = max(m1, float(np.max(np.abs(a_d - b_d))))
        m2 = max(m2, float(np.max(np.abs(a_h - b_h))))
    return m0, m1, m2


def cs_seminorm(g1: MetricField, g2: MetricField, s: int,
                box, grid_per_axis: int = 7,
                support_box=None) -> float:
    """sup over a grid of K of |d^alpha (g1 - g2)_ij| for |alpha| <= s.

    Derivatives come from jets (s <= 2). When the perturbation support is
    known, pass support_box; a SupportNotContained warning fires if K does
    not cover it (the sup over K then underestimates the sup over M).
    """
    if s not in (0, 1, 2):
        raise ValueError("s must be 0, 1 or 2")
    if support_box is not None:
        for (klo, khi), (slo, shi) in zip(box, support_box):
            if slo < klo or shi > khi:
                warnings.warn("seminorm box does not contain the perturbation "
                              "support", SupportNotContained)
                break
    m0, m1, m2 = _seminorm_orders(g1, g2, box, grid_per_axis)
    return max((m0, m1, m2)[: s + 1])


# --- families ------------------------------------------------------------------------


@dataclass
class Certificate:
    n: int
    value_direct: float          # recomputed on the rescaled metric
    value_closed_form: float     # via the transformation law
    printed_value: float         # the literature's closed form, for comparison
    printed_form: str
    sign_expected: int           # +1 or -1
    agreement: float             # |direct - closed| / (1 + |direct|)

    @property
    def sign_ok(self) -> bool:
        return bool(np.sign(self.value_direct) == self.sign_expected)

    @property
    def deviation(self) -> float:
        return self.value_direct - self.printed_value

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "certificate": self.value_direct,
            "closed_form": self.value_closed_form,
            "printed": self.printed_value,
            "printed_form": self.printed_form,
            "deviation": self.deviation,
            "sign_ok": self.sign_ok,
        }


def _finite_or_none(x: float) -> float | None:
    """x, or None (JSON null) when it is NaN or infinite."""
    return x if np.isfinite(x) else None


def _loglog_slope(ns, vals) -> float:
    """Least-squares slope of log(vals) against log(ns); NaN for fewer than
    two rows or a value that is not positive."""
    ns, vals = np.asarray(ns, dtype=float), np.asarray(vals, dtype=float)
    if len(ns) < 2 or np.any(vals <= 0):
        return float("nan")
    return float(np.polyfit(np.log(ns), np.log(vals), 1)[0])


@dataclass
class PerturbationFamily:
    """g_n = e^{2 phi / n} g with per-n certificates and seminorms."""

    base: MetricField
    phi: ScalarField
    kind: str                    # 'trapped-exit' | 'positivity-exit'
    case: str
    point: np.ndarray
    n_max: int
    certificates: list[Certificate]
    seminorms: list[dict]        # per n: {n, c0, c1, c2}
    detail: dict = dc_field(default_factory=dict)

    def member(self, n: int) -> ConformalScaledMetric:
        return rescale(self.base, self.phi, 1.0 / n)

    def scaling_exponent(self) -> float:
        """Log-log slope of |certificate| against n."""
        return _loglog_slope([c.n for c in self.certificates],
                             [abs(c.value_direct) for c in self.certificates])

    def seminorm_slope(self, order: int = 2) -> float:
        return _loglog_slope([row["n"] for row in self.seminorms],
                             [row[f"c{order}"] for row in self.seminorms])

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "point": [float(v) for v in self.point],
            "n_max": self.n_max,
            "certificates": [c.as_dict() for c in self.certificates],
            "seminorms": self.seminorms,
            "certificate_scaling_exponent": _finite_or_none(self.scaling_exponent()),
            "seminorm_slope_c2": _finite_or_none(self.seminorm_slope(2)),
            "detail": self.detail,
        }


def _seminorm_rows(base: MetricField, phi: ScalarField, n_max: int,
                   support_box, grid_per_axis: int = 7) -> list[dict]:
    """C^0, C^1 and C^2 seminorms of g_n - g for n = 1..n_max, over a grid of
    the support box padded by 5% of its width on each side.

    g_n - g = (E - 1) g with E = e^{2 phi / n}, so one order-2 pass of base
    and phi jets per slab of the grid (one index along the first axis)
    gives every n through `product_jets`, with e = E - 1: its value is
    expm1(2 phi / n) and its derivatives are those of E. An error (or a
    floating-point overflow) re-runs the rows point by point through
    `_seminorm_orders` on the rescaled metrics, so it is the error the
    first failing point raises.
    """
    pad = [(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
           for lo, hi in support_box]
    maxima = np.zeros((n_max, 3))
    exps = [(2.0 / n, exp_kernels(2.0 / n)) for n in range(1, n_max + 1)]
    try:
        with np.errstate(over="raise", invalid="raise"):
            for slab in _grid(pad, grid_per_axis).reshape(grid_per_axis, -1,
                                                          base.dim):
                q = base.canonicalize(slab)
                g, dg, d2g = base.component_jets(q, order=2)
                f = phi.jet2(q, 2)
                for row, (c, kernels) in zip(maxima, exps):
                    exp_t = compose(kernels(f.value[:, None], 2), [f])
                    e = Jet2(np.expm1(c * f.value), exp_t.grad, exp_t.hess)
                    for m, part in enumerate(product_jets(e, g, dg, d2g)):
                        row[m] = max(row[m], np.abs(part).max())
    except (LorentzkitError, ArithmeticError, ValueError):
        maxima = [_seminorm_orders(base, rescale(base, phi, 1.0 / n), pad,
                                   grid_per_axis)
                  for n in range(1, n_max + 1)]
    return [{"n": n, "c0": float(m0), "c1": float(max(m0, m1)),
             "c2": float(max(m0, m1, m2))}
            for n, (m0, m1, m2) in enumerate(maxima, start=1)]


def _family(kind: str, case: str, field_: MetricField, phi: ScalarField,
            p, n_max: int, seminorm_grid: int, sign: int, printed_form: str,
            certify, detail: dict) -> PerturbationFamily:
    """The family g_n = e^{2 phi / n} g of either theorem: certify(n) gives
    the (direct, closed-form, printed) certificate values for n = 1..n_max,
    and the seminorm rows of g_n - g follow from phi."""
    certificates = []
    for n in range(1, n_max + 1):
        direct, closed, printed = certify(n)
        certificates.append(Certificate(
            n=n, value_direct=float(direct), value_closed_form=float(closed),
            printed_value=float(printed), printed_form=printed_form,
            sign_expected=sign,
            agreement=float(abs(direct - closed) / (1.0 + abs(direct)))))
    seminorms = _seminorm_rows(field_, phi, n_max, phi.support_box(),
                               seminorm_grid)
    return PerturbationFamily(
        base=field_, phi=phi, kind=kind, case=case, point=p, n_max=n_max,
        certificates=certificates, seminorms=seminorms, detail=detail)


def trapped_exit_family(field_: MetricField, X, emb: Embedding, u0,
                        n_max: int = 8, rho: float | None = None,
                        tols: Tolerances = DEFAULT_TOLS,
                        seminorm_grid: int = 7) -> PerturbationFamily:
    """Family certifying exit from the weakly-trapped class at Sigma(u0).

    Requires the mean curvature at the marked point to be either zero or
    past-directed null (the boundary cases of weak trappedness); raises
    NotApplicable otherwise. The bump gradient is the case's prescribed
    normal vector v, and each certificate asserts ghat(Hhat, Hhat) > 0.
    """
    u0 = np.asarray(u0, dtype=float)
    mc = mean_curvature(field_, X, emb, u0, tols)
    p, g = mc.point, mc.g
    m = emb.m
    _, _, hn, strict, weak = _trapped_margins(g[None], mc.h_vec[None],
                                              mc.x_vec[None], tols)
    if strict[0]:
        raise NotApplicable("strict trapped inequalities already hold at u0")
    if not weak[0]:
        raise NotApplicable("not weakly trapped at u0")
    lam, frame, rays, _ = null_normals(g[None], mc.jac[None], mc.x_vec[None])

    if hn[0] <= tols.tau_trap:
        case = "zero-H"
        if lam[0, -1] <= 0:
            raise NotApplicable("normal space has no spacelike direction")
        v = frame[0, :, -1] / np.linalg.norm(frame[0, :, -1])
        printed_form = "m^2/n * exp(-2 phi_n(p)) * g(v,v)"
    else:
        case = "null-H"
        if emb.codim < 2:
            raise NotApplicable("null case needs codimension >= 2")
        if not lam[0, 0] < 0 < lam[0, -1]:
            raise NotApplicable("normal space is not Lorentzian")
        hdir = mc.h_vec / hn[0]
        # the first past-directed ray not collinear with H
        past = (-ray / np.linalg.norm(ray) for ray in rays[0])
        v = next((c for c in past
                  if np.linalg.norm(c - float(c @ hdir) * hdir) > 1e-6), None)
        if v is None:
            raise NotApplicable("no past null normal independent of H found")
        printed_form = "-2m/n * exp(2 phi_n(p)) * g(H,v)"

    phi = bump(field_, p, 0.0, g @ v, rho)
    g_hv = float(mc.h_vec @ g @ v)
    g_vv = float(v @ g @ v)

    def certify(n: int):
        _, closed = conformal_mean_curvature(field_, X, emb, phi, u0,
                                             scale=1.0 / n, tols=tols, base=mc)
        direct = mean_curvature(rescale(field_, phi, 1.0 / n), X, emb, u0,
                                tols).g_hh
        # phi(p) = 0 by construction, so the exp factors in the printed
        # forms are exactly 1 whichever sign the exponent carries
        if case == "zero-H":
            return direct, closed, (m * m / n) * g_vv
        return direct, closed, -(2.0 * m / n) * g_hv

    return _family("trapped-exit", case, field_, phi, p, n_max, seminorm_grid,
                   +1, printed_form, certify, {
                       "v": [float(a) for a in v],
                       "g_hh_at_p": mc.g_hh,
                       "g_hx_at_p": mc.g_hx,
                       "g_hv": g_hv,
                       "bump_radius": phi.rho,
                       "sigma_dim": m,
                   })


def positivity_exit_family(field_: MetricField, p, v, w,
                           n_max: int = 8, rho: float | None = None,
                           tols: Tolerances = DEFAULT_TOLS,
                           seminorm_grid: int = 7) -> PerturbationFamily:
    """Family certifying exit from weak curvature positivity at p.

    The witness (v, w) must be causal-v, non-collinear-w with
    Riem(w, v, v, w) = 0; the construction aligns an orthonormal frame with
    v, builds the case's function of the second-order normal coordinates of
    that frame (bump-extended, `NormalCoordBump`), and certifies
    Riem(g_n)(w, v, v, w) < 0 for every n.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    data = curvature_data(field_, p)
    cls = causal_class_in(data.g, TangentVector(p, v), None, tols)
    if cls.kind not in ("timelike", "null"):
        raise NotCausal(f"witness v must be causal, got {cls.kind}")
    q0 = data.riem_quad(w / np.linalg.norm(w), v / np.linalg.norm(v))
    if abs(q0) > tols.tau_cond:
        raise NotApplicable(
            f"Riem(w,v,v,w) = {q0:.3e} at p is not degenerate")

    if cls.kind == "timelike":
        case = "timelike"
        vhat = v / np.sqrt(-data.inner(v, v))
        w_perp = w + data.inner(w, vhat) * vhat
        wg = data.inner(w_perp, w_perp)
        if wg <= tols.tau_zero:
            raise NotApplicable("w is collinear with v")
        w_used = w_perp / np.sqrt(wg)
        frame = orthonormal_frame_from(field_, p, first=vhat, second=w_used)
        v_used = vhat
        core = "exp(n0)"
        printed_form = "-exp(2/n)/n"
    else:
        # split v = e0 + e1 against a unit timelike leg; ell = e0 - e1
        t0 = lorentz_frame(data.g)[:, 0]
        gvt = data.inner(v, t0)
        if gvt > 0:
            t0 = -t0
            gvt = -gvt
        v_used = v / (-gvt)                 # now g(v_used, t0) = -1
        s = v_used - t0                     # unit spacelike, orthogonal to t0
        ell = t0 - s
        b = -data.inner(w, v_used) / 2.0
        a = -data.inner(w, ell) / 2.0
        u_res = w - a * v_used - b * ell
        # drop the v-component (contributes nothing by the symmetries)
        w_used = b * ell + u_res
        if np.linalg.norm(u_res) <= 1e-9 * np.linalg.norm(w):
            if abs(b) <= tols.tau_zero:
                raise NotApplicable("w is collinear with v")
            case = "null-null"
            w_used = ell
            core = "n0^2"
            printed_form = "-8/n"
        else:
            case = "null-spacelike"
            core = "(n0 + n1)^2"
            printed_form = "-4/n * g(w,w)"
        frame = orthonormal_frame_from(field_, p, first=t0, second=s)

    phi = NormalCoordBump(field_, p, frame, core, rho)

    wg_used = data.inner(w_used, w_used)

    def certify(n: int):
        riem_cf = conformal_riemann(field_, phi, p, scale=1.0 / n,
                                    base=data).components
        closed = np.einsum("ijkl,i,j,k,l->", riem_cf, w_used, v_used, v_used,
                           w_used)
        direct = curvature_data(rescale(field_, phi, 1.0 / n), p).riem_quad(
            w_used, v_used)
        if case == "timelike":
            return direct, closed, -np.exp(2.0 / n) / n
        if case == "null-null":
            return direct, closed, -8.0 / n
        return direct, closed, -4.0 * wg_used / n

    return _family("positivity-exit", case, field_, phi, p, n_max,
                   seminorm_grid, -1, printed_form, certify, {
                       "v_used": [float(a) for a in v_used],
                       "w_used": [float(a) for a in w_used],
                       "g_ww_used": wg_used,
                       "core": core,
                       "bump_radius": phi.rho,
                       "chart_affine": field_.constant_components,
                   })
