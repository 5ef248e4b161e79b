"""Region-level checkers for curvature and causality classes.

The classes of interest quantify over every causal direction at every point;
the honest numerical analogue implemented here samples a compact region,
scans the causal shell {v causal, |v|_h = 1} at each sampled point (dense
directions, then gradient descent on the shell from the best candidates),
and reports explicit margins. Verdicts are always "certified on samples",
never "proved".

Margins per condition, for an h-unit causal v:

  ricci   Ric(v, v)
  riem    min over h-unit w h-orthogonal to v of Riem(w, v, v, w)
          (collinear parts of w contribute nothing by the symmetries);
          timelike-only mode restricts v to the timelike shell and w to the
          g-orthogonal complement of v
  tidal   min eigenvalue of the screen-space operator of v, on the screen
          of `geometry.tidal_screen` (the one `geometry.tidal` uses)

The three eigenvalue margins are short wrappers of one kernel, `_eig_margin`:
project Riem(., v, v, .) (one product with the point's Riemann matrix,
`CurvatureData.riem_matrix`) onto the closed-form complement of the
constraint rows (`geometry.complement`, `geometry.tidal_screen`), take the
least eigenpair, and keep the gradient lazy. The kernel takes one shell
vector (n,) or a stack (B, n), written once with `...` broadcasting; each
margin has a stacked sibling (`_ricci_stack`, `_riem_stack`,
`_riem_gperp_stack`, `_tidal_stack`), and the named per-vector margins
(`_margin_ricci`, `_margin_riem`, `_margin_riem_gperp`, `_margin_tidal`)
are thin views of them on one vector. Every margin returns (margin, w,
grad), where grad() is the exact gradient of the margin in v, computed only
when the descent asks for it: 2 Ric v for ricci, and for the eigenvalue
margins the envelope theorem at the minimising w (Magnus, Econometric
Theory 1(2), 1985).

The shell scan of a point (`_scan_point`) makes a dense pass over shell
vectors from one generator, `_dense_shell` (which the inclusion audit
shares), one named margin call per direction. It then runs its `restarts`
descents in lockstep: each step is one stacked call on the (restarts, n)
stack of trial vectors, chained through the shell parametrisation with no
finite differences, and each improved witness is re-evaluated through the
named margin. So the margin evaluations of a point (at most n_dirs +
restarts * (refine_iters + 1)) differ from its named margin calls (the
dense pass and the re-evaluations, at most n_dirs + restarts); the audit
makes named calls only.

Verdicts: holds-strictly (min > tau), holds-weakly (|min| <= tau or min in
the weak band), violated (min < -tau), with a witness for violations.

Points are scanned serially. The `jobs` arguments are accepted so existing
callers keep working, but start no workers: a thread pool was GIL-bound and
slower than the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import NotApplicable, ParamError
from .fields import ScalarField, VectorField
from .geodesics import geodesic, parallel_transport
from .geometry import (DEFAULT_TOLS, CurvatureData, Tolerances, complement,
                       curvature_data, lorentz_frame, tidal_rows,
                       tidal_screen)
from .metric import MetricField
from .submanifold import Embedding
from .tensors import invert_metric


@dataclass(frozen=True)
class Region:
    """Where and how densely to sample a condition."""

    box: tuple[tuple[float, float], ...] | None = None
    points: tuple[tuple[float, ...], ...] | None = None
    n_points: int = 40
    n_dirs: int = 16
    seed: int = 0
    refine_iters: int = 20
    restarts: int = 5

    def __post_init__(self):
        if self.box is None and self.points is None:
            raise ParamError("region needs a box or an explicit point list")
        if self.box is not None:
            for lo, hi in self.box:
                if not lo < hi:
                    raise ParamError(f"empty box interval ({lo}, {hi})")
        if self.n_dirs < 8:
            raise ParamError("causal-shell density must be at least 8")
        n = self.n_points if self.points is None else len(self.points)
        if n < 1:
            raise ParamError(f"a region needs at least one point, got {n}")
        if self.refine_iters < 0 or self.restarts < 0:
            raise ParamError(f"refine_iters and restarts must be >= 0, got "
                             f"{self.refine_iters} and {self.restarts}")

    def sample_points(self) -> np.ndarray:
        if self.points is not None:
            return np.asarray(self.points, dtype=float)
        rng = np.random.default_rng(self.seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        return lo + (hi - lo) * rng.random((self.n_points, len(self.box)))


@dataclass
class ConditionReport:
    condition: str
    verdict: str                     # 'holds-strictly' | 'holds-weakly' | 'violated'
    margin: float
    samples: int
    witness: dict | None
    tolerances: dict
    extra: dict = dc_field(default_factory=dict)

    @property
    def satisfied_weakly(self) -> bool:
        return self.verdict in ("holds-strictly", "holds-weakly")

    @property
    def satisfied_strictly(self) -> bool:
        return self.verdict == "holds-strictly"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "margin": self.margin,
            "samples": self.samples,
            "witness": self.witness,
            "tolerances": self.tolerances,
            **self.extra,
        }


# --- causal shell machinery ------------------------------------------------------


def _col(x) -> np.ndarray:
    """A scalar or a stack (B,) as a column that broadcasts against rows."""
    return np.asarray(x)[..., None]


def _shell_vector(frame: np.ndarray, alpha, omega: np.ndarray,
                  sign) -> np.ndarray:
    """The h-unit shell vector sign (f_0 + alpha F omega) / |.|, F the
    spacelike frame columns; stacks of alpha, omega and sign (one row per
    vector) give a stack of vectors."""
    v = frame[:, 0] + _col(alpha) * (omega @ frame[:, 1:].T)
    v = _col(sign) * v
    return v / np.sqrt((v * v).sum(-1))[..., None]


def _dense_shell(frame: np.ndarray, rng, n_dirs: int, timelike_only: bool):
    """The dense pass over the shell: (alpha, omega, sign, v) for a
    deterministic pattern of n_dirs shell parameters."""
    for k in range(n_dirs):
        if timelike_only:
            alpha = 0.0 if k == 0 else float(rng.random()) * 0.95
        elif k == 0:
            alpha = 0.0
        elif k % 2 == 1:
            alpha = 1.0                      # null shell
        else:
            alpha = float(np.sqrt(rng.random()))
        omega = rng.normal(size=frame.shape[0] - 1)
        omega = omega / np.linalg.norm(omega)
        sign = 1.0 if (k % 4) < 2 else -1.0
        yield alpha, omega, sign, _shell_vector(frame, alpha, omega, sign)


def _shell_grad(frame: np.ndarray, alpha, omega: np.ndarray, sign,
                grad_v: np.ndarray):
    """Chain a gradient in v = _shell_vector(frame, alpha, omega, sign)
    through the parametrisation: (d/d alpha, d/d omega tangent to the
    sphere |omega| = 1), row by row for stacks."""
    f1 = frame[:, 1:]
    f1w = omega @ f1.T
    u = frame[:, 0] + _col(alpha) * f1w
    nu2 = (u * u).sum(-1)[..., None]
    # v = sign u / |u|: project out u, the direction normalisation removes
    grad_u = (_col(sign) / np.sqrt(nu2)) * (
        grad_v - u * ((u * grad_v).sum(-1)[..., None] / nu2))
    gw = _col(alpha) * (grad_u @ f1)
    return (f1w * grad_u).sum(-1), gw - omega * (omega * gw).sum(-1)[..., None]


def _mv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrices (..., m, n) times vectors (..., n)."""
    return (a @ x[..., None])[..., 0]


def _eig_margin(data: CurvatureData, v: np.ndarray, basis: np.ndarray,
                rows=None, gram: np.ndarray | None = None):
    """(lam, w, grad) for lam(v) = min w^T M(v) w over w in the span of the
    basis columns with w^T N w = 1, M(v)[i, l] = Riem(e_i, v, v, e_l).

    v is one shell vector (n,) with a basis (n, k), or a stack (B, n) with
    bases (B, n, k); lam, w and grad() then carry the leading axis. The
    basis is the complement of constraint rows c_k(v) . w = 0 and is
    orthonormal for N (N = gram, or the identity). grad() is the envelope
    theorem at the minimiser: d(w^T M(v) w)/dv - sum_k mu_k d(c_k(v) . w)/dv,
    where d(w^T M(v) w)/dv = 2 M(w) v by the pair symmetry. `rows(x)`
    stacks the rows c_k(x) (..., k, n), each linear in x with a symmetric
    matrix, so d(c_k(v) . w)/dv = c_k(w); the multipliers mu are the
    least-squares solution of rows^T mu = 2 (M w - lam N w), from its normal
    equations. Callers leave rows out when every multiplier vanishes
    identically.
    """
    rv = data.riem_bilinear(v)
    lam, vecs = np.linalg.eigh(basis.swapaxes(-1, -2) @ rv @ basis)
    lam0 = lam[..., 0]
    w = _mv(basis, vecs[..., 0])

    def grad():
        out = 2.0 * _mv(data.riem_bilinear(w), v)
        if rows is None:
            return out
        c = rows(v)
        nw = w if gram is None else w @ gram
        resid = 2.0 * (_mv(rv, w) - lam0[..., None] * nw)
        mu = np.linalg.solve(c @ c.swapaxes(-1, -2), _mv(c, resid)[..., None])
        return out - (mu.swapaxes(-1, -2) @ rows(w))[..., 0, :]
    return lam0, w, grad


def _ricci_stack(data: CurvatureData, v: np.ndarray):
    rv = v @ data.ric
    return (rv * v).sum(-1), None, lambda: 2.0 * rv


def _riem_stack(data: CurvatureData, v: np.ndarray):
    # the multiplier of v . w = 0 is proportional to Riem(v, v, v, w) = 0
    return _eig_margin(data, v, complement(v[..., None, :]))


def _riem_gperp_stack(data: CurvatureData, v: np.ndarray):
    def rows(x):
        return (x @ data.g)[..., None, :]
    return _eig_margin(data, v, complement(rows(v)), rows)


def _tidal_stack(data: CurvatureData, v: np.ndarray,
                 tols: Tolerances = DEFAULT_TOLS):
    """The O margin of every row; a stack of null and timelike vectors is
    split by kind, each part on its own screens."""
    null = ((v @ data.g) * v).sum(-1) >= -tols.tau_c
    first = bool(null.flat[0])
    if null.ndim == 0 or (null == first).all():
        return _tidal_kind(data, v, first)
    parts = [(mask, _tidal_kind(data, v[mask], kind))
             for mask, kind in ((~null, False), (null, True))]

    def merge(pick):
        out = np.empty((len(v),) + pick(parts[0][1]).shape[1:])
        for mask, part in parts:
            out[mask] = pick(part)
        return out
    return (merge(lambda p: p[0]), merge(lambda p: p[1]),
            lambda: merge(lambda p: p[2]()))


def _tidal_kind(data: CurvatureData, v: np.ndarray, null: bool):
    basis = tidal_screen(data.g, v, null)
    if not null:
        # the multiplier of g(v, w) = 0 is proportional to Riem(v, v, v, w) = 0
        return _eig_margin(data, v, basis)
    return _eig_margin(data, v, basis, lambda x: tidal_rows(data.g, x, True),
                       data.g)


# The named per-vector margins are views of the stacked kernels on one
# vector: the dense pass, the witness re-evaluation and the inclusion audit
# call them by these names, and only the lockstep descent calls the stacks.

def _one(result):
    lam, w, grad = result
    return float(lam), w, grad


def _margin_ricci(data: CurvatureData, v: np.ndarray):
    return _one(_ricci_stack(data, v))


def _margin_riem(data: CurvatureData, v: np.ndarray):
    return _one(_riem_stack(data, v))


def _margin_riem_gperp(data: CurvatureData, v: np.ndarray):
    return _one(_riem_gperp_stack(data, v))


def _margin_tidal(data: CurvatureData, v: np.ndarray,
                  tols: Tolerances = DEFAULT_TOLS):
    return _one(_tidal_stack(data, v, tols))


def _scan_point(data: CurvatureData, margin_fn, rng, n_dirs: int,
                refine_iters: int, restarts: int, timelike_only: bool,
                stack_fn):
    """Dense shell sampling plus gradient descent from the best candidates.

    The dense pass calls margin_fn once per direction. The `restarts`
    descents then run in lockstep: each step is one stack_fn call on the
    (restarts, n) stack of trial vectors, and each row keeps its own step
    length (halved when its trial does not improve it). Each improved
    witness is re-evaluated through margin_fn, in restart order against the
    running best. A point costs at most n_dirs + restarts * (refine_iters
    + 1) margin evaluations, of which n_dirs + restarts are margin_fn calls.
    """
    frame = lorentz_frame(data.g)
    cands = []
    for alpha, omega, sign, v in _dense_shell(frame, rng, n_dirs,
                                              timelike_only):
        val, w, grad = margin_fn(data, v)
        cands.append((val, alpha, omega, sign, v, w, grad))
    cands.sort(key=lambda c: c[0])
    best = cands[0][:6]
    top = cands[:restarts]
    if not top:
        return best

    amax = 0.95 if timelike_only else 1.0
    val, alpha, omega, sign = (np.array([c[k] for c in top])
                               for k in range(4))
    ga, gw = _shell_grad(frame, alpha, omega, sign,
                         np.array([c[6]() for c in top]))
    step = np.full(len(top), 0.15)
    for _ in range(refine_iters):
        alpha1 = np.clip(alpha - step * ga, 0.0, amax)
        omega1 = omega - step[:, None] * gw
        omega1 /= np.linalg.norm(omega1, axis=1, keepdims=True)
        val1, _, grad1 = stack_fn(data, _shell_vector(frame, alpha1, omega1,
                                                      sign))
        better = val1 < val
        step = np.where(better, step, 0.5 * step)
        if better.any():
            ga1, gw1 = _shell_grad(frame, alpha1, omega1, sign, grad1())
            val = np.where(better, val1, val)
            alpha = np.where(better, alpha1, alpha)
            ga = np.where(better, ga1, ga)
            omega = np.where(better[:, None], omega1, omega)
            gw = np.where(better[:, None], gw1, gw)
    for r in range(len(top)):
        if val[r] < best[0]:
            v = _shell_vector(frame, alpha[r], omega[r], sign[r])
            val_r, w, _grad = margin_fn(data, v)
            best = (val_r, alpha[r], omega[r], sign[r], v, w)
    return best


def _verdict(margin: float, tau: float) -> str:
    if margin > tau:
        return "holds-strictly"
    if margin >= -tau:
        return "holds-weakly"
    return "violated"


def _run_condition(field_: MetricField, region: Region, margin_fn, stack_fn,
                   name: str, tols: Tolerances, timelike_only: bool = False,
                   extra: dict | None = None) -> ConditionReport:
    pts = region.sample_points()
    seeds = np.random.SeedSequence(region.seed).spawn(len(pts))

    results = [_scan_point(curvature_data(field_, p), margin_fn,
                           np.random.default_rng(seed), region.n_dirs,
                           region.refine_iters, region.restarts, timelike_only,
                           stack_fn)
               for p, seed in zip(pts, seeds)]

    best_i = min(range(len(pts)), key=lambda i: results[i][0])
    val, _a, _o, _s, v, w = results[best_i]
    witness = None
    if val < tols.tau_cond:
        witness = {"point": [float(x) for x in pts[best_i]],
                   "v": [float(x) for x in v]}
        if w is not None:
            witness["w"] = [float(x) for x in w]
    return ConditionReport(
        condition=name, verdict=_verdict(val, tols.tau_cond),
        margin=float(val), samples=len(pts) * region.n_dirs,
        witness=witness, tolerances=tols.as_dict(),
        extra=extra or {})


def ricci_condition(field_: MetricField, region: Region, strict: bool = False,
                    tols: Tolerances = DEFAULT_TOLS, jobs: int = 1) -> ConditionReport:
    """Minimum of Ric(v, v) over the sampled causal shell (sets SE / E)."""
    return _run_condition(field_, region, _margin_ricci, _ricci_stack,
                          "ricci-causal" + ("-strict" if strict else ""),
                          tols)


def riem_condition(field_: MetricField, region: Region, strict: bool = False,
                   timelike_only: bool = False,
                   tols: Tolerances = DEFAULT_TOLS, jobs: int = 1) -> ConditionReport:
    """Minimum of Riem(w, v, v, w) over the shell (sets P / FP).

    timelike_only restricts v to the timelike shell with w g-orthogonal to v
    (the equivalent characterization of the weak class).
    """
    fn, stack_fn = (_margin_riem_gperp, _riem_gperp_stack) if timelike_only \
        else (_margin_riem, _riem_stack)
    name = "riemann-causal" + ("-timelike-only" if timelike_only else "") \
        + ("-strict" if strict else "")
    return _run_condition(field_, region, fn, stack_fn, name, tols,
                          timelike_only=timelike_only,
                          extra={"timelike_only": timelike_only})


def tidal_condition(field_: MetricField, region: Region,
                    tols: Tolerances = DEFAULT_TOLS, jobs: int = 1) -> ConditionReport:
    """Minimum tidal-operator eigenvalue over the sampled shell (set O)."""
    def fn(data, v):
        return _margin_tidal(data, v, tols)

    def stack_fn(data, v):
        return _tidal_stack(data, v, tols)
    return _run_condition(field_, region, fn, stack_fn, "tidal-psd", tols)


# --- inclusion audit --------------------------------------------------------------


def inclusion_audit(field_: MetricField, region: Region,
                    tols: Tolerances = DEFAULT_TOLS, jobs: int = 1) -> dict:
    """Check the theorem-backed implication lattice on shared samples.

    For every sampled (point, v) the margins of all conditions are computed
    on the identical vector and the implications

        P > 0   =>  SE > 0          P > 0    =>  O > -tau
        O >= 0  =>  FP >= -10 tau   FP >= 0  =>  E >= -10 tau

    are asserted with their premises gated so that each line is a pointwise
    theorem for the sampled vector: the O => FP line applies to timelike v
    only, because for null v the screen quotient omits directions with an
    ell-component, where Riem(w, v, v, w) can dip negative even though every
    screen value vanishes. Any reported violation indicates a toolkit bug
    (the inclusions are theorems).
    """
    pts = region.sample_points()
    seeds = np.random.SeedSequence(region.seed).spawn(len(pts))
    tau = tols.tau_cond
    violations = []
    total = 0

    for i, p in enumerate(pts):
        data = curvature_data(field_, p)
        rng = np.random.default_rng(seeds[i])
        for _a, _o, _s, v in _dense_shell(lorentz_frame(data.g), rng,
                                          region.n_dirs, False):
            timelike = data.inner(v, v) < -tols.tau_c
            p_m = _margin_riem(data, v)[0]
            se_m = _margin_ricci(data, v)[0]
            o_m = _margin_tidal(data, v, tols)[0]
            total += 1
            fp_m, e_m = p_m, se_m
            checks = [
                ("P=>SE", p_m > tau, se_m > 0.0),
                ("P=>O", p_m > tau, o_m > -tau),
                ("O=>FP", timelike and o_m >= 0.0, fp_m >= -10 * tau),
                ("FP=>E", fp_m >= 0.0, e_m >= -10 * tau),
            ]
            for label, premise, conclusion in checks:
                if premise and not conclusion:
                    violations.append({
                        "implication": label,
                        "point": [float(x) for x in pts[i]],
                        "v": [float(x) for x in v],
                        "margins": {"P": p_m, "SE": se_m, "O": o_m},
                    })
    return {
        "condition": "inclusion-audit",
        "verdict": "consistent" if not violations else "violations",
        "samples": total,
        "violations": violations,
        "tolerances": tols.as_dict(),
    }


# --- trace condition along normal geodesics ------------------------------------------


def gs_trace(field_: MetricField, emb: Embedding, u0, direction,
             length: float, tols: Tolerances = DEFAULT_TOLS,
             n_samples: int = 200) -> dict:
    """Trace g^{ab} Riem(gamma', E_a, E_b, gamma') along a normal geodesic.

    gamma starts on the submanifold with the given future causal normal
    velocity; E_a are the parallel-transported coordinate tangents, whose
    Gram matrix g_ab stays constant along the curve. Returns the sampled
    minimum and the first parameter where the trace dips below -tau_cond.
    """
    u0 = np.asarray(u0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    x0, jac, _ = emb.first_second(u0)
    g0 = field_.value(x0)
    tangency = np.max(np.abs(jac.T @ g0 @ direction))
    scale = np.linalg.norm(direction) * np.max(np.abs(jac))
    if tangency > 1e-6 * max(scale, 1.0):
        raise NotApplicable(
            f"direction is not g-normal to the submanifold (defect {tangency:.3e})")
    q = float(direction @ g0 @ direction)
    if q > tols.tau_c * float(direction @ direction):
        raise NotApplicable("direction must be causal (timelike or null)")

    sol = geodesic(field_, x0, direction, length, tols)
    transport = parallel_transport(field_, sol, jac, tols)
    gram = jac.T @ g0 @ jac
    gram_inv = np.linalg.inv(0.5 * (gram + gram.T))

    traces = []
    first_negative = None
    for s, x, xdot in sol.samples(n_samples):
        frame = transport.evaluate(s)
        data = curvature_data(field_, x)
        tr = float(np.einsum("ab,ijkl,i,ja,kb,l->", gram_inv, data.riem,
                             xdot, frame, frame, xdot))
        traces.append((s, tr))
        if first_negative is None and tr < -tols.tau_cond:
            first_negative = {"s": s, "trace": tr,
                              "point": [float(c) for c in x]}
    values = np.array([t for _, t in traces])
    i_min = int(np.argmin(values))
    return {
        "condition": "trace-along-normal-geodesic",
        "min_trace": float(values[i_min]),
        "max_abs_trace": float(np.abs(values).max()),
        "argmin_s": float(traces[i_min][0]),
        "first_negative": first_negative,
        "samples": len(traces),
        "chart_exit": sol.chart_exit,
        "length_reached": sol.t_reached,
        "gram_constant_drift": transport.product_drift,
        "tolerances": tols.as_dict(),
    }


# --- causality certificates ------------------------------------------------------------


def temporal_certificate(field_: MetricField, subject: VectorField | ScalarField,
                         mode: str, region: Region,
                         tols: Tolerances = DEFAULT_TOLS) -> dict:
    """Sufficient causal-structure certificates on sampled points.

    mode='orientation': the given vector field is timelike everywhere sampled
    (so it time-orients the metric); failure is definite for this field.
    mode='temporal': the given scalar has timelike gradient everywhere
    sampled, certifying stable causality; failure is only INCONCLUSIVE
    (the criterion is sufficient, not necessary).
    """
    pts = region.sample_points()
    worst = None
    for p in pts:
        g = field_.value(p)
        if mode == "orientation":
            x = subject.value(field_.canonicalize(p))
            nrm = float(x @ x)
            q = 0.0 if nrm < tols.tau_zero else float(x @ g @ x) / nrm
        elif mode == "temporal":
            g_inv, _ = invert_metric(g)
            dt = subject.jet2(field_.canonicalize(p), 1).grad
            nrm = float(dt @ dt)
            if nrm < tols.tau_zero:
                q = 0.0
            else:
                q = float(dt @ g_inv @ dt) / nrm
        else:
            raise ParamError(f"unknown certificate mode {mode!r}")
        if worst is None or q > worst[0]:
            worst = (q, p)
    passed = worst[0] < -tols.tau_c
    if passed:
        verdict = "PASSED"
    else:
        verdict = "FAILED" if mode == "orientation" else "INCONCLUSIVE"
    return {
        "condition": f"certificate-{mode}",
        "verdict": verdict,
        "worst_normalized_square": float(worst[0]),
        "witness": None if passed else {"point": [float(x) for x in worst[1]]},
        "samples": len(pts),
        "note": ("sufficient criterion only; failure does not decide "
                 "the property") if mode == "temporal" else "",
        "tolerances": tols.as_dict(),
    }
