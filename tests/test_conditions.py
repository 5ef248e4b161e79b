"""Region checkers, the inclusion audit, the trace condition, certificates."""

import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import lorentzkit.conditions as conditions
from lorentzkit.conditions import (Region, gs_trace, inclusion_audit,
                                   ricci_condition, riem_condition,
                                   temporal_certificate, tidal_condition)
from lorentzkit.errors import (DomainError, NotApplicable, NotCausal,
                               ParamError, SingularMetric)
from lorentzkit.expr import SymbolTable
from lorentzkit.fields import ExprScalarField, VectorField
import lorentzkit.geodesics as geodesics
from lorentzkit.geodesics import geodesic
from lorentzkit.geometry import (DEFAULT_TOLS, TangentVector, curvature_data,
                                 lorentz_frame, tidal)
from lorentzkit.metric import ExprMetricField
from lorentzkit.specfile import load_spec
from lorentzkit.submanifold import null_frame_and_expansions
from lorentzkit.tensors import invert_metric

from conftest import CATALOG_NAMES, region_points

SPEC = str(Path(__file__).resolve().parents[1] / "perfbench" / "spacetimes"
           / "contracting_desitter.st")


def small_region(bundle, seed=0, n_points=10, n_dirs=12):
    return Region(box=bundle.default_box, n_points=n_points, n_dirs=n_dirs,
                  seed=seed)


class TestRegion:
    def test_needs_box_or_points(self):
        with pytest.raises(ParamError):
            Region()

    def test_empty_interval_rejected(self):
        with pytest.raises(ParamError):
            Region(box=((1.0, 1.0),))

    def test_density_floor(self):
        with pytest.raises(ParamError):
            Region(box=((0.0, 1.0),), n_dirs=4)

    @pytest.mark.parametrize("sizes", [
        dict(restarts=-1), dict(refine_iters=-1), dict(n_points=0),
        dict(n_points=-3)])
    def test_nonsensical_sizes_rejected(self, sizes):
        """A negative restart count used to slice the candidates from the
        end, and an empty box sample ended in min() of an empty list."""
        with pytest.raises(ParamError):
            Region(box=((0.0, 1.0),), **sizes)

    def test_empty_point_list_rejected(self):
        with pytest.raises(ParamError):
            Region(points=())

    def test_zero_descent_sizes_scan_the_dense_pass_only(self, bundles):
        b = bundles["flrw_dust"]
        dense = ricci_condition(b.field, Region(
            box=b.default_box, n_points=2, seed=3, restarts=0))
        no_steps = ricci_condition(b.field, Region(
            box=b.default_box, n_points=2, seed=3, refine_iters=0))
        assert dense.to_dict() == no_steps.to_dict()

    def test_point_list(self):
        r = Region(points=((0.0, 0.0, 0.0, 0.0), (1.0, 0, 0, 0)))
        assert r.sample_points().shape == (2, 4)


MARGINS = {"ricci": conditions._margin_ricci, "riem": conditions._margin_riem,
           "riem_gperp": conditions._margin_riem_gperp,
           "tidal": conditions._margin_tidal}


def fd_directional(margin, data, v, d, h=1e-6):
    """Central difference of a margin along d: the oracle for its gradient."""
    return (margin(data, v + h * d)[0] - margin(data, v - h * d)[0]) / (2 * h)


def fd_shell(margin, data, frame, alpha, omega, sign, h=1e-6):
    """Central differences of a margin in the shell parameters: d/d alpha
    (None on the null shell, alpha = 1) and d/d omega through the
    normalisation of omega, i.e. the gradient tangent to the sphere."""
    def f(a, o):
        o = o / np.linalg.norm(o)
        return margin(data, conditions._shell_vector(frame, a, o, sign))[0]
    ga = None if alpha == 1.0 else \
        (f(alpha + h, omega) - f(alpha - h, omega)) / (2 * h)
    gw = np.array([(f(alpha, omega + h * e) - f(alpha, omega - h * e)) / (2 * h)
                   for e in np.eye(len(omega))])
    return ga, gw


def _shell_cases():
    for name in ("schwarzschild_ef", "flrw_dust", "desitter"):
        for margin in sorted(MARGINS):
            for alpha in (0.6, 1.0):
                if margin == "riem_gperp" and alpha == 1.0:
                    continue              # the timelike-only margin
                yield name, margin, alpha


class TestExactGradients:
    @pytest.mark.parametrize("name,margin,alpha", list(_shell_cases()))
    def test_gradient_matches_central_difference(self, bundles, name, margin,
                                                 alpha):
        """The gradient each margin returns, against central differences
        along random directions, at timelike (alpha < 1) and null shell
        points."""
        fn = MARGINS[margin]
        b = bundles[name]
        rng = np.random.default_rng(11)
        for p in region_points(b, 3, seed=4):
            data = curvature_data(b.field, p)
            omega = rng.normal(size=data.dim - 1)
            omega /= np.linalg.norm(omega)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            v = conditions._shell_vector(lorentz_frame(data.g), alpha, omega,
                                         sign)
            grad = fn(data, v)[2]()
            for d in rng.normal(size=(3, data.dim)):
                if margin == "tidal" and alpha == 1.0:
                    # stay on the null branch: g(v, v +- h d) = h^2 g(d, d) >= 0
                    gv = data.g @ v
                    d = d - (gv @ d) / (gv @ gv) * gv
                assert grad @ d == pytest.approx(
                    fd_directional(fn, data, v, d), rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("margin", sorted(MARGINS))
    def test_shell_chain_rule(self, bundles, margin):
        """_shell_grad chains a margin's gradient through the shell
        parametrisation (on schwarzschild_ef, where it is not zero)."""
        fn = MARGINS[margin]
        b = bundles["schwarzschild_ef"]
        rng = np.random.default_rng(5)
        for p in region_points(b, 2, seed=6):
            data = curvature_data(b.field, p)
            frame = lorentz_frame(data.g)
            for alpha in (0.4, 1.0):
                if margin == "riem_gperp" and alpha == 1.0:
                    continue
                omega = rng.normal(size=data.dim - 1)
                omega /= np.linalg.norm(omega)
                v = conditions._shell_vector(frame, alpha, omega, -1.0)
                ga, gw = conditions._shell_grad(frame, alpha, omega, -1.0,
                                                fn(data, v)[2]())
                fa, fw = fd_shell(fn, data, frame, alpha, omega, -1.0)
                if fa is not None:
                    assert ga == pytest.approx(fa, rel=1e-5, abs=1e-8)
                assert gw == pytest.approx(fw, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("check,margin", [
        (ricci_condition, "_margin_ricci"), (riem_condition, "_margin_riem"),
        (tidal_condition, "_margin_tidal")])
    def test_margin_evaluations_per_point(self, bundles, monkeypatch, check,
                                          margin):
        """Dense pass, one evaluation per descent step, one re-evaluation
        of each improved witness, and nothing else."""
        calls = [0]
        original = getattr(conditions, margin)

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(conditions, margin, counting)
        b = bundles["schwarzschild_ef"]
        region = small_region(b, n_points=3)
        check(b.field, region)
        per_point = region.n_dirs + region.restarts * (region.refine_iters + 1)
        assert 0 < calls[0] <= region.n_points * per_point


STACKS = {"ricci": conditions._ricci_stack, "riem": conditions._riem_stack,
          "riem_gperp": conditions._riem_gperp_stack,
          "tidal": conditions._tidal_stack}


def shell_stack(data, alphas, seed):
    """Shell vectors (len(alphas), n) at the given alphas, random omega and
    alternating signs."""
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=(len(alphas), data.dim - 1))
    omega /= np.linalg.norm(omega, axis=1, keepdims=True)
    sign = np.where(np.arange(len(alphas)) % 2 == 0, 1.0, -1.0)
    return conditions._shell_vector(lorentz_frame(data.g), np.array(alphas),
                                    omega, sign)


def _stack_cases():
    for margin in sorted(STACKS):
        for kind, alphas in (("timelike", [0.0, 0.3, 0.6, 0.9, 0.5]),
                             ("null", [1.0] * 4),
                             ("mixed", [1.0, 0.4, 1.0, 0.8, 0.0, 1.0])):
            if margin == "riem_gperp" and kind != "timelike":
                continue                  # the timelike-only margin
            yield margin, kind, alphas


class TestStackedKernel:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("margin,kind,alphas", list(_stack_cases()))
    def test_rows_match_the_named_margins(self, bundles, name, margin, kind,
                                          alphas):
        """Each row of a stacked call gives the margin, the minimiser and
        the gradient of the named per-vector margin on that row's vector,
        for timelike, null and mixed stacks."""
        b = bundles[name]
        for k, p in enumerate(region_points(b, 2, seed=31)):
            data = curvature_data(b.field, p)
            vs = shell_stack(data, alphas, seed=k)
            lam, w, grad = STACKS[margin](data, vs)
            grads = grad()
            assert lam.shape == (len(vs),) and grads.shape == vs.shape
            scale = max(np.abs(data.riem).max(), np.abs(data.ric).max(), 1.0)
            tol = dict(rtol=1e-12, atol=1e-12 * scale)
            for r, v in enumerate(vs):
                lam_r, w_r, grad_r = MARGINS[margin](data, v)
                assert isinstance(lam_r, float)
                assert np.allclose(lam[r], lam_r, **tol)
                assert np.allclose(grads[r], grad_r(), **tol)
                if w_r is None:
                    assert w is None
                    continue
                # the same minimiser up to sign, or, where the least
                # eigenvalue is repeated (isotropic or flat spacetimes),
                # another one: in the same constraint set, with the same
                # normalisation, attaining the same margin
                if np.allclose(np.abs(w[r] @ w_r), w_r @ w_r, rtol=1e-12):
                    continue
                gv = data.g @ v
                rows = [v] if margin == "riem" else [gv]
                if margin == "tidal" and data.inner(v, v) >= -1e-9:
                    rows.append(v)
                assert np.abs(np.array(rows) @ w[r]).max() < 1e-12
                for x in (w[r], w_r):
                    norm = data.inner(x, x) if margin == "tidal" else x @ x
                    assert norm == pytest.approx(1.0, rel=1e-12)
                    assert np.allclose(data.riem_quad(x, v), lam_r, **tol)

    def test_a_stack_with_a_non_causal_screen_raises(self, bundles):
        """A spacelike row fails the screen check of the whole stack, as it
        fails the named margin: v = f_1 + f_2 of the Lorentz frame (g's
        eigenvectors) has f_0 on its screen, h- and g-orthogonal to v."""
        b = bundles["schwarzschild_ef"]
        data = curvature_data(b.field, region_points(b, 1, seed=3)[0])
        frame = lorentz_frame(data.g)
        spacelike = frame[:, 1] + frame[:, 2]
        spacelike /= np.linalg.norm(spacelike)
        with pytest.raises(NotCausal):
            conditions._margin_tidal(data, spacelike)
        for rows in ([spacelike, spacelike],
                     [shell_stack(data, [1.0], 0)[0], spacelike],
                     [shell_stack(data, [0.5], 0)[0], spacelike]):
            with pytest.raises(NotCausal):
                conditions._tidal_stack(data, np.array(rows))


def sequential_scan(data, margin_fn, rng, n_dirs, refine_iters, restarts,
                    timelike_only):
    """The shell search with one descent after the other, each step one
    per-vector margin call: the reference for the lockstep descent."""
    frame = lorentz_frame(data.g)
    cands = []
    for alpha, omega, sign, v in conditions._dense_shell(frame, rng, n_dirs,
                                                         timelike_only):
        val, w, grad = margin_fn(data, v)
        cands.append((val, alpha, omega, sign, v, w, grad))
    cands.sort(key=lambda c: c[0])
    best = cands[0][:6]
    amax = 0.95 if timelike_only else 1.0
    for val, alpha, omega, sign, _v, _w, grad in cands[:restarts]:
        step = 0.15
        ga, gw = conditions._shell_grad(frame, alpha, omega, sign, grad())
        for _ in range(refine_iters):
            alpha1 = min(max(alpha - step * ga, 0.0), amax)
            omega1 = omega - step * gw
            omega1 = omega1 / np.linalg.norm(omega1)
            val1, _, grad1 = margin_fn(
                data, conditions._shell_vector(frame, alpha1, omega1, sign))
            if val1 < val:
                val, alpha, omega = val1, alpha1, omega1
                ga, gw = conditions._shell_grad(frame, alpha, omega, sign,
                                                grad1())
            else:
                step *= 0.5
        if val < best[0]:
            v = conditions._shell_vector(frame, alpha, omega, sign)
            val, w, _grad = margin_fn(data, v)
            best = (val, alpha, omega, sign, v, w)
    return best


class TestLockstepDescent:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("margin,timelike_only", [
        ("ricci", False), ("riem", False), ("riem_gperp", True),
        ("tidal", False)])
    def test_verdicts_match_the_sequential_descent(self, bundles, name,
                                                   margin, timelike_only):
        """Lockstep and one-after-the-other descents reach the same verdict
        on every builtin at several seeds, from the same dense pass."""
        b = bundles[name]
        tau = conditions.DEFAULT_TOLS.tau_cond
        for seed in (0, 7, 401):
            region = Region(box=b.default_box, n_points=3, n_dirs=12,
                            seed=seed, refine_iters=8, restarts=3)
            pts = region.sample_points()
            seeds = np.random.SeedSequence(seed).spawn(len(pts))
            got, want = [], []
            for p, s in zip(pts, seeds):
                data = curvature_data(b.field, p)
                args = (region.n_dirs, region.refine_iters, region.restarts,
                        timelike_only)
                got.append(conditions._scan_point(
                    data, MARGINS[margin], np.random.default_rng(s), *args,
                    STACKS[margin])[0])
                want.append(sequential_scan(
                    data, MARGINS[margin], np.random.default_rng(s),
                    *args)[0])
            assert conditions._verdict(min(got), tau) == \
                conditions._verdict(min(want), tau)


def oracle_margin(data, v, rows, metric):
    """Least eigenvalue of w -> Riem(w, v, v, .) on the complement of the
    rows, with w normalised by g (metric) or by h: scipy's null_space for
    the complement and the generalised eigh for the constrained minimum.
    Returns it with max |Riem(., v, v, .)|, the scale of the tolerance."""
    basis = scipy.linalg.null_space(np.atleast_2d(rows))
    m = np.einsum("ijkl,j,k->il", data.riem, v, v)
    a = basis.T @ m @ basis
    b = basis.T @ (data.g if metric else np.eye(data.dim)) @ basis
    return scipy.linalg.eigh(0.5 * (a + a.T), 0.5 * (b + b.T),
                             eigvals_only=True)[0], np.abs(m).max()


class TestMarginOracle:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_margins_match_oracle(self, bundles, name, alpha):
        """Margin values of the three eigenvalue margins on timelike
        (alpha < 1) and null shell vectors against the oracle."""
        b = bundles[name]
        rng = np.random.default_rng(21)
        for p in region_points(b, 2, seed=22):
            data = curvature_data(b.field, p)
            frame = lorentz_frame(data.g)
            for sign in (1.0, -1.0):
                omega = rng.normal(size=data.dim - 1)
                v = conditions._shell_vector(frame, alpha,
                                             omega / np.linalg.norm(omega),
                                             sign)
                gv = data.g @ v
                null = alpha == 1.0
                cases = [
                    (conditions._margin_riem, v, False),
                    (conditions._margin_riem_gperp, gv, False),
                    (conditions._margin_tidal,
                     np.vstack([gv, v]) if null else gv, True),
                ]
                for margin, rows, metric in cases:
                    lam, w, _ = margin(data, v)
                    expected, scale = oracle_margin(data, v, rows, metric)
                    tol = dict(rel=1e-10, abs=1e-13 * max(scale, 1.0))
                    assert lam == pytest.approx(expected, **tol)
                    # w is a constrained minimiser: in the complement of the
                    # rows, normalised, and attaining the margin
                    assert np.abs(np.atleast_2d(rows) @ w).max() < 1e-12
                    norm = data.inner(w, w) if metric else float(w @ w)
                    assert norm == pytest.approx(1.0, rel=1e-12)
                    assert data.riem_quad(w, v) == pytest.approx(lam, **tol)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_tidal_margin_matches_tidal_operator(self, bundles, name):
        """The O margin of an h-unit v is the least eigenvalue of
        geometry.tidal, rescaled by -g(v, v) for timelike v (tidal
        normalises timelike v to g-unit length)."""
        b = bundles[name]
        rng = np.random.default_rng(23)
        for p in region_points(b, 2, seed=24):
            data = curvature_data(b.field, p)
            frame = lorentz_frame(data.g)
            for alpha in (0.3, 0.8, 1.0):
                omega = rng.normal(size=data.dim - 1)
                v = conditions._shell_vector(frame, alpha,
                                             omega / np.linalg.norm(omega),
                                             1.0)
                op = tidal(b.field, TangentVector(p, v))
                lam = conditions._margin_tidal(data, v)[0]
                scale = max(np.abs(data.riem).max(), 1.0)
                if alpha == 1.0:
                    assert op.kind == "null"
                    expected = op.min_eigenvalue
                else:
                    assert op.kind == "timelike"
                    expected = -data.inner(v, v) * op.min_eigenvalue
                assert lam == pytest.approx(expected, rel=1e-10,
                                            abs=1e-13 * scale)


class TestRicciCondition:
    def test_minkowski_weak(self, bundles):
        b = bundles["minkowski"]
        rep = ricci_condition(b.field, small_region(b))
        assert rep.verdict == "holds-weakly"
        assert abs(rep.margin) < 1e-12

    def test_dust_strict(self, bundles):
        b = bundles["flrw_dust"]
        rep = ricci_condition(b.field, small_region(b))
        assert rep.verdict == "holds-strictly"
        assert rep.margin > 0.1

    def test_desitter_violated_with_witness(self, bundles):
        b = bundles["desitter"]
        rep = ricci_condition(b.field, small_region(b))
        assert rep.verdict == "violated"
        assert rep.witness is not None
        # the witness vector really does violate the condition
        from lorentzkit.geometry import curvature_data
        p = np.array(rep.witness["point"])
        v = np.array(rep.witness["v"])
        ric = curvature_data(b.field, p).ric
        assert float(v @ ric @ v) == pytest.approx(rep.margin, rel=1e-9)


class TestRiemCondition:
    def test_minkowski_weak(self, bundles):
        b = bundles["minkowski"]
        rep = riem_condition(b.field, small_region(b))
        assert rep.verdict == "holds-weakly"

    def test_desitter_violated(self, bundles):
        b = bundles["desitter"]
        rep = riem_condition(b.field, small_region(b))
        assert rep.verdict == "violated"
        # violation at least H^2 strong (margins are h-normalized, so chart
        # scale factors inflate the magnitude beyond the g-unit value -H^2)
        assert rep.margin < -0.9

    def test_schwarzschild_violated(self, bundles):
        b = bundles["schwarzschild_ef"]
        rep = riem_condition(b.field, small_region(b))
        assert rep.verdict == "violated"

    @pytest.mark.parametrize("name", ["minkowski", "torus_quotient",
                                      "schwarzschild_ef", "flrw_dust",
                                      "desitter"])
    def test_timelike_only_verdicts_agree(self, bundles, name):
        """The equivalent characterization returns the same verdict."""
        b = bundles[name]
        full = riem_condition(b.field, small_region(b))
        tl = riem_condition(b.field, small_region(b), timelike_only=True)
        assert full.verdict == tl.verdict

    def test_determinism(self, bundles):
        b = bundles["schwarzschild_ef"]
        a = riem_condition(b.field, small_region(b, seed=5))
        c = riem_condition(b.field, small_region(b, seed=5))
        assert a.to_dict() == c.to_dict()

    def test_jobs_do_not_change_output(self, bundles):
        b = bundles["flrw_dust"]
        a = riem_condition(b.field, small_region(b), jobs=1)
        c = riem_condition(b.field, small_region(b), jobs=4)
        assert a.to_dict() == c.to_dict()

    def test_margin_stability_under_density_doubling(self, bundles):
        """Shell-normalized margins are reparametrization stable."""
        b = bundles["desitter"]
        r1 = riem_condition(b.field, small_region(b, n_dirs=16))
        r2 = riem_condition(b.field, small_region(b, n_dirs=32))
        assert r1.verdict == r2.verdict
        assert abs(r1.margin - r2.margin) <= 0.1 * abs(r1.margin)


class TestTidalCondition:
    def test_minkowski_weak(self, bundles):
        b = bundles["minkowski"]
        rep = tidal_condition(b.field, small_region(b))
        assert rep.verdict == "holds-weakly"

    def test_schwarzschild_violated(self, bundles):
        b = bundles["schwarzschild_static"]
        rep = tidal_condition(b.field, small_region(b))
        assert rep.verdict == "violated"

    def test_desitter_violated(self, bundles):
        b = bundles["desitter"]
        rep = tidal_condition(b.field, small_region(b))
        assert rep.verdict == "violated"
        assert rep.margin == pytest.approx(-1.0, rel=0.05)

    def test_dust_not_violated(self, bundles):
        b = bundles["flrw_dust"]
        rep = tidal_condition(b.field, small_region(b))
        assert rep.verdict in ("holds-strictly", "holds-weakly")


class TestInclusionAudit:
    @pytest.mark.parametrize("name", ["minkowski", "torus_quotient",
                                      "schwarzschild_ef",
                                      "schwarzschild_static", "flrw_dust",
                                      "desitter", "null_H_demo"])
    def test_no_violations_on_catalog(self, bundles, name):
        b = bundles[name]
        rep = inclusion_audit(b.field, small_region(b, n_dirs=16))
        assert rep["verdict"] == "consistent"
        assert rep["violations"] == []

    def test_deterministic(self, bundles):
        b = bundles["desitter"]
        a = inclusion_audit(b.field, small_region(b))
        c = inclusion_audit(b.field, small_region(b))
        assert a == c


class TestGsTrace:
    def test_minkowski_identically_zero(self, bundles):
        b = bundles["minkowski"]
        u0 = [math.pi / 2, 0.5]
        radial = np.array([0.0, math.cos(0.5), math.sin(0.5), 0.0])
        rep = gs_trace(b.field, b.submanifolds["sphere"], u0,
                       np.array([1.0, 0, 0, 0]) + radial, 1.0)
        assert abs(rep["min_trace"]) < 1e-9

    def test_dust_radial_null_nonnegative(self, bundles):
        b = bundles["flrw_dust"]
        s_ref = b.params["s_ref"]
        u0 = [math.pi / 2, 0.5]
        a_s = s_ref ** (2.0 / 3.0)
        vdir = np.array([1.0, math.cos(0.5) / a_s, math.sin(0.5) / a_s, 0.0])
        rep = gs_trace(b.field, b.submanifolds["sphere"], u0, vdir, 1.0)
        assert rep["min_trace"] >= -1e-9
        assert rep["gram_constant_drift"] < 1e-7

    def test_desitter_negative_witness(self, bundles):
        b = bundles["desitter"]
        rep = gs_trace(b.field, b.submanifolds["sphere"], [math.pi / 2, 0.5],
                       np.array([1.0, 0, 0, 0]), 1.0)
        assert rep["first_negative"] is not None
        # constant curvature: trace = -m H^2 for a unit timelike normal
        assert rep["min_trace"] == pytest.approx(-2.0, rel=1e-6)

    def test_rejects_tangent_direction(self, bundles):
        b = bundles["minkowski"]
        with pytest.raises(NotApplicable):
            gs_trace(b.field, b.submanifolds["sphere"], [math.pi / 2, 0.0],
                     np.array([0.0, 0.0, 0.0, 1.0]), 1.0)

    def test_rejects_spacelike_normal(self, bundles):
        b = bundles["minkowski"]
        radial = np.array([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(NotApplicable):
            gs_trace(b.field, b.submanifolds["sphere"], [math.pi / 2, 0.0],
                     radial, 1.0)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_length_not_finite_and_positive(self, bundles, length):
        b = bundles["desitter"]
        with pytest.raises(ValueError, match="finite length > 0"):
            gs_trace(b.field, b.submanifolds["sphere"], [math.pi / 2, 0.5],
                     np.array([1.0, 0, 0, 0]), length)


def _gs_one_at_a_time(field, emb, u0, direction, length, n_samples=200):
    """gs_trace's samples as they ran one at a time: scalar reads of the
    curve and the transported frame, one curvature_data call and one
    six-operand einsum per sample. (s, trace, point) triples."""
    x0, jac, _ = emb.first_second(np.asarray(u0, dtype=float))
    g0 = field.value(x0)
    sol = geodesic(field, x0, direction, length, transport=jac)
    transport = sol.transport
    gram = jac.T @ g0 @ jac
    gram_inv = np.linalg.inv(0.5 * (gram + gram.T))
    out = []
    for s in np.linspace(0.0, sol.t_reached, n_samples):
        x, xdot = sol.evaluate(float(s))
        frame = transport.evaluate(float(s))
        tr = float(np.einsum("ab,ijkl,i,ja,kb,l->", gram_inv,
                             curvature_data(field, x).riem, xdot, frame,
                             frame, xdot))
        out.append((float(s), tr, x))
    return out


def _gs_cases():
    from lorentzkit import catalog
    u0 = [math.pi / 2, 0.5]
    ds = catalog.load("desitter")
    dust = catalog.load("flrw_dust")
    a_s = dust.params["s_ref"] ** (2.0 / 3.0)
    spec = load_spec(SPEC)
    ef = catalog.load("schwarzschild_ef")
    horizon = ef.submanifolds["horizon_sphere"]
    frame, _, _ = null_frame_and_expansions(
        ef.field, ef.orientation, horizon, [1.2, 0.4],
        ef.hints["horizon_sphere"])
    return {
        "desitter": (ds.field, ds.submanifolds["sphere"], u0,
                     np.array([1.0, 0.0, 0.0, 0.0]), 1.0),
        "flrw_dust": (dust.field, dust.submanifolds["sphere"], u0,
                      np.array([1.0, math.cos(0.5) / a_s,
                                math.sin(0.5) / a_s, 0.0]), 1.0),
        "spec-horizon": (spec.field, spec.submanifolds["horizon"],
                         [1.4, 0.3], np.array([1.0, 0.0, 0.0, 0.0]), 0.5),
        # the ingoing null normal of the Schwarzschild horizon
        "ef-horizon-null": (ef.field, horizon, [1.2, 0.4], frame.k_minus,
                            1.0),
    }


@pytest.mark.parametrize("case", ["desitter", "flrw_dust", "spec-horizon",
                                  "ef-horizon-null"])
def test_gs_trace_matches_the_samples_one_at_a_time(case):
    """The batched pass reads the same samples: equal sample count, argmin
    and first negative parameter, and every number within 1e-12 of the
    loop relative to the trace's scale (or absolute below 1).

    Where the trace is flat, rounding alone orders the samples near the
    minimum, differently in the batched contraction and in the loop's: on
    `desitter` (-2 in closed form), on the contracting de Sitter horizon
    (-1/2) and along the Schwarzschild horizon's null normal (0, since the
    trace is Ric(k, k) there). So `argmin_s` is the first sample within
    tau_cond of the minimum, the same sample under both orders, and `flat`
    says whether every sample is.
    """
    args = _gs_cases()[case]
    rep = gs_trace(*args)
    ref = _gs_one_at_a_time(*args)
    values = np.array([t for _, t, _ in ref])
    tol = 1e-12 * max(1.0, np.abs(values).max())
    i_min = int(np.argmin(values))
    near = [s for s, t, _ in ref
            if t - values[i_min] <= DEFAULT_TOLS.tau_cond]
    assert rep["samples"] == len(ref)
    assert rep["argmin_s"] == near[0]
    assert rep["flat"] == (len(near) == len(ref))
    assert rep["flat"] == (case in ("spec-horizon", "ef-horizon-null"))
    assert abs(rep["min_trace"] - values[i_min]) <= tol
    assert abs(rep["max_abs_trace"] - np.abs(values).max()) <= tol
    below = [r for r in ref if r[1] < -DEFAULT_TOLS.tau_cond]
    if not below:
        assert rep["first_negative"] is None
    else:
        s, tr, x = below[0]
        assert rep["first_negative"]["s"] == s
        assert abs(rep["first_negative"]["trace"] - tr) <= tol
        assert rep["first_negative"]["point"] == x.tolist()
    if case == "desitter":
        # constant curvature H = 1: trace = -m H^2 from the first sample on
        assert rep["first_negative"]["s"] == 0.0
        assert rep["min_trace"] == pytest.approx(-2.0, rel=1e-6)
    if case == "flrw_dust":
        assert rep["first_negative"] is None


def test_gs_trace_integrates_once(monkeypatch):
    """The curve and its transported frame are one solve."""
    calls = []
    original = geodesics.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(geodesics, "solve_ivp", counted)
    gs_trace(*_gs_cases()["ef-horizon-null"])
    assert len(calls) == 1


def test_gs_trace_reads_its_curvature_in_one_batch(monkeypatch):
    """On a curve where no sample fails, the 200 samples take one
    curvature_data call: a fallback to the point-by-point replay would
    give the same numbers 200 calls later."""
    import lorentzkit.conditions as conditions
    calls = []

    def counted(field_, p):
        calls.append(np.shape(p))
        return curvature_data(field_, p)

    monkeypatch.setattr(conditions, "curvature_data", counted)
    rep = gs_trace(*_gs_cases()["ef-horizon-null"])
    assert rep["samples"] == 200
    assert calls == [(200, 4)]


class TestCertificates:
    def test_orientation_passes_on_catalog(self, bundles):
        for b in bundles.values():
            rep = temporal_certificate(b.field, b.orientation, "orientation",
                                       small_region(b))
            assert rep["verdict"] == "PASSED"

    def test_temporal_passes_on_catalog(self, bundles):
        for b in bundles.values():
            if b.temporal is None:
                continue
            rep = temporal_certificate(b.field, b.temporal, "temporal",
                                       small_region(b))
            assert rep["verdict"] == "PASSED"

    def test_spacelike_candidate_inconclusive(self, bundles):
        b = bundles["minkowski"]
        candidate = ExprScalarField("x1", b.field.table)
        rep = temporal_certificate(b.field, candidate, "temporal",
                                   small_region(b))
        assert rep["verdict"] == "INCONCLUSIVE"
        assert rep["witness"] is not None

    def test_orientation_fails_for_spacelike_field(self, bundles):
        from lorentzkit.fields import VectorField
        b = bundles["minkowski"]
        bad = VectorField.constant([0.0, 1.0, 0.0, 0.0], b.field.table)
        rep = temporal_certificate(b.field, bad, "orientation",
                                   small_region(b))
        assert rep["verdict"] == "FAILED"


def _certificate_loop(field_, subject, mode, region, tols=DEFAULT_TOLS):
    """(q, point) of the worst sampled point, one point at a time: the
    reference the stacked pass of `temporal_certificate` must match."""
    worst = None
    for p in region.sample_points():
        g = field_.value(p)
        if mode == "orientation":
            x = subject.value(field_.canonicalize(p))
            nrm = float(x @ x)
            q = 0.0 if nrm < tols.tau_zero else float(x @ g @ x) / nrm
        else:
            g_inv, _ = invert_metric(g)
            dt = subject.jet2(field_.canonicalize(p), 1).grad
            nrm = float(dt @ dt)
            q = 0.0 if nrm < tols.tau_zero else float(dt @ g_inv @ dt) / nrm
        if worst is None or q > worst[0]:
            worst = (q, p)
    return worst


def _certificate_subjects(bundle):
    """(mode, subject): the bundle's own fields, and a candidate of each
    mode that fails somewhere (a coordinate vector, a coordinate function)."""
    table, n = bundle.field.table, bundle.field.dim
    out = [("orientation", bundle.orientation),
           ("orientation", VectorField.constant(np.eye(n)[1], table)),
           ("temporal", ExprScalarField(table.coordinates[1], table))]
    if bundle.temporal is not None:
        out.append(("temporal", bundle.temporal))
    return out


def _assert_matches_loop(field_, subject, mode, region):
    rep = temporal_certificate(field_, subject, mode, region)
    q, p = _certificate_loop(field_, subject, mode, region)
    passed = q < -DEFAULT_TOLS.tau_c
    assert rep["verdict"] == ("PASSED" if passed else
                              "FAILED" if mode == "orientation"
                              else "INCONCLUSIVE")
    assert rep["witness"] == (None if passed else {"point": list(p)})
    assert rep["worst_normalized_square"] == pytest.approx(q, rel=1e-15,
                                                           abs=0.0)
    assert rep["samples"] == len(region.sample_points())


@pytest.mark.parametrize("name", CATALOG_NAMES + ("spec",))
def test_certificate_matches_the_point_loop(bundles, name):
    b = load_spec(SPEC) if name == "spec" else bundles[name]
    for mode, subject in _certificate_subjects(b):
        for n_points in (1, 7, 40):
            for seed in (0, 3, 601):
                _assert_matches_loop(b.field, subject, mode, Region(
                    box=b.default_box, n_points=n_points, seed=seed))


def test_certificate_of_a_vanishing_subject_is_zero_there():
    """Both subjects are timelike but vanish at x = 0, where q is 0: the
    certificate fails there."""
    table = SymbolTable(["t", "x"])
    field_ = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                     (1, 1): "1"})
    region = Region(points=((0.0, 0.5), (0.0, 0.0), (0.0, -0.5)))
    for mode, subject in (("orientation", VectorField(["x", "0"], table)),
                          ("temporal", ExprScalarField("t*x", table))):
        _assert_matches_loop(field_, subject, mode, region)
        rep = temporal_certificate(field_, subject, mode, region)
        assert rep["worst_normalized_square"] == 0.0
        assert rep["witness"] == {"point": [0.0, 0.0]}


def test_certificate_mode_is_checked_first(bundles):
    b = bundles["minkowski"]
    with pytest.raises(ParamError, match="unknown certificate mode 'causal'"):
        temporal_certificate(b.field, b.orientation, "causal",
                             small_region(b))


def _raises_as_the_loop(field_, subject, mode, region, error):
    with pytest.raises(error) as want:
        _certificate_loop(field_, subject, mode, region)
    with pytest.raises(error) as got:
        temporal_certificate(field_, subject, mode, region)
    assert str(got.value) == str(want.value)
    return str(got.value)


def test_certificate_error_is_the_first_failing_points_own():
    table = SymbolTable(["t", "x"])
    # x = 1, 2, -1, -2: the sqrt(x) below fails from the third point on
    region = Region(points=((0.0, 1.0), (0.0, 2.0), (0.0, -1.0),
                            (0.0, -2.0)))
    flat = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0", (1, 1): "1"})
    bad_metric = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                         (1, 1): "sqrt(x)"})
    time = VectorField(["1", "0"], table)
    clock = ExprScalarField("t", table)
    messages = {
        _raises_as_the_loop(bad_metric, time, "orientation", region,
                            DomainError),
        _raises_as_the_loop(bad_metric, clock, "temporal", region,
                            DomainError),
        _raises_as_the_loop(flat, VectorField(["1", "sqrt(x)"], table),
                            "orientation", region, DomainError),
        _raises_as_the_loop(flat, ExprScalarField("t + sqrt(x)", table),
                            "temporal", region, DomainError)}
    assert messages == {"sqrt of nonpositive value -1.0"}
    # exp(-800 x) overflows from the third point on: the batch raises
    # numpy's message, and the point its own
    overflow = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                       (1, 1): "exp(-800*x)"})
    assert _raises_as_the_loop(overflow, time, "orientation", region,
                               DomainError) == "exp: math range error"


def test_certificate_of_a_degenerate_metric_is_the_points_own_error():
    table = SymbolTable(["t", "x"])
    # g_xx = x^2 is degenerate at the third point, nearly so at the fourth
    region = Region(points=((0.0, 1.0), (0.0, 2.0), (0.0, 0.0),
                            (0.0, 1e-7)))
    field_ = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                     (1, 1): "x^2"})
    message = _raises_as_the_loop(field_, ExprScalarField("t", table),
                                  "temporal", region, SingularMetric)
    assert "rcond=0.000e+00" in message


def test_certificate_reads_the_metric_once(bundles, monkeypatch):
    """One stacked metric call per certificate: a shape fault that
    `batch_or_replay` turned into a per-point replay would show here."""
    calls = []
    real = ExprMetricField.component_jets

    def counted(self, p, order=2):
        calls.append(np.shape(p))
        return real(self, p, order)

    monkeypatch.setattr(ExprMetricField, "component_jets", counted)
    for name in ("schwarzschild_ef", "torus_quotient", "desitter"):
        b = bundles[name]
        for mode, subject in _certificate_subjects(b):
            calls.clear()
            temporal_certificate(b.field, subject, mode, small_region(b))
            assert calls == [(10, 4)], (name, mode)
