"""Induced geometry, shape tensor, mean curvature, null frames, verdicts."""

import math
from pathlib import Path

import numpy as np
import pytest

import lorentzkit.submanifold as submanifold
from lorentzkit.errors import NotSpacelike, OrientationError, WrongCodimension
from lorentzkit.expr import SymbolTable
from lorentzkit.fields import VectorField
from lorentzkit.geometry import DEFAULT_TOLS, TangentVector, causal_class_in
from lorentzkit.submanifold import (Embedding, classify_trapped, induced_metric,
                                    mean_curvature, null_frame_and_expansions,
                                    shape_tensor)
from lorentzkit.specfile import load_spec

from conftest import fd_scalar_jet


def _ef_sphere(bundles, name):
    b = bundles["schwarzschild_ef"]
    return b, b.submanifolds[name], b.hints[name]


class TestInduced:
    def test_torus_sub_is_flat_identity(self, bundles):
        b = bundles["torus_quotient"]
        first, spacelike = induced_metric(b.field, b.submanifolds["S"], [0.2, 0.7])
        assert spacelike
        assert np.allclose(first, np.eye(2), atol=1e-12)

    def test_minkowski_sphere_round_metric(self, bundles):
        b = bundles["minkowski"]
        u = [1.1, 0.4]
        first, spacelike = induced_metric(b.field, b.submanifolds["sphere"], u)
        assert spacelike
        expected = np.diag([1.0, math.sin(1.1) ** 2])   # radius 1
        assert np.allclose(first, expected, atol=1e-12)

    def test_null_embedding_not_spacelike(self, bundles):
        b = bundles["minkowski"]
        ptable = SymbolTable(["ua", "ub"])
        # {t = x2, x1 = 0}: one tangent direction is null
        emb = Embedding(ptable, ["ua", "0", "ua", "ub"], 4,
                        domain=[(-1, 1), (-1, 1)], grid_shape=(4, 4))
        first, spacelike = induced_metric(b.field, emb, [0.3, 0.1])
        assert not spacelike
        assert np.linalg.eigvalsh(first)[0] == pytest.approx(0.0, abs=1e-12)


class TestShape:
    def test_affine_plane_totally_geodesic(self, bundles):
        b = bundles["minkowski"]
        ii = shape_tensor(b.field, b.submanifolds["plane"], [0.2, -0.4])
        assert np.abs(ii).max() < 1e-12

    def test_torus_sub_totally_geodesic(self, bundles):
        b = bundles["torus_quotient"]
        ii = shape_tensor(b.field, b.submanifolds["S"], [0.3, 0.9])
        assert np.abs(ii).max() < 1e-12

    def test_sphere_in_flat_slice(self, bundles):
        """Classical shape of the round sphere: II_ab = -(m_ab / R) d_r."""
        b = bundles["minkowski"]
        emb = b.submanifolds["sphere"]          # R = 1
        u = [0.9, 0.7]
        ii = shape_tensor(b.field, emb, u)
        first, _ = induced_metric(b.field, emb, u)
        x = emb.point(u)
        radial = np.array([0.0, x[1], x[2], x[3]])
        for a in range(2):
            for c in range(2):
                assert np.allclose(ii[a, c], -first[a, c] * radial, atol=1e-10)

    def test_shape_symmetry_and_fd_oracle(self, bundles):
        """II against finite differences of the embedding map."""
        b = bundles["schwarzschild_ef"]
        emb = b.submanifolds["far_sphere"]
        u = np.array([1.0, 0.8])
        ii = shape_tensor(b.field, emb, u)
        assert np.abs(ii - np.transpose(ii, (1, 0, 2))).max() < 1e-9
        # oracle: second differences of x(u) plus the connection term
        from lorentzkit.geometry import curvature_data
        x, jac, _ = emb.first_second(u)
        data = curvature_data(b.field, x)
        hess_fd = np.stack([fd_scalar_jet(lambda q: emb.point(q)[i], u)[2]
                            for i in range(4)])
        acc = np.einsum("iab->abi", hess_fd) + \
            np.einsum("kij,ia,jb->abk", data.gamma, jac, jac)
        first = jac.T @ data.g @ jac
        expect = np.zeros_like(ii)
        for a in range(2):
            for c in range(2):
                v = acc[a, c]
                coeff = np.linalg.solve(first, jac.T @ data.g @ v)
                expect[a, c] = v - jac @ coeff
        assert np.abs(ii - expect).max() < 1e-5 * (1 + np.abs(expect).max())

    def test_not_spacelike_raises(self, bundles):
        b = bundles["minkowski"]
        ptable = SymbolTable(["ua", "ub"])
        emb = Embedding(ptable, ["2*ua", "ua", "ub", "0"], 4,
                        domain=[(-1, 1), (-1, 1)], grid_shape=(4, 4))
        with pytest.raises(NotSpacelike):
            shape_tensor(b.field, emb, [0.1, 0.1])


class TestMeanCurvature:
    def test_torus_sub_extremal(self, bundles):
        b = bundles["torus_quotient"]
        mc = mean_curvature(b.field, b.orientation, b.submanifolds["S"], [0.4, 0.6])
        assert np.abs(mc.h_vec).max() < 1e-12

    def test_sphere_in_flat_slice(self, bundles):
        b = bundles["minkowski"]
        u = [1.2, 0.5]
        mc = mean_curvature(b.field, b.orientation, b.submanifolds["sphere"], u)
        x = mc.point
        expected = -2.0 * np.array([0.0, x[1], x[2], x[3]])  # -(2/R) d_r, R = 1
        assert np.allclose(mc.h_vec, expected, atol=1e-9)
        assert mc.g_hh == pytest.approx(4.0, rel=1e-9)
        assert mc.causal.kind == "spacelike"

    def test_trapped_ef_sphere(self, bundles):
        b, emb, _ = _ef_sphere(bundles, "inner_sphere")
        mc = mean_curvature(b.field, b.orientation, emb, [1.0, 0.3])
        r = 1.5
        assert mc.g_hh == pytest.approx(4 * (1 - 2 / r) / r ** 2, rel=1e-9)
        assert mc.g_hh < 0 and mc.g_hx > 0
        assert mc.causal.kind == "timelike" and mc.causal.orientation == "past"

    def test_orthogonality_diagnostic(self, bundles):
        b, emb, _ = _ef_sphere(bundles, "far_sphere")
        mc = mean_curvature(b.field, b.orientation, emb, [0.7, 1.1])
        assert mc.tangency_defect < 1e-8

    def test_trace_presentations_agree(self, bundles):
        """Gram-solve trace equals the orthonormal-frame sum of II."""
        b, emb, _ = _ef_sphere(bundles, "outer_sphere")
        u = [0.9, 1.4]
        mc = mean_curvature(b.field, b.orientation, emb, u)
        ii = shape_tensor(b.field, emb, u)
        first, _ = induced_metric(b.field, emb, u)
        lam, q = np.linalg.eigh(first)
        frame = q / np.sqrt(lam)               # orthonormal tangent frame coeffs
        h_sum = sum(np.einsum("a,b,abi->i", frame[:, k], frame[:, k], ii)
                    for k in range(2))
        assert np.allclose(mc.h_vec, h_sum, atol=1e-9 * (1 + np.abs(h_sum).max()))

    def test_parametrization_invariance(self, bundles):
        """Linear reparametrization leaves H unchanged."""
        b = bundles["minkowski"]
        ptable = SymbolTable(["ua", "ub"])
        emb1 = Embedding(ptable, ["0", "sin(ua)*cos(ub)", "sin(ua)*sin(ub)",
                                  "cos(ua)"], 4,
                         domain=[(0.3, math.pi - 0.3), (0.0, 2 * math.pi)],
                         periodic=[None, 2 * math.pi], grid_shape=(6, 6))
        # u -> A u with A = [[2, 0], [1, 1]]
        emb2 = Embedding(ptable, ["0", "sin(2*ua)*cos(ua + ub)",
                                  "sin(2*ua)*sin(ua + ub)", "cos(2*ua)"], 4,
                         domain=[(0.2, 1.4), (0.0, 2 * math.pi)],
                         periodic=[None, 2 * math.pi], grid_shape=(6, 6))
        u1 = np.array([0.8, 0.5])
        mc1 = mean_curvature(b.field, b.orientation, emb1, [2 * 0.8, 0.8 + 0.5])
        mc2 = mean_curvature(b.field, b.orientation, emb2, u1)
        assert np.allclose(mc1.point, mc2.point, atol=1e-12)
        assert np.allclose(mc1.h_vec, mc2.h_vec, atol=1e-8)

    def test_carries_metric_and_frame_of_its_point(self, bundles):
        b, emb, _ = _ef_sphere(bundles, "outer_sphere")
        u = [0.9, 1.4]
        mc = mean_curvature(b.field, b.orientation, emb, u)
        assert np.allclose(mc.g, b.field.value(mc.point), rtol=0, atol=1e-12)
        _, jac, _ = emb.first_second(u)
        assert np.array_equal(mc.jac, jac)

    def test_continuity_under_uniform_rescaling(self, bundles):
        """|H(g_eps) - H(g)| = O(eps) for g_eps = (1 + eps) g."""
        from lorentzkit.fields import ExprScalarField
        from lorentzkit.metric import ConformalScaledMetric
        b, emb, _ = _ef_sphere(bundles, "outer_sphere")
        u = [1.1, 0.2]
        base = mean_curvature(b.field, b.orientation, emb, u)
        eps = 1e-4
        factor = ExprScalarField(repr(0.5 * math.log1p(eps)), b.field.table,
                                 b.field.params)
        g_eps = ConformalScaledMetric(b.field, factor, 1.0)
        pert = mean_curvature(g_eps, b.orientation, emb, u)
        diff = np.linalg.norm(pert.h_vec - base.h_vec)
        assert diff <= 10.0 * eps * (1 + np.linalg.norm(base.h_vec))


class TestNullData:
    def test_minkowski_sphere_untrapped_signs(self, bundles):
        b = bundles["minkowski"]
        frame, tp, tm = null_frame_and_expansions(
            b.field, b.orientation, b.submanifolds["sphere"], [0.8, 0.2],
            b.hints["sphere"])
        assert tp > 0 > tm
        # flat-space oracle up to the K normalization: theta_pm = pm sqrt(2) / R
        assert tp == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert tm == pytest.approx(-math.sqrt(2.0), rel=1e-9)

    def test_frame_invariants(self, bundles):
        b, emb, hint = _ef_sphere(bundles, "outer_sphere")
        g = b.field
        u = [0.5, 2.2]
        frame, tp, tm = null_frame_and_expansions(g, b.orientation, emb, u, hint)
        x = emb.point(u)
        mv = g.metric_value(x)
        assert abs(mv.inner(frame.k_plus, frame.k_plus)) < 1e-10
        assert abs(mv.inner(frame.k_minus, frame.k_minus)) < 1e-10
        assert mv.inner(frame.k_plus, frame.k_minus) == pytest.approx(-1.0, abs=1e-10)
        xv = b.orientation.value(x)
        assert mv.inner(frame.k_plus, xv) < 0
        assert mv.inner(frame.k_minus, xv) < 0
        _, jac, _ = emb.first_second(u)
        assert np.abs(jac.T @ mv.g @ frame.k_plus).max() < 1e-8

    def test_mots_at_horizon(self, bundles):
        b, emb, hint = _ef_sphere(bundles, "horizon_sphere")
        _, tp, tm = null_frame_and_expansions(b.field, b.orientation, emb,
                                              [0.9, 1.0], hint)
        assert abs(tp) < 1e-7
        assert tm < 0

    def test_trapped_inside(self, bundles):
        b, emb, hint = _ef_sphere(bundles, "inner_sphere")
        _, tp, tm = null_frame_and_expansions(b.field, b.orientation, emb,
                                              [1.3, 0.4], hint)
        assert tp < 0 and tm < 0

    def test_theta_h_relation(self, bundles):
        """g(H, H) = -2 theta_+ theta_- with the K+.K- = -1 normalization."""
        for name in ("inner_sphere", "horizon_sphere", "outer_sphere"):
            b, emb, hint = _ef_sphere(bundles, name)
            u = [0.6, 1.7]
            _, tp, tm = null_frame_and_expansions(b.field, b.orientation,
                                                  emb, u, hint)
            mc = mean_curvature(b.field, b.orientation, emb, u)
            assert mc.g_hh == pytest.approx(-2 * tp * tm, rel=1e-8, abs=1e-10)

    def test_rescaling_covariance_of_signs(self, bundles):
        """theta signs and verdicts survive K+ -> lam K+, K- -> K-/lam."""
        b, emb, hint = _ef_sphere(bundles, "inner_sphere")
        u = [0.4, 0.9]
        frame, tp, tm = null_frame_and_expansions(b.field, b.orientation,
                                                  emb, u, hint)
        mc = mean_curvature(b.field, b.orientation, emb, u)
        mv = b.field.metric_value(emb.point(u))
        for lam in (0.3, 2.0, 11.0):
            kp, km = lam * frame.k_plus, frame.k_minus / lam
            assert mv.inner(kp, km) == pytest.approx(-1.0, abs=1e-9)
            tps = -mv.inner(mc.h_vec, kp)
            tms = -mv.inner(mc.h_vec, km)
            assert tps == pytest.approx(lam * tp, rel=1e-12)
            assert tms == pytest.approx(tm / lam, rel=1e-12)
            assert np.sign(tps) == np.sign(tp)
            assert np.sign(tms) == np.sign(tm)

    def test_wrong_codimension(self, bundles):
        b = bundles["torus_quotient"]
        with pytest.raises(WrongCodimension):
            null_frame_and_expansions(b.field, b.orientation,
                                      b.submanifolds["Pi"], [0.1, 0.1, 0.1],
                                      np.array([0, 1.0, 0, 0]))

    def test_degenerate_hint_rejected(self, bundles):
        """A hint that cannot separate the two rays must fail loudly."""
        from lorentzkit.errors import OrientationHintDegenerate
        b = bundles["minkowski"]
        with pytest.raises(OrientationHintDegenerate):
            null_frame_and_expansions(b.field, b.orientation,
                                      b.submanifolds["sphere"], [0.8, 0.2],
                                      np.array([1.0, 0.0, 0.0, 0.0]))


class TestClassify:
    def test_torus_sub_extremal(self, bundles):
        b = bundles["torus_quotient"]
        v = classify_trapped(b.field, b.orientation, b.submanifolds["S"],
                             b.hints["S"])
        assert v.class_name == "weakly-future-trapped"
        assert v.subtype == "extremal"
        assert v.closed

    def test_ef_sphere_classes(self, bundles):
        b = bundles["schwarzschild_ef"]
        expect = {"inner_sphere": ("future-trapped", None),
                  "horizon_sphere": ("weakly-future-trapped", "MOTS"),
                  "outer_sphere": ("not-weakly-trapped", None)}
        for name, (cls, sub) in expect.items():
            v = classify_trapped(b.field, b.orientation, b.submanifolds[name],
                                 b.hints[name])
            assert v.class_name == cls
            assert v.subtype == sub

    def test_minkowski_sphere_witness(self, bundles):
        b = bundles["minkowski"]
        v = classify_trapped(b.field, b.orientation, b.submanifolds["sphere"],
                             b.hints["sphere"])
        assert v.class_name == "not-weakly-trapped"
        assert v.witness_index is not None
        assert v.witness_index == (0, 0)        # deterministic first witness

    def test_null_h_sheet(self, bundles):
        b = bundles["null_H_demo"]
        v = classify_trapped(b.field, b.orientation, b.submanifolds["sheet"],
                             b.hints["sheet"])
        assert v.class_name == "weakly-future-trapped"
        assert v.subtype == "null-H"
        assert not v.closed

    def test_not_spacelike_witness(self, bundles):
        b = bundles["minkowski"]
        ptable = SymbolTable(["ua", "ub"])
        emb = Embedding(ptable, ["2*ua", "ua", "ub", "0"], 4,
                        domain=[(-1, 1), (-1, 1)], grid_shape=(4, 4))
        with pytest.raises(NotSpacelike):
            classify_trapped(b.field, b.orientation, emb, None)

    def test_one_pass_per_grid_point(self, bundles, monkeypatch):
        """One batched pass over the whole grid, expansions included: one
        embedding jet pass, no mean_curvature call and no curvature
        evaluation."""
        import lorentzkit.geometry as geometry
        b, emb, hint = _ef_sphere(bundles, "horizon_sphere")
        calls = {"mean_curvature": 0, "first_second": 0, "curvature_data": 0}
        shapes = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def first_second(self, u):
            shapes.append(np.shape(u))
            return original(self, u)

        original = Embedding.first_second
        monkeypatch.setattr(submanifold, "mean_curvature",
                            counting("mean_curvature", submanifold.mean_curvature))
        monkeypatch.setattr(geometry, "curvature_data",
                            counting("curvature_data", geometry.curvature_data))
        monkeypatch.setattr(Embedding, "first_second",
                            counting("first_second", first_second))
        v = classify_trapped(b.field, b.orientation, emb, hint)
        assert v.subtype == "MOTS"
        assert calls == {"mean_curvature": 0, "first_second": 1,
                         "curvature_data": 0}
        assert shapes == [(math.prod(emb.grid_shape), emb.m)]
        assert not hasattr(submanifold, "curvature_data")

    def test_causal_class_reuses_the_curvature_metric(self, bundles,
                                                      monkeypatch):
        """The causal check on H and every margin come from one order-1
        metric pass over all grid points: no order-0 or order-2 metric
        evaluation."""
        b, emb, hint = _ef_sphere(bundles, "horizon_sphere")
        orders = []
        shapes = []
        original = type(b.field).component_jets

        def counting(self, p, order=2):
            orders.append(order)
            shapes.append(np.shape(p))
            return original(self, p, order=order)

        monkeypatch.setattr(type(b.field), "component_jets", counting)
        classify_trapped(b.field, b.orientation, emb, hint)
        assert orders == [1]
        assert shapes == [(math.prod(emb.grid_shape), 4)]

    def test_expansions_match_null_frame(self, bundles):
        b, emb, hint = _ef_sphere(bundles, "inner_sphere")
        v = classify_trapped(b.field, b.orientation, emb, hint)
        for idx in np.ndindex(*emb.grid_shape):
            _, tp, tm = null_frame_and_expansions(
                b.field, b.orientation, emb, emb.grid_point(idx), hint)
            assert v.theta_plus[idx] == pytest.approx(tp, rel=1e-12, abs=1e-12)
            assert v.theta_minus[idx] == pytest.approx(tm, rel=1e-12, abs=1e-12)


# --- the batched grid pass against the per-point functions ------------------

SPEC_FILE = (Path(__file__).resolve().parents[1] / "perfbench" / "spacetimes"
             / "contracting_desitter.st")


def _all_submanifolds(bundles):
    subs = [(f"{name}/{sub}", b, emb, b.hints.get(sub))
            for name, b in bundles.items() for sub, emb in b.submanifolds.items()]
    spec = load_spec(str(SPEC_FILE))
    subs += [(f"spec/{sub}", spec, emb, spec.hints.get(sub))
             for sub, emb in spec.submanifolds.items()]
    return subs


def test_classify_matches_point_by_point(bundles):
    """Margins and expansions of the one batched pass equal mean_curvature
    and null_frame_and_expansions at every grid point (12 builtin
    submanifolds and the spec file's horizon)."""
    subs = _all_submanifolds(bundles)
    assert len(subs) == 13
    for name, b, emb, hint in subs:
        v = classify_trapped(b.field, b.orientation, emb, hint)
        for idx in np.ndindex(*emb.grid_shape):
            u = emb.grid_point(idx)
            mc = mean_curvature(b.field, b.orientation, emb, u)
            xv = b.orientation.value(mc.point)
            xh = xv / np.linalg.norm(xv)
            nh = np.linalg.norm(mc.h_vec)
            hn = mc.h_vec / nh if nh > 1e-12 else np.zeros_like(mc.h_vec)
            assert v.margins_hh[idx] == pytest.approx(hn @ mc.g @ hn,
                                                      rel=1e-12, abs=1e-12), name
            assert v.margins_hx[idx] == pytest.approx(hn @ mc.g @ xh,
                                                      rel=1e-12, abs=1e-12), name
            if v.theta_plus is None:
                assert hint is None or emb.codim != 2, name
                continue
            _, tp, tm = null_frame_and_expansions(b.field, b.orientation,
                                                  emb, u, hint)
            assert v.theta_plus[idx] == pytest.approx(tp, rel=1e-12, abs=1e-12), name
            assert v.theta_minus[idx] == pytest.approx(tm, rel=1e-12, abs=1e-12), name


def test_classify_reads_its_grid_in_one_batch(bundles, monkeypatch):
    """On a grid where no point fails, the verdict takes one
    _mean_curvatures pass over every grid point: a replay through
    `batch_or_replay` would give the same verdict many row calls later."""
    calls, rows = [], []
    batched = submanifold._mean_curvatures

    def counted(*args):
        calls.append(np.shape(args[3]))
        return batched(*args)

    replay = submanifold.batch_or_replay

    def replayed(fn, *stacks):
        def row(*args):
            rows.append(len(args[0]))
            return fn(*args)
        return replay(row, *stacks)

    monkeypatch.setattr(submanifold, "_mean_curvatures", counted)
    monkeypatch.setattr(submanifold, "batch_or_replay", replayed)
    b = bundles["schwarzschild_ef"]
    emb = b.submanifolds["horizon_sphere"]
    v = classify_trapped(b.field, b.orientation, emb,
                         b.hints.get("horizon_sphere"))
    assert v.theta_plus is not None
    grid = math.prod(emb.grid_shape)
    assert calls == [(grid, emb.m)]
    assert rows == [grid]


def _first_point_error(field_, X, emb, hint):
    """The error of the grid loop classify_trapped used to run: per point in
    np.ndindex order, mean_curvature (a NotSpacelike names the grid index),
    then the expansions."""
    for idx in np.ndindex(*emb.grid_shape):
        u = emb.grid_point(idx)
        try:
            mean_curvature(field_, X, emb, u)
        except NotSpacelike:
            return NotSpacelike, (f"submanifold not spacelike at grid index "
                                  f"{idx}, u = {u.tolist()}")
        except Exception as exc:
            return type(exc), str(exc)
        if hint is not None:
            try:
                null_frame_and_expansions(field_, X, emb, u, hint)
            except Exception as exc:
                return type(exc), str(exc)
    return None


def _error_cases(bundles):
    """(name, metric, orientation, embedding, hint) whose grid fails past
    its first point."""
    b = bundles["minkowski"]
    ptable = SymbolTable(["ua", "ub"])
    ef = bundles["schwarzschild_ef"]
    return [
        # t = ua^2 stops being spacelike at ua = 1/2: grid index (2, 0)
        ("not spacelike", b.field, b.orientation, Embedding(
            ptable, ["ua^2", "ua", "ub", "0"], 4,
            domain=[(0, 1), (0, 1)], grid_shape=(4, 3)), None),
        # exp overflows in the last row only (math.exp's error, not numpy's)
        ("overflow", b.field, b.orientation, Embedding(
            ptable, ["0", "ua", "ub", "1e-300*exp(800*ua)"], 4,
            domain=[(0, 1), (0, 1)], grid_shape=(8, 3)), None),
        # sqrt of a negative from the third row on
        ("sqrt", b.field, b.orientation, Embedding(
            ptable, ["0", "ua", "ub", "sqrt(0.5 - ua)"], 4,
            domain=[(0, 1), (0, 1)], grid_shape=(4, 3)), None),
        # the hint (0, 0, 0, 1) cannot tell the null rays apart on the
        # equator, the second row
        ("hint", b.field, b.orientation, Embedding(
            ptable, ["0", "sin(ua)*cos(ub)", "sin(ua)*sin(ub)", "cos(ua)"], 4,
            domain=[(math.pi / 4, 3 * math.pi / 4), (0, 2 * math.pi)],
            periodic=[None, 2 * math.pi], grid_shape=(3, 4)),
         np.array([0.0, 0.0, 0.0, 1.0])),
        # inside the horizon H is timelike, and X = d_v + (theta - 2.6) d_r
        # stops being timelike where theta > 2.43 (the last rows)
        ("orientation", ef.field,
         VectorField(["1", "theta - 2.6", "0", "0"], ef.field.table),
         ef.submanifolds["inner_sphere"], None),
    ]


@pytest.mark.parametrize("case", ["not spacelike", "overflow", "sqrt", "hint",
                                  "orientation"])
def test_error_path_names_the_first_failing_point(bundles, case):
    [(_, field, X, emb, hint)] = [c for c in _error_cases(bundles)
                                  if c[0] == case]
    expected = _first_point_error(field, X, emb, hint)
    assert expected is not None
    with pytest.raises(expected[0]) as info:
        classify_trapped(field, X, emb, hint)
    assert type(info.value) is expected[0]
    assert str(info.value) == expected[1]


def test_error_cases_fail_past_the_first_point(bundles):
    """The cases above fail at a later grid point, not the first one."""
    for case, field, X, emb, hint in _error_cases(bundles):
        u = emb.grid_point((0,) * emb.m)
        mean_curvature(field, X, emb, u)
        if hint is not None:
            null_frame_and_expansions(field, X, emb, u, hint)


def _orientation_message(field_, X, x):
    """causal_class_in's OrientationError message for X at the point x,
    raised by classifying d_r, which is null in Eddington-Finkelstein
    coordinates."""
    with pytest.raises(OrientationError) as info:
        causal_class_in(field_.value(x), TangentVector(x, np.eye(4)[1]), X)
    return str(info.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("X", ["null", "timelike in the first rows"])
def test_expansions_need_a_timelike_orientation(bundles, X):
    """Outside the horizon H is spacelike, so only the null expansions
    meet X: where X is not timelike they raise causal_class_in's
    OrientationError at the first such grid point in np.ndindex order,
    instead of dividing by g(K, X) = 0 (NaN expansions)."""
    b, emb, hint = _ef_sphere(bundles, "outer_sphere")
    if X == "null":
        X = np.array([0.0, 1.0, 0.0, 0.0])
    else:
        # g(X, X) = -(1 - 2/3) + 2 (theta - 2.55) at r = 3: timelike for
        # theta < 2.72, so only the last row of the grid fails
        X = VectorField(["1", "theta - 2.55", "0", "0"], b.field.table)
    first = None
    for idx in np.ndindex(*emb.grid_shape):
        x = emb.point(emb.grid_point(idx))
        xv = X.value(x) if isinstance(X, VectorField) else X
        if xv @ b.field.value(x) @ xv >= -1e-9 * (xv @ xv):
            first = x
            break
    assert first is not None
    with pytest.raises(OrientationError) as info:
        classify_trapped(b.field, X, emb, hint)
    assert str(info.value) == _orientation_message(b.field, X, first)


def test_classify_reads_the_orientation_once(bundles, monkeypatch):
    """A pass with a hint evaluates X once over the whole grid: the
    margins and the expansions read it from the mean-curvature pass."""
    b, emb, hint = _ef_sphere(bundles, "horizon_sphere")
    shapes = []
    value = b.orientation.value

    def counted(p):
        shapes.append(np.shape(p))
        return value(p)

    monkeypatch.setattr(b.orientation, "value", counted)
    v = classify_trapped(b.field, b.orientation, emb, hint)
    assert v.theta_plus is not None
    assert shapes == [(math.prod(emb.grid_shape), 4)]


def test_null_normals_in_codimension_three(bundles):
    """The Minkowski circle of radius 2 in {t = 0, z = 0}: at every grid
    point four rays f_0 +- f_1, f_0 +- f_2, each null, g-normal to J and
    future-directed, with gx = |g(K, X)|."""
    b = bundles["minkowski"]
    emb = Embedding(SymbolTable(["ua"]), ["0", "2*cos(ua)", "2*sin(ua)", "0"],
                    4, domain=[(0.0, 2 * math.pi)], periodic=[2 * math.pi],
                    grid_shape=(12,))
    mc = submanifold._mean_curvatures(b.field, b.orientation, emb,
                                      emb.grid_points(), DEFAULT_TOLS)
    lam, frame, rays, gx = submanifold.null_normals(mc.g, mc.jac, mc.x_vec)
    assert frame.shape == (12, 4, 3) and rays.shape == (12, 4, 4)
    assert np.all((lam[:, 0] < 0) & (lam[:, 1] > 0))
    for g, jac, xv, ks, gks in zip(mc.g, mc.jac, mc.x_vec, rays, gx):
        for k, gk in zip(ks, gks):
            assert abs(k @ g @ k) <= 1e-12
            assert np.abs(jac.T @ g @ k).max() <= 1e-12
            assert k @ g @ xv < 0
            assert gk == pytest.approx(abs(k @ g @ xv), rel=1e-15)
