"""Curvature, causal classification, tidal operators, generic condition."""

import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lorentzkit import catalog
from lorentzkit.errors import (DomainError, NotApplicable, NotCausal,
                               OrientationError, batch_or_replay)
from lorentzkit.expr import SymbolTable
from lorentzkit.geometry import (TangentVector, causal_class, christoffel,
                                 curvature_data, generic_check,
                                 lorentz_frame, ricci, riemann, signature,
                                 tidal, tidal_screen)
from lorentzkit.geodesics import geodesic
from lorentzkit.metric import ExprMetricField
from lorentzkit.specfile import load_spec
from lorentzkit.tensors import invert_metric

from conftest import CATALOG_NAMES, fd_metric_first, region_points


class TestSignature:
    def test_minkowski(self, bundles):
        assert signature(bundles["minkowski"].field, [0.3, 0.1, -0.5, 2.0]) == 1

    def test_euclidean(self):
        table = SymbolTable(["x", "y", "z"])
        g = ExprMetricField(table, {(0, 0): "1", (1, 0): "0", (1, 1): "1",
                                    (2, 0): "0", (2, 1): "0", (2, 2): "1"})
        assert signature(g, [0, 0, 0]) == 0

    def test_ef_inside_horizon(self, bundles):
        # eigenvalue oracle on the explicit matrix
        f = bundles["schwarzschild_ef"].field
        p = [0.0, 1.0, math.pi / 2, 0.0]
        assert signature(f, p) == 1
        evals = np.linalg.eigvalsh(f.value(p))
        assert int(np.sum(evals < 0)) == 1


class TestCausalClass:
    def test_timelike_future(self, bundles):
        b = bundles["minkowski"]
        c = causal_class(b.field, TangentVector(np.zeros(4), [1, 0, 0, 0]),
                         b.orientation)
        assert c.kind == "timelike" and c.orientation == "future"

    def test_null_future(self, bundles):
        b = bundles["minkowski"]
        c = causal_class(b.field, TangentVector(np.zeros(4), [1, 1, 0, 0]),
                         b.orientation)
        assert c.kind == "null" and c.orientation == "future"

    def test_past_null(self, bundles):
        b = bundles["minkowski"]
        c = causal_class(b.field, TangentVector(np.zeros(4), [-1, -1, 0, 0]),
                         b.orientation)
        assert c.kind == "null" and c.orientation == "past"

    def test_spacelike_and_zero(self, bundles):
        b = bundles["minkowski"]
        assert causal_class(b.field, TangentVector(np.zeros(4), [0, 1, 0, 0]),
                            b.orientation).kind == "spacelike"
        assert causal_class(b.field, TangentVector(np.zeros(4), np.zeros(4)),
                            b.orientation).kind == "zero"

    def test_scale_invariance(self, bundles):
        b = bundles["schwarzschild_ef"]
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = region_points(b, 1, seed=int(rng.integers(1e6)))[0]
            v = rng.normal(size=4)
            base = causal_class(b.field, TangentVector(p, v), b.orientation)
            for lam in (0.5, 3.0, 17.0):
                up = causal_class(b.field, TangentVector(p, lam * v), b.orientation)
                assert up.kind == base.kind and up.orientation == base.orientation
            flipped = causal_class(b.field, TangentVector(p, -v), b.orientation)
            assert flipped.kind == base.kind
            if base.orientation != "none":
                assert flipped.orientation != base.orientation

    def test_orientation_error_for_spacelike_x(self, bundles):
        b = bundles["minkowski"]
        with pytest.raises(OrientationError):
            causal_class(b.field, TangentVector(np.zeros(4), [1, 0, 0, 0]),
                         np.array([0.0, 1.0, 0.0, 0.0]))


class TestChristoffel:
    def test_minkowski_zero(self, bundles):
        g = christoffel(bundles["minkowski"].field, np.zeros(4))
        assert np.abs(g.components).max() == 0.0

    def test_milne_closed_form(self):
        table = SymbolTable(["t", "x"])
        milne = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0", (1, 1): "t^2"},
                                domain=[(1e-3, np.inf), (-np.inf, np.inf)])
        gam = christoffel(milne, [2.0, 0.0]).components
        assert gam[1, 0, 1] == pytest.approx(0.5)
        assert gam[0, 1, 1] == pytest.approx(2.0)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[1, 0, 1] = mask[1, 1, 0] = mask[0, 1, 1] = False
        assert np.abs(gam[mask]).max() < 1e-14

    def test_schwarzschild_static_closed_form(self, bundles):
        gam = christoffel(bundles["schwarzschild_static"].field,
                          [0.0, 4.0, math.pi / 2, 0.0]).components
        # Gamma^r_tt = (M/r^2)(1 - 2M/r) = 1/32 at r = 4, M = 1
        assert gam[1, 0, 0] == pytest.approx(1.0 / 32.0, rel=1e-12)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_against_finite_differences(self, bundles, name):
        """Jet-based Gamma vs central differences of g, step 1e-4."""
        field = bundles[name].field
        for p in region_points(bundles[name], 5, seed=11):
            g = field.value(p)
            g_inv, _ = invert_metric(g)
            dg = fd_metric_first(field, p)
            d = dg + np.transpose(dg, (1, 0, 2)) - np.transpose(dg, (1, 2, 0))
            gam_fd = 0.5 * np.einsum("kl,ijl->kij", g_inv, d)
            gam = christoffel(field, p).components
            scale = 1.0 + np.abs(gam_fd).max()
            assert np.abs(gam - gam_fd).max() <= 1e-5 * scale


class TestRiemann:
    def test_minkowski_zero(self, bundles):
        r = riemann(bundles["minkowski"].field, np.zeros(4))
        assert np.abs(r.components).max() < 1e-10

    def test_sphere_component_and_sectional(self, sphere_metric):
        a = 2.0
        th = math.pi / 2
        r = riemann(sphere_metric, [th, 0.4]).components
        # orthonormal sectional value fixes the convention: positive on the sphere
        w = np.array([1 / a, 0.0])
        v = np.array([0.0, 1 / (a * math.sin(th))])
        sec = np.einsum("ijkl,i,j,k,l->", r, w, v, v, w)
        assert sec == pytest.approx(1.0 / a ** 2, rel=1e-9)
        # the classical magnitude a^2 sin^2 th sits in the (th,ph,ph,th) slot
        assert r[0, 1, 1, 0] == pytest.approx(a ** 2 * math.sin(th) ** 2, rel=1e-9)
        assert r[0, 1, 0, 1] == pytest.approx(-a ** 2 * math.sin(th) ** 2, rel=1e-9)

    def test_de_sitter_constant_curvature_identity(self, bundles):
        b = bundles["desitter"]
        rng = np.random.default_rng(2)
        for p in region_points(b, 4, seed=8):
            data = curvature_data(b.field, p)
            for _ in range(6):
                v = rng.normal(size=4)
                w = rng.normal(size=4)
                lhs = data.riem_quad(w, v)
                rhs = (data.inner(w, w) * data.inner(v, v)
                       - data.inner(v, w) ** 2)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_de_sitter_not_in_fp(self, bundles):
        b = bundles["desitter"]
        data = curvature_data(b.field, np.array([0.0, 0.2, -0.1, 0.4]))
        v = np.array([1.0, 0, 0, 0])
        w = np.array([0.0, math.exp(0.0), 0, 0])
        w = w / math.sqrt(data.inner(w, w))
        assert data.riem_quad(w, v) == pytest.approx(-1.0, rel=1e-9)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_curvature_like_symmetries(self, bundles, name):
        """Antisymmetries, pair symmetry, first Bianchi at random points."""
        field = bundles[name].field
        for p in region_points(bundles[name], 10, seed=23):
            r = curvature_data(field, p).riem
            scale = np.abs(r).max() + 1e-30
            assert np.abs(r + np.transpose(r, (0, 1, 3, 2))).max() <= 1e-8 * scale
            assert np.abs(r + np.transpose(r, (1, 0, 2, 3))).max() <= 1e-8 * scale
            assert np.abs(r - np.transpose(r, (2, 3, 0, 1))).max() <= 1e-8 * scale
            bianchi = (r + np.transpose(r, (0, 2, 3, 1))
                       + np.transpose(r, (0, 3, 1, 2)))
            assert np.abs(bianchi).max() <= 1e-8 * scale


class TestRicci:
    def test_minkowski(self, bundles):
        assert np.abs(ricci(bundles["minkowski"].field, np.zeros(4)).components).max() == 0.0

    @pytest.mark.parametrize("name", ["schwarzschild_ef", "schwarzschild_static"])
    def test_vacuum(self, bundles, name):
        b = bundles[name]
        for p in region_points(b, 8, seed=3):
            assert np.abs(ricci(b.field, p).components).max() < 1e-7

    def test_de_sitter(self, bundles):
        b = bundles["desitter"]
        for p in region_points(b, 4, seed=4):
            data = curvature_data(b.field, p)
            assert np.abs(data.ric - 3.0 * data.g).max() < 1e-9

    def test_dust_timelike_convergence(self, bundles):
        b = bundles["flrw_dust"]
        for p in region_points(b, 4, seed=5):
            data = curvature_data(b.field, p)
            v = np.array([1.0, 0, 0, 0])
            assert float(v @ data.ric @ v) > 0.1

    def test_symmetry(self, bundles):
        for name in CATALOG_NAMES:
            field = bundles[name].field
            p = region_points(bundles[name], 1, seed=9)[0]
            ric = ricci(field, p).components
            assert np.abs(ric - ric.T).max() <= 1e-9 * (1 + np.abs(ric).max())


class TestTidal:
    def test_minkowski_zero(self, bundles):
        op = tidal(bundles["minkowski"].field,
                   TangentVector(np.zeros(4), [1.0, 0, 0, 0]))
        assert np.abs(op.matrix).max() == 0.0
        assert op.matrix.shape == (3, 3)

    def test_de_sitter_unit_timelike(self, bundles):
        """Constant-curvature identity forces -H^2 per screen direction."""
        b = bundles["desitter"]
        op = tidal(b.field, TangentVector(np.array([0.1, 0.3, 0, 0]),
                                          [1.0, 0, 0, 0]))
        assert np.allclose(op.eigenvalues, -1.0, atol=1e-9)

    def test_de_sitter_null_vanishes(self, bundles):
        b = bundles["desitter"]
        p = np.zeros(4)
        op = tidal(b.field, TangentVector(p, [1.0, 1.0, 0, 0]))
        assert op.kind == "null" and op.matrix.shape == (2, 2)
        assert np.abs(op.matrix).max() < 1e-10

    def test_schwarzschild_static_observer(self, bundles):
        b = bundles["schwarzschild_static"]
        r = 4.0
        p = np.array([0.0, r, math.pi / 2, 0.0])
        op = tidal(b.field, TangentVector(p, [1.0, 0, 0, 0]))
        expected = np.sort([-2.0 / r ** 3, 1.0 / r ** 3, 1.0 / r ** 3])
        assert np.allclose(np.sort(op.eigenvalues), expected, atol=1e-9)

    def test_self_adjointness(self, bundles):
        b = bundles["flrw_dust"]
        p = region_points(b, 1, seed=10)[0]
        op = tidal(b.field, TangentVector(p, [1.0, 0.2, -0.1, 0.05]))
        assert np.abs(op.matrix - op.matrix.T).max() < 1e-9

    def test_rejects_spacelike(self, bundles):
        with pytest.raises(NotCausal):
            tidal(bundles["minkowski"].field,
                  TangentVector(np.zeros(4), [0.0, 1.0, 0, 0]))


class TestGenericCheck:
    def test_minkowski_not_detected(self, bundles):
        f = bundles["minkowski"].field
        sol = geodesic(f, np.zeros(4), [1.0, 0.4, 0, 0], 2.0)
        res = generic_check(f, sol)
        assert not res.satisfied

    def test_de_sitter_detected_immediately(self, bundles):
        f = bundles["desitter"].field
        sol = geodesic(f, np.zeros(4), [1.0, 0, 0, 0], 1.0)
        res = generic_check(f, sol)
        assert res.satisfied and res.parameter == 0.0

    def test_dust_detected(self, bundles):
        b = bundles["flrw_dust"]
        s0 = b.params["s_ref"]
        f = b.field
        v = np.array([1.0, 0.3, 0, 0])
        sol = geodesic(f, [s0, 0, 0, 0], v, 0.1 * s0)
        assert generic_check(f, sol).satisfied


@pytest.mark.parametrize("name, start, direction", [
    # the principal null directions of Schwarzschild's type-D Weyl tensor
    ("schwarzschild_ef", [0.0, 3.0, 1.5, 0.3], [0.0, -1.0, 0.0, 0.0]),
    ("schwarzschild_ef", [0.0, 3.0, 1.5, 0.3], [1.0, 1.0 / 6.0, 0.0, 0.0]),
    # de Sitter: R(., k) k is a multiple of k, with no part on the screen
    ("desitter", [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]),
    ("desitter", [0.0, 0.0, 0.0, 0.0], [1.0, 0.6, 0.0, -0.8]),
])
def test_generic_check_takes_the_screen_part_on_null_curves(
        bundles, name, start, direction):
    f = bundles[name].field
    sol = geodesic(f, start, direction, 0.5)
    assert not generic_check(f, sol).satisfied


def _generic_one_at_a_time(field_, solution, tau):
    """generic_check's samples as they ran one at a time: one
    curvature_data call per sample, in order, stopping at the first ratio
    over tau. (satisfied, parameter, ratio or the largest ratio)."""
    null = causal_class(field_, TangentVector(solution.p0, solution.v0)
                        ).kind == "null"
    best = 0.0
    for s, x, xdot in solution.samples():
        data = curvature_data(field_, x)
        denom = float(xdot @ xdot)
        if null:
            k = xdot - float(xdot @ data.g @ xdot) / (2.0 * denom) \
                * (data.g_inv @ xdot)
            basis = tidal_screen(data.g, k, null=True)
            a = basis.T @ data.riem_bilinear(k) @ basis
        else:
            a = -data.g_inv @ data.riem_bilinear(xdot)
        ratio = float(np.linalg.norm(a, 2)) / denom
        best = max(best, ratio)
        if ratio > tau:
            return True, float(s), ratio
    return False, None, best


def _cubic_expansion():
    """-dt^2 + e^{t^3} (dx^2 + dy^2) + dz^2: flat at t = 0, curved after,
    so s* moves into the curve as tau grows."""
    table = SymbolTable(["t", "x", "y", "z"])
    entries = {(i, j): "0" for i in range(4) for j in range(i)}
    entries.update({(0, 0): "-1", (1, 1): "exp(t^3)", (2, 2): "exp(t^3)",
                    (3, 3): "1"})
    return ExprMetricField(table, entries)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("cubic",))
def test_generic_check_matches_the_samples_one_at_a_time(bundles, name):
    """The batched pass against the per-sample loop, on timelike and null
    curves: equal satisfied and s*, ratios within 1e-12 relative to their
    scale (or absolute below 1)."""
    if name == "cubic":
        field_, starts = _cubic_expansion(), [np.zeros(4)]
        taus = (1e-10, 0.3, 1.0, 10.0)
    else:
        field_ = bundles[name].field
        starts, taus = region_points(bundles[name], 2, seed=17), (1e-10,)
    rng = np.random.default_rng(19)
    for p in starts:
        frame = lorentz_frame(field_.value(p))
        for alpha in (0.0, 0.5, 1.0):
            omega = rng.normal(size=3)
            v = frame[:, 0] + alpha * frame[:, 1:] @ (omega
                                                     / np.linalg.norm(omega))
            sol = geodesic(field_, p, v, 0.3 if name != "cubic" else 1.0)
            for tau in taus:
                res = generic_check(field_, sol, tau)
                satisfied, parameter, ratio = \
                    _generic_one_at_a_time(field_, sol, tau)
                assert (res.satisfied, res.parameter) == (satisfied, parameter)
                assert abs(res.max_ratio - ratio) <= 1e-12 * max(1.0, ratio)


def test_generic_check_reads_its_curvature_in_one_batch(bundles,
                                                      monkeypatch):
    """The 200 samples take one curvature_data call, on the timelike and
    on the null branch, and the first sample over tau is still s*."""
    import lorentzkit.geometry as geometry
    calls = []

    def counted(field_, p):
        calls.append(np.shape(p))
        return curvature_data(field_, p)

    monkeypatch.setattr(geometry, "curvature_data", counted)
    b = bundles["flrw_dust"]
    s0 = b.params["s_ref"]
    a = math.sqrt(b.field.value(np.array([s0, 0.0, 0.0, 0.0]))[1, 1])
    for v in ([1.0, 0.3, 0, 0], [1.0, 1.0 / a, 0, 0]):
        calls.clear()
        sol = geodesic(b.field, [s0, 0, 0, 0], v, 0.1 * s0)
        res = generic_check(b.field, sol)
        assert res.satisfied and res.parameter == 0.0
        assert calls == [(200, 4)]


def test_generic_check_and_tidal_refuse_an_empty_screen():
    """A null vector has no screen in dimension 2: NotApplicable, naming
    the dimension, where tidal_screen read past an empty array."""
    f = catalog.load("minkowski", n=2).field
    with pytest.raises(NotApplicable, match="empty in dimension 2"):
        tidal(f, TangentVector(np.zeros(2), [1.0, 1.0]))
    with pytest.raises(NotApplicable, match="empty in dimension 2"):
        generic_check(f, geodesic(f, np.zeros(2), [1.0, 1.0], 1.0))
    assert not generic_check(
        f, geodesic(f, np.zeros(2), [1.0, 0.3], 1.0)).satisfied


def test_generic_check_detects_null_curves_in_dust(bundles):
    """Ric(k, k) > 0 in dust, so the screen part of R(., k) k is not 0."""
    b = bundles["flrw_dust"]
    s0 = b.params["s_ref"]
    a = math.sqrt(b.field.value(np.array([s0, 0.0, 0.0, 0.0]))[1, 1])
    sol = geodesic(b.field, [s0, 0, 0, 0], [1.0, 1.0 / a, 0, 0], 0.1 * s0)
    res = generic_check(b.field, sol)
    assert res.satisfied and res.parameter == 0.0


SPEC_FILE = (Path(__file__).resolve().parents[1] / "perfbench" / "spacetimes"
             / "contracting_desitter.st")
CURVATURE_FIELDS = ("g", "g_inv", "gamma", "riem", "ric", "index")
METRICS = CATALOG_NAMES + ("contracting_desitter.st",)


class TestBatchedCurvature:
    """curvature_data on points (B, n) against one call per point.

    The curvature algebra adds no rounding of its own: from the same jets a
    batch and its points agree bit for bit on every metric. The jets agree
    bit for bit only where the metric uses operations whose batched (numpy)
    and point (math) kernels round alike; `desitter` and the spec file
    (exp) and `flrw_dust` (s^(4/3)) can move by an ulp (the `CHANGES.md`
    FOUND on `expr.Kernel`), so those hold to 1e-12 relative.
    """

    @pytest.fixture(scope="class")
    def batches(self, bundles):
        metrics = dict(bundles)
        metrics["contracting_desitter.st"] = load_spec(str(SPEC_FILE))
        out = {}
        for name, b in metrics.items():
            pts = region_points(b, 32, seed=20)
            out[name] = (b.field, pts, curvature_data(b.field, pts))
        return out

    @pytest.mark.parametrize("name", METRICS)
    def test_batch_matches_points(self, batches, name):
        field, pts, batch = batches[name]
        assert batch.riem.shape == (32,) + (field.dim,) * 4
        exact = name in ("minkowski", "torus_quotient", "schwarzschild_ef",
                         "schwarzschild_static", "null_H_demo")
        for i, p in enumerate(pts):
            one = curvature_data(field, p)
            for f in CURVATURE_FIELDS:
                want, got = getattr(one, f), getattr(batch, f)[i]
                if exact:
                    assert np.array_equal(got, want), (f, i)
                else:
                    scale = max(np.abs(want).max(), 1e-300)
                    assert np.abs(got - want).max() <= 1e-12 * scale, (f, i)

    @pytest.mark.parametrize("name", METRICS)
    def test_same_jets_give_the_same_bits(self, batches, name):
        field, pts, batch = batches[name]
        jets = field.component_jets(pts, order=2)
        for i, p in enumerate(pts):
            ith = SimpleNamespace(component_jets=lambda _p, order, i=i:
                                  tuple(a[i] for a in jets))
            one = curvature_data(ith, p)
            for f in CURVATURE_FIELDS:
                assert np.array_equal(getattr(batch, f)[i], getattr(one, f))


def test_a_failing_curvature_sample_raises_its_own_error():
    """One exp(x) point at x = 800 in a batch: the batch overflows in numpy,
    and the replay raises the point's own DomainError (math's range
    error); a batch without it is the batch's own result."""
    table = SymbolTable(["t", "x"])
    field = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                    (1, 1): "exp(x)"})
    points = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 800.0], [0.0, 3.0]])

    def riem(x):
        return curvature_data(field, x).riem

    with pytest.raises(DomainError) as alone:
        riem(points[2])
    with pytest.raises(DomainError) as batched:
        batch_or_replay(riem, points)
    assert str(batched.value) == str(alone.value)
    good = points[[0, 1, 3]]
    assert np.array_equal(batch_or_replay(riem, good), riem(good))
