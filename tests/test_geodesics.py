import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lorentzkit.geodesics as geodesics
from lorentzkit.errors import SingularMetric, ToleranceExceeded
from lorentzkit.expr import SymbolTable
from lorentzkit.geodesics import (_geodesic_rhs, _transport_rhs, geodesic,
                                  parallel_transport)
from lorentzkit.geometry import Tolerances
from lorentzkit.metric import ExprMetricField
from lorentzkit.specfile import load_spec
from lorentzkit.tensors import invert_metric

from conftest import CATALOG_NAMES, region_points

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ORACLE = PERFBENCH / "oracle.py"
SPEC_FILE = PERFBENCH / "spacetimes" / "contracting_desitter.st"


class TestGeodesic:
    def test_minkowski_straight_line(self, bundles):
        f = bundles["minkowski"].field
        p = np.array([0.1, -0.2, 0.3, 0.0])
        v = np.array([1.0, 0.5, -0.25, 0.0])
        sol = geodesic(f, p, v, 3.0)
        for s in (0.0, 1.1, 2.7, 3.0):
            x, xd = sol.evaluate(s)
            assert np.allclose(x, p + s * v, atol=1e-9)
            assert np.allclose(xd, v, atol=1e-9)

    def test_sphere_equator_reaches_antipode(self, sphere_metric):
        """Great-circle oracle: arc pi*a lands on the antipodal point."""
        a = 2.0
        start = np.array([math.pi / 2, 0.3])
        v = np.array([0.0, 1.0 / a])          # unit speed along the equator
        sol = geodesic(sphere_metric, start, v, math.pi * a)
        end, _ = sol.evaluate(sol.t_reached)
        assert end[0] == pytest.approx(math.pi / 2, abs=1e-6)
        assert end[1] == pytest.approx(0.3 + math.pi, abs=1e-6)

    def test_schwarzschild_photon_sphere(self, bundles):
        """Tangential null ray at r = 3M stays on the photon sphere."""
        b = bundles["schwarzschild_static"]
        r0 = 3.0
        p = np.array([0.0, r0, math.pi / 2, 0.0])
        g = b.field.value(p)
        # null: -f tdot^2 + r^2 phidot^2 = 0
        phidot = 1.0
        tdot = math.sqrt(r0 ** 2 * phidot ** 2 / (1 - 2.0 / r0))
        v = np.array([tdot, 0.0, 0.0, phidot])
        assert abs(v @ g @ v) < 1e-12
        span = 2 * math.pi / phidot            # one revolution in phi
        sol = geodesic(b.field, p, v, span)
        radii = [x[1] for _, x, _ in sol.samples(60)]
        assert max(abs(r - r0) for r in radii) < 1e-5

    def test_norm_conservation_budget(self, bundles):
        tols = Tolerances()
        for name in CATALOG_NAMES:
            b = bundles[name]
            p = region_points(b, 1, seed=17)[0]
            v = np.array([1.0] + [0.1] * (b.field.dim - 1))
            sol = geodesic(b.field, p, v, 0.5)
            q0 = float(v @ b.field.value(p) @ v)
            assert sol.norm_drift <= tols.eps_geo * (1 + abs(q0))

    def test_chart_exit(self, bundles):
        """Ingoing null ray in the EF chart leaves through the r floor."""
        f = bundles["schwarzschild_ef"].field
        sol = geodesic(f, np.array([0.0, 1.0, math.pi / 2, 0.0]),
                       np.array([0.0, -1.0, 0.0, 0.0]), 5.0)
        assert sol.chart_exit
        assert sol.t_reached < 5.0
        x, _ = sol.evaluate(sol.t_reached)
        assert x[1] == pytest.approx(1e-3, abs=1e-6)

    def test_unwrapped_and_canonical_points(self, bundles):
        b = bundles["torus_quotient"]
        sol = geodesic(b.field, np.zeros(4), np.array([1.0, 0.7, 0, 0]), 3.0)
        raw = sol.point(3.0)
        canon = sol.point(3.0, canonical=True)
        assert raw[1] == pytest.approx(2.1, abs=1e-9)       # covering chart
        assert canon[1] == pytest.approx(0.1, abs=1e-9)     # wrapped


class TestParallelTransport:
    def test_minkowski_constant(self, bundles):
        f = bundles["minkowski"].field
        sol = geodesic(f, np.zeros(4), np.array([1.0, 0.2, 0, 0]), 2.0)
        tr = parallel_transport(f, sol, np.array([0.3, 1.0, -2.0, 0.5]))
        assert np.allclose(tr.evaluate(2.0).ravel(), [0.3, 1.0, -2.0, 0.5],
                           atol=1e-9)

    @pytest.mark.parametrize("name", ["schwarzschild_ef", "flrw_dust", "desitter"])
    def test_gram_matrix_constant(self, bundles, name):
        """All pairwise inner products of a transported frame stay put."""
        b = bundles[name]
        p = region_points(b, 1, seed=29)[0]
        v = np.array([1.0, 0.05, 0.02, 0.0])
        sol = geodesic(b.field, p, v, 0.8)
        w0 = np.eye(4)[:, 1:3]
        tr = parallel_transport(b.field, sol, w0)
        assert tr.product_drift < 1e-7

    def test_sphere_triangle_holonomy(self, sphere_metric):
        """Transport around three quarter great circles rotates by pi/2.

        The triangle is a rotated octant (three mutually orthogonal
        vertices), tilted so no leg comes near a chart pole.
        """
        a = 2.0
        quarter = math.pi * a / 2.0
        beta = 0.7
        verts = [np.array([math.cos(beta), 0.0, -math.sin(beta)]),
                 np.array([0.0, 1.0, 0.0]),
                 np.array([math.sin(beta), 0.0, math.cos(beta)])]

        def to_chart(unit_vec):
            return np.array([math.acos(unit_vec[2]),
                             math.atan2(unit_vec[1], unit_vec[0])])

        def chart_velocity(chart_pt, ambient_dir):
            th, ph = chart_pt
            j = a * np.array([
                [math.cos(th) * math.cos(ph), -math.sin(th) * math.sin(ph)],
                [math.cos(th) * math.sin(ph), math.sin(th) * math.cos(ph)],
                [-math.sin(th), 0.0]])
            sol, *_ = np.linalg.lstsq(j, ambient_dir, rcond=None)
            return sol

        w = None
        pt = to_chart(verts[0])
        for k in range(3):
            cur, nxt = verts[k], verts[(k + 1) % 3]
            tangent = nxt - float(nxt @ cur) * cur
            tangent /= np.linalg.norm(tangent)
            v = chart_velocity(pt, tangent)     # unit ambient speed
            leg = geodesic(sphere_metric, pt, v, quarter)
            if w is None:
                w = v.copy()                     # transport the leg-1 velocity
            w = parallel_transport(sphere_metric, leg, w).evaluate(
                leg.t_reached).ravel()
            pt, _ = leg.evaluate(leg.t_reached)
        assert np.allclose(pt, to_chart(verts[0]), atol=1e-6)

        # measure the angle of the returned vector against the starting one
        g = sphere_metric.value(pt)
        v0 = chart_velocity(pt, (verts[1] - float(verts[1] @ verts[0]) * verts[0])
                            / np.linalg.norm(verts[1] - float(verts[1] @ verts[0]) * verts[0]))
        cosang = float(w @ g @ v0) / (
            math.sqrt(float(w @ g @ w)) * math.sqrt(float(v0 @ g @ v0)))
        angle = math.acos(np.clip(cosang, -1.0, 1.0))
        assert abs(angle - math.pi / 2) < 1e-5


class TestRefinementCounts:
    """A discarded first attempt shows in the solution: `refinements` is 1
    and `n_rhs_evals` counts the right-hand sides of both attempts."""

    @staticmethod
    def _counting_solver(monkeypatch, loose_first: bool):
        """Wrap geodesics.solve_ivp to count right-hand-side calls per
        attempt; with loose_first the first attempt runs at rtol 1e-4, so
        it misses the drift budget and is retried."""
        attempts = []
        original = geodesics.solve_ivp

        def solve_ivp(fun, *args, **kwargs):
            attempts.append(0)
            k = len(attempts) - 1
            if loose_first and k == 0:
                kwargs.update(rtol=1e-4, atol=1e-6)

            def counted(*a):
                attempts[k] += 1
                return fun(*a)
            return original(counted, *args, **kwargs)

        monkeypatch.setattr(geodesics, "solve_ivp", solve_ivp)
        return attempts

    P, V = np.array([0.0, 3.0, 1.5, 0.3]), np.array([1.0, -0.5, 0.0, 0.1])

    @pytest.mark.parametrize("loose_first", [False, True])
    def test_geodesic(self, bundles, monkeypatch, loose_first):
        attempts = self._counting_solver(monkeypatch, loose_first)
        sol = geodesic(bundles["schwarzschild_ef"].field, self.P, self.V, 1.0)
        assert len(attempts) == 1 + loose_first
        assert sol.refinements == int(loose_first)
        assert sol.n_rhs_evals == sum(attempts)

    @pytest.mark.parametrize("loose_first", [False, True])
    def test_transport(self, bundles, monkeypatch, loose_first):
        f = bundles["schwarzschild_ef"].field
        sol = geodesic(f, self.P, self.V, 1.0)
        attempts = self._counting_solver(monkeypatch, loose_first)
        tr = parallel_transport(f, sol, np.array([0.0, 1.0, 0.0, 0.0]))
        assert len(attempts) == 1 + loose_first
        assert tr.refinements == int(loose_first)
        assert tr.n_rhs_evals == sum(attempts)


    @pytest.mark.filterwarnings("error::UserWarning")
    def test_retry_stays_at_scipys_rtol_floor(self, bundles):
        """eps_geo 1e-12 asks for a retry at rtol 1e-15, below scipy's floor
        of 100 eps: the retry runs at the floor without scipy's warning."""
        sol = geodesic(bundles["schwarzschild_ef"].field, (0, 4, 1.5, 0.3),
                       (1, -1, 0, 0.2), 2.0, Tolerances(eps_geo=1e-12))
        assert sol.refinements == 1

    def test_transport_skips_a_retry_the_geodesic_decides(self, bundles,
                                                          monkeypatch):
        """When g(x', x') of the stored geodesic alone drifts over the
        transport budget, a transport retry cannot help and is not run."""
        f = bundles["schwarzschild_ef"].field
        sol = geodesic(f, (0, 3, 1.5707, 0), (1, -1, 0, 0), 1.8)
        attempts = self._counting_solver(monkeypatch, loose_first=False)
        with pytest.raises(ToleranceExceeded):
            parallel_transport(f, sol, np.array([0.0, 1.0, 0.0, 0.0]),
                               Tolerances(eps_geo=1e-9))
        assert len(attempts) == 1


class TestRightHandSides:
    """The contracted right-hand sides against sympy's Christoffel symbols.

    perfbench/oracle.py derives Gamma symbolically from metrics written out
    by hand, independently of the expression parser and the jets.
    """

    @pytest.fixture(scope="class")
    def oracle(self):
        pytest.importorskip("sympy")
        spec = importlib.util.spec_from_file_location("perfbench_oracle",
                                                      ORACLE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _bundle(bundles, name):
        return load_spec(str(SPEC_FILE)) if name == "contracting_desitter" \
            else bundles[name]

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("contracting_desitter",))
    def test_rhs_match_oracle_christoffel(self, bundles, oracle, name):
        b = self._bundle(bundles, name)
        n = b.field.dim
        geo = oracle.geometry(name)
        rng = np.random.default_rng(41)
        for p in region_points(b, 3, seed=43):
            xdot = rng.normal(size=n)
            w = rng.normal(size=(n, 2))
            gam = geo.christoffel(p)
            acc = -np.einsum("kij,i,j->k", gam, xdot, xdot)
            dw = -np.einsum("kij,i,jm->km", gam, xdot, w)

            y = _geodesic_rhs(b.field)(0.0, np.concatenate([p, xdot]))
            assert np.array_equal(y[:n], xdot)
            assert np.abs(y[n:] - acc).max() <= 1e-10 * np.abs(acc).max()

            curve = SimpleNamespace(
                evaluate=lambda s, p=p, xdot=xdot: (p, xdot))
            got = _transport_rhs(b.field, curve, 2)(0.0, w.reshape(-1))
            assert np.abs(got.reshape(n, 2) - dw).max() <= \
                1e-10 * np.abs(dw).max()

    def test_near_degenerate_metric_raises(self):
        """rcond 1e-13 < RCOND_FLOOR: both right-hand sides refuse it."""
        table = SymbolTable(["t", "x"])
        field = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                        (1, 1): "1e-13 * exp(t)"})
        p, xdot = np.array([0.0, 0.3]), np.array([1.0, 0.5])
        with pytest.raises(SingularMetric):
            invert_metric(field.value(p))
        with pytest.raises(SingularMetric):
            _geodesic_rhs(field)(0.0, np.concatenate([p, xdot]))
        curve = SimpleNamespace(evaluate=lambda s: (p, xdot))
        with pytest.raises(SingularMetric):
            _transport_rhs(field, curve, 1)(0.0, xdot)
