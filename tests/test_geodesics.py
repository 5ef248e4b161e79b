import importlib.util
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lorentzkit.geodesics as geodesics
from lorentzkit.errors import (DomainError, SingularMetric,
                               ToleranceExceeded, batch_or_replay)
from lorentzkit.expr import SymbolTable
from lorentzkit.geodesics import _geodesic_rhs, geodesic, parallel_transport
from lorentzkit.geometry import Tolerances
from lorentzkit.metric import ExprMetricField
from lorentzkit.specfile import load_spec
from lorentzkit.tensors import invert_metric

import transport_reference
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

    def test_radial_infall_ends_at_the_quadrature_time(self, bundles):
        """Radial infall in the EF chart: with energy E = f v' - r' and
        g(x', x') = q, r'^2 = E^2 + q f (f = 1 - 2M/r), so the affine time
        to the r = 1e-3 edge is the integral of dr / |r'|."""
        from scipy.integrate import quad
        f = bundles["schwarzschild_ef"].field
        p, v = np.array([0.0, 3.0, 1.5707, 0.0]), np.array([1.0, -1.0, 0, 0])
        energy, q = 4.0 / 3.0, -7.0 / 3.0       # f(3) = 1/3
        want, _ = quad(lambda r: 1.0 / math.sqrt(energy ** 2
                                                 + q * (1.0 - 2.0 / r)),
                       1e-3, 3.0, epsabs=0.0, epsrel=1e-13, limit=200)
        sol = geodesic(f, p, v, 2.0)
        assert sol.chart_exit
        assert sol.t_reached == pytest.approx(want, rel=1e-8, abs=0.0)

    def test_killing_energy_and_angular_momentum_are_conserved(self, bundles):
        """-g(d_v, x') and g(d_phi, x') stay put along seeded infalls near
        r = 3 with some angular momentum."""
        f = bundles["schwarzschild_ef"].field
        rng = np.random.default_rng(61)
        for _ in range(4):
            p = np.array([0.0, rng.uniform(2.8, 3.2), rng.uniform(1.3, 1.8),
                          rng.uniform(0, 2 * np.pi)])
            v = np.array([1.0, -1.0, 0.0, rng.uniform(0.05, 0.15)])
            samples = [(f.value(x), xd)
                       for _s, x, xd in geodesic(f, p, v, 1.5).samples(33)]
            for row, sign in ((0, -1.0), (3, 1.0)):
                quantity = [sign * float(g[row] @ xd) for g, xd in samples]
                assert max(quantity) - min(quantity) <= \
                    1e-7 * (1.0 + abs(quantity[0]))

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_length_not_finite_and_positive(self, bundles, t_end):
        """A backward, empty or unbounded solve is refused up front, not
        integrated and then read through evaluate's clip."""
        with pytest.raises(ValueError, match="finite length > 0"):
            geodesic(bundles["minkowski"].field, np.zeros(4),
                     np.array([1.0, 0.2, 0, 0]), t_end)

    def test_unwrapped_and_canonical_points(self, bundles):
        b = bundles["torus_quotient"]
        sol = geodesic(b.field, np.zeros(4), np.array([1.0, 0.7, 0, 0]), 3.0)
        raw = sol.point(3.0)
        canon = sol.point(3.0, canonical=True)
        assert raw[1] == pytest.approx(2.1, abs=1e-9)       # covering chart
        assert canon[1] == pytest.approx(0.1, abs=1e-9)     # wrapped


@pytest.mark.parametrize("w0", [np.array([0.0, 1.0, 0.0, 0.0]),
                                np.eye(4)[:, 1:3]], ids=["vector", "frame"])
def test_array_reads_equal_the_reads_one_at_a_time(bundles, w0):
    """evaluate on parameters (B,) is one dense-output call whose rows are
    bit for bit the scalar calls, clipped to [0, t_reached] alike."""
    f = bundles["schwarzschild_ef"].field
    sol = geodesic(f, [0.0, 3.0, 1.5, 0.3], [1.0, -1.0, 0.0, 0.1], 1.0)
    tr = parallel_transport(f, sol, w0)
    s = np.concatenate([[-0.5], np.linspace(0.0, sol.t_reached, 33), [9.0]])
    x, xdot = sol.evaluate(s)
    w = tr.evaluate(s)
    assert x.shape == xdot.shape == (35, 4)
    assert w.shape == (35,) + w0.shape
    for i, si in enumerate(s):
        x1, xdot1 = sol.evaluate(float(si))
        assert np.array_equal(x[i], x1) and np.array_equal(xdot[i], xdot1)
        assert np.array_equal(w[i], tr.evaluate(float(si)))
    for (si, xi, vi), j in zip(sol.samples(33), range(1, 34)):
        assert si == s[j]
        assert np.array_equal(xi, x[j]) and np.array_equal(vi, xdot[j])


def _stored(field_, p, v, length, w0):
    """w0 transported by `parallel_transport` along a curve already held."""
    return parallel_transport(field_, geodesic(field_, p, v, length), w0)


def _fused(field_, p, v, length, w0):
    """w0 transported in the geodesic's own solve."""
    return geodesic(field_, p, v, length, transport=w0).transport


TRANSPORTS = pytest.mark.parametrize("transport", [_stored, _fused],
                                     ids=["parallel_transport", "fused"])


class TestParallelTransport:
    @TRANSPORTS
    def test_minkowski_constant(self, bundles, transport):
        w0 = np.array([0.3, 1.0, -2.0, 0.5])
        tr = transport(bundles["minkowski"].field, np.zeros(4),
                       np.array([1.0, 0.2, 0, 0]), 2.0, w0)
        assert tr.evaluate(2.0).shape == (4,)
        assert np.allclose(tr.evaluate(2.0), w0, atol=1e-9)

    @pytest.mark.parametrize("name", ["schwarzschild_ef", "flrw_dust", "desitter"])
    def test_gram_matrix_constant(self, bundles, name):
        """All pairwise inner products of a transported frame stay put, and
        the transport's own solve of the curve stays within eps_geo of the
        solution it was given."""
        b = bundles[name]
        p = region_points(b, 1, seed=29)[0]
        v = np.array([1.0, 0.05, 0.02, 0.0])
        sol = geodesic(b.field, p, v, 0.8)
        w0 = np.eye(4)[:, 1:3]
        tr = parallel_transport(b.field, sol, w0)
        assert tr.product_drift < 1e-7
        s = np.linspace(0.0, sol.t_reached, 33)
        assert tr.geodesic.t_reached == sol.t_reached
        for got, want in zip(tr.geodesic.evaluate(s), sol.evaluate(s)):
            assert np.abs(got - want).max() <= Tolerances().eps_geo

    @TRANSPORTS
    def test_sphere_triangle_holonomy(self, sphere_metric, transport):
        """Around a geodesic octant (vertices e_x, e_y, e_z of the ambient
        sphere of radius 2, tilted off the chart poles), the transported
        first velocity comes back rotated by pi/2 against the start."""
        a, beta = 2.0, 0.7
        rot = np.array([[math.cos(beta), 0.0, math.sin(beta)],
                        [0.0, 1.0, 0.0],
                        [-math.sin(beta), 0.0, math.cos(beta)]])
        verts = list(rot.T)

        def chart(u):
            return np.array([math.acos(u[2]), math.atan2(u[1], u[0])])

        def chart_velocity(th_ph, d):
            th, ph = th_ph
            jac = a * np.array([[math.cos(th) * math.cos(ph), -math.sin(th) * math.sin(ph)],
                                [math.cos(th) * math.sin(ph), math.sin(th) * math.cos(ph)],
                                [-math.sin(th), 0.0]])
            return np.linalg.lstsq(jac, d, rcond=None)[0]

        pt, w = chart(verts[0]), None
        for k in range(3):
            v = chart_velocity(pt, verts[(k + 1) % 3])   # unit ambient speed
            w = v if w is None else w
            tr = transport(sphere_metric, pt, v, math.pi * a / 2.0, w)
            leg = tr.geodesic
            w = tr.evaluate(leg.t_reached)
            pt, _ = leg.evaluate(leg.t_reached)
        assert np.allclose(pt, chart(verts[0]), atol=1e-6)
        v0 = chart_velocity(pt, verts[1])
        g = sphere_metric.value(pt)
        cosang = float(w @ g @ v0) / math.sqrt(float(w @ g @ w) * float(v0 @ g @ v0))
        assert abs(math.acos(np.clip(cosang, -1.0, 1.0)) - math.pi / 2) < 1e-5


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
    # the radial infall; at rtol 1e-4 its drift misses the budget
    INFALL = np.array([0.0, 3.0, 1.5707, 0.0]), np.array([1.0, -1.0, 0, 0])

    @pytest.mark.parametrize("loose_first", [False, True])
    def test_geodesic(self, bundles, monkeypatch, loose_first):
        attempts = self._counting_solver(monkeypatch, loose_first)
        sol = geodesic(bundles["schwarzschild_ef"].field, *self.INFALL, 1.5)
        assert len(attempts) == 1 + loose_first
        assert sol.refinements == int(loose_first)
        assert sol.n_rhs_evals == sum(attempts)

    @pytest.mark.parametrize("loose_first", [False, True])
    def test_transport(self, bundles, monkeypatch, loose_first):
        f = bundles["schwarzschild_ef"].field
        sol = geodesic(f, *self.INFALL, 1.0)
        attempts = self._counting_solver(monkeypatch, loose_first)
        tr = parallel_transport(f, sol, np.array([0.0, 1.0, 0.0, 0.0]))
        assert len(attempts) == 1 + loose_first
        assert tr.refinements == int(loose_first)
        assert tr.n_rhs_evals == sum(attempts)


    @pytest.mark.filterwarnings("error::UserWarning")
    def test_retry_stays_at_scipys_rtol_floor(self, bundles):
        """eps_geo 1e-12 asks for a retry at rtol 1e-15, below scipy's floor
        of 100 eps: the retry runs at the floor without scipy's warning."""
        sol = geodesic(bundles["schwarzschild_ef"].field, *self.INFALL, 2.0,
                       Tolerances(eps_geo=1e-12))
        assert sol.refinements == 1

    def test_a_missed_norm_budget_raises_after_one_retry(self, bundles,
                                                         monkeypatch):
        """eps_geo 1e-16 is out of reach even at scipy's rtol floor: the
        first attempt and its one retry both miss the norm budget."""
        attempts = self._counting_solver(monkeypatch, loose_first=False)
        with pytest.raises(ToleranceExceeded, match="norm drift .* exceeds budget"):
            geodesic(bundles["schwarzschild_ef"].field, self.P, self.V, 1.0,
                     Tolerances(eps_geo=1e-16))
        assert len(attempts) == 2

    def test_a_missed_product_budget_raises_after_one_retry(self, bundles,
                                                            monkeypatch):
        """A comoving dust observer holds g(x', x') exactly, so at eps_geo
        1e-16 it is the transported frame's products that miss their budget
        on both attempts."""
        b = bundles["flrw_dust"]
        p = region_points(b, 1, seed=29)[0]
        attempts = self._counting_solver(monkeypatch, loose_first=False)
        with pytest.raises(ToleranceExceeded,
                           match="transport product drift .* over budget"):
            geodesic(b.field, p, np.array([1.0, 0.0, 0.0, 0.0]), 0.8,
                     Tolerances(eps_geo=1e-16), transport=np.eye(4)[:, 1:3])
        assert len(attempts) == 2


class TestFusedTransport:
    """`geodesic(..., transport=)` carries the frame in the geodesic's own
    solve: one solve_ivp call, the same transport as the stored-curve
    reference solve (tests/transport_reference.py) within eps_geo, and one
    shared retry."""

    @pytest.mark.parametrize("name", ["schwarzschild_ef", "flrw_dust", "desitter"])
    def test_agrees_with_the_stored_curve_transport(self, bundles, name):
        b = bundles[name]
        p = region_points(b, 1, seed=29)[0]
        v = np.array([1.0, 0.05, 0.02, 0.0])
        w0 = np.eye(4)[:, 1:3]
        fused = geodesic(b.field, p, v, 0.8, transport=w0)
        stored = transport_reference.parallel_transport(
            b.field, geodesic(b.field, p, v, 0.8), w0)
        budget = Tolerances().eps_geo
        s = np.linspace(0.0, fused.t_reached, 33)
        w = fused.transport.evaluate(s)
        assert w.shape == (33, 4, 2)
        assert np.abs(w - stored.evaluate(s)).max() <= budget
        assert np.array_equal(fused.transport.evaluate(0.0), w0)
        assert fused.transport.product_drift < budget
        assert fused.transport.geodesic is fused

    def test_a_product_drift_alone_retries_once(self, bundles, monkeypatch):
        """A comoving dust observer keeps g(x', x') exactly even at a loose
        rtol, so only the transported frame's products can force the retry:
        both solves then count, on the geodesic and on its transport."""
        b = bundles["flrw_dust"]
        p = region_points(b, 1, seed=29)[0]
        v = np.array([1.0, 0.0, 0.0, 0.0])
        attempts = TestRefinementCounts._counting_solver(monkeypatch, True)
        assert geodesic(b.field, p, v, 0.8).refinements == 0
        attempts.clear()
        sol = geodesic(b.field, p, v, 0.8, transport=np.eye(4)[:, 1:3])
        assert len(attempts) == 2
        assert sol.refinements == sol.transport.refinements == 1
        assert sol.n_rhs_evals == sol.transport.n_rhs_evals == sum(attempts)

    def test_jacobi_and_transport_share_one_solve(self, bundles,
                                                  monkeypatch):
        """Jacobi fields and transported vectors ride in one state: one
        solve, whose curve, vectors and fields agree with the separate
        solves to eps_geo (1 + |.|)."""
        f = bundles["schwarzschild_ef"].field
        p, v = np.array([0.0, 3.0, 1.5, 0.3]), np.array([1.0, -0.5, 0, 0.1])
        w0, j0 = np.eye(4)[:, 1:3], np.eye(4)[:, [0, 2, 3]]
        calls = []
        original = geodesics.solve_ivp

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(geodesics, "solve_ivp", counted)
        both = geodesic(f, p, v, 1.0, jacobi=j0, transport=w0)
        assert calls == [1]
        carried = geodesic(f, p, v, 1.0, transport=w0)
        varied = geodesic(f, p, v, 1.0, jacobi=j0)
        assert both.t_reached == carried.t_reached == varied.t_reached == 1.0

        def close(a, b):
            return np.abs(a - b).max() <= Tolerances().eps_geo * (
                1.0 + np.abs(b).max())
        s = np.linspace(0.0, 1.0, 9)
        for alone in (carried, varied):
            assert all(map(close, both.evaluate(s), alone.evaluate(s)))
        assert close(both.transport.evaluate(s), carried.transport.evaluate(s))
        for si in s:
            assert both.jacobi(si).shape == (4, 3)
            assert close(both.jacobi(si), varied.jacobi(si))

    def test_cli_geodesic_solves_once(self, monkeypatch):
        from lorentzkit import cli
        calls = []
        original = geodesics.solve_ivp

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(geodesics, "solve_ivp", counted)
        out = io.StringIO()
        code = cli.run(["geodesic", "builtin:schwarzschild_ef",
                        "--from=0,3,1.5,0.3", "--dir=1,-0.5,0,0.1",
                        "--length", "0.5", "--transport=0,1,0,0;0,0,1,0"], out)
        rep = json.loads(out.getvalue())["result"]
        assert code == 0 and calls == [1]
        assert rep["transport"]["n_rhs_evals"] == rep["n_rhs_evals"]
        assert np.array(rep["transport"]["final"]).shape == (4, 2)


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
            got = transport_reference._transport_rhs(b.field, curve, 2)(
                0.0, w.reshape(-1))
            assert np.abs(got.reshape(n, 2) - dw).max() <= \
                1e-10 * np.abs(dw).max()

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("contracting_desitter",))
    def test_fused_rhs_matches_oracle_christoffel(self, bundles, oracle, name):
        """The state (x, x', w_1, w_2): x'' and both w_a' from one
        contraction, against sympy's Christoffel symbols; with no columns
        the right-hand side is the plain geodesic's, bit for bit."""
        b = self._bundle(bundles, name)
        n = b.field.dim
        geo = oracle.geometry(name)
        rng = np.random.default_rng(59)
        for p in region_points(b, 3, seed=61):
            xdot = rng.normal(size=n)
            w = rng.normal(size=(n, 2))
            gam = geo.christoffel(p)
            want = -np.einsum("kij,i,jm->km", gam, xdot,
                              np.column_stack([xdot, w]))
            y = _geodesic_rhs(b.field, 2)(0.0, np.concatenate(
                [p, xdot, w.T.reshape(-1)]))
            assert np.array_equal(y[:n], xdot)
            got = y[n:].reshape(3, n).T
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            plain = np.concatenate([p, xdot])
            assert np.array_equal(
                _geodesic_rhs(b.field, 0)(0.0, plain),
                np.concatenate([xdot, geodesics._minus_gamma(
                    b.field, p, xdot, xdot)]))

    @pytest.mark.parametrize("name", CATALOG_NAMES + ("contracting_desitter",))
    def test_jacobi_rhs_differentiates_the_geodesic_rhs(self, bundles, name):
        """The variational right-hand side carries the geodesic's own
        bit for bit, and its Jacobi part (J', J'') is the derivative of the
        geodesic right-hand side along (J, J'), by central differences."""
        b = self._bundle(bundles, name)
        n, h = b.field.dim, 1e-6
        geo = _geodesic_rhs(b.field)
        rng = np.random.default_rng(47)
        for p in region_points(b, 3, seed=53):
            base = np.concatenate([p, rng.normal(size=n)])
            jac, jac_dot = rng.normal(size=(2, n, 2))
            y = _geodesic_rhs(b.field, 0, 2)(0.0, np.concatenate(
                [base, jac.reshape(-1), jac_dot.reshape(-1)]))
            assert np.array_equal(y[:2 * n], geo(0.0, base))
            got = y[2 * n:].reshape(2, n, 2)
            assert np.array_equal(got[0], jac_dot)
            for c in range(2):
                step = h * np.concatenate([jac[:, c], jac_dot[:, c]])
                want = (geo(0.0, base + step) - geo(0.0, base - step))[n:] \
                    / (2 * h)
                assert np.abs(got[1][:, c] - want).max() <= \
                    1e-6 * (1.0 + np.abs(want).max())

    def test_near_degenerate_metric_raises(self):
        """rcond 1e-13 < RCOND_FLOOR: every right-hand side refuses it."""
        table = SymbolTable(["t", "x"])
        field = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                        (1, 1): "1e-13 * exp(t)"})
        p, xdot = np.array([0.0, 0.3]), np.array([1.0, 0.5])
        with pytest.raises(SingularMetric):
            invert_metric(field.value(p))
        with pytest.raises(SingularMetric):
            _geodesic_rhs(field)(0.0, np.concatenate([p, xdot]))
        with pytest.raises(SingularMetric):
            _geodesic_rhs(field, 1)(0.0, np.concatenate([p, xdot, xdot]))
        with pytest.raises(SingularMetric):
            _geodesic_rhs(field, 0, 1)(0.0, np.concatenate([p, xdot, xdot,
                                                            xdot]))

    def test_a_failing_drift_sample_raises_its_own_error(self):
        """The drift checks query their samples in one batch; a batch that
        fails is replayed point by point, so the error is the failing
        point's own (here math's range error, not numpy's overflow)."""
        table = SymbolTable(["t", "x"])
        field = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                        (1, 1): "exp(x)"})
        points = np.array([[0.0, 1.0], [0.0, 800.0], [0.0, 2.0]])
        with pytest.raises(DomainError) as alone:
            field.value(points[1])
        with pytest.raises(DomainError) as sampled:
            batch_or_replay(field.value, points)
        assert str(sampled.value) == str(alone.value)
        assert np.array_equal(batch_or_replay(field.value, points[[0, 2]]),
                              [field.value(points[0]), field.value(points[2])])
