import math

import numpy as np
import pytest

from lorentzkit.errors import FrameNotOrthonormal
from lorentzkit.expr import SymbolTable
from lorentzkit.metric import ExprMetricField
from lorentzkit.normal import NormalChart, orthonormal_frame_from

from conftest import fd_scalar_jet


class TestMinkowskiChart:
    def test_identity_map(self, bundles):
        f = bundles["minkowski"].field
        chart = NormalChart(f, np.zeros(4), np.eye(4))
        assert chart.affine
        x = np.array([0.3, -0.2, 0.7, 0.1])
        assert np.allclose(chart.forward(x), x)
        assert np.allclose(chart.inverse(x), x)

    def test_boosted_frame(self, bundles):
        f = bundles["minkowski"].field
        ch = math.cosh(0.5)
        sh = math.sinh(0.5)
        frame = np.eye(4)
        frame[:2, :2] = [[ch, sh], [sh, ch]]
        chart = NormalChart(f, np.zeros(4), frame)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(chart.forward(x), frame[:, 0])
        assert np.allclose(chart.inverse(frame[:, 0]), x)

    def test_frame_validation(self, bundles):
        f = bundles["minkowski"].field
        with pytest.raises(FrameNotOrthonormal):
            NormalChart(f, np.zeros(4), 2.0 * np.eye(4))

    def test_center_jets(self, bundles):
        f = bundles["minkowski"].field
        chart = NormalChart(f, np.array([0.1, 0.2, 0.3, 0.4]), np.eye(4))
        jets = chart.center_coord_jets()
        for k, j in enumerate(jets):
            assert j.value == 0.0
            assert np.allclose(j.grad, np.eye(4)[k])
            assert np.abs(j.hess).max() == 0.0


class TestCurvedCharts:
    def test_schwarzschild_pullback_christoffel_vanishes(self, bundles):
        b = bundles["schwarzschild_static"]
        p = np.array([0.0, 6.0, math.pi / 2, 0.0])
        frame = orthonormal_frame_from(b.field, p, first=np.array([1.0, 0, 0, 0]))
        chart = NormalChart(b.field, p, frame, radius=0.4)
        gamma0 = chart.pullback_christoffel_origin()
        assert np.abs(gamma0).max() < 1e-6

    def test_schwarzschild_roundtrip(self, bundles):
        b = bundles["schwarzschild_static"]
        p = np.array([0.0, 6.0, math.pi / 2, 0.0])
        frame = orthonormal_frame_from(b.field, p, first=np.array([1.0, 0, 0, 0]))
        chart = NormalChart(b.field, p, frame, radius=0.4)
        x = np.array([0.1, -0.15, 0.2, 0.05])
        q = chart.forward(x)
        assert np.allclose(chart.inverse(q), x, atol=1e-8)
        # metric at the center pulls back to the flat form
        assert np.allclose(chart.pullback_metric(np.zeros(4)),
                           np.diag([-1.0, 1, 1, 1]), atol=1e-9)

    def test_sphere_normal_coordinate_determinant(self, sphere_metric):
        """det of the pulled-back metric is (a sin(rho/a) / rho)^2."""
        a = 2.0
        p = np.array([math.pi / 2, 0.3])
        g = sphere_metric.value(p)
        lam, q = np.linalg.eigh(g)
        frame = q / np.sqrt(lam)
        chart = NormalChart(sphere_metric, p, frame, radius=0.8)
        for x in ([0.4, 0.0], [0.0, 0.5], [0.3, 0.4], [-0.2, 0.35]):
            x = np.asarray(x)
            rho = np.linalg.norm(x)
            got = np.linalg.det(chart.pullback_metric(x))
            expected = (a * math.sin(rho / a) / rho) ** 2
            assert got == pytest.approx(expected, rel=1e-5)

    def test_sphere_determinant_is_exact(self, sphere_metric):
        """The same determinant from the exact exp-map Jacobian, to 1e-10."""
        a = 2.0
        p = np.array([math.pi / 2, 0.3])
        lam, q = np.linalg.eigh(sphere_metric.value(p))
        chart = NormalChart(sphere_metric, p, q / np.sqrt(lam), radius=0.8)
        for x in ([0.4, 0.0], [0.0, 0.5], [0.3, 0.4], [-0.2, 0.35],
                  [-0.5, -0.5]):
            x = np.asarray(x)
            rho = np.linalg.norm(x)
            got = np.linalg.det(chart.pullback_metric(x))
            expected = (a * math.sin(rho / a) / rho) ** 2
            assert got == pytest.approx(expected, rel=1e-10)

    def test_center_coord_jets_match_fd(self, bundles):
        """Closed-form 2-jet of the inverse vs finite differences."""
        b = bundles["schwarzschild_static"]
        p = np.array([0.0, 6.0, math.pi / 2, 0.0])
        frame = orthonormal_frame_from(b.field, p, first=np.array([1.0, 0, 0, 0]))
        chart = NormalChart(b.field, p, frame, radius=0.4)
        jets = chart.center_coord_jets()
        for k in range(4):
            _, grad_fd, hess_fd = fd_scalar_jet(
                lambda q: chart.inverse(q)[k], p, h=5e-4)
            assert np.allclose(jets[k].grad, grad_fd, atol=1e-6,
                               rtol=1e-5)
            scale = 1.0 + np.abs(hess_fd).max()
            assert np.abs(jets[k].hess - hess_fd).max() < 2e-4 * scale


class TestFlatSphericalChart:
    """Flat space in spherical coordinates (t, r, th, ph): the components
    are not constant, so the curved path runs, but every geodesic is a
    straight line in Cartesian coordinates X. So the exponential map is
    F(x) = Sph(X(p) + dX(p) frame x), and DF(x) = dX(F(x))^-1 dX(p) frame."""

    P = np.array([0.0, 2.0, 1.2, 0.5])

    @pytest.fixture(scope="class")
    def chart(self):
        entries = {(i, j): "0" for i in range(4) for j in range(i)}
        entries.update({(0, 0): "-1", (1, 1): "1", (2, 2): "r^2",
                        (3, 3): "r^2*sin(th)^2"})
        field_ = ExprMetricField(
            SymbolTable(["t", "r", "th", "ph"]), entries,
            domain=[(-np.inf, np.inf), (1e-3, np.inf),
                    (1e-3, math.pi - 1e-3), (-np.inf, np.inf)])
        return NormalChart(field_, self.P,
                           orthonormal_frame_from(field_, self.P), radius=0.5)

    @staticmethod
    def _cartesian(q):
        t, r, th, ph = q
        return np.array([t, r * math.sin(th) * math.cos(ph),
                         r * math.sin(th) * math.sin(ph), r * math.cos(th)])

    @staticmethod
    def _d_cartesian(q):
        _, r, th, ph = q
        st, ct, sp, cp = math.sin(th), math.cos(th), math.sin(ph), math.cos(ph)
        return np.array([[1.0, 0, 0, 0],
                         [0, st * cp, r * ct * cp, -r * st * sp],
                         [0, st * sp, r * ct * sp, r * st * cp],
                         [0, ct, -r * st, 0]])

    @staticmethod
    def _spherical(big):
        t, x, y, z = big
        r = math.sqrt(x * x + y * y + z * z)
        return np.array([t, r, math.acos(z / r), math.atan2(y, x)])

    @pytest.mark.parametrize("x", [[0.3, 0.4, -0.2, 0.1], [0.0, -0.5, 0.2, 0.3],
                                   [-0.2, 0.1, 0.35, -0.3]])
    def test_forward_and_jacobian_are_closed_form(self, chart, x):
        x = np.asarray(x)
        moved = self._d_cartesian(self.P) @ chart.frame
        want_f = self._spherical(self._cartesian(self.P) + moved @ x)
        want_df = np.linalg.solve(self._d_cartesian(want_f), moved)
        for got_f in (chart.forward(x), chart._forward_and_jacobian(x)[0]):
            assert np.abs(got_f - want_f).max() <= \
                1e-10 * np.abs(want_f).max()
        got_df = chart._forward_jacobian(x)
        assert np.abs(got_df - want_df).max() <= 1e-10 * np.abs(want_df).max()
        assert np.abs(chart.inverse(want_f) - x).max() <= 1e-10


def test_affine_inverse_takes_the_nearest_periodic_image(bundles):
    """On the torus quotient the inverse of an affine chart wraps q to the
    image nearest the center, as its coordinate jets do."""
    f = bundles["torus_quotient"].field
    chart = NormalChart(f, [0.0, 0.9, 0.5, 0.5], np.eye(4))
    q = np.array([0.0, 0.05, 0.5, 0.5])
    x = chart.inverse(q)
    assert x[1] == pytest.approx(0.15)
    assert np.allclose(x, [j.value for j in chart.coord_jets(q)],
                       rtol=0.0, atol=1e-15)
