import math

import numpy as np
import pytest

from lorentzkit.errors import FrameNotOrthonormal
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
