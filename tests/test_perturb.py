"""Bump fields, seminorms, and the two exit-family constructions."""

import math

import numpy as np
import pytest

from lorentzkit.errors import (NotApplicable, RadiusError, SupportNotContained)
from lorentzkit.perturb import (NormalCoordBump, bump, cs_seminorm,
                                find_degenerate_witness,
                                positivity_exit_family, trapped_exit_family)
from lorentzkit.conformal import rescale

from conftest import fd_scalar_jet


class TestBumpField:
    def test_prescription_at_center(self, bundles):
        f = bundles["minkowski"].field
        p = np.array([0.1, 0.2, 0.3, 0.4])
        dphi = np.array([0.5, -1.0, 2.0, 0.0])
        b = bump(f, p, 0.7, dphi, 0.3)
        jet = b.jet2(p)
        assert jet.value == pytest.approx(0.7, abs=1e-12)
        assert np.allclose(jet.grad, dphi, atol=1e-12)

    def test_zero_outside_support(self, bundles):
        f = bundles["minkowski"].field
        p = np.zeros(4)
        b = bump(f, p, 0.0, np.array([1.0, 0, 0, 0]), 0.3)
        far = np.array([0.61, 0.0, 0.0, 0.0])
        jet = b.jet2(far)
        assert jet.value == 0.0
        assert np.abs(jet.grad).max() == 0.0
        assert np.abs(jet.hess).max() == 0.0

    def test_jets_match_finite_differences(self, bundles):
        """Jet derivatives agree with central differences off the seams."""
        f = bundles["minkowski"].field
        p = np.zeros(4)
        b = bump(f, p, 0.4, np.array([1.0, -0.5, 0.2, 0.0]), 0.4)
        for radius in (0.1, 0.19, 0.25, 0.3, 0.39, 0.45):
            q = p + radius * np.array([1, 1, 1, 1]) / 2.0
            jet = b.jet2(q)
            v_fd, g_fd, h_fd = fd_scalar_jet(lambda y: b.jet2(y).value, q,
                                             h=1e-5)
            assert jet.value == pytest.approx(v_fd, abs=1e-12)
            assert np.abs(jet.grad - g_fd).max() < 1e-5
            assert np.abs(jet.hess - h_fd).max() < 2e-4

    def test_c2_continuity_across_seams(self, bundles):
        """Value, gradient and Hessian are continuous at both spline seams."""
        f = bundles["minkowski"].field
        p = np.zeros(4)
        b = bump(f, p, 0.4, np.array([1.0, -0.5, 0.2, 0.0]), 0.4)
        direction = np.array([1, 1, 1, 1]) / 2.0
        for seam in (0.2, 0.4):                  # rho/2 and rho
            delta = 1e-9
            lo = b.jet2(p + (seam - delta) * direction)
            hi = b.jet2(p + (seam + delta) * direction)
            assert hi.value == pytest.approx(lo.value, abs=1e-8)
            assert np.abs(hi.grad - lo.grad).max() < 1e-6
            assert np.abs(hi.hess - lo.hess).max() < 1e-5

    def test_periodic_wrap(self, bundles):
        f = bundles["torus_quotient"].field
        p = np.array([0.0, 0.1, 0.5, 0.5])
        b = bump(f, p, 0.0, np.array([0, 1.0, 0, 0]), 0.25)
        # the same physical point reached from the other side of the seam
        q = np.array([0.0, 0.95, 0.5, 0.5])
        jet = b.jet2(q)
        direct = b.jet2(np.array([0.0, -0.05, 0.5, 0.5]))
        assert jet.value == pytest.approx(direct.value, abs=1e-15)

    def test_radius_error_near_boundary(self, bundles):
        f = bundles["schwarzschild_ef"].field
        with pytest.raises(RadiusError):
            bump(f, np.array([0.0, 1.1, math.pi / 2, 0.0]), 0.0,
                 np.array([0, 1.0, 0, 0]), rho=2.0)


class TestNormalCoordBump:
    def test_core_jets_at_center(self, bundles):
        from lorentzkit.normal import NormalChart
        f = bundles["minkowski"].field
        chart = NormalChart(f, np.zeros(4), np.eye(4))
        nb = NormalCoordBump(chart, "exp(n0)", 0.4)
        jet = nb.jet2(np.zeros(4))
        assert jet.value == pytest.approx(1.0)
        assert np.allclose(jet.grad, [1, 0, 0, 0])
        hess = np.zeros((4, 4))
        hess[0, 0] = 1.0
        assert np.allclose(jet.hess, hess)

    def test_zero_outside(self, bundles):
        from lorentzkit.normal import NormalChart
        f = bundles["minkowski"].field
        chart = NormalChart(f, np.zeros(4), np.eye(4))
        nb = NormalCoordBump(chart, "n0^2", 0.3)
        jet = nb.jet2(np.array([0.4, 0.0, 0, 0]))
        assert jet.value == 0.0 and np.abs(jet.hess).max() == 0.0


class TestSeminorm:
    def test_identical_fields_give_zero(self, bundles):
        f = bundles["minkowski"].field
        box = [(-0.5, 0.5)] * 4
        assert cs_seminorm(f, f, 2, box, grid_per_axis=3) == 0.0

    def test_monotone_in_order(self, bundles):
        f = bundles["minkowski"].field
        b = bump(f, np.zeros(4), 0.0, np.array([1.0, 0, 0, 0]), 0.25)
        g1 = rescale(f, b, 0.5)
        box = [(-0.3, 0.3)] * 4
        vals = [cs_seminorm(f, g1, s, box, grid_per_axis=5) for s in (0, 1, 2)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_support_warning(self, bundles):
        f = bundles["minkowski"].field
        b = bump(f, np.zeros(4), 0.0, np.array([1.0, 0, 0, 0]), 0.25)
        g1 = rescale(f, b, 1.0)
        small_box = [(-0.1, 0.1)] * 4
        with pytest.warns(SupportNotContained):
            cs_seminorm(f, g1, 2, small_box, grid_per_axis=3,
                        support_box=b.support_box())


class TestTrappedExitFamily:
    def test_extremal_case_on_torus(self, bundles):
        b = bundles["torus_quotient"]
        fam = trapped_exit_family(b.field, b.orientation, b.submanifolds["S"],
                                  [0.0, 0.0], n_max=8)
        assert fam.case == "zero-H"
        values = [c.value_direct for c in fam.certificates]
        assert all(v > 0 for v in values)
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        # the measured decay of the transformation law's quadratic term
        assert fam.scaling_exponent() == pytest.approx(-2.0, abs=1e-6)
        m, v = fam.detail["sigma_dim"], np.array(fam.detail["v"])
        g_vv = float(v @ b.field.value(fam.point) @ v)
        assert m == 2 and g_vv == pytest.approx(1.0, abs=1e-12)
        for c in fam.certificates:
            assert c.agreement < 1e-6
            # measured m^2 g(v,v)/n^2 (4, 1, 0.444, ...) by both the direct
            # recomputation and the closed form, vs printed m^2/n: positive
            # either way, deviation logged, sign agreement enforced
            assert c.sign_ok
            expected = m * m * g_vv / c.n ** 2
            assert c.value_direct == pytest.approx(expected, abs=1e-6)
            assert c.value_closed_form == pytest.approx(expected, abs=1e-6)
            assert c.value_direct == pytest.approx(4.0 / c.n ** 2, rel=1e-9)
            assert c.printed_value == pytest.approx(4.0 / c.n, rel=1e-12)
        slope = fam.seminorm_slope(2)
        assert -1.1 <= slope <= -0.9

    def test_base_mean_curvature_computed_once(self, bundles, monkeypatch):
        """One base pass at u0 shared by every closed-form certificate,
        plus one direct pass per member on its rescaled metric."""
        import lorentzkit.conformal as conformal
        import lorentzkit.perturb as perturb
        calls = {"perturb": 0, "conformal": 0}

        def counting(module):
            original = module.mean_curvature

            def wrapper(*args, **kwargs):
                calls[module.__name__.rsplit(".", 1)[1]] += 1
                return original(*args, **kwargs)
            return wrapper

        for module in (perturb, conformal):
            monkeypatch.setattr(module, "mean_curvature", counting(module))
        b = bundles["torus_quotient"]
        trapped_exit_family(b.field, b.orientation, b.submanifolds["S"],
                            [0.0, 0.0], n_max=3)
        assert calls == {"perturb": 1 + 3, "conformal": 0}

    def test_null_case_on_sheet(self, bundles):
        b = bundles["null_H_demo"]
        fam = trapped_exit_family(b.field, b.orientation,
                                  b.submanifolds["sheet"], [0.0, 0.0], n_max=8)
        assert fam.case == "null-H"
        for c in fam.certificates:
            assert c.value_direct > 0
            assert c.agreement < 1e-6
            # printed closed form is exact here because phi(p) = 0
            assert c.value_direct == pytest.approx(c.printed_value, rel=1e-9)
        assert fam.scaling_exponent() == pytest.approx(-1.0, abs=1e-6)

    def test_base_metric_untouched_outside_support(self, bundles):
        b = bundles["torus_quotient"]
        fam = trapped_exit_family(b.field, b.orientation, b.submanifolds["S"],
                                  [0.0, 0.0], n_max=2)
        g1 = fam.member(1)
        far = np.array([0.0, 0.5, 0.37, 0.81])
        a0, d0, h0 = b.field.component_jets(far)
        a1, d1, h1 = g1.component_jets(far)
        assert np.array_equal(a0, a1)
        assert np.array_equal(d0, d1)
        assert np.array_equal(h0, h1)

    def test_rejects_strictly_trapped_point(self, bundles):
        b = bundles["schwarzschild_ef"]
        with pytest.raises(NotApplicable):
            trapped_exit_family(b.field, b.orientation,
                                b.submanifolds["inner_sphere"], [1.0, 1.0])

    def test_rejects_untrapped_point(self, bundles):
        b = bundles["minkowski"]
        with pytest.raises(NotApplicable):
            trapped_exit_family(b.field, b.orientation,
                                b.submanifolds["sphere"], [1.0, 1.0])


class TestPositivityExitFamily:
    def test_timelike_case(self, bundles):
        b = bundles["minkowski"]
        fam = positivity_exit_family(b.field, np.zeros(4),
                                     [1, 0, 0, 0], [0, 0, 1, 0], n_max=8)
        assert fam.case == "timelike"
        for c in fam.certificates:
            assert c.value_direct < 0
            assert c.agreement < 1e-6
            assert c.value_direct == pytest.approx(-math.exp(2 / c.n) / c.n,
                                                   rel=1e-9)
        # 1/n scaling up to the bounded e^{2/n} factor: n |c_n| lies in
        # [1, e^2] and decreases monotonically
        ratios = [c.n * abs(c.value_direct) for c in fam.certificates]
        assert all(1.0 - 1e-12 <= r <= math.e ** 2 + 1e-12 for r in ratios)
        assert all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))

    def test_null_spacelike_case(self, bundles):
        b = bundles["minkowski"]
        fam = positivity_exit_family(b.field, np.zeros(4),
                                     [1, 1, 0, 0], [0, 0, 1, 0], n_max=8)
        assert fam.case == "null-spacelike"
        for c in fam.certificates:
            assert c.value_direct < 0
            # measured -8 g(w,w)/n; the printed -4 g(w,w)/n is recorded
            # beside it and the deviation logged, never patched
            assert c.value_direct == pytest.approx(-8.0 / c.n, rel=1e-9)
            assert c.printed_value == pytest.approx(-4.0 / c.n, rel=1e-12)
            assert c.sign_ok

    def test_null_null_case(self, bundles):
        b = bundles["minkowski"]
        fam = positivity_exit_family(b.field, np.zeros(4),
                                     [1, 1, 0, 0], [1, -1, 0, 0], n_max=8)
        assert fam.case == "null-null"
        for c in fam.certificates:
            assert c.value_direct == pytest.approx(-8.0 / c.n, rel=1e-9)
            assert c.value_direct == pytest.approx(c.printed_value, rel=1e-9)

    def test_w_with_ell_component_still_spacelike_case(self, bundles):
        """General spacelike w keeps the measured -8 g(w,w)/n form."""
        b = bundles["minkowski"]
        w = np.array([0.5, -0.5, 1.0, 0.0])      # ell/2 + e2, g(w,w) = 1
        fam = positivity_exit_family(b.field, np.zeros(4), [1, 1, 0, 0], w,
                                     n_max=4)
        assert fam.case == "null-spacelike"
        gww = fam.detail["g_ww_used"]
        for c in fam.certificates:
            assert c.value_direct == pytest.approx(-8.0 * gww / c.n, rel=1e-9)

    def test_seminorms_decrease(self, bundles):
        b = bundles["minkowski"]
        # quadratic cores vanish at the center, so the 1/n decay is clean
        fam = positivity_exit_family(b.field, np.zeros(4),
                                     [1, 1, 0, 0], [0, 0, 1, 0], n_max=8)
        c2 = [row["c2"] for row in fam.seminorms]
        assert all(c2[i] > c2[i + 1] for i in range(len(c2) - 1))
        assert -1.1 <= fam.seminorm_slope(2) <= -0.9
        # the exponential core has xi(p) = 1, so the e^{2 xi/n} prefactor
        # steepens small-n fits; Theta(1/n) shows up as a bounded decreasing
        # ratio n * s_n instead
        fam_t = positivity_exit_family(b.field, np.zeros(4),
                                       [1, 0, 0, 0], [0, 0, 1, 0], n_max=5)
        c2_t = [row["c2"] for row in fam_t.seminorms]
        assert all(c2_t[i] > c2_t[i + 1] for i in range(len(c2_t) - 1))
        ratios = [row["n"] * row["c2"] for row in fam_t.seminorms]
        assert all(ratios[i] > ratios[i + 1] - 1e-12
                   for i in range(len(ratios) - 1))

    def test_rejects_nondegenerate_witness(self, bundles):
        b = bundles["desitter"]
        with pytest.raises(NotApplicable):
            positivity_exit_family(b.field, np.zeros(4),
                                   [1, 0, 0, 0], [0, 1, 0, 0])

    def test_witness_search_on_flat(self, bundles):
        b = bundles["minkowski"]
        v, w = find_degenerate_witness(b.field, np.zeros(4))
        fam = positivity_exit_family(b.field, np.zeros(4), v, w, n_max=3)
        assert all(c.value_direct < 0 for c in fam.certificates)
