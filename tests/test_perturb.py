"""Bump fields, seminorms, and the two exit-family constructions."""

import math
from pathlib import Path

import numpy as np
import pytest

import lorentzkit.perturb as perturb
from lorentzkit.errors import (DomainError, NotApplicable, RadiusError,
                               SupportNotContained)
from lorentzkit.expr import SymbolTable
from lorentzkit.fields import ExprScalarField, ScalarField, ZeroScalarField
from lorentzkit.metric import ConformalScaledMetric, ExprMetricField
from lorentzkit.normal import NormalChart, orthonormal_frame_from
from lorentzkit.perturb import (BumpField, Certificate, NormalCoordBump,
                                PerturbationFamily, bump, cs_seminorm,
                                positivity_exit_family, trapped_exit_family)
from lorentzkit.conformal import rescale
from lorentzkit.specfile import load_spec
from lorentzkit.submanifold import Embedding, classify_trapped, mean_curvature

from conftest import fd_scalar_jet

SPEC_FILE = (Path(__file__).resolve().parents[1] / "perfbench" / "spacetimes"
             / "contracting_desitter.st")


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
        f = bundles["minkowski"].field
        nb = NormalCoordBump(f, np.zeros(4), np.eye(4), "exp(n0)", 0.4)
        jet = nb.jet2(np.zeros(4))
        assert jet.value == pytest.approx(1.0)
        assert np.allclose(jet.grad, [1, 0, 0, 0])
        hess = np.zeros((4, 4))
        hess[0, 0] = 1.0
        assert np.allclose(jet.hess, hess)

    def test_zero_outside(self, bundles):
        f = bundles["minkowski"].field
        nb = NormalCoordBump(f, np.zeros(4), np.eye(4), "n0^2", 0.3)
        jet = nb.jet2(np.array([0.4, 0.0, 0, 0]))
        assert jet.value == 0.0 and np.abs(jet.hess).max() == 0.0


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_far_outside(self, bundles):
        """exp(n0) would overflow 800 units out; the cutoff is exactly 0
        there, so a point and a batch give 0 without evaluating it."""
        nb = NormalCoordBump(bundles["minkowski"].field, np.zeros(4),
                             np.eye(4), "exp(n0)", 0.3)
        far = np.array([800.0, 0.0, 0.0, 0.0])
        assert nb.jet2(far).value == 0.0
        batch = nb.jet2(np.array([far, [0.1, 0.0, 0.0, 0.0]]))
        assert batch.value[0] == 0.0 and not np.abs(batch.hess[0]).any()
        assert batch.value[1] == pytest.approx(math.exp(0.1))



class TestCurvedNormalCoordBump:
    """On a curved chart the bump runs on second-order normal coordinates
    x = A (d + Gamma_p(d, d) / 2): one code path for a point and a batch,
    exactly 0 off its support."""

    CASES = {
        # (base, center, first and second frame seeds)
        "desitter": (np.zeros(4), [1.0, 0, 0, 0], [0.0, 1, 0, 0]),
        "schwarzschild_static": (np.array([0.0, 6.0, math.pi / 2, 0.0]),
                                 [1.0, 0, 0, 0], [0.0, 1, 0, 0]),
    }

    def _bump(self, bundles, name, core="(n0 + n1)^2"):
        p, first, second = self.CASES[name]
        f = bundles[name].field
        frame = orthonormal_frame_from(f, p, first=np.array(first),
                                       second=np.array(second))
        return NormalCoordBump(f, p, frame, core)

    @staticmethod
    def _frame_points(nb, radii, seed):
        """p + E y for y at the given lengths in random directions."""
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(len(radii), nb.dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return nb.p + (np.asarray(radii)[:, None] * dirs) @ nb.frame.T

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("order", [1, 2])
    def test_batch_equals_points_bit_for_bit(self, bundles, name, order):
        nb = self._bump(bundles, name)
        assert nb.gamma > 0
        radii = nb.rho * np.array([0.0, 0.2, 0.5, 0.7, 0.9, 0.99, 1.0, 1.05,
                                   1.2, 2.0, 5.0])
        points = self._frame_points(nb, np.repeat(radii, 3), 19)
        batch = nb.jet2(points, order)
        for k, q in enumerate(points):
            one = nb.jet2(q, order)
            assert batch.value[k] == one.value
            assert np.array_equal(batch.grad[k], one.grad)
            assert order == 1 and one.hess is None and batch.hess is None \
                or np.array_equal(batch.hess[k], one.hess)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exactly_zero_outside_the_support_box(self, bundles, name):
        nb = self._bump(bundles, name)
        box = np.array(nb.support_box())
        lo, hi = box[:, 0], box[:, 1]
        rng = np.random.default_rng(23)
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        points = mid + half * rng.uniform(-1.6, 1.6, size=(4000, nb.dim))
        jet = nb.jet2(points, 2)
        outside = ((points < lo) | (points > hi)).any(axis=1)
        assert outside.sum() > 1000 and (jet.value[~outside] != 0).any()
        assert not jet.value[outside].any()
        assert not jet.grad[outside].any()
        assert not jet.hess[outside].any()

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("core", ["(n0 + n1)^2", "exp(n0) + n1*n2"])
    def test_jets_match_finite_differences(self, bundles, name, core):
        """Off the center, on the plateau and the ramp, the exact jets are
        the derivatives of the field's own values."""
        nb = self._bump(bundles, name, core)
        points = self._frame_points(nb, nb.rho * np.array([0.2, 0.45, 0.6,
                                                           0.8]), 31)
        for q in points:
            jet = nb.jet2(q)
            value, grad, hess = fd_scalar_jet(nb.value, q, h=1e-4 * nb.rho)
            assert jet.value == value
            for got, want in ((jet.grad, grad), (jet.hess, hess)):
                assert np.abs(got - want).max() < 1e-4 * (
                    1.0 + np.abs(got).max())

    def test_far_copy_of_the_level_set_is_cut(self, bundles):
        """In de Sitter at 0 (H = 1, frame = identity) x^0 = y^0 + |y'|^2 / 2
        and x^i = y^i (1 + y^0), so x vanishes again at y = (-1, sqrt 2, 0,
        0), where |y| = sqrt 3 > 1/gamma: the jets there are 0."""
        nb = self._bump(bundles, "desitter")
        assert np.array_equal(nb.frame, np.eye(4)) and nb.gamma == 3.0
        y = np.array([-1.0, math.sqrt(2.0), 0.0, 0.0])       # q - p = y
        x = nb.frame_inv @ (y + 0.5 * np.einsum("cab,a,b->c", nb.gamma_p,
                                                 y, y))
        assert np.abs(x).max() < 1e-15
        jet = nb.jet2(y)
        assert jet.value == 0.0
        assert not jet.grad.any() and not jet.hess.any()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_jets_are_continuous_across_the_radius(self, bundles, name):
        """Along rays, the last point with a nonzero jet (|x| just below
        rho, by bisection) has jets that are nearly 0, as the first point
        past it has exactly."""
        nb = self._bump(bundles, name)
        jet = nb.jet2(self._frame_points(nb, nb.rho * np.linspace(0, 1, 50),
                                         3))
        scale = max(np.abs(part).max()
                    for part in (jet.value, jet.grad, jet.hess))
        rng = np.random.default_rng(29)
        for _ in range(4):
            u = rng.normal(size=nb.dim)
            u /= np.linalg.norm(u)
            ray = lambda t: nb.p + nb.frame @ (t * u)
            nonzero = lambda t: bool(nb.jet2(ray(t)).hess.any())
            lo, hi = 0.3 * nb.rho, 3.0 * nb.rho
            assert nonzero(lo) and not nonzero(hi)
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if nonzero(mid):
                    lo = mid
                else:
                    hi = mid
            inner, outer = nb.jet2(ray(lo)), nb.jet2(ray(hi))
            assert outer.value == 0.0 and not outer.grad.any()
            for part in (inner.value, inner.grad, inner.hess):
                assert np.abs(part).max() < 1e-6 * scale


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

    def test_strict_is_decided_by_the_classify_rule(self, bundles):
        """t = -1e-5 (u^2 + v^2) / 2 has a timelike H with raw g(H, H) =
        -4e-10, inside tau: classify_trapped calls it future-trapped on the
        h-normalized margins, and the family refuses it by the same rule
        (it is not a boundary case of weak trappedness)."""
        b = bundles["minkowski"]
        emb = Embedding(SymbolTable(["ua", "ub"]),
                        ["-1e-5*(ua^2 + ub^2)/2", "ua", "ub", "0"], 4,
                        domain=[(-1, 1), (-1, 1)], grid_shape=(4, 4))
        assert classify_trapped(b.field, b.orientation, emb).class_name \
            == "future-trapped"
        assert abs(mean_curvature(b.field, b.orientation, emb,
                                  [0.0, 0.0]).g_hh) < 1e-9
        with pytest.raises(NotApplicable) as info:
            trapped_exit_family(b.field, b.orientation, emb, [0.0, 0.0])
        assert str(info.value) == \
            "strict trapped inequalities already hold at u0"


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


def _rel_close(got, want, rel):
    """got within rel of want, relative to the largest entry of want
    (exactly equal where want is all zeros)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return np.abs(got - want).max() <= rel * np.abs(want).max()


def _assert_batch_matches_points(field_, points, order):
    """The batch jet at points (B, n) against the per-point jets stacked
    with the batch axis first, relative to their largest entry. (Near the
    outer seam the value is a cancellation 1 - s(z) with s close to 1, so a
    point's own relative error there is not small.)"""
    batch = field_.jet2(points, order)
    jets = [field_.jet2(q, order) for q in points]
    assert _rel_close(batch.value, [j.value for j in jets], 1e-14)
    assert _rel_close(batch.grad, np.stack([j.grad for j in jets]), 1e-14)
    if order >= 2:
        assert _rel_close(batch.hess, np.stack([j.hess for j in jets]),
                          1e-14)
    else:
        assert batch.hess is None


class TestBatchedScalarJets:
    """Scalar fields answer points (B, n) with one batch jet."""

    @staticmethod
    def _shell_points(center, rho, rng, radii):
        """Points at the given multiples of rho from the center."""
        dirs = rng.normal(size=(len(radii), len(center)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return center + rho * np.asarray(radii)[:, None] * dirs

    # plateau (u <= 1/4 is r <= rho/2), ramp, the outer seam, outside
    RADII = (0.0, 0.2, 0.5, 0.6, 0.75, 0.9, 0.999, 1.0, 1.3, 3.0)

    @pytest.mark.parametrize("order", [1, 2])
    def test_bump_batch_matches_points(self, bundles, order):
        f = bundles["minkowski"].field
        rng = np.random.default_rng(5)
        p = np.array([0.1, -0.2, 0.3, 0.05])
        b = bump(f, p, 0.7, np.array([0.5, -1.0, 2.0, 0.3]), 0.4)
        points = self._shell_points(p, b.rho, rng, self.RADII)
        _assert_batch_matches_points(b, points, order)

    @pytest.mark.parametrize("order", [1, 2])
    def test_bump_batch_across_a_torus_period(self, bundles, order):
        f = bundles["torus_quotient"].field
        p = np.array([0.0, 0.05, 0.97, 0.5])
        b = bump(f, p, 0.0, np.array([0.3, 1.0, -0.4, 0.2]), 0.25)
        rng = np.random.default_rng(6)
        points = self._shell_points(p, b.rho, rng, self.RADII)
        # the same points seen from the next and the previous cell
        shifted = points + np.array([0.0, 1.0, -1.0, 2.0])
        _assert_batch_matches_points(b, np.vstack([points, shifted]), order)
        same = b.jet2(shifted, order)
        direct = b.jet2(points, order)
        assert _rel_close(same.value, direct.value, 1e-14)
        assert _rel_close(same.grad, direct.grad, 1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_bump_point_and_batch_agree_exactly(self, bundles, order):
        """A point and a batch take the same code, so a point's jet equals
        its column of the batch jet bit for bit, outside the support too."""
        f = bundles["torus_quotient"].field
        p = np.array([0.0, 0.05, 0.97, 0.5])
        b = bump(f, p, 0.4, np.array([0.3, 1.0, -0.4, 0.2]), 0.25)
        points = self._shell_points(p, b.rho, np.random.default_rng(8),
                                    self.RADII)
        points = np.vstack([points, points + np.array([0.0, 1.0, -1.0, 2.0])])
        batch = b.jet2(points, order)
        for k, q in enumerate(points):
            one = b.jet2(q, order)
            assert batch.value[k] == one.value
            assert np.array_equal(batch.grad[k], one.grad)
            assert order == 1 and one.hess is None \
                or np.array_equal(batch.hess[k], one.hess)

    @pytest.mark.parametrize("core", ["exp(n0)", "n0^2", "(n0 + n1)^2"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_affine_normal_bump_batch_matches_points(self, bundles, core,
                                                     order):
        f = bundles["minkowski"].field
        p = np.array([0.2, -0.1, 0.3, 0.0])
        frame = orthonormal_frame_from(
            f, p, first=np.array([1.0, 0.3, 0.1, 0.0]),
            second=np.array([0.0, 1.0, 0.5, 0.0]))
        chart = NormalChart(f, p, frame)
        nb = NormalCoordBump(f, p, frame, core, 0.3)
        rng = np.random.default_rng(7)
        # distances in normal coordinates: the chart is not an isometry of
        # the chart's Euclidean norm, so sample x and map it forward
        x = self._shell_points(np.zeros(4), nb.rho, rng, self.RADII)
        points = np.array([chart.forward(xk) for xk in x])
        _assert_batch_matches_points(nb, points, order)

    def test_fields_without_a_batched_pass_stack_points(self, bundles):
        table = bundles["schwarzschild_ef"].field.table
        points = np.array([[0.1, 3.0, 1.2, 0.3], [0.4, 2.5, 1.9, 5.0],
                           [0.0, 4.0, 0.7, 1.0]])
        expr = ExprScalarField("0.1*sin(r)*cos(theta) + 0.05*v", table)
        for field_ in (expr, ZeroScalarField(4)):
            for order in (1, 2):
                batch = field_.jet2(points, order)
                for k, q in enumerate(points):
                    jet = field_.jet2(q, order)
                    assert batch.value[k] == jet.value
                    assert np.array_equal(batch.grad[k], jet.grad)
                    if order == 2:
                        assert np.array_equal(batch.hess[k], jet.hess)


def _family_constructions(bundles):
    """The seven family constructions of the benchmark's `families` part
    (n_max 2, seminorm grid 5), at seeded points."""
    rng = np.random.default_rng(401)
    spec = load_spec(str(SPEC_FILE))
    sphere_u = [float(rng.uniform(0.9, 2.2)), float(rng.uniform(0, 2 * np.pi))]
    spec_u = [float(rng.uniform(0.9, 2.2)), float(rng.uniform(0, 2 * np.pi))]
    trapped = [
        (bundles["torus_quotient"], "S", rng.uniform(0, 1, 2)),
        (bundles["null_H_demo"], "sheet", rng.uniform(-0.5, 0.5, 2)),
        (bundles["schwarzschild_ef"], "horizon_sphere", sphere_u),
        (spec, "horizon", spec_u),
    ]
    out = [lambda b=b, sub=sub, u0=u0, grid=5: trapped_exit_family(
               b.field, b.orientation, b.submanifolds[sub], u0, n_max=2,
               seminorm_grid=grid)
           for b, sub, u0 in trapped]
    mink = bundles["minkowski"].field
    n1 = rng.normal(size=3)
    n1 /= np.linalg.norm(n1)
    other = rng.normal(size=3)
    other /= np.linalg.norm(other)
    witnesses = [
        (np.r_[1.0, 0.5 * rng.uniform() * n1], np.r_[0.0, other]),
        (np.r_[1.0, n1], np.r_[rng.uniform(-1, 1), other]),
        (np.r_[1.0, n1], 1.5 * np.r_[1.0, -n1] + 0.5 * np.r_[1.0, n1]),
    ]
    for v, w in witnesses:
        p = rng.uniform(-0.5, 0.5, 4)
        out.append(lambda p=p, v=v, w=w, grid=5: positivity_exit_family(
            mink, p, v, w, n_max=2, seminorm_grid=grid))
    return out


def _oracle_rows(base, phi, n_max, grid):
    """The seminorm rows recomputed point by point on the rescaled metrics."""
    box = phi.support_box()
    pad = [(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)) for lo, hi in box]
    rows = []
    for n in range(1, n_max + 1):
        m0, m1, m2 = perturb._seminorm_orders(
            base, rescale(base, phi, 1.0 / n), pad, grid)
        rows.append((m0, max(m0, m1), max(m0, m1, m2)))
    return rows


def _assert_rows_match(rows, want):
    assert len(rows) == len(want)
    for row, w in zip(rows, want):
        for a, b in zip((row["c0"], row["c1"], row["c2"]), w):
            assert b > 0 and abs(a - b) <= 1e-12 * b


class TestBatchedSeminormRows:
    """One batched pass per grid slab against the per-point oracle rows."""

    EXPECTED_CASES = ["zero-H", "null-H", "null-H", "null-H", "timelike",
                      "null-spacelike", "null-null"]

    def test_rows_match_oracle_on_benchmark_families(self, bundles):
        for build, case in zip(_family_constructions(bundles),
                               self.EXPECTED_CASES):
            fam = build()
            assert fam.case == case
            assert len(fam.seminorms) == 2
            _assert_rows_match(fam.seminorms,
                               _oracle_rows(fam.base, fam.phi, 2, 5))

    def test_family_tables_never_replay_point_by_point(self, bundles,
                                                       monkeypatch):
        """A layout bug raises ValueError, which `batch_or_replay` catches
        and replays row by row, with the same rows many times slower: the
        benchmark's families and two curved positivity families take one
        call per slab and never replay."""
        rows = []
        replay = perturb.batch_or_replay

        def replayed(fn, *stacks):
            def row(*args):
                rows.append(len(args[0]))
                return fn(*args)
            return replay(row, *stacks)

        monkeypatch.setattr(perturb, "batch_or_replay", replayed)
        families = [build() for build in _family_constructions(bundles)]
        for name, p, v in (("desitter", np.zeros(4), [1.0, 1.0, 0, 0]),
                           ("schwarzschild_static",
                            np.array([0.0, 6.0, 1.5707963, 0.0]),
                            [1.0, 2.0 / 3.0, 0, 0])):
            families.append(positivity_exit_family(
                bundles[name].field, p, v, [0.0, 0, 1, 0], n_max=2,
                seminorm_grid=5))
        assert all(len(fam.seminorms) == 2 for fam in families)
        # a 5-point grid per axis: five slabs of 5^3 points per family
        assert rows == [5 ** 3] * (5 * len(families))

    def test_rows_match_oracle_on_the_cli_grid(self, bundles):
        fam = _family_constructions(bundles)[0](grid=7)
        _assert_rows_match(fam.seminorms,
                           _oracle_rows(fam.base, fam.phi, 2, 7))

    def test_rows_match_oracle_where_the_metric_varies(self, bundles):
        """The benchmark's bases are flat or vary slowly across the bump, so
        their maxima come from the d2E (x) g terms; a bump along r at r = 1.5
        on schwarzschild_ef puts dE (x) dg and its transpose into them."""
        f = bundles["schwarzschild_ef"].field
        phi = bump(f, np.array([0.2, 1.5, 1.2, 0.5]), 0.0,
                   np.array([0.0, 1.0, 0.0, 0.0]), 0.2)
        rows = perturb._seminorm_rows(f, phi, 3, phi.support_box(), 5)
        _assert_rows_match(rows, _oracle_rows(f, phi, 3, 5))

    def test_one_base_and_one_phi_pass_per_slab(self, bundles, monkeypatch):
        f = bundles["schwarzschild_ef"].field
        p = np.array([0.2, 3.0, 1.4, 0.5])
        phi = bump(f, p, 0.0, np.array([0.3, -0.2, 0.1, 0.05]), 0.2)
        calls = {"base": [], "phi": [], "conformal": 0}

        def counting(cls, attr, key):
            original = getattr(cls, attr)

            def wrapper(self, q, order=2):
                calls[key].append((np.shape(q), order))
                return original(self, q, order)
            monkeypatch.setattr(cls, attr, wrapper)

        counting(ExprMetricField, "component_jets", "base")
        counting(BumpField, "jet2", "phi")
        original = ConformalScaledMetric.component_jets

        def conformal(self, *args, **kwargs):
            calls["conformal"] += 1
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ConformalScaledMetric, "component_jets",
                            conformal)
        for grid in (3, 5):
            calls["base"].clear()
            calls["phi"].clear()
            rows = perturb._seminorm_rows(f, phi, 3, phi.support_box(), grid)
            assert len(rows) == 3
            slab = ((grid ** 3, 4), 2)
            assert calls["base"] == [slab] * grid
            assert calls["phi"] == [slab] * grid
        assert calls["conformal"] == 0

    # the per-point reference overflows numpy arrays on its way to the
    # error, as it always has; the warnings are not what is tested here
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("g11", ["1 + sqrt(x - 0.1)", "1 + log(x + 0.25)",
                                     "1 + 1e-300*exp(700 + 800*x)"])
    def test_errors_are_the_first_failing_points(self, g11):
        """A failing grid raises the per-point error: the batched overflow
        of exp would name numpy's message, the point's is math's."""
        table = SymbolTable(["t", "x", "y", "z"])
        entries = {(i, j): "0" for i in range(4) for j in range(i)}
        entries.update({(0, 0): "-1", (1, 1): g11, (2, 2): "1", (3, 3): "1"})
        f = ExprMetricField(table, entries)
        phi = bump(f, np.zeros(4), 0.0, np.array([1.0, 0.5, 0.0, 0.0]), 0.3)
        pad = [(lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
               for lo, hi in phi.support_box()]
        with pytest.raises(DomainError) as want:
            for n in (1, 2):
                perturb._seminorm_orders(f, rescale(f, phi, 1.0 / n), pad, 5)
        with pytest.raises(DomainError) as got:
            perturb._seminorm_rows(f, phi, 2, phi.support_box(), 5)
        assert str(got.value) == str(want.value)


class TestQuotientSeam:
    """Bumps on a periodic affine chart are functions on the quotient: the
    offset from the center is taken to its nearest image."""

    P = np.array([0.0, 0.9, 0.5, 0.5])
    SHIFT = np.array([0.0, 1.0, -1.0, 2.0])     # a deck translation

    def _torus_bump(self, bundles):
        f = bundles["torus_quotient"].field
        frame = orthonormal_frame_from(
            f, self.P, first=np.array([1.0, 0.4, 0.1, 0.0]),
            second=np.array([0.0, 1.0, 0.3, 0.0]))
        return NormalCoordBump(f, self.P, frame, "(n0 + n1)^2", 0.25)

    @pytest.mark.parametrize("order", [1, 2])
    def test_normal_bump_is_periodic(self, bundles, order):
        nb = self._torus_bump(bundles)
        rng = np.random.default_rng(12)
        # points in the support, which crosses the seam x1 = 1 = 0
        x = TestBatchedScalarJets._shell_points(
            np.zeros(4), nb.rho, rng, TestBatchedScalarJets.RADII)
        chart = NormalChart(nb.field, nb.p, nb.frame)
        points = np.array([chart.forward(xk) for xk in x])
        assert (points[:, 1] > 1.0).any()
        images = [points + self.SHIFT,
                  bundles["torus_quotient"].field.canonicalize(points)]
        # relative to the largest entry over the points, as near the outer
        # seam of the cutoff a point's value is a cancellation; the shifted
        # points carry the rounding of q + SHIFT (up to 3e-16 here), which
        # the Hessian amplifies past 1e-14
        for jet2 in (lambda qs: nb.jet2(qs, order),
                     lambda qs: ScalarField.jet2(nb, qs, order)):
            here = jet2(points)
            for there in map(jet2, images):
                assert _rel_close(there.value, here.value, 1e-14)
                assert _rel_close(there.grad, here.grad, 1e-14)
                if order == 2:
                    assert _rel_close(there.hess, here.hess, 1e-13)

    def test_positivity_exit_member_is_continuous_across_the_seam(
            self, bundles):
        f = bundles["torus_quotient"].field
        fam = positivity_exit_family(f, self.P, np.array([1.0, 1, 0, 0]),
                                     np.array([0.0, 0, 1, 0]), n_max=1,
                                     seminorm_grid=5)
        phi = fam.phi
        # one physical point seen from the covering chart and canonically
        assert phi.value([0.0, 1.05, 0.5, 0.5]) != 0.0
        assert phi.value([0.0, 1.05, 0.5, 0.5]) == pytest.approx(
            phi.value([0.0, 0.05, 0.5, 0.5]), rel=1e-14)
        member = fam.member(1)
        below = member.component_jets([0.0, 1.0 - 1e-7, 0.5, 0.5], order=2)
        at = member.component_jets([0.0, 1.0, 0.5, 0.5], order=2)
        assert not np.allclose(at[0], f.value([0.0, 0.0, 0.5, 0.5]))
        for a, b in zip(below, at):
            assert np.abs(a - b).max() < 1e-5 * (1.0 + np.abs(b).max())


def test_trapped_exit_zero_h_deviation_is_pinned(bundles):
    """On the torus's S the certificate is m^2 g(v,v) / n^2 (m = 2); the
    printed form m^2/n g(v,v) is kept as printed, so the deviation is
    nonzero from n = 2 on. The test pins the discrepancy, not a fix."""
    b = bundles["torus_quotient"]
    fam = trapped_exit_family(b.field, b.orientation, b.submanifolds["S"],
                              np.array([0.3, 0.7]), n_max=3, seminorm_grid=3)
    certs = [c.value_direct for c in fam.certificates]
    printed = [c.printed_value for c in fam.certificates]
    assert certs == pytest.approx([4.0, 1.0, 4.0 / 9.0], rel=1e-9)
    assert printed == pytest.approx([4.0, 2.0, 4.0 / 3.0], rel=1e-12)
    deviations = [c.deviation for c in fam.certificates]
    assert deviations[0] == pytest.approx(0.0, abs=1e-9)
    assert all(abs(d) > 0.5 for d in deviations[1:])


def test_bump_default_radius_is_shared(bundles):
    """BumpField and the positivity-exit family pick the same default
    radius where the chart's normal ball is no constraint."""
    b = bundles["schwarzschild_ef"]
    for p in ([0.0, 3.0, 1.5, 0.3], [0.0, 1.3, 1.5, 0.3]):
        p = np.array(p)
        bd = b.field.boundary_distance(p)
        assert bump(b.field, p, 0.0, np.zeros(4)).rho == \
            min(perturb.DEFAULT_RHO, bd / 4.0)
    mink = bundles["minkowski"].field
    fam = positivity_exit_family(mink, np.zeros(4), np.array([1.0, 0, 0, 0]),
                                 np.array([0.0, 1, 0, 0]), n_max=1,
                                 seminorm_grid=3)
    assert fam.phi.rho == bump(mink, np.zeros(4), 0.0, np.zeros(4)).rho \
        == perturb.DEFAULT_RHO


def test_schwarzschild_static_positivity_exit_is_pinned(bundles):
    """A curved-chart family keeps the certificates of the exponential-map
    chart bit for bit (its 2-jet at p is the same), and now publishes a
    seminorm table that falls like 1/n."""
    f = bundles["schwarzschild_static"].field
    fam = positivity_exit_family(
        f, np.array([0.0, 6.0, math.pi / 2, 0.0]),
        np.array([1.0, 2.0 / 3.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]))
    assert fam.case == "null-spacelike" and not fam.detail["chart_affine"]
    assert [c.value_direct.hex() for c in fam.certificates] == [
        "-0x1.1fffffffffffep+8", "-0x1.1fffffffffffep+7",
        "-0x1.7fffffffffffcp+6", "-0x1.1fffffffffffep+6",
        "-0x1.ccccccccccccap+5", "-0x1.7fffffffffffdp+5",
        "-0x1.4924924924922p+5", "-0x1.1fffffffffffep+5"]
    assert [c.value_closed_form.hex() for c in fam.certificates] == [
        "-0x1.1fffffffffffep+8", "-0x1.1ffffffffffffp+7",
        "-0x1.7fffffffffffep+6", "-0x1.1fffffffffffep+6",
        "-0x1.ccccccccccccap+5", "-0x1.7fffffffffffdp+5",
        "-0x1.4924924924922p+5", "-0x1.1fffffffffffep+5"]
    assert len(fam.seminorms) == 8
    assert -1.1 <= fam.seminorm_slope(2) <= -0.9


def test_positivity_exit_shares_its_base_curvature(bundles, monkeypatch):
    """conformal_riemann reads the family's own curvature_data at p instead
    of recomputing it once per n; the certificates keep their digits."""
    import lorentzkit.conformal as conformal
    calls = []
    original = conformal.curvature_data

    def counted(field_, p):
        calls.append(1)
        return original(field_, p)

    monkeypatch.setattr(conformal, "curvature_data", counted)
    fam = positivity_exit_family(
        bundles["minkowski"].field, np.zeros(4), [1, 0, 0, 0], [0, 0, 1, 0],
        n_max=8, seminorm_grid=3)
    assert calls == []
    assert [c.value_closed_form.hex() for c in fam.certificates] == [
        "-0x1.d8e64b8d4ddaep+2", "-0x1.5bf0a8b145769p+0",
        "-0x1.4c69cc7a6c809p-1", "-0x1.a61298e1e069cp-2",
        "-0x1.318694262ffe7p-2", "-0x1.dc5e797a2e6c5p-3",
        "-0x1.85540ff757ac4p-3", "-0x1.48b5e3c3e8186p-3"]
    assert [c.value_direct.hex() for c in fam.certificates] == [
        "-0x1.d8e64b8d4ddaep+2", "-0x1.5bf0a8b145769p+0",
        "-0x1.4c69cc7a6c807p-1", "-0x1.a61298e1e069cp-2",
        "-0x1.318694262ffe7p-2", "-0x1.dc5e797a2e6c2p-3",
        "-0x1.85540ff757ac3p-3", "-0x1.48b5e3c3e8186p-3"]


def _family_hexes(fam):
    """The certificates, closed forms, printed values, C^0..C^2 seminorm
    columns and the certificate and C^0..C^2 slopes, as float.hex."""
    out = {"certificate": [c.value_direct.hex() for c in fam.certificates],
           "closed_form": [c.value_closed_form.hex()
                           for c in fam.certificates],
           "printed": [c.printed_value.hex() for c in fam.certificates]}
    for k in ("c0", "c1", "c2"):
        out[k] = [row[k].hex() for row in fam.seminorms]
    out["slopes"] = [fam.scaling_exponent().hex()] + [
        fam.seminorm_slope(k).hex() for k in (0, 1, 2)]
    return out


# the n_max = 4 families on a 4-point seminorm grid, digit for digit
_TRAPPED_PINS = {
    "zero-H": {
        "certificate": ["0x1.0000000000000p+2", "0x1.0000000000000p+0",
                        "0x1.c71c71c71c71cp-2", "0x1.0000000000000p-2"],
        "closed_form": ["0x1.0000000000000p+2", "0x1.0000000000000p+0",
                        "0x1.c71c71c71c71cp-2", "0x1.0000000000000p-2"],
        "printed": ["0x1.0000000000000p+2", "0x1.0000000000000p+1",
                    "0x1.5555555555555p+0", "0x1.0000000000000p+0"],
        "c0": ["0x1.1cd879a1dc828p-3", "0x1.13934b5c97fa3p-4",
               "0x1.6b6eaa8dd50d1p-5", "0x1.0f1704670841fp-5"],
        "c1": ["0x1.5ec6ac2e52282p+0", "0x1.48a9f19ffdc12p-1",
               "0x1.accf4c396000ep-2", "0x1.3e22d5c8b3b9ep-2"],
        "c2": ["0x1.baa759e7b6e8bp+5", "0x1.9ef3bbd910062p+4",
               "0x1.0ebd41f167828p+4", "0x1.91c21e557bdabp+3"],
        "slopes": ["-0x1.ffffffffffffep+0", "-0x1.0949451cd90e8p+0",
                   "-0x1.12528f8d04e96p+0", "-0x1.122f6c5235bf0p+0"],
    },
    "null-H": {
        "certificate": ["0x1.6a09e667f3bccp+2", "0x1.6a09e667f3bccp+1",
                        "0x1.e2b7dddfefa67p+0", "0x1.6a09e667f3bcfp+0"],
        "closed_form": ["0x1.6a09e667f3bccp+2", "0x1.6a09e667f3bccp+1",
                        "0x1.e2b7dddfefa65p+0", "0x1.6a09e667f3bccp+0"],
        "printed": ["0x1.6a09e667f3bccp+2", "0x1.6a09e667f3bccp+1",
                    "0x1.e2b7dddfefa65p+0", "0x1.6a09e667f3bccp+0"],
        "c0": ["0x1.9e2329e00b6d3p-3", "0x1.8b155358424bap-4",
               "0x1.03539905a4a8ap-4", "0x1.81fd62df7f0b6p-5"],
        "c1": ["0x1.05c86a8e364cap+1", "0x1.dd81e22b10c86p-1",
               "0x1.34b72a57f6289p-1", "0x1.c80547b9622e9p-2"],
        "c2": ["0x1.de30ce5166bc1p+5", "0x1.b6409a4c23d09p+4",
               "0x1.1bcb9502b605dp+4", "0x1.a38c5f8fd5e3ap+3"],
        "slopes": ["-0x1.ffffffffffffdp-1", "-0x1.0d34b2696bc25p+0",
                   "-0x1.19e9746212898p+0", "-0x1.188b27e200ccap+0"],
    },
}


@pytest.mark.parametrize("name, sub, u0, case", [
    ("torus_quotient", "S", [0.3, 0.7], "zero-H"),
    ("null_H_demo", "sheet", [0.0, 0.0], "null-H")])
def test_trapped_exit_reports_are_pinned(bundles, name, sub, u0, case):
    """Both cases of the trapped-exit theorem keep every digit of their
    certificates, closed forms, printed values, seminorm rows and slopes."""
    b = bundles[name]
    fam = trapped_exit_family(b.field, b.orientation, b.submanifolds[sub],
                              np.array(u0), n_max=4, seminorm_grid=4)
    assert fam.case == case
    assert _family_hexes(fam) == _TRAPPED_PINS[case]


def _hand_family(ns, certificates, seminorms):
    """A family from its tables alone (the slopes read nothing else)."""
    return PerturbationFamily(
        base=None, phi=None, kind="trapped-exit", case="zero-H",
        point=np.zeros(2), n_max=len(ns),
        certificates=[Certificate(n=n, value_direct=v, value_closed_form=v,
                                  printed_value=v, printed_form="",
                                  sign_expected=+1, agreement=0.0)
                      for n, v in zip(ns, certificates)],
        seminorms=[{"n": n, "c0": c0, "c1": c1, "c2": c2}
                   for n, (c0, c1, c2) in zip(ns, seminorms)])


class TestLogLogSlopes:
    NS = [1, 2, 3, 5, 8]
    CERTS = [4.0, 1.1, 0.43, 0.17, 0.06]
    ROWS = [(0.3, 2.0, 41.0), (0.16, 1.1, 20.5), (0.1, 0.7, 14.1),
            (0.07, 0.41, 8.0), (0.04, 0.26, 5.3)]

    def test_slopes_are_the_least_squares_fit(self):
        fam = _hand_family(self.NS, self.CERTS, self.ROWS)
        log_n = np.log(self.NS)
        assert fam.scaling_exponent() == np.polyfit(
            log_n, np.log(self.CERTS), 1)[0]
        for k in (0, 1, 2):
            assert fam.seminorm_slope(k) == np.polyfit(
                log_n, np.log([row[k] for row in self.ROWS]), 1)[0]

    def test_a_negative_certificate_is_fit_by_its_modulus(self):
        signed = [-c for c in self.CERTS]
        assert _hand_family(self.NS, signed, self.ROWS).scaling_exponent() \
            == _hand_family(self.NS, self.CERTS, self.ROWS).scaling_exponent()

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_a_seminorm_that_is_not_positive_gives_nan(self, bad):
        rows = self.ROWS[:2] + [(bad, bad, bad)] + self.ROWS[3:]
        fam = _hand_family(self.NS, self.CERTS, rows)
        assert all(math.isnan(fam.seminorm_slope(k)) for k in (0, 1, 2))

    def test_a_zero_certificate_gives_nan(self):
        certs = self.CERTS[:2] + [0.0] + self.CERTS[3:]
        assert math.isnan(
            _hand_family(self.NS, certs, self.ROWS).scaling_exponent())

    def test_one_row_gives_nan(self):
        fam = _hand_family(self.NS[:1], self.CERTS[:1], self.ROWS[:1])
        assert math.isnan(fam.scaling_exponent())
        assert all(math.isnan(fam.seminorm_slope(k)) for k in (0, 1, 2))
