import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lorentzkit.errors import SingularMetric, SlotError
from lorentzkit.tensors import (LOWER, UPPER, MetricValue, TensorValue,
                                contract, move_index)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def minkowski_value():
    return MetricValue.from_matrix(ETA)


class TestMetricValue:
    def test_minkowski(self):
        mv = minkowski_value()
        assert mv.index == 1
        assert np.allclose(mv.g @ mv.g_inv, np.eye(4), atol=1e-10)

    def test_euclidean_index(self):
        assert MetricValue.from_matrix(np.eye(3)).index == 0

    def test_degenerate_rejected(self):
        g = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(SingularMetric):
            MetricValue.from_matrix(g)

    def test_matches_independent_inverse_index_and_rcond(self):
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        g = q @ np.diag([-2.0, 0.5, 1.0, 3.0]) @ q.T
        mv = MetricValue.from_matrix(g)
        assert mv.index == 1
        assert np.allclose(mv.g_inv, np.linalg.inv(mv.g), rtol=0, atol=1e-12)
        sv = np.linalg.svd(mv.g, compute_uv=False)
        assert mv.rcond == pytest.approx(sv[-1] / sv[0], rel=1e-12)

    def test_asymmetric_rejected(self):
        g = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(SingularMetric):
            MetricValue.from_matrix(g)

    def test_nan_rejected(self):
        with pytest.raises(SingularMetric):
            MetricValue.from_matrix(np.diag([-1.0, 1.0, np.nan]))


class TestMoveIndex:
    def test_lower_timelike_vector(self):
        mv = minkowski_value()
        t = TensorValue(np.array([1.0, 0, 0, 0]), (UPPER,))
        res = move_index(mv, t, 0, LOWER)
        assert np.allclose(res.components, [-1.0, 0, 0, 0])
        assert res.variance == (LOWER,)

    def test_schwarzschild_g_tt(self):
        f = 1.0 - 2.0 / 4.0
        g = np.diag([-f, 1 / f, 16.0, 16.0])
        mv = MetricValue.from_matrix(g)
        t = TensorValue(np.array([1.0, 0, 0, 0]), (UPPER,))
        res = move_index(mv, t, 0, LOWER)
        # independent oracle: plain matrix multiply
        assert np.allclose(res.components, g @ np.array([1.0, 0, 0, 0]))
        assert res.components[0] == pytest.approx(-0.5)

    def test_slot_errors(self):
        mv = minkowski_value()
        t = TensorValue(np.zeros(4), (UPPER,))
        with pytest.raises(SlotError):
            move_index(mv, t, 1, LOWER)
        with pytest.raises(SlotError):
            move_index(mv, t, 0, UPPER)

    @settings(max_examples=50, deadline=None)
    @given(arrays(float, (4, 4), elements=st.floats(-5, 5, allow_nan=False)))
    def test_involution(self, comps):
        """raise then lower returns the tensor to 1e-12."""
        mv = minkowski_value()
        t = TensorValue(comps, (LOWER, LOWER))
        up = move_index(mv, t, 0, UPPER)
        back = move_index(mv, up, 0, LOWER)
        assert np.abs(back.components - comps).max() <= 1e-12 * (1 + np.abs(comps).max())


class TestContract:
    def test_identity_trace(self):
        t = TensorValue(np.eye(4), (UPPER, LOWER))
        res = contract(t, 0, 1)
        assert res.rank == 0
        assert float(res.components) == pytest.approx(4.0)

    def test_flat_riemann_gives_zero_ricci(self):
        r = TensorValue(np.zeros((4, 4, 4, 4)), (UPPER, LOWER, LOWER, LOWER))
        res = contract(r, 0, 2)
        assert res.components.shape == (4, 4)
        assert np.all(res.components == 0.0)

    def test_random_rank2_trace(self):
        rng = np.random.default_rng(3)
        comps = rng.normal(size=(5, 5))
        t = TensorValue(comps, (UPPER, LOWER))
        assert float(contract(t, 0, 1).components) == pytest.approx(
            np.trace(comps), rel=1e-12)

    def test_variance_mismatch(self):
        t = TensorValue(np.eye(4), (LOWER, LOWER))
        with pytest.raises(SlotError):
            contract(t, 0, 1)

    @settings(max_examples=30, deadline=None)
    @given(arrays(float, (3, 3), elements=st.floats(-2, 2, allow_nan=False)),
           arrays(float, (3, 3), elements=st.floats(-2, 2, allow_nan=False)),
           st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_linearity(self, a_comp, b_comp, ca, cb):
        ta = TensorValue(a_comp, (UPPER, LOWER))
        tb = TensorValue(b_comp, (UPPER, LOWER))
        lhs = contract(TensorValue(ca * a_comp + cb * b_comp, (UPPER, LOWER)), 0, 1)
        rhs = ca * contract(ta, 0, 1).components + cb * contract(tb, 0, 1).components
        assert float(lhs.components) == pytest.approx(float(rhs), abs=1e-10)
