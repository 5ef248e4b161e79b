"""One batch layout: every batched public query leads its results with the
batch axis.

With points (B, n) in, each array a query returns has shape (B,) + the
shape the point query returns, and row k equals the point query at row k.
Rows are bit-equal where a point and a batch take the same arithmetic (the
scalar fields' jets, a rescaled metric on an expression factor, curvature
from bit-equal jets); a kernel's numpy batch may round exp, sin and the
like an ulp apart from its math point, so its own results agree to 1e-15
relative.
"""

import numpy as np
import pytest

from lorentzkit.conformal import rescale
from lorentzkit.fields import ExprScalarField, ScalarField, ZeroScalarField
from lorentzkit.geometry import curvature_data
from lorentzkit.normal import orthonormal_frame_from
from lorentzkit.perturb import BumpField, NormalCoordBump

from conftest import region_points

B = 7
CURVATURE_FIELDS = ("g", "g_inv", "gamma", "riem", "ric", "index")


def _exact(batch_row, one):
    return np.array_equal(batch_row, one)


def _close(batch_row, one, rel=1e-15):
    """Elementwise relative agreement; exact where the point's entry is 0."""
    scale = np.where(one != 0.0, np.abs(one), 1.0)
    return bool(np.all(np.abs(batch_row - one) <= rel * scale))


class PointOnly(ScalarField):
    """A field with a point path only: the base class stacks its jets."""

    def __init__(self, inner: ScalarField):
        self.inner, self.dim = inner, inner.dim

    def jet2(self, p, order: int = 2):
        if np.ndim(p) > 1:
            return super().jet2(p, order)
        return self.inner.jet2(p, order)


def _jet(j):
    return j.value, j.grad, j.hess


def _curvature(data):
    return tuple(getattr(data, f) for f in CURVATURE_FIELDS)


@pytest.fixture(scope="module")
def queries(bundles):
    """name -> (query, inputs (B, k), agreement)."""
    b = bundles["schwarzschild_ef"]
    f, table = b.field, b.field.table
    center = region_points(b, 1, seed=5)[0]
    frame = orthonormal_frame_from(f, center, first=np.array([1.0, 0, 0, 0]),
                                   second=np.array([0.0, 1, 0, 0]))
    # center + frame y: on the plateau, the ramp and outside of both bumps
    rng = np.random.default_rng(21)
    dirs = rng.normal(size=(B, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 0.25 * np.array([0.0, 0.3, 0.6, 0.8, 0.95, 1.2, 3.0])
    pts = center + (radii[:, None] * dirs) @ frame.T
    expr = ExprScalarField("0.1*sin(r)*cos(theta) + 0.05*v", table)
    scalars = {
        "ExprScalarField": expr,
        "BumpField": BumpField(f, center, 0.2, [0.3, -0.5, 0.1, 0.2], 0.3),
        "NormalCoordBump": NormalCoordBump(f, center, frame,
                                           "exp(n0) + n1*n2"),
        "ZeroScalarField": ZeroScalarField(4),
        "point-only": PointOnly(expr),
    }
    out = {}
    for order in (0, 1, 2):
        out[f"ExprMetricField.component_jets/{order}"] = (
            lambda p, o=order: f.component_jets(p, o), pts, _close)
        for factor, agree in (("ExprScalarField", _exact),
                              ("BumpField", _close),
                              ("NormalCoordBump", _close)):
            metric = rescale(f, scalars[factor], 0.7)
            out[f"ConformalScaledMetric[{factor}].component_jets/{order}"] = (
                lambda p, m=metric, o=order: m.component_jets(p, o), pts,
                agree)
    for name, field_ in scalars.items():
        for order in (1, 2):
            out[f"{name}.jet2/{order}"] = (
                lambda p, s=field_, o=order: _jet(s.jet2(p, o)), pts, _exact)
    emb = b.submanifolds["horizon_sphere"]
    us = emb.grid_points()
    us = us[::len(us) // B][:B]
    out["VectorField.value"] = (lambda p: (b.orientation.value(p),), pts,
                                _close)
    out["Embedding.point"] = (lambda u: (emb.point(u),), us, _close)
    out["Embedding.first_second"] = (emb.first_second, us, _close)
    out["curvature_data"] = (lambda p: _curvature(curvature_data(f, p)), pts,
                             _exact)
    return out


NAMES = ([f"ExprMetricField.component_jets/{o}" for o in (0, 1, 2)]
         + [f"ConformalScaledMetric[{factor}].component_jets/{o}"
            for factor in ("ExprScalarField", "BumpField", "NormalCoordBump")
            for o in (0, 1, 2)]
         + [f"{name}.jet2/{o}"
            for name in ("ExprScalarField", "BumpField", "NormalCoordBump",
                         "ZeroScalarField", "point-only") for o in (1, 2)]
         + ["VectorField.value", "Embedding.point", "Embedding.first_second",
            "curvature_data"])


def test_every_batched_query_is_listed(queries):
    assert sorted(queries) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_batched_results_lead_with_the_batch_axis(queries, name):
    query, inputs, agree = queries[name]
    assert inputs.shape[0] == B
    batch = query(inputs)
    rows = [query(x) for x in inputs]
    for i, part in enumerate(batch):
        if rows[0][i] is None:
            assert part is None, (name, i)
            continue
        assert np.shape(part) == (B,) + np.shape(rows[0][i]), (name, i)
        for k, one in enumerate(rows):
            assert agree(np.asarray(part)[k], np.asarray(one[i])), (name, i, k)
