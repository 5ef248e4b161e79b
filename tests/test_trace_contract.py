"""The benchmark's traced run wraps lorentzkit functions by name.

`perfbench/spans.py` rebinds `conditions._margin_*`, `_scan_point`,
`geodesics.solve_ivp`, `perturb._seminorm_rows` and the other layer
functions at run time, and reads some of their arguments by position. A
renamed function, a reordered signature, or a margin that calls the shared
eigenvalue kernel directly instead of through its wrapped name, would
silently drop out of `--trace 1`; these tests make that fail here instead.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lorentzkit.conditions as conditions
import lorentzkit.geodesics as geodesics
import lorentzkit.perturb as perturb
from lorentzkit.conditions import Region

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(name, *args):
    """Run conditions.<name> under the tracer, looked up after install so
    that the wrapped function runs."""
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        getattr(conditions, name)(*args)
        return tracer.layer_metrics()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("check", ["riem_condition", "tidal_condition"])
def test_traced_run_counts_margins(bundles, check):
    b = bundles["schwarzschild_ef"]
    region = Region(box=b.default_box, n_points=2, n_dirs=8, seed=0)
    metrics = _traced(check, b.field, region)
    assert metrics["conditions.points"] == region.n_points
    assert metrics["geometry.curvature_calls"] == region.n_points
    per_point = region.n_dirs + region.restarts * (region.refine_iters + 1)
    # the dense pass alone makes n_dirs margin calls per point
    assert metrics["conditions.margins_per_point"] >= region.n_dirs
    assert metrics["conditions.margins_per_point"] <= per_point


def test_traced_inclusion_audit_counts_margins(bundles):
    """Three margins (P, SE, O) per sampled point and direction."""
    b = bundles["schwarzschild_ef"]
    region = Region(box=b.default_box, n_points=2, n_dirs=8, seed=0)
    metrics = _traced("inclusion_audit", b.field, region)
    assert metrics["conditions.points"] == region.n_points
    assert metrics["conditions.margin_calls"] == \
        3 * region.n_points * region.n_dirs


def test_traced_integrators_count_right_hand_sides(bundles):
    """A geodesic plus a transport must show up in the integrator metrics:
    both integrators through `geodesics.solve_ivp`, and their right-hand
    sides through order-1 `component_jets`."""
    b = bundles["schwarzschild_ef"]
    p = np.array([0.0, 3.0, 1.5, 0.3])
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        sol = geodesics.geodesic(b.field, p, np.array([1.0, -0.5, 0.0, 0.1]),
                                 0.3)
        geodesics.parallel_transport(b.field, sol,
                                     np.array([0.0, 1.0, 0.0, 0.0]))
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["geodesics.rhs_evals"] > 0
    assert metrics["geodesics.transport_rhs_evals"] > 0
    assert metrics["metric.jets1_calls"] > 0


def test_traced_fused_transport_is_one_geodesic_solve(bundles):
    """A frame carried in the geodesic's own state shows up as geodesic
    right-hand sides only: one solve, every right-hand side counted there,
    no transport solve."""
    b = bundles["schwarzschild_ef"]
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        sol = geodesics.geodesic(b.field, np.array([0.0, 3.0, 1.5, 0.3]),
                                 np.array([1.0, -0.5, 0.0, 0.1]), 0.3,
                                 transport=np.eye(4)[:, 1:3])
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["geodesics.solves"] == 1
    assert metrics["geodesics.rhs_evals"] == sol.n_rhs_evals > 0
    assert metrics["geodesics.transport_solves"] == 0
    assert metrics["geodesics.transport_rhs_evals"] == 0


def test_traced_family_counts_its_seminorm_grid(bundles):
    """A family's seminorm table shows up in the perturb metrics: 3^4 grid
    points, a measured time, and its base jets taken per slab rather than
    per point."""
    b = bundles["torus_quotient"]
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        perturb.trapped_exit_family(b.field, b.orientation,
                                    b.submanifolds["S"], [0.3, 0.6],
                                    n_max=2, seminorm_grid=3)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["perturb.seminorm_grid_points"] == 81
    assert metrics["perturb.seminorm_s"] > 0
    assert metrics["perturb.base_jets_per_grid_point"] < 1
