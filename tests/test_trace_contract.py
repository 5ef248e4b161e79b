"""The benchmark's traced run wraps lorentzkit functions by name.

`perfbench/spans.py` rebinds `conditions._margin_*`, `_scan_point` and the
other layer functions at run time. A renamed function would silently drop
out of `--trace 1`; this test makes the rename fail here instead.
"""

import importlib.util
from pathlib import Path

from lorentzkit.conditions import Region, riem_condition

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_margins(bundles):
    b = bundles["schwarzschild_ef"]
    region = Region(box=b.default_box, n_points=2, n_dirs=8, seed=0)
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        riem_condition(b.field, region)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["conditions.points"] == region.n_points
    assert metrics["conditions.margin_calls"] > 0
    assert metrics["geometry.curvature_calls"] == region.n_points
    per_point = region.n_dirs + region.restarts * (region.refine_iters + 1)
    assert metrics["conditions.margins_per_point"] <= per_point
