"""Pinned `schwarzschild_static` NormalChart outputs.

The chart's outputs (radius, Newton inverse, exact pullback metric, and the
finite-difference off-centre coordinate jets and pullback Christoffel
symbols) must keep their arithmetic bit for bit, their number of
exponential-map calls (plain and with Jacobi fields) and of geodesic
right-hand sides. The reference file holds every output as `float.hex`
strings; regenerate it with

    PYTHONPATH=src python tests/test_normal_pinned.py

only when a change is meant to move these numbers.
"""

import json
import math
from pathlib import Path

import numpy as np

import lorentzkit.geodesics as geodesics
from lorentzkit import catalog
from lorentzkit.normal import NormalChart, orthonormal_frame_from

REFERENCE = Path(__file__).resolve().parent / "data" / \
    "schwarzschild_static_chart.json"


def _chart_outputs(field_) -> dict:
    """Every pinned output, with the chart calls and right-hand sides of
    each."""
    names = ("forward", "inverse", "_forward_and_jacobian")
    calls = dict.fromkeys(names + ("rhs",), 0)
    out = {}

    def counted(name):
        method = getattr(NormalChart, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    def solve_ivp(*args, **kwargs):
        sol = originals["solve_ivp"](*args, **kwargs)
        calls["rhs"] += sol.nfev
        return sol

    def record(key, make, pin=lambda result: result):
        before = dict(calls)
        result = make()
        value = np.asarray(pin(result), dtype=float)
        out[key] = {"shape": list(value.shape),
                    "values": [float(v).hex() for v in value.reshape(-1)],
                    "calls": {k: calls[k] - before[k] for k in calls}}
        return result

    p = np.array([0.0, 6.0, math.pi / 2, 0.0])
    frame = orthonormal_frame_from(field_, p, first=np.array([1.0, 0, 0, 0]))
    originals = {name: getattr(NormalChart, name) for name in names}
    originals["solve_ivp"] = geodesics.solve_ivp
    for name in names:
        setattr(NormalChart, name, counted(name))
    geodesics.solve_ivp = solve_ivp
    try:
        chart = record("radius", lambda: NormalChart(field_, p, frame),
                       lambda chart: chart.radius)
        x = np.array([0.03, -0.02, 0.025, 0.01])
        q = chart.forward(x)
        record("inverse", lambda: chart.inverse(q))
        record("coord_jets", lambda: chart.coord_jets(q), lambda jets: [
            np.concatenate([[j.value], j.grad, j.hess.reshape(-1)])
            for j in jets])
        record("pullback_metric", lambda: chart.pullback_metric(x))
        record("pullback_christoffel_origin",
               chart.pullback_christoffel_origin)
    finally:
        geodesics.solve_ivp = originals.pop("solve_ivp")
        for name, method in originals.items():
            setattr(NormalChart, name, method)
    return out


def test_schwarzschild_static_chart_outputs_are_pinned(bundles):
    want = json.loads(REFERENCE.read_text())
    got = _chart_outputs(bundles["schwarzschild_static"].field)
    assert sorted(got) == sorted(want)
    for key, ref in want.items():
        assert got[key]["shape"] == ref["shape"], key
        assert got[key]["calls"] == ref["calls"], key
        values = np.array([float.fromhex(v) for v in got[key]["values"]])
        expected = np.array([float.fromhex(v) for v in ref["values"]])
        assert np.array_equal(values, expected), key


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    outputs = _chart_outputs(catalog.load("schwarzschild_static").field)
    REFERENCE.write_text(json.dumps(outputs, indent=1) + "\n")
