"""Catalog loading and re-verification of every bundle's known-facts table."""

from pathlib import Path

import numpy as np
import pytest

from lorentzkit import catalog, expr
from lorentzkit.conditions import (Region, ricci_condition, riem_condition,
                                   temporal_certificate, tidal_condition)
from lorentzkit.errors import ParamError, UnknownSpacetime
from lorentzkit.geometry import curvature_data
from lorentzkit.metric import ExprMetricField
from lorentzkit.specfile import load_spec
from lorentzkit.submanifold import classify_trapped, induced_metric

from conftest import region_points


class TestLoading:
    def test_unknown_name(self):
        with pytest.raises(UnknownSpacetime):
            catalog.load("kerr")

    def test_bad_params(self):
        with pytest.raises(ParamError):
            catalog.load("schwarzschild_ef", M=-1.0)
        with pytest.raises(ParamError):
            catalog.load("flrw_dust", rho0=0.0)
        with pytest.raises(ParamError):
            catalog.load("minkowski", n=1)
        with pytest.raises(ParamError):
            catalog.load("minkowski", M=1.0)

    def test_parametrized_loads(self):
        b = catalog.load("schwarzschild_ef", M=2.5)
        assert b.params["M"] == 2.5
        g = b.field.value([0.0, 5.0, np.pi / 2, 0.0])
        assert g[0, 0] == pytest.approx(-(1 - 5.0 / 5.0))

    def test_minkowski_dimensions(self):
        for n in (2, 3, 5):
            b = catalog.load("minkowski", n=n)
            assert b.field.dim == n

    def test_names(self):
        assert set(catalog.names()) == {
            "minkowski", "torus_quotient", "schwarzschild_ef",
            "schwarzschild_static", "flrw_dust", "desitter", "null_H_demo"}


class TestTorusQuotient:
    def test_periodic_identification(self, bundles):
        """Metric queries at x and x + period agree exactly."""
        b = bundles["torus_quotient"]
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.uniform(-2, 2, size=4)
            for axis in (1, 2, 3):
                q = p.copy()
                q[axis] += 1.0
                assert np.allclose(b.field.value(p), b.field.value(q),
                                   atol=1e-14)

    def test_pi_is_compact_spacelike_slice(self, bundles):
        b = bundles["torus_quotient"]
        pi = b.submanifolds["Pi"]
        assert pi.is_closed
        first, spacelike = induced_metric(b.field, pi, [0.3, 0.6, 0.9])
        assert spacelike
        assert np.allclose(first, np.eye(3), atol=1e-14)

    def test_periods_are_checked_in_one_kernel_call(self, monkeypatch):
        """The sample points and one shifted copy per periodic axis are
        evaluated together; a component that is not periodic is named."""
        table = expr.SymbolTable(["t", "x", "y"])

        def entries(g_yy):
            return {(0, 0): "-1", (1, 0): "0", (1, 1): "2 + sin(x)",
                    (2, 0): "0", (2, 1): "0", (2, 2): g_yy}

        calls = []
        evaluate = expr.Kernels.__call__
        monkeypatch.setattr(expr.Kernels, "__call__", lambda self, p, order:
                            calls.append(np.shape(p)) or
                            evaluate(self, p, order))
        periods = (None, 2.0 * np.pi, 1.0)
        ExprMetricField(table, entries("1 + t^2"), periods=periods)
        assert calls == [(15, 3)]
        with pytest.raises(ParamError, match="period 1.0 along coordinate y"):
            ExprMetricField(table, entries("2 + sin(y)"), periods=periods)


class TestKnownFacts:
    """Every fact in every bundle table is recomputed with toolkit calls."""

    def _verify(self, bundle, fact):
        region = Region(box=bundle.default_box, n_points=10, n_dirs=12, seed=0)
        check = fact["check"]
        if check == "flat":
            for p in region_points(bundle, 20, seed=2):
                assert np.abs(curvature_data(bundle.field, p).riem).max() < 1e-10
        elif check == "vacuum":
            for p in region_points(bundle, 20, seed=3):
                assert np.abs(curvature_data(bundle.field, p).ric).max() < 1e-7
        elif check == "condition":
            runner = {"ricci": ricci_condition, "riemann": riem_condition,
                      "tidal": tidal_condition}[fact["name"]]
            rep = runner(bundle.field, region)
            if "verdict" in fact:
                assert rep.verdict == fact["verdict"], fact
            else:
                assert rep.satisfied_weakly, fact
        elif check == "orientation":
            rep = temporal_certificate(bundle.field, bundle.orientation,
                                       "orientation", region)
            assert rep["verdict"] == fact["verdict"]
        elif check == "temporal":
            rep = temporal_certificate(bundle.field, bundle.temporal,
                                       "temporal", region)
            assert rep["verdict"] == fact["verdict"]
        elif check == "classify":
            emb = bundle.submanifolds[fact["submanifold"]]
            hint = bundle.hints.get(fact["submanifold"])
            verdict = classify_trapped(bundle.field, bundle.orientation, emb,
                                       hint)
            assert verdict.class_name == fact["class"], fact
            if "subtype" in fact:
                assert verdict.subtype == fact["subtype"], fact
        elif check == "spacelike":
            emb = bundle.submanifolds[fact["submanifold"]]
            for idx in [emb.grid()[0], emb.grid()[-1]]:
                _, spacelike = induced_metric(bundle.field, emb,
                                              emb.grid_point(idx))
                assert spacelike
            if fact.get("closed"):
                assert emb.is_closed
        else:
            raise AssertionError(f"unknown fact kind {check!r}")

    @pytest.mark.parametrize("name", sorted(catalog.names()))
    def test_facts(self, bundles, name):
        bundle = bundles[name]
        assert bundle.facts, f"{name} has no facts to verify"
        for fact in bundle.facts:
            self._verify(bundle, fact)


@pytest.mark.parametrize("name, key, value", [
    ("minkowski", "n", 2.5), ("minkowski", "n", 1e9),
    ("minkowski", "n", catalog.MAX_DIMENSION + 1),
    ("torus_quotient", "m", 1e6), ("torus_quotient", "m", 2.5),
    ("torus_quotient", "m", catalog.MAX_DIMENSION),
])
def test_dimension_parameters_are_checked_before_building(monkeypatch, name,
                                                          key, value):
    """Non-integral or oversized dimensions raise ParamError before a
    symbol table, a field or a grid is built from them."""
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the dimension check")

    for builder in ("SymbolTable", "ExprMetricField", "Embedding"):
        monkeypatch.setattr(catalog, builder, unreachable)
    with pytest.raises(ParamError):
        catalog.load(name, **{key: value})


def test_largest_dimensions_load():
    assert catalog.load("minkowski", n=catalog.MAX_DIMENSION).field.dim == \
        catalog.MAX_DIMENSION
    assert catalog.load("torus_quotient",
                        m=catalog.MAX_DIMENSION - 1).field.dim == \
        catalog.MAX_DIMENSION


def test_a_second_load_parses_nothing(monkeypatch):
    """Expressions are parsed once per process: loading a builtin or a
    spacetime file again tokenizes no text."""
    spec = str(Path(__file__).resolve().parents[1] / "perfbench"
               / "spacetimes" / "contracting_desitter.st")
    catalog.load("schwarzschild_ef")
    load_spec(spec)
    calls = []
    tokenize = expr._tokenize
    monkeypatch.setattr(expr, "_tokenize",
                        lambda *args: calls.append(args) or tokenize(*args))
    catalog.load("schwarzschild_ef")
    load_spec(spec)
    assert calls == []
    expr.parse("r - 0.123456789", expr.SymbolTable(["r"]))
    assert len(calls) == 1, "a new text is tokenized"
