"""Built-in spacetimes and submanifolds with known ground truth.

Every bundle carries a metric field, a designated time-orientation field X
(checked timelike over the default region at load), an optional candidate
temporal function, named submanifolds with outward hints, a default sampling
region, and a table of known facts. No fact is trusted: the test suite
re-verifies each entry with toolkit operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .conditions import Region, temporal_certificate
from .errors import ParamError, UnknownSpacetime
from .expr import SymbolTable
from .fields import ExprScalarField, ScalarField, VectorField
from .geometry import DEFAULT_TOLS
from .metric import ExprMetricField, MetricField
from .submanifold import Embedding

TWO_PI = 2.0 * math.pi
# the largest chart dimension a builtin family (minkowski n, torus m + 1)
# accepts; the submanifold grids of a torus grow like 16^(m-1)
MAX_DIMENSION = 6


@dataclass
class SpacetimeBundle:
    name: str
    params: dict
    field: MetricField
    orientation: VectorField
    temporal: ScalarField | None
    submanifolds: dict[str, Embedding]
    hints: dict[str, VectorField]
    default_box: tuple[tuple[float, float], ...]
    facts: list[dict] = dc_field(default_factory=list)

    def region(self, **overrides) -> Region:
        return Region(box=self.default_box, **overrides)

    def check_orientation(self) -> None:
        rep = temporal_certificate(self.field, self.orientation, "orientation",
                                   self.region(n_points=24), DEFAULT_TOLS)
        if rep["verdict"] != "PASSED":
            raise ParamError(
                f"{self.name}: designated orientation field is not timelike "
                f"over the default region ({rep['worst_normalized_square']:.3e})")


def _sphere_embedding(table: SymbolTable, time_expr: str, radius_expr: str,
                      params: dict, grid=(24, 24), name: str = "sphere",
                      center_axes=(1, 2, 3)) -> Embedding:
    """Round 2-sphere {t = const, r = const} in a 4-dim Cartesian-like chart."""
    ptable = SymbolTable(["ua", "ub"], list(params))
    exprs = [None] * 4
    exprs[0] = time_expr
    r = radius_expr
    exprs[center_axes[0]] = f"({r})*sin(ua)*cos(ub)"
    exprs[center_axes[1]] = f"({r})*sin(ua)*sin(ub)"
    exprs[center_axes[2]] = f"({r})*cos(ua)"
    return Embedding(ptable, exprs, 4,
                     domain=[(0.0, math.pi), (0.0, TWO_PI)],
                     periodic=[None, TWO_PI],
                     params=params, grid_shape=grid, name=name)


def _polar_sphere_embedding(params: dict, r_expr: str, v_expr: str = "0",
                            grid=(24, 24), name: str = "sphere") -> Embedding:
    """Coordinate sphere {v = const, r = const} in a spherical-polar chart."""
    ptable = SymbolTable(["ua", "ub"], list(params))
    return Embedding(ptable, [v_expr, r_expr, "ua", "ub"], 4,
                     domain=[(0.35, math.pi - 0.35), (0.0, TWO_PI)],
                     periodic=[None, TWO_PI],
                     params=params, grid_shape=grid, name=name)


def _radial_hint(table: SymbolTable, axes=(1, 2, 3)) -> VectorField:
    comps = ["0"] * table.dim
    for a in axes:
        comps[a] = table.coordinates[a]
    return VectorField(comps, table)


def _diag_entries(n: int, diag: list[str]) -> dict:
    entries = {}
    for i in range(n):
        for j in range(i + 1):
            entries[(i, j)] = diag[i] if i == j else "0"
    return entries


def _dimension(name: str, value, least: int, most: int) -> int:
    """An integral dimension parameter in [least, most], checked before
    anything is built from it."""
    k = float(value)
    if not k.is_integer():
        raise ParamError(f"{name} must be an integer, got {value!r}")
    if not least <= k <= most:
        raise ParamError(f"{name} must be between {least} and {most}, "
                         f"got {value!r}")
    return int(k)


def _load_minkowski(n: int = 4) -> SpacetimeBundle:
    n = _dimension("minkowski dimension n", n, 2, MAX_DIMENSION)
    coords = ["t"] + [f"x{i}" for i in range(1, n)]
    table = SymbolTable(coords)
    field_ = ExprMetricField(table, _diag_entries(n, ["-1"] + ["1"] * (n - 1)))
    x_field = VectorField.constant([1.0] + [0.0] * (n - 1), table)
    temporal = ExprScalarField("t", table)
    subs, hints = {}, {}
    if n == 4:
        subs["sphere"] = _sphere_embedding(table, "0", "1", {}, name="sphere")
        hints["sphere"] = _radial_hint(table)
        ptable = SymbolTable(["ua", "ub"])
        subs["plane"] = Embedding(ptable, ["0", "0", "ua", "ub"], 4,
                                  domain=[(-1.0, 1.0), (-1.0, 1.0)],
                                  grid_shape=(8, 8), name="plane")
        hints["plane"] = VectorField.constant([0, 1, 0, 0], table)
    box = tuple((-1.0, 1.0) for _ in range(n))
    facts = [
        {"check": "flat"},
        {"check": "condition", "name": "ricci", "verdict": "holds-weakly"},
        {"check": "condition", "name": "riemann", "verdict": "holds-weakly"},
        {"check": "condition", "name": "tidal", "verdict": "holds-weakly"},
        {"check": "orientation", "verdict": "PASSED"},
        {"check": "temporal", "verdict": "PASSED"},
    ]
    if n == 4:
        facts.append({"check": "classify", "submanifold": "sphere",
                      "class": "not-weakly-trapped"})
    return SpacetimeBundle("minkowski", {"n": n}, field_, x_field, temporal,
                           subs, hints, box, facts)


def _load_torus_quotient(m: int = 3) -> SpacetimeBundle:
    m = _dimension("torus_quotient m", m, 2, MAX_DIMENSION - 1)
    coords = ["t"] + [f"x{i}" for i in range(1, m + 1)]
    table = SymbolTable(coords)
    field_ = ExprMetricField(
        table, _diag_entries(m + 1, ["-1"] + ["1"] * m),
        periods=[None] + [1.0] * m)
    x_field = VectorField.constant([1.0] + [0.0] * m, table)
    temporal = ExprScalarField("t", table)

    # Pi = {t = 0}: the compact spatial torus Cauchy slice
    ptable_pi = SymbolTable([f"u{i}" for i in range(1, m + 1)])
    pi = Embedding(ptable_pi, ["0"] + [f"u{i}" for i in range(1, m + 1)],
                   m + 1, domain=[(0.0, 1.0)] * m, periodic=[1.0] * m,
                   grid_shape=(8,) * m, name="Pi")
    # S = {t = x1 = 0}: codimension-2 sub-torus
    ptable_s = SymbolTable([f"u{i}" for i in range(1, m)])
    s = Embedding(ptable_s, ["0", "0"] + [f"u{i}" for i in range(1, m)],
                  m + 1, domain=[(0.0, 1.0)] * (m - 1),
                  periodic=[1.0] * (m - 1),
                  grid_shape=(16,) * (m - 1), name="S")
    subs = {"Pi": pi, "S": s}
    hints = {"S": VectorField.constant([0.0, 1.0] + [0.0] * (m - 1), table)}
    box = tuple([(-1.0, 1.0)] + [(0.0, 1.0)] * m)
    facts = [
        {"check": "flat"},
        {"check": "condition", "name": "ricci", "verdict": "holds-weakly"},
        {"check": "condition", "name": "riemann", "verdict": "holds-weakly"},
        {"check": "condition", "name": "tidal", "verdict": "holds-weakly"},
        {"check": "orientation", "verdict": "PASSED"},
        {"check": "temporal", "verdict": "PASSED"},
        {"check": "classify", "submanifold": "S",
         "class": "weakly-future-trapped", "subtype": "extremal"},
        {"check": "spacelike", "submanifold": "Pi", "closed": True},
    ]
    return SpacetimeBundle("torus_quotient", {"m": m}, field_, x_field,
                           temporal, subs, hints, box, facts)


def _load_schwarzschild_ef(M: float = 1.0) -> SpacetimeBundle:
    mass = float(M)
    if mass <= 0:
        raise ParamError("mass must be positive")
    table = SymbolTable(["v", "r", "theta", "phi"], ["M"])
    params = {"M": mass}
    entries = {
        (0, 0): "-(1 - 2*M/r)",
        (1, 0): "1", (1, 1): "0",
        (2, 0): "0", (2, 1): "0", (2, 2): "r^2",
        (3, 0): "0", (3, 1): "0", (3, 2): "0", (3, 3): "r^2*sin(theta)^2",
    }
    field_ = ExprMetricField(table, entries, params=params,
                             domain=[(-np.inf, np.inf), (1e-3, np.inf),
                                     (0.0, math.pi), (-np.inf, np.inf)],
                             periods=[None, None, None, TWO_PI])
    # dv - 2 dr is timelike for every r > 2M/5, horizon included
    x_field = VectorField.constant([1.0, -2.0, 0.0, 0.0], table)
    temporal = ExprScalarField("v - r", table)
    subs = {
        "inner_sphere": _polar_sphere_embedding(params, "1.5*M", name="inner_sphere"),
        "horizon_sphere": _polar_sphere_embedding(params, "2*M", name="horizon_sphere"),
        "outer_sphere": _polar_sphere_embedding(params, "3*M", name="outer_sphere"),
        "far_sphere": _polar_sphere_embedding(params, "4*M", name="far_sphere"),
    }
    hint = VectorField.constant([0.0, 1.0, 0.0, 0.0], table)
    hints = {name: hint for name in subs}
    box = ((0.0, 1.0), (1.2 * mass, 6.0 * mass), (0.6, math.pi - 0.6),
           (0.0, TWO_PI))
    facts = [
        {"check": "vacuum"},
        {"check": "condition", "name": "ricci", "verdict": "holds-weakly"},
        {"check": "condition", "name": "riemann", "verdict": "violated"},
        {"check": "condition", "name": "tidal", "verdict": "violated"},
        {"check": "orientation", "verdict": "PASSED"},
        {"check": "temporal", "verdict": "PASSED"},
        {"check": "classify", "submanifold": "inner_sphere",
         "class": "future-trapped"},
        {"check": "classify", "submanifold": "horizon_sphere",
         "class": "weakly-future-trapped", "subtype": "MOTS"},
        {"check": "classify", "submanifold": "outer_sphere",
         "class": "not-weakly-trapped"},
    ]
    return SpacetimeBundle("schwarzschild_ef", {"M": mass}, field_, x_field,
                           temporal, subs, hints, box, facts)


def _load_schwarzschild_static(M: float = 1.0) -> SpacetimeBundle:
    mass = float(M)
    if mass <= 0:
        raise ParamError("mass must be positive")
    table = SymbolTable(["t", "r", "theta", "phi"], ["M"])
    params = {"M": mass}
    entries = {
        (0, 0): "-(1 - 2*M/r)",
        (1, 0): "0", (1, 1): "1/(1 - 2*M/r)",
        (2, 0): "0", (2, 1): "0", (2, 2): "r^2",
        (3, 0): "0", (3, 1): "0", (3, 2): "0", (3, 3): "r^2*sin(theta)^2",
    }
    field_ = ExprMetricField(table, entries, params=params,
                             domain=[(-np.inf, np.inf), (2.0 * mass + 1e-6, np.inf),
                                     (0.0, math.pi), (-np.inf, np.inf)],
                             periods=[None, None, None, TWO_PI])
    x_field = VectorField.constant([1.0, 0.0, 0.0, 0.0], table)
    temporal = ExprScalarField("t", table)
    subs = {"far_sphere": _polar_sphere_embedding(params, "4*M", "0",
                                                  name="far_sphere")}
    hints = {"far_sphere": VectorField.constant([0.0, 1.0, 0.0, 0.0], table)}
    box = ((0.0, 1.0), (2.5 * mass, 8.0 * mass), (0.6, math.pi - 0.6),
           (0.0, TWO_PI))
    facts = [
        {"check": "vacuum"},
        {"check": "condition", "name": "ricci", "verdict": "holds-weakly"},
        {"check": "condition", "name": "riemann", "verdict": "violated"},
        {"check": "condition", "name": "tidal", "verdict": "violated"},
        {"check": "orientation", "verdict": "PASSED"},
        {"check": "temporal", "verdict": "PASSED"},
        {"check": "classify", "submanifold": "far_sphere",
         "class": "not-weakly-trapped"},
    ]
    return SpacetimeBundle("schwarzschild_static", {"M": mass}, field_,
                           x_field, temporal, subs, hints, box, facts)


def _load_flrw_dust(rho0: float = 1.0) -> SpacetimeBundle:
    rho0 = float(rho0)
    if rho0 <= 0:
        raise ParamError("dust density must be positive")
    # a(s) = s^(2/3); rho0 fixes the reference epoch via rho = 1/(6 pi s^2)
    s_ref = 1.0 / math.sqrt(6.0 * math.pi * rho0)
    table = SymbolTable(["s", "x", "y", "z"])
    entries = _diag_entries(4, ["-1", "s^(4/3)", "s^(4/3)", "s^(4/3)"])
    field_ = ExprMetricField(table, entries,
                             domain=[(1e-9, np.inf)] + [(-np.inf, np.inf)] * 3)
    x_field = VectorField.constant([1.0, 0.0, 0.0, 0.0], table)
    temporal = ExprScalarField("s", table)
    radius = 0.5 * s_ref
    subs = {"sphere": _sphere_embedding(table, repr(s_ref), repr(radius), {},
                                        name="sphere")}
    hints = {"sphere": _radial_hint(table)}
    box = ((0.8 * s_ref, 1.2 * s_ref), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    facts = [
        {"check": "condition", "name": "ricci", "verdict": "holds-strictly"},
        {"check": "condition", "name": "riemann", "verdict": "holds-strictly"},
        # tidal margins degenerate to 0+ toward the null shell, so only the
        # weak verdict is sampling-stable
        {"check": "condition", "name": "tidal", "satisfied": "weakly"},
        {"check": "orientation", "verdict": "PASSED"},
        {"check": "temporal", "verdict": "PASSED"},
    ]
    return SpacetimeBundle("flrw_dust", {"rho0": rho0, "s_ref": s_ref}, field_,
                           x_field, temporal, subs, hints, box, facts)


def _load_desitter(H: float = 1.0) -> SpacetimeBundle:
    hubble = float(H)
    if hubble <= 0:
        raise ParamError("expansion rate must be positive")
    table = SymbolTable(["s", "x", "y", "z"], ["H"])
    params = {"H": hubble}
    a2 = "exp(2*H*s)"
    entries = _diag_entries(4, ["-1", a2, a2, a2])
    field_ = ExprMetricField(table, entries, params=params)
    x_field = VectorField.constant([1.0, 0.0, 0.0, 0.0], table)
    temporal = ExprScalarField("s", table)
    subs = {"sphere": _sphere_embedding(table, "0", "0.7", params,
                                        name="sphere")}
    hints = {"sphere": _radial_hint(table)}
    box = ((-0.3, 0.3), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0))
    facts = [
        {"check": "condition", "name": "ricci", "verdict": "violated"},
        {"check": "condition", "name": "riemann", "verdict": "violated"},
        {"check": "condition", "name": "tidal", "verdict": "violated"},
        {"check": "orientation", "verdict": "PASSED"},
        {"check": "temporal", "verdict": "PASSED"},
    ]
    return SpacetimeBundle("desitter", {"H": hubble}, field_, x_field,
                           temporal, subs, hints, box, facts)


def _load_null_h_demo() -> SpacetimeBundle:
    """Flat chart with a surface whose mean curvature is past-null everywhere.

    The sheet (u1, u2) -> (-u1^2/2, u1^2/2, u1, u2) in Minkowski has induced
    metric exactly the identity and H = (-1, 1, 0, 0): null, past-directed,
    with g(H, X) = +1 > 0, so the surface is weakly future-trapped with the
    null-H boundary profile the trapped-exit construction needs.
    """
    base = _load_minkowski(4)
    table = base.field.table
    ptable = SymbolTable(["u1", "u2"])
    sheet = Embedding(ptable, ["-(u1^2)/2", "(u1^2)/2", "u1", "u2"], 4,
                      domain=[(-0.8, 0.8), (-0.8, 0.8)],
                      grid_shape=(12, 12), name="sheet")
    subs = {"sheet": sheet}
    hints = {"sheet": VectorField.constant([0.0, 1.0, 0.0, 0.0], table)}
    facts = [
        {"check": "flat"},
        {"check": "orientation", "verdict": "PASSED"},
        {"check": "classify", "submanifold": "sheet",
         "class": "weakly-future-trapped", "subtype": "null-H"},
    ]
    return SpacetimeBundle("null_H_demo", {}, base.field, base.orientation,
                           base.temporal, subs, hints, base.default_box, facts)


_LOADERS = {
    "minkowski": (_load_minkowski, ("n",)),
    "torus_quotient": (_load_torus_quotient, ("m",)),
    "schwarzschild_ef": (_load_schwarzschild_ef, ("M",)),
    "schwarzschild_static": (_load_schwarzschild_static, ("M",)),
    "flrw_dust": (_load_flrw_dust, ("rho0",)),
    "desitter": (_load_desitter, ("H",)),
    "null_H_demo": (_load_null_h_demo, ()),
}


def names() -> list[str]:
    return sorted(_LOADERS)


def load(name: str, **params) -> SpacetimeBundle:
    """Load a builtin bundle; raises UnknownSpacetime / ParamError."""
    if name not in _LOADERS:
        raise UnknownSpacetime(name)
    loader, accepted = _LOADERS[name]
    unknown = set(params) - set(accepted)
    if unknown:
        raise ParamError(f"{name} does not accept parameters {sorted(unknown)}")
    bundle = loader(**params)
    bundle.check_orientation()
    return bundle
