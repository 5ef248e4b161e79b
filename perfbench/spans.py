"""Spans around lorentzkit's layers, installed from outside the package.

`Tracer.install()` wraps the public functions of each layer at run time and
rebinds every name other lorentzkit modules imported with `from ... import`
(for example `curvature_data` inside `conditions`, `perturb` and
`submanifold`), plus the methods of the metric, bump and normal-chart
classes. `uninstall()` puts every original back. The untraced benchmark run
never imports this module.

Spans are kept in memory as (name, start_ns, end_ns, parent) and reduced to
per-layer metrics after each traced pass. A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# Per-layer metrics: name -> (unit, better). The order is the report order.
LAYER_METRICS = {
    "metric.jets2_calls": ("count", "lower"),
    "metric.jets2_us": ("us", "lower"),
    "metric.jets1_calls": ("count", "lower"),
    "metric.jets1_us": ("us", "lower"),
    "metric.values_calls": ("count", "lower"),
    "metric.values_us": ("us", "lower"),
    "metric.conformal_calls": ("count", "lower"),
    "metric.conformal_self_us": ("us", "lower"),
    "perturb.bump_jet_calls": ("count", "lower"),
    "perturb.bump_jet_us": ("us", "lower"),
    "geometry.curvature_calls": ("count", "lower"),
    "geometry.curvature_self_us": ("us", "lower"),
    "conditions.points": ("count", "lower"),
    "conditions.margin_calls": ("count", "lower"),
    "conditions.margins_per_point": ("count", "lower"),
    "conditions.margin_us": ("us", "lower"),
    "conditions.scan_self_s": ("s", "lower"),
    "conditions.descent_gain_ratio": ("ratio", "higher"),
    "geodesics.solves": ("count", "lower"),
    "geodesics.retries": ("count", "lower"),
    "geodesics.rhs_evals": ("count", "lower"),
    "geodesics.discarded_rhs_evals": ("count", "lower"),
    "geodesics.rhs_us": ("us", "lower"),
    "geodesics.transport_solves": ("count", "lower"),
    "geodesics.transport_retries": ("count", "lower"),
    "geodesics.transport_rhs_evals": ("count", "lower"),
    "normal.forward_calls": ("count", "lower"),
    "normal.inverse_calls": ("count", "lower"),
    "normal.forwards_per_inverse": ("count", "lower"),
    "normal.radius_shrinks": ("count", "lower"),
    "normal.chart_init_s": ("s", "lower"),
    "submanifold.grid_points": ("count", "lower"),
    "submanifold.mean_curvature_calls": ("count", "lower"),
    "submanifold.mean_curvatures_per_grid_point": ("count", "lower"),
    "submanifold.mean_curvature_self_us": ("us", "lower"),
    "perturb.seminorm_grid_points": ("count", "lower"),
    "perturb.base_jets_per_grid_point": ("count", "lower"),
    "perturb.seminorm_s": ("s", "lower"),
    "perturb.certificate_s": ("s", "lower"),
    "conformal.closed_form_calls": ("count", "lower"),
    "conformal.closed_form_us": ("us", "lower"),
    "cli.emit_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "setup.import_s": ("s", "lower"),
    "catalog.load_s": ("s", "lower"),
    "specfile.parse_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Metrics that are counts of work: deterministic, so they must repeat
# exactly between traced passes. Everything else is a time.
COUNT_METRICS = tuple(k for k, (unit, _) in LAYER_METRICS.items()
                      if unit in ("count", "ratio", "bytes"))

_SHRINK = 0.7   # NormalChart._shrink_to_invertible scales the radius by this


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.t0: list[int] = []
        self.t1: list[int] = []
        self.parent: list[int] = []
        self.current = -1
        self.counts: dict[str, float] = {}
        self._scan_values: dict[int, list[float]] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def reset(self) -> None:
        self.names.clear()
        self.t0.clear()
        self.t1.clear()
        self.parent.clear()
        self.counts = {}
        self._scan_values = {}
        self.current = -1

    def add(self, key: str, k: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def _open(self, name: str) -> tuple[int, int]:
        idx = len(self.names)
        self.names.append(name)
        self.t0.append(0)
        self.t1.append(0)
        self.parent.append(self.current)
        parent = self.current
        self.current = idx
        self.t0[idx] = time.perf_counter_ns()
        return idx, parent

    def _close(self, idx: int, parent: int) -> None:
        self.t1[idx] = time.perf_counter_ns()
        self.current = parent

    def spanned(self, name, fn, before=None, after=None):
        """fn wrapped in a span; `name` may be a callable of the arguments.

        before(args, kwargs) -> state runs before the call, after(idx, state,
        args, result) after it, also when it raises (result is then None).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            label = name(args, kwargs) if callable(name) else name
            idx, parent = tracer._open(label)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, parent)
                if after is not None:
                    after(idx, state, args, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind_function(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lorentzkit"
                                   or mod_name.startswith("lorentzkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _wrap_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        self._rebind_function(original,
                              self.spanned(name, original, before, after))

    def _wrap_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self.spanned(name, original, before, after))

    def install(self) -> None:
        import lorentzkit.cli as cli
        import lorentzkit.conditions as conditions
        import lorentzkit.conformal as conformal
        import lorentzkit.geodesics as geodesics
        import lorentzkit.geometry as geometry
        import lorentzkit.metric as metric
        import lorentzkit.normal as normal
        import lorentzkit.perturb as perturb
        import lorentzkit.submanifold as submanifold

        def jets_name(args, kwargs):
            order = kwargs.get("order", args[2] if len(args) > 2 else 2)
            return ("metric.values", "metric.jets1", "metric.jets2")[min(order, 2)]

        self._wrap_method(metric.ExprMetricField, "component_jets", jets_name)
        self._wrap_method(metric.ConformalScaledMetric, "component_jets",
                          "metric.conformal")
        self._wrap_method(perturb.BumpField, "jet2", "perturb.bump_jet")
        self._wrap_method(perturb.NormalCoordBump, "jet2", "perturb.bump_jet")
        self._wrap_function(geometry, "curvature_data", "geometry.curvature")

        # conditions: margins feed the scan they were called from, so the
        # dense pass (first n_dirs margins) can be compared with the result
        def margin_after(idx, _state, _args, result):
            values = self._scan_values.get(self.parent[idx])
            if values is not None and result is not None:
                values.append(float(result[0]))

        for attr in ("_margin_ricci", "_margin_riem", "_margin_riem_gperp",
                     "_margin_tidal"):
            self._wrap_function(conditions, attr, "conditions.margin",
                                after=margin_after)

        def scan_before(args, kwargs):
            self._scan_values[len(self.names)] = []
            return args[3] if len(args) > 3 else kwargs["n_dirs"]

        def scan_after(idx, n_dirs, _args, result):
            values = self._scan_values.pop(idx)
            self.add("scans")
            if result is not None and float(result[0]) < min(values[:n_dirs]):
                self.add("descent_gains")

        self._wrap_function(conditions, "_scan_point", "conditions.scan",
                            before=scan_before, after=scan_after)
        self._wrap_function(conditions, "inclusion_audit",
                            "conditions.inclusion_audit")

        # geodesics: every solve_ivp attempt and every right-hand side call
        original_solve = geodesics.solve_ivp

        def solve_ivp(fun, *args, **kwargs):
            return original_solve(self.spanned("geodesics.rhs", fun),
                                  *args, **kwargs)

        self._rebind_function(original_solve,
                              self.spanned("geodesics.solve_ivp", solve_ivp))
        self._wrap_function(geodesics, "geodesic", "geodesics.geodesic")
        self._wrap_function(geodesics, "parallel_transport",
                            "geodesics.transport")

        # normal charts
        def shrink_before(args, _kwargs):
            return args[0].radius

        def shrink_after(_idx, radius0, args, _result):
            ratio = args[0].radius / radius0
            self.add("radius_shrinks", round(math.log(ratio) / math.log(_SHRINK)))

        self._wrap_method(normal.NormalChart, "__init__", "normal.chart_init")
        self._wrap_method(normal.NormalChart, "forward", "normal.forward")
        self._wrap_method(normal.NormalChart, "inverse", "normal.inverse")
        self._wrap_method(normal.NormalChart, "_shrink_to_invertible",
                          "normal.shrink", before=shrink_before,
                          after=shrink_after)

        # submanifold grids
        def classify_before(args, kwargs):
            emb = args[2] if len(args) > 2 else kwargs["emb"]
            self.add("grid_points", math.prod(emb.grid_shape))

        self._wrap_function(submanifold, "classify_trapped",
                            "submanifold.classify", before=classify_before)
        self._wrap_function(submanifold, "mean_curvature",
                            "submanifold.mean_curvature")

        # perturbation families and their seminorm grids
        def rows_before(args, kwargs):
            box = args[3] if len(args) > 3 else kwargs["support_box"]
            grid = args[4] if len(args) > 4 else kwargs.get("grid_per_axis", 7)
            self.add("seminorm_grid_points", grid ** len(box))

        self._wrap_function(perturb, "_seminorm_rows", "perturb.seminorm_rows",
                            before=rows_before)
        self._wrap_function(perturb, "_seminorm_orders",
                            "perturb.seminorm_orders")
        for attr in ("trapped_exit_family", "positivity_exit_family"):
            self._wrap_function(perturb, attr, "perturb.family")
        for attr in ("conformal_mean_curvature", "conformal_riemann"):
            self._wrap_function(conformal, attr, "conformal.closed_form")

        # report emission
        def emit_before(args, kwargs):
            out = args[1] if len(args) > 1 else kwargs["out"]
            return out, out.tell()

        def emit_after(_idx, state, _args, _result):
            out, start = state
            self.add("report_bytes", out.tell() - start)

        self._wrap_function(cli, "_emit", "cli.emit", before=emit_before,
                            after=emit_after)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        names, parent = self.names, self.parent
        dur = [b - a for a, b in zip(self.t0, self.t1)]
        child = [0] * len(names)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]

        def has_ancestor(i, target):
            p = parent[i]
            while p >= 0:
                if names[p] == target:
                    return True
                p = parent[p]
            return False

        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur[i]
            self_ns[name] = self_ns.get(name, 0) + dur[i] - child[i]

        def n(name):
            return calls.get(name, 0)

        def mean_us(name, table=total):
            return table.get(name, 0) / n(name) / 1e3 if n(name) else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        # shell-search points: one scan per sampled point, plus the points
        # of the inclusion audit (one curvature evaluation each)
        points = n("conditions.scan") + sum(
            1 for i, name in enumerate(names)
            if name == "geometry.curvature"
            and parent[i] >= 0 and names[parent[i]] == "conditions.inclusion_audit")

        # integrator attempts: an attempt is discarded when its geodesic
        # (or transport) call retried, which shows as a nested call
        integ = {"geodesics.geodesic": [0, 0, 0, 0],
                 "geodesics.transport": [0, 0, 0, 0]}   # solves, attempts, rhs, discarded
        retried = set()
        for i, name in enumerate(names):
            if name in integ:
                p = parent[i]
                if p >= 0 and names[p] == name:
                    retried.add(p)
                else:
                    integ[name][0] += 1
        rhs_per_solve: dict[int, int] = {}
        rhs_geo_ns = rhs_geo_n = 0
        for i, name in enumerate(names):
            if name == "geodesics.rhs":
                s = parent[i]
                while s >= 0 and names[s] != "geodesics.solve_ivp":
                    s = parent[s]
                rhs_per_solve[s] = rhs_per_solve.get(s, 0) + 1
                owner = parent[s] if s >= 0 else -1
                if owner >= 0 and names[owner] == "geodesics.geodesic":
                    rhs_geo_ns += dur[i]
                    rhs_geo_n += 1
        for i, name in enumerate(names):
            if name == "geodesics.solve_ivp":
                owner = parent[i]
                if owner < 0 or names[owner] not in integ:
                    continue
                row = integ[names[owner]]
                row[1] += 1
                row[2] += rhs_per_solve.get(i, 0)
                if owner in retried:
                    row[3] += rhs_per_solve.get(i, 0)
        geo, tr = integ["geodesics.geodesic"], integ["geodesics.transport"]

        forwards_in_inverse = sum(
            1 for i, name in enumerate(names)
            if name == "normal.forward" and has_ancestor(i, "normal.inverse"))
        mc_in_classify = sum(
            1 for i, name in enumerate(names)
            if name == "submanifold.mean_curvature"
            and has_ancestor(i, "submanifold.classify"))
        base_jets = sum(
            1 for i, name in enumerate(names)
            if name.startswith("metric.") and name != "metric.conformal"
            and parent[i] >= 0 and names[parent[i]] == "perturb.seminorm_orders")
        seminorm_ns = total.get("perturb.seminorm_rows", 0)
        family_ns = total.get("perturb.family", 0)
        grid_points = self.counts.get("grid_points", 0)
        seminorm_points = self.counts.get("seminorm_grid_points", 0)

        return {
            "metric.jets2_calls": n("metric.jets2"),
            "metric.jets2_us": mean_us("metric.jets2"),
            "metric.jets1_calls": n("metric.jets1"),
            "metric.jets1_us": mean_us("metric.jets1"),
            "metric.values_calls": n("metric.values"),
            "metric.values_us": mean_us("metric.values"),
            "metric.conformal_calls": n("metric.conformal"),
            "metric.conformal_self_us": mean_us("metric.conformal", self_ns),
            "perturb.bump_jet_calls": n("perturb.bump_jet"),
            "perturb.bump_jet_us": mean_us("perturb.bump_jet"),
            "geometry.curvature_calls": n("geometry.curvature"),
            "geometry.curvature_self_us": mean_us("geometry.curvature", self_ns),
            "conditions.points": points,
            "conditions.margin_calls": n("conditions.margin"),
            "conditions.margins_per_point": ratio(n("conditions.margin"), points),
            "conditions.margin_us": mean_us("conditions.margin"),
            "conditions.scan_self_s": self_ns.get("conditions.scan", 0) / 1e9,
            "conditions.descent_gain_ratio": ratio(
                self.counts.get("descent_gains", 0), self.counts.get("scans", 0)),
            "geodesics.solves": geo[0],
            "geodesics.retries": geo[1] - geo[0],
            "geodesics.rhs_evals": geo[2],
            "geodesics.discarded_rhs_evals": geo[3],
            "geodesics.rhs_us": rhs_geo_ns / rhs_geo_n / 1e3 if rhs_geo_n else 0.0,
            "geodesics.transport_solves": tr[0],
            "geodesics.transport_retries": tr[1] - tr[0],
            "geodesics.transport_rhs_evals": tr[2],
            "normal.forward_calls": n("normal.forward"),
            "normal.inverse_calls": n("normal.inverse"),
            "normal.forwards_per_inverse": ratio(forwards_in_inverse,
                                                 n("normal.inverse")),
            "normal.radius_shrinks": self.counts.get("radius_shrinks", 0),
            "normal.chart_init_s": total.get("normal.chart_init", 0) / 1e9,
            "submanifold.grid_points": grid_points,
            "submanifold.mean_curvature_calls": n("submanifold.mean_curvature"),
            "submanifold.mean_curvatures_per_grid_point": ratio(mc_in_classify,
                                                                grid_points),
            "submanifold.mean_curvature_self_us": mean_us(
                "submanifold.mean_curvature", self_ns),
            "perturb.seminorm_grid_points": seminorm_points,
            "perturb.base_jets_per_grid_point": ratio(base_jets, seminorm_points),
            "perturb.seminorm_s": seminorm_ns / 1e9,
            "perturb.certificate_s": (family_ns - seminorm_ns) / 1e9,
            "conformal.closed_form_calls": n("conformal.closed_form"),
            "conformal.closed_form_us": mean_us("conformal.closed_form"),
            "cli.emit_s": total.get("cli.emit", 0) / 1e9,
            "cli.report_bytes": self.counts.get("report_bytes", 0),
        }
