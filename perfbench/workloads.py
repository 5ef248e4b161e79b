"""The benchmark's workloads: seeded query lists and their checks.

Four parts build the queries: `region-scan`, `families`, `curves` and
`grids`. A workload is two of them, one after the other: `scan-grids`
(pointwise work: shell searches, certificates, submanifold grids) and
`families-curves` (conformal families, integrators, normal charts).

A query is timed through `run()` only. `check()` runs afterwards, outside
every timed section, and returns the problems it finds with the output:
against the sympy oracle in `oracle.py` and against properties the method
must have, never against a stored copy of earlier output. `digest()` is the
canonical text of an output; outputs of one query must be identical in every
pass of a run (fixed-seed reports are byte-identical).

Each part draws its inputs from `numpy.random.default_rng(seed)` and
passes the same seed to the program as `--seed`; the program receives
nothing else but the generated points and argv.
"""

from __future__ import annotations

import copy
import io
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

SPEC = "perfbench/spacetimes/contracting_desitter.st"
SPEC_NAME = "contracting_desitter"    # the oracle's name for the file's spacetime
TAU = 1e-8          # lorentzkit's default tau_cond
EPS_GEO = 1e-8      # lorentzkit's default eps_geo

# Inputs sizes, stated once. Full-size reference figures are in README.md.
CHECK_POINTS, CHECK_DIRS = 4, 16      # region-scan: points and shell directions
FAMILY_NMAX, FAMILY_GRID = 2, 5       # families: n_max and seminorm grid per axis
GEODESIC_LENGTH = 1.5                 # curves: affine length on schwarzschild_ef
CHART_RADIUS, ROUND_TRIPS = 0.25, 2   # curves: explicit normal-chart radius
CLASSIFY_GRID = 12                    # grids: per axis, for the 24x24 spheres
ANALYZE_POINTS = 5                    # grids: analyze points per spacetime

# spacetimes each part loads in set-up (SPEC_NAME is the file above)
BUNDLES = {
    "region-scan": ["flrw_dust", "schwarzschild_ef", "desitter",
                    "torus_quotient", SPEC_NAME],
    "families": ["torus_quotient", "null_H_demo", "schwarzschild_ef",
                 "minkowski", "desitter", SPEC_NAME],
    "curves": ["schwarzschild_ef", "schwarzschild_static", "minkowski",
               "flrw_dust", "desitter", SPEC_NAME],
    "grids": ["minkowski", "torus_quotient", "schwarzschild_ef",
              "schwarzschild_static", "flrw_dust", "desitter", "null_H_demo",
              SPEC_NAME],
}

def _oracle():
    """The sympy oracle, imported only when outputs are checked, after the
    timed passes and the memory reading."""
    import oracle
    return oracle


def _spec_arg(name: str) -> str:
    return SPEC if name == SPEC_NAME else f"builtin:{name}"


def _vec(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def _json(obj) -> str:
    def default(o):
        if isinstance(o, (np.floating, np.integer, np.bool_)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(type(o))
    return json.dumps(obj, sort_keys=True, default=default)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


# --- set-up -------------------------------------------------------------------


@dataclass
class Setup:
    lk: Any                        # the lorentzkit package
    bundles: dict
    import_s: float
    catalog_s: float
    spec_s: float


def setup(workload: str) -> Setup:
    """Import lorentzkit and load every spacetime the workload's parts use."""
    t0 = time.perf_counter()
    import lorentzkit as lk
    import lorentzkit.cli  # noqa: F401  (not imported by the package itself)
    t1 = time.perf_counter()
    names = dict.fromkeys(n for part in WORKLOADS[workload] for n in BUNDLES[part])
    bundles = {name: lk.catalog.load(name) for name in names if name != SPEC_NAME}
    t2 = time.perf_counter()
    bundles[SPEC_NAME] = lk.load_spec(SPEC)
    t3 = time.perf_counter()
    return Setup(lk, bundles, t1 - t0, t2 - t1, t3 - t2)


# --- queries ------------------------------------------------------------------


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]
    digest: Callable[[Any], str]


def cli_query(lk, argv: list, check) -> Query:
    """lorentzkit.cli.run(argv), report emission included.

    A report carrying `error`, or a usage error (exit 2), is a failure; exit
    code 1 with a violated verdict is an answer and goes to `check`.
    """
    def run():
        out = io.StringIO()
        code = lk.cli.run(list(argv), out)
        return code, out.getvalue()

    def checked(result):
        code, text = result
        if code == 2:
            return ["usage error (exit 2)"]
        try:
            rep = json.loads(text)
        except ValueError:
            return ["report is not JSON"]
        if "error" in rep:
            return [f"{rep.get('error_type')}: {rep['error']}"]
        return check(code, rep)

    return Query(" ".join(argv), run, checked,
                 lambda result: f"{result[0]}\n{result[1]}")


def lib_query(label: str, run, check, summary) -> Query:
    return Query(label, run, check, lambda result: _json(summary(result)))


# --- region-scan ----------------------------------------------------------------

# physics of each (spacetime, condition): the verdicts a correct checker
# must give on every sampled region
SCAN_EXPECT = {
    "flrw_dust": {"E": {"holds-strictly"}, "SE": {"holds-strictly"},
                  "P": {"holds-strictly"}, "FP": {"holds-strictly"},
                  "O": {"holds-strictly", "holds-weakly"}},
    "schwarzschild_ef": {"E": {"holds-weakly"}, "SE": {"holds-weakly"},
                         "P": {"violated"}, "FP": {"violated"},
                         "O": {"violated"}},
    "desitter": {c: {"violated"} for c in ("E", "SE", "P", "FP", "O")},
    "torus_quotient": {c: {"holds-weakly"} for c in ("E", "SE", "P", "FP", "O")},
    SPEC_NAME: {"E": {"violated"}},
}


def _e_margin(name: str) -> float | None:
    """The E margin where it has a closed form: -3 H^2 on de Sitter, 0 in
    vacuum and on the flat torus."""
    o = _oracle()
    return {"desitter": -3.0 * o.H_DS ** 2, SPEC_NAME: -3.0 * o.H_SPEC ** 2,
            "schwarzschild_ef": 0.0, "torus_quotient": 0.0}.get(name)


STRICT = {"E": False, "SE": True, "P": True, "FP": False, "O": False}


def _witness_problems(name: str, cond: str, res: dict) -> list:
    margin = res["margin"]
    w = res["witness"]
    if margin < TAU and w is None:
        return ["margin below tau_cond without a witness"]
    if w is None:
        return []
    geo = _oracle().geometry(name)
    p, v = np.array(w["point"]), np.array(w["v"])
    out = []
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        out.append("witness v is not h-unit")
    if float(v @ geo.g(p) @ v) > 1e-9:
        out.append("witness v is not causal")
    if cond in ("E", "SE"):
        value = float(v @ geo.ricci(p) @ v)
    else:
        wv = np.array(w["w"])
        value = float(np.einsum("ijkl,i,j,k,l->", geo.riemann(p), wv, v, v, wv))
    if not _close(value, margin, 1e-8):
        out.append(f"witness gives {value!r}, report says margin {margin!r}")
    return out


def _scan_check(name: str, cond: str):
    def check(code, rep):
        res = rep["result"]
        if cond == "inclusions":
            out = [] if res["verdict"] == "consistent" else \
                [f"inclusion violations: {res['violations'][:2]}"]
            if res["samples"] != CHECK_POINTS * CHECK_DIRS:
                out.append(f"{res['samples']} samples")
            return out + ([] if code == 0 else [f"exit {code}"])
        out = []
        if res["verdict"] not in SCAN_EXPECT[name][cond]:
            out.append(f"verdict {res['verdict']}, physics says "
                       f"{sorted(SCAN_EXPECT[name][cond])}")
        satisfied = res["verdict"] == "holds-strictly" or (
            not STRICT[cond] and res["verdict"] == "holds-weakly")
        if rep["satisfied"] != satisfied or code != (0 if satisfied else 1):
            out.append(f"exit {code} / satisfied {rep['satisfied']} do not "
                       f"follow from {res['verdict']}")
        closed = _e_margin(name) if cond in ("E", "SE") else None
        if closed is not None and abs(res["margin"] - closed) > 1e-9:
            out.append(f"E margin {res['margin']!r}, closed form {closed!r}")
        return out + _witness_problems(name, cond, res)
    return check


def region_scan(s: Setup, rng, seed: int) -> list:
    lk = s.lk
    queries = []
    for name in ("flrw_dust", "schwarzschild_ef", "desitter", "torus_quotient"):
        for cond in ("E", "SE", "P", "FP", "O", "inclusions"):
            argv = ["check", _spec_arg(name), "--condition", cond,
                    "--points", str(CHECK_POINTS), "--dirs", str(CHECK_DIRS),
                    "--seed", str(seed), "--jobs", "1"]
            queries.append(cli_query(lk, argv, _scan_check(name, cond)))
    argv = ["check", SPEC, "--condition", "E", "--points", str(CHECK_POINTS),
            "--dirs", str(CHECK_DIRS), "--seed", str(seed), "--jobs", "1"]
    queries.append(cli_query(lk, argv, _scan_check(SPEC_NAME, "E")))

    # the equivalent timelike-only characterization has no CLI flag
    for name in ("flrw_dust", "schwarzschild_ef"):
        b = s.bundles[name]
        region = lk.Region(box=b.default_box, n_points=CHECK_POINTS,
                           n_dirs=CHECK_DIRS, seed=seed)
        expect = SCAN_EXPECT[name]["FP"]

        def check(rep, name=name, expect=expect):
            res = rep.to_dict()
            out = [] if res["verdict"] in expect else \
                [f"timelike-only verdict {res['verdict']}, physics says "
                 f"{sorted(expect)}"]
            return out + _witness_problems(name, "FP", res)

        queries.append(lib_query(
            f"riem_condition(timelike_only=True) {name}",
            lambda b=b, region=region: lk.riem_condition(
                b.field, region, timelike_only=True, jobs=1),
            check, lambda rep: rep.to_dict()))
    return queries


# --- families -------------------------------------------------------------------

# the named de Sitter query: always fails with SingularMetric today (see README)
FAULTY_FAMILY = ["perturb", "builtin:desitter", "--theorem", "4.2", "--at",
                 "0,0,0,0", "--witness", "v=1,1,0,0", "w=0,0,1,0"]


def _family_problems(fam, expected_case: str, slope_range) -> list:
    out = []
    if fam.case != expected_case:
        out.append(f"case {fam.case}, expected {expected_case}")
    certs = fam.certificates
    if len(certs) != FAMILY_NMAX or len(fam.seminorms) != FAMILY_NMAX:
        out.append("certificate or seminorm table has the wrong length")
    for c in certs:
        if not c.sign_ok:
            out.append(f"n={c.n}: certificate {c.value_direct!r} has the wrong sign")
        if not abs(c.value_direct - c.value_closed_form) <= \
                1e-6 * (1.0 + abs(c.value_direct)):
            out.append(f"n={c.n}: closed form {c.value_closed_form!r} vs "
                       f"direct {c.value_direct!r}")
    slope = fam.seminorm_slope(2)
    lo, hi = slope_range
    if not lo <= slope <= hi:
        out.append(f"C^2 seminorm slope {slope!r} outside [{lo}, {hi}]")
    return out


def _trapped_check(name: str, sub: str, u0, expected_case: str):
    def check(fam):
        out = _family_problems(fam, expected_case, (-1.1, -0.9))
        emb = _oracle().EMBEDDINGS[(name, sub)]
        v = np.array(fam.detail["v"])
        values = _oracle().trapped_exit_certificates(name, emb, u0, v, FAMILY_NMAX)
        h, g, _ = _oracle().mean_curvature(name, emb, u0)
        m = len(u0)
        for c, sym in zip(fam.certificates, values):
            n = c.n
            # closed forms: m^2 g(v,v)/n^2 for zero H, -2m g(H,v)/n for null H
            closed = m * m * float(v @ g @ v) / n**2 if expected_case == "zero-H" \
                else -2.0 * m * float(h @ g @ v) / n
            if not _close(c.value_direct, sym, 1e-8):
                out.append(f"n={n}: certificate {c.value_direct!r}, sympy "
                           f"recomputation {sym!r}")
            if not _close(c.value_direct, closed, 1e-8):
                out.append(f"n={n}: certificate {c.value_direct!r}, closed "
                           f"form {closed!r}")
        return out
    return check


def _positivity_check(expected_case: str):
    def check(fam):
        # the timelike core exp(y0) is not small, so exp(2 phi/n) - 1 is far
        # from its 1/n tail at n <= FAMILY_NMAX and the seminorm falls faster
        slope = (-math.inf, -0.9) if expected_case == "timelike" else (-1.1, -0.9)
        out = _family_problems(fam, expected_case, slope)
        forms = _oracle().positivity_exit_closed_forms()
        w = np.array(fam.detail["w_used"])
        g_ww = float(w @ _oracle().geometry("minkowski").g(fam.point) @ w)
        for c in fam.certificates:
            closed = forms[expected_case](c.n, g_ww)
            if not abs(c.value_direct - closed) <= 1e-6 * abs(closed):
                out.append(f"n={c.n}: certificate {c.value_direct!r}, derived "
                           f"closed form {closed!r}")
        return out
    return check


def _faulty_check(code, rep):
    fam = rep["family"]
    out = [] if rep["satisfied"] and code == 0 else ["unsigned certificate"]
    for c in fam["certificates"]:
        if abs(c["certificate"] - c["closed_form"]) > 1e-6 * (1 + abs(c["certificate"])):
            out.append(f"n={c['n']}: closed form disagrees")
    return out


def _unit(rng, k: int) -> np.ndarray:
    x = rng.normal(size=k)
    return x / np.linalg.norm(x)


def families(s: Setup, rng, seed: int) -> list:
    lk = s.lk
    queries = []
    sphere_u = lambda: [float(rng.uniform(0.9, 2.2)), float(rng.uniform(0, 2 * np.pi))]
    trapped = [
        ("torus_quotient", "S", [float(a) for a in rng.uniform(0, 1, 2)], "zero-H"),
        ("null_H_demo", "sheet", [float(a) for a in rng.uniform(-0.5, 0.5, 2)], "null-H"),
        ("schwarzschild_ef", "horizon_sphere", sphere_u(), "null-H"),
        (SPEC_NAME, "horizon", sphere_u(), "null-H"),
    ]
    for name, sub, u0, case in trapped:
        b = s.bundles[name]
        queries.append(lib_query(
            f"trapped_exit_family {name} {sub} at {_vec(u0)}",
            lambda b=b, sub=sub, u0=u0: lk.trapped_exit_family(
                b.field, b.orientation, b.submanifolds[sub], u0,
                n_max=FAMILY_NMAX, seminorm_grid=FAMILY_GRID),
            _trapped_check(name, sub, u0, case), lambda fam: fam.summary()))

    # Theorem 4.2 on Minkowski, one witness per case; Riem = 0 everywhere
    mink = s.bundles["minkowski"].field
    n1 = _unit(rng, 3)
    other = _unit(rng, 3)
    witnesses = [
        ("timelike", np.r_[1.0, 0.5 * rng.uniform() * n1],
         np.r_[0.0, other]),
        ("null-spacelike", np.r_[1.0, n1], np.r_[rng.uniform(-1, 1), other]),
        ("null-null", np.r_[1.0, n1], 1.5 * np.r_[1.0, -n1] + 0.5 * np.r_[1.0, n1]),
    ]
    for case, v, w in witnesses:
        p = rng.uniform(-0.5, 0.5, 4)
        queries.append(lib_query(
            f"positivity_exit_family minkowski {case} at {_vec(p)}",
            lambda p=p, v=v, w=w: lk.positivity_exit_family(
                mink, p, v, w, n_max=FAMILY_NMAX, seminorm_grid=FAMILY_GRID),
            _positivity_check(case), lambda fam: fam.summary()))

    queries.append(cli_query(lk, FAULTY_FAMILY, _faulty_check))
    return queries


# --- curves ---------------------------------------------------------------------


def _killing_problems(samples, g_of) -> list:
    """Energy -g(d_v, x') and angular momentum g(d_phi, x') are conserved."""
    e, l = [], []
    for smp in samples:
        g = g_of(smp["point"])
        xd = np.array(smp["velocity"])
        e.append(-float(g[0] @ xd))
        l.append(float(g[3] @ xd))
    out = []
    for label, q in (("energy", e), ("angular momentum", l)):
        drift = max(q) - min(q)
        if drift > 1e-7 * (1.0 + abs(q[0])):
            out.append(f"Killing {label} drifts by {drift:.3e}")
    return out


def _geodesic_check(p0, v0, w0):
    def check(code, rep):
        geo = _oracle().geometry("schwarzschild_ef")
        res = rep["result"]
        out = [] if code == 0 else [f"exit {code}"]
        q0 = float(v0 @ geo.g(p0) @ v0)
        if res["norm_drift"] > EPS_GEO * (1.0 + abs(q0)):
            out.append(f"norm drift {res['norm_drift']:.3e} over eps_geo")
        base = np.column_stack([w0, v0])
        prod0 = base.T @ geo.g(p0) @ base
        tr = res["transport"]
        if tr["product_drift"] > EPS_GEO * (1.0 + np.abs(prod0).max()):
            out.append(f"transport drift {tr['product_drift']:.3e} over eps_geo")
        end = res["samples"][-1]
        g1 = geo.g(end["point"])
        w1 = np.array(tr["final"]).reshape(-1)
        x1 = np.array(end["velocity"])
        for label, a, b in (("g(w,w)", w1 @ g1 @ w1, prod0[0, 0]),
                            ("g(w,x')", w1 @ g1 @ x1, prod0[0, 1])):
            if abs(a - b) > 1e-7 * (1.0 + abs(b)):
                out.append(f"transported {label} moved from {b!r} to {a!r}")
        return out + _killing_problems(res["samples"], geo.g)
    return check


def _gs_closed_min(name: str) -> float | None:
    """Minimum trace where it has a closed form: -2 H^2 along the unit
    timelike normal in de Sitter, 0 in flat space."""
    o = _oracle()
    return {"minkowski": 0.0, "desitter": -2.0 * o.H_DS ** 2,
            SPEC_NAME: -2.0 * o.H_SPEC ** 2}.get(name)


def _gs_check(name: str, sub: str, u0, direction):
    def check(code, rep):
        closed_min = _gs_closed_min(name)
        res = rep["result"]
        geo = _oracle().geometry(name)
        emb = _oracle().EMBEDDINGS[(name, sub)]
        h, g0, x0 = _oracle().mean_curvature(name, emb, u0)
        # trace at s = 0 from the oracle: g^{ab} Riem(x', E_a, E_b, x')
        import sympy as sp
        u = sp.symbols(f"u0:{len(u0)}", real=True)
        at = dict(zip(u, u0))
        jac = np.array([[float(sp.diff(e, ua).subs(at)) for ua in u]
                        for e in map(sp.sympify, emb(u))])
        gram = jac.T @ g0 @ jac
        trace0 = float(np.einsum("ab,ijkl,i,ja,kb,l->", np.linalg.inv(gram),
                                 geo.riemann(x0), direction, jac, jac, direction))
        out = []
        if rep["satisfied"] != (res["min_trace"] >= -TAU) or \
                code != (0 if rep["satisfied"] else 1):
            out.append("exit code does not follow from min_trace")
        if res["min_trace"] > trace0 + 1e-9 * (1.0 + abs(trace0)):
            out.append(f"min_trace {res['min_trace']!r} above the trace at "
                       f"s = 0, {trace0!r}")
        if closed_min is not None and not _close(res["min_trace"], closed_min, 1e-7):
            out.append(f"min_trace {res['min_trace']!r}, closed form {closed_min!r}")
        base = np.column_stack([jac, direction])
        prod0 = base.T @ g0 @ base
        if res["gram_constant_drift"] > EPS_GEO * (1.0 + np.abs(prod0).max()):
            out.append(f"Gram drift {res['gram_constant_drift']:.3e} over eps_geo")
        return out
    return check


def _chart_check(p, radius):
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def check(result):
        chart, trips = result
        g = _oracle().geometry("schwarzschild_static").g(p)
        out = []
        if np.abs(chart.frame.T @ g @ chart.frame - eta).max() > 1e-9:
            out.append("frame is not orthonormal")
        if chart.radius > radius:
            out.append(f"radius grew to {chart.radius}")
        for x, back in trips:
            if np.abs(back - x).max() > 1e-8:
                out.append(f"exp-map round trip off by {np.abs(back - x).max():.3e}")
        return out
    return check


def curves(s: Setup, rng, seed: int) -> list:
    lk = s.lk
    queries = []
    p0 = np.array([0.0, rng.uniform(2.8, 3.2), rng.uniform(1.3, 1.8),
                   rng.uniform(0, 2 * np.pi)])
    v0 = np.array([1.0, -1.0, 0.0, rng.uniform(0.05, 0.15)])
    w0 = np.array([0.0, 1.0, 0.0, 0.0])
    argv = ["geodesic", "builtin:schwarzschild_ef", f"--from={_vec(p0)}",
            f"--dir={_vec(v0)}", "--length", repr(GEODESIC_LENGTH),
            f"--transport={_vec(w0)}", "--seed", str(seed)]
    queries.append(cli_query(lk, argv, _geodesic_check(p0, v0, w0)))
    # fixed radial infall to r ~ 1: its first attempt misses the norm budget
    # and is silently retried at rtol * 1e-3, on every seed alike
    p0, v0 = np.array([0.0, 3.0, 1.5707, 0.0]), np.array([1.0, -1.0, 0.0, 0.0])
    argv = ["geodesic", "builtin:schwarzschild_ef", f"--from={_vec(p0)}",
            f"--dir={_vec(v0)}", "--length", "2.0", f"--transport={_vec(w0)}"]
    queries.append(cli_query(lk, argv, _geodesic_check(p0, v0, w0)))

    # unit timelike normals of t = const spheres; de Sitter's trace is -2 H^2
    for name, length in (("minkowski", 1.0), ("flrw_dust", 0.5),
                         ("desitter", 1.0), (SPEC_NAME, 0.5)):
        sub = "horizon" if name == SPEC_NAME else "sphere"
        u0 = [float(rng.uniform(1.2, 1.9)), float(rng.uniform(0, 2 * np.pi))]
        direction = np.array([1.0, 0.0, 0.0, 0.0])
        argv = ["gs", _spec_arg(name), "--submanifold", sub, f"--at={_vec(u0)}",
                f"--dir={_vec(direction)}", "--length", repr(length),
                "--seed", str(seed)]
        queries.append(cli_query(lk, argv, _gs_check(name, sub, u0, direction)))

    # a normal chart on a curved base, with an explicit radius
    static = s.bundles["schwarzschild_static"].field
    p = np.array([0.0, rng.uniform(4.6, 5.4), rng.uniform(1.3, 1.8),
                  rng.uniform(0, 2 * np.pi)])
    xs = [0.6 * CHART_RADIUS * _unit(rng, 4) for _ in range(ROUND_TRIPS)]

    def chart_run():
        frame = lk.orthonormal_frame_from(static, p)
        chart = lk.NormalChart(static, p, frame, radius=CHART_RADIUS)
        return chart, [(x, chart.inverse(chart.forward(x))) for x in xs]

    queries.append(lib_query(
        f"NormalChart schwarzschild_static at {_vec(p)}", chart_run,
        _chart_check(p, CHART_RADIUS),
        lambda r: {"radius": r[0].radius, "frame": r[0].frame,
                   "trips": [b for _, b in r[1]]}))
    return queries


# --- grids ----------------------------------------------------------------------

# physics of each submanifold: (class, subtype or None for "any")
CLASSIFY_EXPECT = {
    ("minkowski", "sphere"): ("not-weakly-trapped", None),
    ("minkowski", "plane"): ("weakly-future-trapped", "extremal"),
    ("torus_quotient", "Pi"): ("weakly-future-trapped", "extremal"),
    ("torus_quotient", "S"): ("weakly-future-trapped", "extremal"),
    ("schwarzschild_ef", "inner_sphere"): ("future-trapped", None),
    ("schwarzschild_ef", "horizon_sphere"): ("weakly-future-trapped", "MOTS"),
    ("schwarzschild_ef", "outer_sphere"): ("not-weakly-trapped", None),
    ("schwarzschild_ef", "far_sphere"): ("not-weakly-trapped", None),
    ("schwarzschild_static", "far_sphere"): ("not-weakly-trapped", None),
    ("null_H_demo", "sheet"): ("weakly-future-trapped", "null-H"),
    (SPEC_NAME, "horizon"): ("weakly-future-trapped", "MOTS"),
}


def _class_from_oracle(name: str, sub: str) -> tuple:
    """Class of a round sphere in an isotropic cosmology, from one point."""
    h, g, _ = _oracle().mean_curvature(name, _oracle().EMBEDDINGS[(name, sub)],
                                       [1.1, 0.4])
    x = _oracle().ORIENTATION[name]
    hn = h / np.linalg.norm(h)
    hh, hx = float(hn @ g @ hn), float(hn @ g @ x) / np.linalg.norm(x)
    if hh < -1e-9 and hx > 1e-9:
        return "future-trapped", None
    if hh <= 1e-9 and hx >= -1e-9:
        return "weakly-future-trapped", None
    return "not-weakly-trapped", None


def _classify_problems(name: str, sub: str, summary: dict) -> list:
    expect = CLASSIFY_EXPECT.get((name, sub)) or _class_from_oracle(name, sub)
    out = []
    if summary["class"] != expect[0] or (expect[1] is not None
                                         and summary["subtype"] != expect[1]):
        out.append(f"class {summary['class']}/{summary['subtype']}, physics "
                   f"says {expect[0]}/{expect[1]}")
    if not summary["spacelike"]:
        out.append("not spacelike")
    if expect[1] == "MOTS" and max(abs(t) for t in summary["theta_plus_range"]) >= 1e-7:
        out.append(f"theta_+ range {summary['theta_plus_range']} on a MOTS")
    return out


def _analyze_check(name: str, p):
    def check(code, rep):
        geo = _oracle().geometry(name)
        out = [] if code == 0 and rep["signature_index"] == 1 else \
            ["not Lorentzian or nonzero exit"]
        for key, ref in (("christoffel", geo.christoffel(p)),
                         ("riemann", geo.riemann(p)), ("ricci", geo.ricci(p))):
            err = np.abs(np.array(rep[key]) - ref).max()
            if err > 1e-8 * (1.0 + np.abs(ref).max()):
                out.append(f"{key} differs from sympy by {err:.3e}")
        k_ref = geo.kretschmann(p)
        if name.startswith("schwarzschild"):
            k_ref = 48.0 * _oracle().M_SCHW ** 2 / p[1] ** 6
        rate = {"desitter": _oracle().H_DS, SPEC_NAME: _oracle().H_SPEC}.get(name)
        if rate is not None:
            k_ref = 24.0 * rate ** 4
            if not _close(rep["ricci_scalar"], 12.0 * rate ** 2, 1e-9):
                out.append(f"Ricci scalar {rep['ricci_scalar']!r}, closed form "
                           f"{12.0 * rate ** 2!r}")
        if not _close(rep["kretschmann"], k_ref, 1e-8):
            out.append(f"Kretschmann {rep['kretschmann']!r}, expected {k_ref!r}")
        return out
    return check


def _certificate_check(code, rep):
    res = rep["result"]
    if res["verdict"] == "PASSED" and rep["satisfied"] and code == 0:
        return []
    return [f"{res['condition']}: {res['verdict']}"]


def _mean_curvature_check(sub: str, u0, radius: float):
    def check(mc):
        # g(H, H) = 4 (1 - 2M/R) / R^2 on the Schwarzschild spheres
        closed = 4.0 * (1.0 - 2.0 * _oracle().M_SCHW / radius) / radius ** 2
        h, g, _ = _oracle().mean_curvature("schwarzschild_ef",
                                        _oracle().EMBEDDINGS[("schwarzschild_ef", sub)],
                                        u0)
        out = []
        if not abs(mc.g_hh - closed) <= 1e-9 * (1.0 + abs(closed)):
            out.append(f"g(H,H) {mc.g_hh!r}, closed form {closed!r}")
        if np.abs(mc.h_vec - h).max() > 1e-9 * (1.0 + np.abs(h).max()):
            out.append("H differs from the sympy mean curvature")
        return out
    return check


def grids(s: Setup, rng, seed: int) -> list:
    lk = s.lk
    queries = []
    # builtin grids that are already small go through the CLI as they are
    for name, sub in (("minkowski", "plane"), ("torus_quotient", "Pi"),
                      ("torus_quotient", "S"), ("null_H_demo", "sheet"),
                      (SPEC_NAME, "horizon")):
        argv = ["classify", _spec_arg(name), "--submanifold", sub,
                "--seed", str(seed)]
        queries.append(cli_query(
            lk, argv, lambda code, rep, name=name, sub=sub:
            _classify_problems(name, sub, rep["verdict"])))
    # the 24x24 spheres, through the library on a CLASSIFY_GRID grid
    for name, sub in (("minkowski", "sphere"), ("schwarzschild_ef", "inner_sphere"),
                      ("schwarzschild_ef", "horizon_sphere"),
                      ("schwarzschild_ef", "outer_sphere"),
                      ("schwarzschild_ef", "far_sphere"),
                      ("schwarzschild_static", "far_sphere"),
                      ("flrw_dust", "sphere"), ("desitter", "sphere")):
        b = s.bundles[name]
        emb = copy.copy(b.submanifolds[sub])
        emb.grid_shape = (CLASSIFY_GRID,) * emb.m
        queries.append(lib_query(
            f"classify_trapped {name} {sub} grid {emb.grid_shape}",
            lambda b=b, emb=emb, sub=sub: lk.classify_trapped(
                b.field, b.orientation, emb, b.hints.get(sub)),
            lambda v, name=name, sub=sub: _classify_problems(name, sub, v.summary()),
            lambda v: v.summary()))

    # pointwise curvature at seeded points of every spacetime's default box
    for name in BUNDLES["grids"]:
        box = np.array(s.bundles[name].default_box)
        for _ in range(ANALYZE_POINTS):
            p = box[:, 0] + (box[:, 1] - box[:, 0]) * rng.random(len(box))
            argv = ["analyze", _spec_arg(name), f"--at={_vec(p)}", "--seed", str(seed)]
            queries.append(cli_query(lk, argv, _analyze_check(name, p)))

    b = s.bundles["schwarzschild_ef"]
    for sub, radius in (("inner_sphere", 1.5), ("horizon_sphere", 2.0),
                        ("outer_sphere", 3.0), ("far_sphere", 4.0)):
        u0 = [float(rng.uniform(0.5, 2.6)), float(rng.uniform(0, 2 * np.pi))]
        queries.append(lib_query(
            f"mean_curvature schwarzschild_ef {sub} at {_vec(u0)}",
            lambda sub=sub, u0=u0: lk.mean_curvature(
                b.field, b.orientation, b.submanifolds[sub], u0),
            _mean_curvature_check(sub, u0, radius),
            lambda mc: {"h": mc.h_vec, "g_hh": mc.g_hh, "g_hx": mc.g_hx}))

    for name in BUNDLES["grids"]:
        for cond in ("orientation", "temporal"):
            argv = ["check", _spec_arg(name), "--condition", cond,
                    "--points", "40", "--seed", str(seed)]
            queries.append(cli_query(lk, argv, _certificate_check))
    return queries


# workload -> its parts, in the order their queries run
WORKLOADS = {
    "scan-grids": ("region-scan", "grids"),
    "families-curves": ("families", "curves"),
}

WHY = {
    "scan-grids": "pointwise work: the shell search (~790 margins per sampled "
                  "point) and submanifold grids with order-2 and order-0 "
                  "jets; no integrator and no seminorm grid",
    "families-curves": "C^s seminorm grids with conformal and bump jets, RK45 "
                       "geodesics, transport and exp-map Newton with order-1 "
                       "jets; no shell search and no submanifold grid; one "
                       "known-faulty query fails every pass",
}

PARTS = {
    "region-scan": region_scan,
    "families": families,
    "curves": curves,
    "grids": grids,
}


def build(workload: str, s: Setup, rng, seed: int) -> list:
    """The workload's queries: its parts' queries, drawn from one generator."""
    return [q for part in WORKLOADS[workload] for q in PARTS[part](s, rng, seed)]
