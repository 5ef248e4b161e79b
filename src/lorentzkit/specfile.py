"""Plain-text spacetime definition files.

Line-oriented format (# starts a comment, blank lines ignored):

    dimension 4
    coordinate t
    coordinate x1 periodic 1.0
    param M = 1.0
    domain r 0.001 inf
    region r 2.2 6
    metric t t = -(1 - 2*M/r)
    metric x1 x1 = 1
    orientation = 1, 0, 0, 0
    temporal = t
    submanifold S
      parameter ua 0 3.141592653589793
      parameter ub 0 6.283185307179586 periodic 6.283185307179586
      grid 24 24
      embed t = 0
      embed x1 = sin(ua)*cos(ub)
      ...
      hint = 0, x1, x2, x3
    end

Every lower-triangle metric component must be given explicitly (all
n(n+1)/2 of them), orientation is mandatory, temporal and hints optional.
Expressions use the package grammar and are validated against the declared
coordinates and parameters at parse time.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .catalog import SpacetimeBundle, load as load_builtin
from .errors import LorentzkitError, ParamError, SpacetimeFileError
from .expr import Expr, SymbolTable, parse
from .fields import ExprScalarField, VectorField
from .metric import ExprMetricField, lower_triangle_count
from .submanifold import Embedding


def _tokens(line: str) -> list[str]:
    return line.split()


def _to_float(text: str, lineno: int) -> float:
    try:
        if text.lower() in ("inf", "+inf"):
            return math.inf
        if text.lower() == "-inf":
            return -math.inf
        return float(text)
    except ValueError as exc:
        raise SpacetimeFileError(lineno, f"expected a number, got {text!r}") from exc


def _to_count(text: str, lineno: int) -> int:
    """A positive integer: a dimension or a grid size."""
    k = int(text) if text.isdecimal() else 0
    if k < 1:
        raise SpacetimeFileError(
            lineno, f"expected a positive integer, got {text!r}")
    return k


def _to_period(text: str, lineno: int) -> float:
    per = _to_float(text, lineno)
    if not (0.0 < per < math.inf):
        raise SpacetimeFileError(
            lineno, f"a period must be positive and finite, got {text!r}")
    return per


def _symbols(lineno: int, names: list[str], params: dict) -> SymbolTable:
    try:
        return SymbolTable(names, list(params))
    except ValueError as exc:
        raise SpacetimeFileError(lineno, str(exc)) from exc


def parse_spacetime_file(text: str, name: str = "<file>",
                         param_overrides: dict | None = None) -> SpacetimeBundle:
    lines = text.splitlines()
    dimension = None
    coords: list[str] = []
    periods: dict[str, float] = {}
    domains: dict[str, tuple[float, float]] = {}
    regions: dict[str, tuple[float, float]] = {}
    params: dict[str, float] = {}
    metric_lines: list[tuple[int, str, str, str]] = []
    orientation_src: tuple[int, str] | None = None
    temporal_src: tuple[int, str] | None = None
    sub_blocks: list[dict] = []

    i = 0
    while i < len(lines):
        lineno = i + 1
        raw = lines[i].split("#", 1)[0].strip()
        i += 1
        if not raw:
            continue
        toks = _tokens(raw)
        key = toks[0]
        if key == "dimension":
            if len(toks) != 2:
                raise SpacetimeFileError(lineno, "dimension takes one integer")
            dimension = _to_count(toks[1], lineno)
        elif key == "coordinate":
            if len(toks) not in (2, 4) or (len(toks) == 4 and toks[2] != "periodic"):
                raise SpacetimeFileError(
                    lineno, "usage: coordinate <name> [periodic <length>]")
            coords.append(toks[1])
            if len(toks) == 4:
                periods[toks[1]] = _to_period(toks[3], lineno)
        elif key == "param":
            body = raw[len("param"):].strip()
            if "=" not in body:
                raise SpacetimeFileError(lineno, "usage: param <name> = <value>")
            pname, pval = (s.strip() for s in body.split("=", 1))
            params[pname] = _to_float(pval, lineno)
        elif key == "domain":
            if len(toks) != 4:
                raise SpacetimeFileError(lineno, "usage: domain <coord> <lo> <hi>")
            domains[toks[1]] = (_to_float(toks[2], lineno), _to_float(toks[3], lineno))
        elif key == "region":
            if len(toks) != 4:
                raise SpacetimeFileError(lineno, "usage: region <coord> <lo> <hi>")
            regions[toks[1]] = (_to_float(toks[2], lineno), _to_float(toks[3], lineno))
        elif key == "metric":
            if "=" not in raw:
                raise SpacetimeFileError(lineno, "usage: metric <ci> <cj> = <expr>")
            head, expr_text = (s.strip() for s in raw.split("=", 1))
            parts = head.split()
            if len(parts) != 3:
                raise SpacetimeFileError(lineno, "usage: metric <ci> <cj> = <expr>")
            metric_lines.append((lineno, parts[1], parts[2], expr_text))
        elif key == "orientation":
            orientation_src = (lineno, raw.split("=", 1)[1].strip()
                               if "=" in raw else raw[len("orientation"):].strip())
        elif key == "temporal":
            temporal_src = (lineno, raw.split("=", 1)[1].strip()
                            if "=" in raw else raw[len("temporal"):].strip())
        elif key == "submanifold":
            if len(toks) != 2:
                raise SpacetimeFileError(lineno, "usage: submanifold <name>")
            block = {"name": toks[1], "line": lineno, "parameters": [],
                     "embeds": {}, "hint": None, "grid": None}
            while i < len(lines):
                blineno = i + 1
                braw = lines[i].split("#", 1)[0].strip()
                i += 1
                if not braw:
                    continue
                btoks = _tokens(braw)
                if btoks[0] == "end":
                    break
                if btoks[0] == "parameter":
                    if len(btoks) not in (4, 6) or \
                            (len(btoks) == 6 and btoks[4] != "periodic"):
                        raise SpacetimeFileError(
                            blineno,
                            "usage: parameter <name> <lo> <hi> [periodic <length>]")
                    per = _to_period(btoks[5], blineno) \
                        if len(btoks) == 6 else None
                    block["parameters"].append(
                        (btoks[1], _to_float(btoks[2], blineno),
                         _to_float(btoks[3], blineno), per))
                elif btoks[0] == "grid":
                    block["grid"] = tuple(_to_count(t, blineno)
                                          for t in btoks[1:])
                elif btoks[0] == "embed":
                    if "=" not in braw:
                        raise SpacetimeFileError(blineno,
                                                 "usage: embed <coord> = <expr>")
                    head, expr_text = (s.strip() for s in braw.split("=", 1))
                    parts = head.split()
                    if len(parts) != 2:
                        raise SpacetimeFileError(blineno,
                                                 "usage: embed <coord> = <expr>")
                    block["embeds"][parts[1]] = (blineno, expr_text)
                elif btoks[0] == "hint":
                    block["hint"] = (blineno, braw.split("=", 1)[1].strip()
                                     if "=" in braw else braw[len("hint"):].strip())
                else:
                    raise SpacetimeFileError(blineno,
                                             f"unknown submanifold entry {btoks[0]!r}")
            else:
                raise SpacetimeFileError(lineno, "submanifold block missing 'end'")
            sub_blocks.append(block)
        else:
            raise SpacetimeFileError(lineno, f"unknown stanza {key!r}")

    if dimension is None:
        raise SpacetimeFileError(0, "missing dimension stanza")
    if len(coords) != dimension:
        raise SpacetimeFileError(
            0, f"declared {len(coords)} coordinates for dimension {dimension}")
    unknown = set(param_overrides or {}) - set(params)
    if unknown:
        raise ParamError(f"{name} declares no parameters {sorted(unknown)}")
    params.update(param_overrides or {})
    table = _symbols(0, coords, params)
    cindex = {c: k for k, c in enumerate(coords)}

    entries: dict[tuple[int, int], Expr] = {}
    for lineno, ci, cj, expr_text in metric_lines:
        if ci not in cindex or cj not in cindex:
            raise SpacetimeFileError(lineno, f"unknown coordinate in metric "
                                             f"entry ({ci}, {cj})")
        a, b = cindex[ci], cindex[cj]
        key = (max(a, b), min(a, b))
        if key in entries:
            raise SpacetimeFileError(lineno, f"duplicate metric entry ({ci}, {cj})")
        try:
            entries[key] = parse(expr_text, table)
        except LorentzkitError as exc:
            raise SpacetimeFileError(
                lineno, f"invalid metric entry ({ci}, {cj}): {exc}") from exc
    if len(entries) != lower_triangle_count(dimension):
        raise SpacetimeFileError(
            0, f"metric block needs all {lower_triangle_count(dimension)} "
               f"lower-triangle entries, found {len(entries)}")

    period_list = [periods.get(c) for c in coords]
    domain_list = [domains.get(c, (-np.inf, np.inf)) for c in coords]
    try:
        field_ = ExprMetricField(table, entries, params=params,
                                 periods=period_list, domain=domain_list)
    except LorentzkitError as exc:
        raise SpacetimeFileError(0, f"invalid metric block: {exc}") from exc

    if orientation_src is None:
        raise SpacetimeFileError(0, "missing orientation stanza")
    lineno, src = orientation_src
    comps = [s.strip() for s in src.split(",")]
    if len(comps) != dimension:
        raise SpacetimeFileError(lineno,
                                 f"orientation needs {dimension} components")
    try:
        orientation = VectorField(comps, table, params)
    except LorentzkitError as exc:
        raise SpacetimeFileError(lineno, f"bad orientation: {exc}") from exc

    temporal = None
    if temporal_src is not None:
        lineno, src = temporal_src
        try:
            temporal = ExprScalarField(src, table, params)
        except LorentzkitError as exc:
            raise SpacetimeFileError(lineno, f"bad temporal function: {exc}") from exc

    subs, hints = {}, {}
    for block in sub_blocks:
        pnames = [p[0] for p in block["parameters"]]
        if not pnames:
            raise SpacetimeFileError(block["line"],
                                     f"submanifold {block['name']} has no parameters")
        ptable = _symbols(block["line"], pnames, params)
        missing = set(coords) - set(block["embeds"])
        if missing:
            raise SpacetimeFileError(
                block["line"], f"submanifold {block['name']} missing embed "
                               f"for {sorted(missing)}")
        exprs = [block["embeds"][c][1] for c in coords]
        grid = block["grid"] or (16,) * len(pnames)
        if len(grid) != len(pnames):
            raise SpacetimeFileError(block["line"],
                                     "grid length != parameter count")
        try:
            emb = Embedding(ptable, exprs, dimension,
                            domain=[(p[1], p[2]) for p in block["parameters"]],
                            periodic=[p[3] for p in block["parameters"]],
                            params=params, grid_shape=grid, name=block["name"])
        except LorentzkitError as exc:
            raise SpacetimeFileError(block["line"], str(exc)) from exc
        subs[block["name"]] = emb
        if block["hint"] is not None:
            blineno, src = block["hint"]
            comps = [s.strip() for s in src.split(",")]
            if len(comps) != dimension:
                raise SpacetimeFileError(blineno,
                                         f"hint needs {dimension} components")
            hints[block["name"]] = VectorField(comps, table, params)

    # default sampling box: explicit region stanzas win, then finite domain
    # bounds, then [-1, 1] clipped into the domain
    box = []
    for c in coords:
        if c in regions:
            box.append(regions[c])
            continue
        lo, hi = domains.get(c, (-np.inf, np.inf))
        blo = lo if np.isfinite(lo) else -1.0
        bhi = hi if np.isfinite(hi) else max(1.0, blo + 2.0)
        box.append((blo, bhi))
    box = tuple(box)
    bundle = SpacetimeBundle(name=name, params=params, field=field_,
                             orientation=orientation, temporal=temporal,
                             submanifolds=subs, hints=hints,
                             default_box=box, facts=[])
    bundle.check_orientation()
    return bundle


def load_spec(spec: str, param_overrides: dict | None = None) -> SpacetimeBundle:
    """Load `builtin:<name>` or a spacetime definition file path."""
    if spec.startswith("builtin:"):
        return load_builtin(spec[len("builtin:"):], **(param_overrides or {}))
    with open(spec, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_spacetime_file(text, name=spec, param_overrides=param_overrides)


def spec_digest(spec: str, param_overrides: dict | None = None) -> str:
    """Stable identifier of the input for reports."""
    h = hashlib.sha256()
    if spec.startswith("builtin:"):
        h.update(spec.encode())
    else:
        with open(spec, "rb") as fh:
            h.update(fh.read())
    for k in sorted(param_overrides or {}):
        h.update(f"{k}={param_overrides[k]!r}".encode())
    return h.hexdigest()[:16]
