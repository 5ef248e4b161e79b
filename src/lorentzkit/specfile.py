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

Each stanza appears at most once per scope (the file, or one submanifold
block) and each name is declared once; a declared name is one identifier of
the grammar, not a function name; a domain, region or embed names a declared
coordinate; an interval needs lo < hi, and a region or parameter interval
finite bounds. Errors name their stanza's line, or line 0 when they concern
the whole file.
"""

from __future__ import annotations

import hashlib
import math
import re
from contextlib import contextmanager

import numpy as np

from .catalog import SpacetimeBundle, load as load_builtin
from .errors import LorentzkitError, ParamError, SpacetimeFileError
from .expr import _TOKEN_RE, FUNCTIONS, Expr, SymbolTable, parse
from .fields import ExprScalarField, VectorField
from .metric import ExprMetricField, lower_triangle_count
from .submanifold import Embedding

# The shape of each stanza, per scope: a pattern for the text after its key
# (its groups are the stanza's fields), the message when the text does not
# fit, and what may not repeat in the scope ("{0}" is the first field).
_WORD, _EQ = r"([^\s=]+)", r"\s*=\s*(.*)"
_BOUNDS, _PERIODIC = r"(\S+)\s+(\S+)\s+(\S+)", r"(?:\s+periodic\s+(\S+))?"
_TEXT = (r"=?\s*(.*)", "", "stanza")
_SHAPES = {"file": {
    "dimension": (r"(\S+)", "dimension takes one integer", "stanza"),
    "coordinate": (r"(\S+)" + _PERIODIC,
                   "usage: coordinate <name> [periodic <length>]", "{0}"),
    "param": (_WORD + _EQ, "usage: param <name> = <value>", "{0}"),
    "domain": (_BOUNDS, "usage: domain <coord> <lo> <hi>", "{0}"),
    "region": (_BOUNDS, "usage: region <coord> <lo> <hi>", "{0}"),
    "metric": (_WORD + r"\s+" + _WORD + _EQ,
               "usage: metric <ci> <cj> = <expr>", None),
    "orientation": _TEXT, "temporal": _TEXT,
    "submanifold": (r"(\S+)", "usage: submanifold <name>", "{0}"),
}, "submanifold": {
    "parameter": (_BOUNDS + _PERIODIC,
                  "usage: parameter <name> <lo> <hi> [periodic <length>]", "{0}"),
    "grid": (r"(.+)", "usage: grid <size> ...", "stanza"),
    "embed": (_WORD + _EQ, "usage: embed <coord> = <expr>", "{0}"),
    "hint": _TEXT,
    "end": ("", "usage: end", None),
}}


def _stanzas(text: str):
    """(lineno, key, fields) of each stanza, comments and blank lines
    skipped. A `submanifold` stanza opens that block's scope and `end`
    (not yielded) closes it; shape and repeats are checked per scope."""
    block, seen = 0, {}             # block: line of the open submanifold
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split(None, 1)
        shapes = _SHAPES["submanifold" if block else "file"]
        if key not in shapes:
            what = "submanifold entry" if block else "stanza"
            raise SpacetimeFileError(lineno, f"unknown {what} {key!r}")
        pattern, usage, label = shapes[key]
        m = re.fullmatch(pattern, rest[0] if rest else "")
        if m is None:
            raise SpacetimeFileError(lineno, usage)
        if label is not None:
            label = f"{key} " + label.format(*m.groups())
            first = seen.setdefault((block, label), lineno)
            if first != lineno:
                raise SpacetimeFileError(
                    lineno, f"duplicate {label}, first given at line {first}")
        if key == "end":
            block = 0
            continue
        if key == "submanifold":
            block = lineno
        yield lineno, key, m.groups()
    if block:
        raise SpacetimeFileError(block, "submanifold block missing 'end'")


@contextmanager
def _at(lineno: int, prefix: str = ""):
    """Re-raise an error building a stanza's object at the stanza's line."""
    try:
        yield
    except (LorentzkitError, ValueError) as exc:
        raise SpacetimeFileError(lineno, prefix + str(exc)) from exc


def _to_float(text: str, lineno: int) -> float:
    try:
        return float(text)         # "inf", "-inf" and "nan" included
    except ValueError as exc:
        raise SpacetimeFileError(lineno, f"expected a number, got {text!r}") from exc


def _to_count(text: str, lineno: int) -> int:
    """A positive integer: a dimension or a grid size."""
    k = int(text) if text.isdecimal() else 0
    if k < 1:
        raise SpacetimeFileError(
            lineno, f"expected a positive integer, got {text!r}")
    return k


def _to_period(text: str | None, lineno: int) -> float | None:
    """The length after `periodic`, or None when there is none."""
    if text is None:
        return None
    per = _to_float(text, lineno)
    if not (0.0 < per < math.inf):
        raise SpacetimeFileError(
            lineno, f"a period must be positive and finite, got {text!r}")
    return per


def _interval(lo: str, hi: str, lineno: int,
              key: str = "domain") -> tuple[float, float]:
    """lo < hi; a region or parameter interval (a sampling or parameter
    box) also needs finite bounds, where a domain may be unbounded."""
    bounds = _to_float(lo, lineno), _to_float(hi, lineno)
    if not bounds[0] < bounds[1]:
        raise SpacetimeFileError(lineno, f"an interval needs lo < hi, got {lo} {hi}")
    if key != "domain" and not all(map(math.isfinite, bounds)):
        raise SpacetimeFileError(
            lineno, f"a {key} needs finite bounds, got {lo} {hi}")
    return bounds


def _name(text: str, lineno: int) -> str:
    """A declared name: the tokenizer must read it back as one identifier,
    and not one the parser takes for a function."""
    token = _TOKEN_RE.fullmatch(text)
    if token is None or token.lastgroup != "ident" \
            or text in FUNCTIONS + ("abs",):
        raise SpacetimeFileError(lineno, f"{text!r} is not a usable name "
                                         "(an identifier, not a function)")
    return text


def _no_clash(names, params: dict, lines: dict) -> None:
    """Coordinates, or a submanifold's parameters, may not share a name with
    a `param`; a clash is reported at the first of its stanzas in `lines`
    (the line of each param, or of each parameter)."""
    dupes = sorted(set(names) & set(params))
    if dupes:
        raise SpacetimeFileError(min(lines[d] for d in dupes),
                                 f"names declared twice: {dupes}")


def _vector(stanza: tuple[int, str], what: str, table: SymbolTable,
            params: dict) -> VectorField:
    """The vector field of an `orientation` or `hint` stanza."""
    lineno, src = stanza
    comps = [s.strip() for s in src.split(",")]
    if len(comps) != table.dim:
        raise SpacetimeFileError(lineno, f"{what} needs {table.dim} components")
    with _at(lineno, f"bad {what}: "):
        return VectorField(comps, table, params)


def parse_spacetime_file(text: str, name: str = "<file>",
                         param_overrides: dict | None = None) -> SpacetimeBundle:
    # periods: the coordinates in order, with their periods or None;
    # texts: (line, text) of the orientation and temporal stanzas;
    # param_lines: the line of each param stanza
    dimension = None
    periods, params, domains, regions, texts = {}, {}, {}, {}, {}
    param_lines = {}
    coord_refs, metric_lines, blocks = [], [], []   # coord_refs: (line, key, c)

    for lineno, key, fields in _stanzas(text):
        if key == "dimension":
            dimension = _to_count(fields[0], lineno)
        elif key == "coordinate":
            periods[_name(fields[0], lineno)] = _to_period(fields[1], lineno)
        elif key == "param":
            params[_name(fields[0], lineno)] = _to_float(fields[1], lineno)
            param_lines[fields[0]] = lineno
        elif key in ("domain", "region"):
            coord_refs.append((lineno, key, fields[0]))
            (domains if key == "domain" else regions)[fields[0]] = \
                _interval(fields[1], fields[2], lineno, key)
        elif key == "metric":
            metric_lines.append((lineno, *fields))
        elif key in ("orientation", "temporal"):
            texts[key] = (lineno, fields[0])
        elif key == "submanifold":
            blocks.append({"name": fields[0], "line": lineno, "parameters": [],
                           "embeds": {}, "grid": None, "hint": None})
        elif key == "parameter":
            pname, lo, hi, per = fields
            bounds = _interval(lo, hi, lineno, key)
            blocks[-1]["parameters"].append(
                (_name(pname, lineno), bounds, _to_period(per, lineno), lineno))
        elif key == "grid":
            blocks[-1]["grid"] = (lineno, tuple(_to_count(t, lineno)
                                                for t in fields[0].split()))
        elif key == "embed":
            coord_refs.append((lineno, key, fields[0]))
            blocks[-1]["embeds"][fields[0]] = (lineno, fields[1])
        else:
            blocks[-1]["hint"] = (lineno, fields[0])

    if dimension is None:
        raise SpacetimeFileError(0, "missing dimension stanza")
    coords = list(periods)
    if len(coords) != dimension:
        raise SpacetimeFileError(
            0, f"declared {len(coords)} coordinates for dimension {dimension}")
    unknown = set(param_overrides or {}) - set(params)
    if unknown:
        raise ParamError(f"{name} declares no parameters {sorted(unknown)}")
    params.update(param_overrides or {})
    _no_clash(coords, params, param_lines)
    table = SymbolTable(coords, list(params))
    cindex = table.coord_index
    for lineno, key, c in coord_refs:
        if c not in cindex:
            raise SpacetimeFileError(
                lineno, f"{key} names undeclared coordinate {c!r}")

    entries: dict[tuple[int, int], Expr] = {}
    for lineno, ci, cj, expr_text in metric_lines:
        if ci not in cindex or cj not in cindex:
            raise SpacetimeFileError(lineno, f"unknown coordinate in metric "
                                             f"entry ({ci}, {cj})")
        a, b = cindex[ci], cindex[cj]
        key = (max(a, b), min(a, b))
        if key in entries:
            raise SpacetimeFileError(lineno, f"duplicate metric entry ({ci}, {cj})")
        with _at(lineno, f"invalid metric entry ({ci}, {cj}): "):
            entries[key] = parse(expr_text, table)
    if len(entries) != lower_triangle_count(dimension):
        raise SpacetimeFileError(
            0, f"metric block needs all {lower_triangle_count(dimension)} "
               f"lower-triangle entries, found {len(entries)}")

    domain_list = [domains.get(c, (-np.inf, np.inf)) for c in coords]
    with _at(0, "invalid metric block: "):
        field_ = ExprMetricField(table, entries, params=params,
                                 periods=list(periods.values()),
                                 domain=domain_list)

    if "orientation" not in texts:
        raise SpacetimeFileError(0, "missing orientation stanza")
    orientation = _vector(texts["orientation"], "orientation", table, params)
    temporal = None
    if "temporal" in texts:
        lineno, src = texts["temporal"]
        with _at(lineno, "bad temporal function: "):
            temporal = ExprScalarField(src, table, params)

    subs, hints = {}, {}
    for block in blocks:
        line, sub = block["line"], block["name"]
        pnames = [p[0] for p in block["parameters"]]
        if not pnames:
            raise SpacetimeFileError(line, f"submanifold {sub} has no parameters")
        _no_clash(pnames, params, {p[0]: p[3] for p in block["parameters"]})
        ptable = SymbolTable(pnames, list(params))
        missing = set(coords) - set(block["embeds"])
        if missing:
            raise SpacetimeFileError(
                line, f"submanifold {sub} missing embed for {sorted(missing)}")
        exprs = []
        for c in coords:
            lineno, src = block["embeds"][c]
            with _at(lineno, f"invalid embed {c}: "):
                exprs.append(parse(src, ptable))
        grid_line, grid = block["grid"] or (line, (16,) * len(pnames))
        if len(grid) != len(pnames):
            raise SpacetimeFileError(grid_line, "grid length != parameter count")
        subs[sub] = Embedding(
            ptable, exprs, dimension, domain=[p[1] for p in block["parameters"]],
            periodic=[p[2] for p in block["parameters"]],
            params=params, grid_shape=grid, name=sub)
        if block["hint"] is not None:
            hints[sub] = _vector(block["hint"], "hint", table, params)

    # default sampling box: explicit region stanzas win, then finite domain
    # bounds, then [-1, 1] clipped into the domain
    box = []
    for lo, hi in domain_list:
        lo = lo if np.isfinite(lo) else -1.0
        box.append((lo, hi if np.isfinite(hi) else max(1.0, lo + 2.0)))
    box = tuple(regions.get(c, b) for c, b in zip(coords, box))
    bundle = SpacetimeBundle(name=name, params=params, field=field_,
                             orientation=orientation, temporal=temporal,
                             submanifolds=subs, hints=hints,
                             default_box=box, facts=[])
    bundle.check_orientation()
    return bundle


def load_spec(spec: str, param_overrides: dict | None = None) -> SpacetimeBundle:
    """Load `builtin:<name>` or a spacetime definition file path."""
    return read_spec(spec, param_overrides)[0]


def read_spec(spec: str, param_overrides: dict | None = None
              ) -> tuple[SpacetimeBundle, str]:
    """`load_spec`'s bundle and the input's stable identifier for reports,
    from one read of a file: the bytes parsed are the bytes hashed."""
    overrides = param_overrides or {}
    if spec.startswith("builtin:"):
        data = spec.encode()
        bundle = load_builtin(spec[len("builtin:"):], **overrides)
    else:
        with open(spec, "rb") as fh, _at(0, "not UTF-8 text: "):
            data = fh.read()
            text = data.decode("utf-8")
        bundle = parse_spacetime_file(text, spec, overrides)
    h = hashlib.sha256(data)
    for k in sorted(overrides):
        h.update(f"{k}={overrides[k]!r}".encode())
    return bundle, h.hexdigest()[:16]
