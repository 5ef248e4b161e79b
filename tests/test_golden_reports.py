"""Golden reports: the full output of the integrating commands, of the
causality certificates, of the curvature conditions and the inclusion
audit, of `analyze`, `classify` and `perturb`, byte for byte.

Each case runs `lorentzkit.cli.run` on a fixed argv and compares its
report with `tests/data/golden/<case>.json` (`.csv` for a CSV table). A
failure names the first field that moved, with the golden and the new
value. A change that is
meant to move these reports rewrites them with

    PYTHONPATH=src python tests/data/golden/rewrite.py

and lists every moved field; the rewritten files are part of that change.
"""

import csv
import io
import json
import os
from pathlib import Path

import pytest

from lorentzkit.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
INFALL = ["geodesic", "builtin:schwarzschild_ef", "--from", "0,3,1.5707,0",
          "--length", "2"]
SPEC = "perfbench/spacetimes/contracting_desitter.st"
NONSPACELIKE = "tests/data/nonspacelike.st"

# case: (argv, exit code); a spec file is named from the repository root
CASES = {
    "geodesic_infall": (INFALL + ["--dir", "1,-1,0,0"], 0),
    "geodesic_infall_transport": (INFALL + ["--dir", "1,-1,0,0",
                                            "--transport", "0,1,0,0"], 0),
    "gs_desitter": (["gs", "builtin:desitter", "--submanifold", "sphere",
                     "--at", "1.5707963,0.5", "--dir", "1,0,0,0",
                     "--length", "1"], 1),
    "gs_contracting_desitter_horizon": (
        ["gs", SPEC, "--submanifold", "horizon", "--at", "1.2,0.5",
         "--dir", "1,0,0,0", "--length", "0.5"], 1),
    # a start whose norm drift misses its budget even after the retry
    "geodesic_drift_error": (INFALL + ["--dir", "1,-1,0,0.1"], 1),
}
# one fixed point inside each builtin's default box
ANALYZE_AT = {
    "desitter": "0.1,0.2,-0.3,0.4",
    "flrw_dust": "0.2,0.3,-0.2,0.5",
    "minkowski": "0.1,0.2,0.3,0.4",
    "null_H_demo": "0.2,0.1,-0.4,0.3",
    "schwarzschild_ef": "0.5,3,1.2,0.7",
    "schwarzschild_static": "0.5,4,1.1,2",
    "torus_quotient": "0.3,0.2,0.6,0.9",
}


def _certificate(spec, condition):
    return ["check", spec, "--condition", condition, "--points", "40",
            "--seed", "601"]


for _name, _at in ANALYZE_AT.items():
    CASES[f"analyze_{_name}"] = (["analyze", f"builtin:{_name}", "--at", _at],
                                 0)
    for _condition in ("orientation", "temporal"):
        CASES[f"check_{_condition}_{_name}"] = (
            _certificate(f"builtin:{_name}", _condition), 0)
CASES["check_orientation_contracting_desitter"] = (
    _certificate(SPEC, "orientation"), 0)

# the curvature conditions and the inclusion audit on a small shell scan;
# a violated condition exits 1 with its report, the audit always exits 0
HOLDS = {"E": ("flrw_dust", "schwarzschild_ef", "torus_quotient"),
         "SE": ("flrw_dust",), "P": ("flrw_dust",),
         "FP": ("flrw_dust", "torus_quotient"),
         "O": ("flrw_dust", "torus_quotient"),
         "inclusions": ("flrw_dust", "schwarzschild_ef", "desitter",
                        "torus_quotient", "contracting_desitter")}
for _name in ("flrw_dust", "schwarzschild_ef", "desitter", "torus_quotient",
              "contracting_desitter"):
    _spec = SPEC if _name == "contracting_desitter" else f"builtin:{_name}"
    for _condition, _holding in HOLDS.items():
        CASES[f"check_{_condition}_{_name}"] = (
            ["check", _spec, "--condition", _condition, "--points", "4",
             "--dirs", "16", "--seed", "601"], int(_name not in _holding))

# every builtin submanifold, the spec file's horizon, and a surface that
# stops being spacelike mid-grid (the error names the grid index)
CLASSIFY = {
    "minkowski": ("sphere", "plane"),
    "torus_quotient": ("Pi", "S"),
    "schwarzschild_ef": ("inner_sphere", "horizon_sphere", "outer_sphere",
                         "far_sphere"),
    "schwarzschild_static": ("far_sphere",),
    "null_H_demo": ("sheet",),
    "flrw_dust": ("sphere",),
    "desitter": ("sphere",),
}
for _name, _subs in CLASSIFY.items():
    for _sub in _subs:
        CASES[f"classify_{_name}_{_sub}"] = (
            ["classify", f"builtin:{_name}", "--submanifold", _sub], 0)
CASES["classify_contracting_desitter_horizon"] = (
    ["classify", SPEC, "--submanifold", "horizon"], 0)
CASES["classify_nonspacelike_surface"] = (
    ["classify", NONSPACELIKE, "--submanifold", "surface"], 1)

# the two trapped-exit cases (zero H, null H) and a positivity-exit family
for _name, _sub, _at in (("torus_quotient", "S", "0,0"),
                         ("null_H_demo", "sheet", "0.1,0.2")):
    CASES[f"perturb_33_{_name}_{_sub}"] = (
        ["perturb", f"builtin:{_name}", "--theorem", "3.3", "--submanifold",
         _sub, "--at", _at], 0)
_EXIT_42 = ["perturb", "builtin:minkowski", "--theorem", "4.2", "--at",
            "0,0,0,0", "--witness", "v=1,0,0,0", "w=0,0,1,0"]
CASES["perturb_42_minkowski"] = (_EXIT_42, 0)
CASES["perturb_42_minkowski_csv"] = (_EXIT_42 + ["--format", "csv"], 0)


def golden_path(case: str) -> Path:
    """The golden file of a case: `.csv` for a CSV table, else `.json`."""
    return GOLDEN / f"{case}.{'csv' if 'csv' in CASES[case][0] else 'json'}"


def report(argv) -> tuple[int, str]:
    """(exit code, report text) of one command, run from the repository
    root."""
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        out = io.StringIO()
        return run(argv, out), out.getvalue()
    finally:
        os.chdir(cwd)


def parsed(path: Path, text: str):
    """A report's fields: the JSON value, or a CSV table's rows as dicts."""
    if path.suffix == ".csv":
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


def first_difference(old, new, path="report"):
    """(path, old, new) of the first field where two JSON values differ,
    in report order, or None."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            found = first_difference(old.get(key, "<absent>"),
                                     new.get(key, "<absent>"),
                                     f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(zip(old, new)):
            found = first_difference(a, b, f"{path}[{i}]")
            if found:
                return found
        if len(old) != len(new):
            return f"{path} length", len(old), len(new)
        return None
    if type(old) is not type(new) or json.dumps(old) != json.dumps(new):
        return path, old, new
    return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_is_golden(case):
    argv, want_code = CASES[case]
    code, text = report(argv)
    assert code == want_code
    path = golden_path(case)
    golden = path.read_text()
    if text != golden:
        moved = first_difference(parsed(path, golden), parsed(path, text))
        assert moved is not None, "the report text moved, but no field did"
        field, old, new = moved
        pytest.fail(f"{case}: {field} moved from {old!r} to {new!r}")


def test_every_golden_file_has_its_case():
    """A renamed or dropped case cannot leave a stale file behind that
    nothing checks, and no case runs without its file."""
    files = {p.name for p in GOLDEN.iterdir()
             if p.is_file() and p.name != "rewrite.py"}
    assert files == {golden_path(case).name for case in CASES}


def test_first_difference_names_the_field_and_both_values():
    old = {"result": {"samples": [{"s": 0.0}, {"s": 0.5}], "n": 3}}
    new = {"result": {"samples": [{"s": 0.0}, {"s": 0.25}], "n": 3}}
    assert first_difference(old, new) == ("report.result.samples[1].s",
                                          0.5, 0.25)
    assert first_difference(old, old) is None
    assert first_difference({"a": 1}, {"a": 1, "b": 2}) == \
        ("report.b", "<absent>", 2)
    assert first_difference({"a": [1]}, {"a": [1, 2]}) == \
        ("report.a length", 1, 2)
    assert first_difference({"a": 1}, {"a": 1.0}) == ("report.a", 1, 1.0)

