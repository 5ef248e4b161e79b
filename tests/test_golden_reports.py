"""Golden reports: the full output of the integrating commands, of the
causality certificates and of `analyze`, byte for byte.

Each case runs `lorentzkit.cli.run` on a fixed argv and compares its
report with `tests/data/golden/<case>.json`. A failure names the first
field that moved, with the golden and the new value. A change that is
meant to move these reports rewrites them with

    PYTHONPATH=src python tests/data/golden/rewrite.py

and lists every moved field; the rewritten files are part of that change.
"""

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
    golden = (GOLDEN / f"{case}.json").read_text()
    if text != golden:
        moved = first_difference(json.loads(golden), json.loads(text))
        assert moved is not None, "the report text moved, but no field did"
        field, old, new = moved
        pytest.fail(f"{case}: {field} moved from {old!r} to {new!r}")


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

