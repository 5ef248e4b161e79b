"""CLI behavior: exit-code contract, report shapes, determinism, CSV."""

import ast
import builtins
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lorentzkit.geodesics as geodesics
from lorentzkit.cli import run
from lorentzkit.errors import ExprSyntaxError, SpacetimeFileError
from lorentzkit.expr import MAX_DEPTH, SymbolTable, compile, parse
from lorentzkit.specfile import load_spec

from conftest import CATALOG_NAMES, region_points
from jet_reference import Jet2, jet_eval

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report_schema.json")
    .read_text())
ORACLE = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    rep = json.loads(text)
    jsonschema.validate(rep, SCHEMA)
    return code, rep


class TestCatalogAndAnalyze:
    def test_catalog_lists_builtins(self):
        code, rep = run_json(["catalog"])
        assert code == 0
        assert "schwarzschild_ef" in rep["builtins"]

    def test_analyze_minkowski(self):
        code, rep = run_json(["analyze", "builtin:minkowski", "--at", "0,0,0,0"])
        assert code == 0
        assert rep["signature_index"] == 1
        assert rep["ricci_scalar"] == 0.0
        assert rep["kretschmann"] == 0.0

    def test_analyze_desitter_invariants(self):
        code, rep = run_json(["analyze", "builtin:desitter", "--at", "0,0,0,0"])
        assert rep["ricci_scalar"] == pytest.approx(12.0, rel=1e-9)
        assert rep["kretschmann"] == pytest.approx(24.0, rel=1e-9)

    def test_param_override(self):
        code, rep = run_json(["analyze", "builtin:schwarzschild_ef",
                              "--param", "M=2.0", "--at", "0,8,1.5707963,0"])
        assert code == 0
        # Kretschmann = 48 M^2 / r^6
        assert rep["kretschmann"] == pytest.approx(48 * 4.0 / 8.0 ** 6, rel=1e-6)


# non-finite numbers: unchecked, the --length cases never return, --dir nan
# ends in a traceback and the others exit 0 with NaN or Infinity in the report
NON_FINITE_ARGV = [
    "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0,0 --length nan",
    "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0,0 --length inf",
    "gs builtin:minkowski --submanifold sphere --at 1,1 --dir 1,0,0,0 "
    "--length nan",
    "geodesic builtin:minkowski --from 0,0,0,0 --dir nan,0,0,0",
    "analyze builtin:minkowski --at nan,0,0,0",
    "check builtin:minkowski --condition E --points 1 "
    "--region 0:1,0:1,0:1,0:inf",
    "perturb builtin:minkowski --theorem 4.2 --at 0,0,0,0 "
    "--witness v=1,nan,0,0 w=0,0,1,0",
    "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0,0 "
    "--transport 0,inf,0,0",
    "analyze builtin:desitter --param H=nan --at 0,0,0,0",
]


class TestExitCodes:
    def test_check_holds_exit_zero(self):
        code, rep = run_json(["check", "builtin:torus_quotient", "--condition",
                              "E", "--points", "6", "--dirs", "8"])
        assert code == 0
        assert rep["satisfied"] is True
        assert rep["result"]["verdict"] == "holds-weakly"

    def test_check_violated_exit_one(self):
        code, rep = run_json(["check", "builtin:desitter", "--condition", "E",
                              "--points", "6", "--dirs", "8"])
        assert code == 1
        assert rep["result"]["verdict"] == "violated"

    def test_strict_flag_demotes_weak_to_failure(self):
        code, rep = run_json(["check", "builtin:minkowski", "--condition", "E",
                              "--strict", "--points", "6", "--dirs", "8"])
        assert code == 1
        assert rep["result"]["verdict"] == "holds-weakly"

    def test_usage_error_exit_two(self):
        code, _ = run_cli(["check", "builtin:minkowski", "--condition",
                           "NOT_A_CONDITION"])
        assert code == 2

    def test_missing_file_exit_two(self):
        code, _ = run_cli(["analyze", "/nonexistent/file", "--at", "0,0"])
        assert code == 2

    def test_computational_error_exit_one(self):
        code, text = run_cli(["classify", "builtin:minkowski",
                              "--submanifold", "nope"])
        assert code == 1
        rep = json.loads(text)
        assert "error" in rep

    def test_unknown_builtin_exit_one(self):
        code, text = run_cli(["analyze", "builtin:kerr", "--at", "0,0,0,0"])
        assert code == 1
        assert "kerr" in json.loads(text)["error"]

    def test_overflow_is_domain_error(self):
        # exp(2 H t) overflows a float at H = 1000, t = 1
        code, rep = run_json(["analyze", "builtin:desitter", "--param",
                              "H=1000", "--at", "1,0,0,0"])
        assert code == 1
        assert rep["error_type"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        "analyze builtin:schwarzschild_ef --at 0,0",
        "analyze builtin:minkowski --at 0,0,0,0,0",
        "geodesic builtin:minkowski --from 0,0,0,0 --dir 0,0,0,0",
        "geodesic builtin:minkowski --from 0,0 --dir 1,0,0,0",
        "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0",
        "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0,0 "
        "--transport 0,1",
        "check builtin:minkowski --condition E --points 0",
        "perturb builtin:minkowski --theorem 4.2 --at 0,0,0,0 "
        "--witness v=1,0,0,0 w=0,0,1,0 --nmax 0",
        "perturb builtin:minkowski --theorem 4.2 --at 0,0 "
        "--witness v=1,0,0,0 w=0,0,1,0",
        "perturb builtin:minkowski --theorem 4.2 --at 0,0,0,0 "
        "--witness v=1,0 w=0,0,1,0",
        "perturb builtin:torus_quotient --theorem 3.3 --submanifold S --at 0",
        "perturb builtin:torus_quotient --theorem 3.3 --submanifold nope "
        "--at 0,0",
        "gs builtin:minkowski --submanifold nope --at 0,0 --dir 1,0,0,0",
        "gs builtin:minkowski --submanifold sphere --at 0 --dir 1,0,0,0",
        "gs builtin:minkowski --submanifold sphere --at 1.5,0 --dir 0,0,0,0",
        "gs builtin:minkowski --submanifold sphere --at 1.5,0 --dir 1,0",
        "analyze builtin:desitter --param H=abc --at 0,0,0,0",
    ] + NON_FINITE_ARGV)
    def test_bad_input_exits_without_traceback(self, argv, capsys):
        code, _ = run_cli(argv.split())
        assert code in (1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "analyze builtin:schwarzschild_ef --at=0,-3,1,0",
        "analyze builtin:schwarzschild_ef --at=0,3,4,0",
        "geodesic builtin:schwarzschild_ef --from=0,0.0005,1,0 --dir=1,0,0,0",
        "perturb builtin:schwarzschild_ef --theorem 4.2 --at=0,-3,1,0 "
        "--witness v=1,0,0,0 w=0,0,1,0",
    ])
    def test_point_outside_domain_is_domain_error(self, argv, capsys):
        code, rep = run_json(argv.split())
        assert code == 1
        assert rep["error_type"] == "DomainError"
        assert "outside the chart domain" in rep["error"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "gs builtin:schwarzschild_ef --submanifold inner_sphere --at 3.1,0 "
        "--dir 1,-1,0,0",
        "gs builtin:minkowski --submanifold plane --at 0,-1.5 --dir 1,0,0,0",
        "perturb builtin:schwarzschild_ef --theorem 3.3 "
        "--submanifold horizon_sphere --at 0.1,1",
    ])
    def test_parameter_point_outside_box_is_domain_error(self, argv, capsys):
        code, rep = run_json(argv.split())
        assert code == 1
        assert rep["error_type"] == "DomainError"
        assert "outside the parameter box [" in rep["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_periodic_parameter_is_exempt_from_box(self):
        # ub is periodic on the horizon sphere: any value is a point of it
        code, rep = run_json(["perturb", "builtin:schwarzschild_ef",
                              "--theorem", "3.3", "--submanifold",
                              "horizon_sphere", "--at", "1.2,40", "--nmax",
                              "1"])
        assert "error" not in rep
        assert rep["family"]["case"] == "null-H"

    def test_periodic_axis_is_exempt_from_domain(self):
        # phi is periodic in schwarzschild_ef: any value is a chart point
        code, rep = run_json(["analyze", "builtin:schwarzschild_ef",
                              "--at=0,3,1,40"])
        assert code == 0
        assert rep["point"][3] == 40.0

    @pytest.mark.parametrize("argv", NON_FINITE_ARGV)
    def test_non_finite_number_is_usage_error(self, argv, capsys):
        code, text = run_cli(argv.split())
        assert code == 2 and text == ""
        assert "finite" in capsys.readouterr().err


class TestCommands:
    def test_classify_report(self):
        code, rep = run_json(["classify", "builtin:schwarzschild_ef",
                              "--submanifold", "horizon_sphere"])
        assert code == 0
        assert rep["verdict"]["class"] == "weakly-future-trapped"
        assert rep["verdict"]["subtype"] == "MOTS"

    def test_check_inclusions(self):
        code, rep = run_json(["check", "builtin:flrw_dust", "--condition",
                              "inclusions", "--points", "6", "--dirs", "8"])
        assert code == 0
        assert rep["result"]["verdict"] == "consistent"

    def test_check_orientation_and_temporal(self):
        for cond in ("orientation", "temporal"):
            code, rep = run_json(["check", "builtin:torus_quotient",
                                  "--condition", cond, "--points", "6",
                                  "--dirs", "8"])
            assert code == 0
            assert rep["result"]["verdict"] == "PASSED"

    def test_gs_command(self):
        # a negative trace is a failed hypothesis check: exit code 1
        code, rep = run_json(["gs", "builtin:desitter", "--submanifold",
                              "sphere", "--at", "1.5707963,0.5", "--dir",
                              "1,0,0,0", "--length", "1"])
        assert code == 1
        assert rep["result"]["min_trace"] == pytest.approx(-2.0, rel=1e-6)
        # the schema's gs branch requires every field of the result
        rep["result"].pop("gram_constant_drift")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(rep, SCHEMA)
        code, rep = run_json(["gs", "builtin:minkowski", "--submanifold",
                              "sphere", "--at", "1.5707963,0", "--dir",
                              "1,1,0,0", "--length", "1"])
        assert code == 0

    def test_geodesic_with_transport(self):
        code, rep = run_json(["geodesic", "builtin:minkowski", "--from",
                              "0,0,0,0", "--dir", "1,0.5,0,0", "--length", "2",
                              "--transport", "0,1,0,0;0,0,1,0"])
        assert code == 0
        assert rep["result"]["samples"][-1]["point"][0] == pytest.approx(2.0)
        assert rep["result"]["transport"]["product_drift"] < 1e-8

    def test_geodesic_reports_rhs_evaluations(self):
        argv = ["geodesic", "builtin:schwarzschild_ef", "--from",
                "0,3,1.5,0.3", "--dir", "1,-1,0,0.1", "--length", "0.5",
                "--transport", "0,1,0,0", "--seed", "3"]
        counts = []
        for _ in range(2):
            code, rep = run_json(argv)
            assert code == 0
            res = rep["result"]
            counts.append((res["n_rhs_evals"],
                           res["transport"]["n_rhs_evals"]))
        assert counts[0] == counts[1]
        for k in counts[0]:
            assert isinstance(k, int) and k > 0

    @staticmethod
    def _counted_geodesic(monkeypatch, argv):
        """The geodesic report for argv, and the right-hand sides that
        every solve_ivp attempt called."""
        calls = [0]
        original = geodesics.solve_ivp

        def solve_ivp(fun, *args, **kwargs):
            def counted(*a):
                calls[0] += 1
                return fun(*a)
            return original(counted, *args, **kwargs)

        monkeypatch.setattr(geodesics, "solve_ivp", solve_ivp)
        code, rep = run_json(["geodesic"] + argv)
        assert code == 0
        return rep["result"], calls[0]

    def test_radial_infall_counts_its_refinement(self, monkeypatch):
        """The infall to the r = 1e-3 edge meets the drift budget at the
        default rtol: the report says it was not refined, and its
        n_rhs_evals counts every right-hand side (1355 on the machine where
        this was written)."""
        res, calls = self._counted_geodesic(monkeypatch, [
            "builtin:schwarzschild_ef", "--from", "0,3,1.5707,0",
            "--dir", "1,-1,0,0", "--length", "2"])
        assert res["chart_exit"]
        assert res["refinements"] == 0
        assert res["n_rhs_evals"] == calls

    def test_refined_geodesic_counts_both_attempts(self, monkeypatch):
        """This de Sitter start misses the drift budget at the default rtol
        (2.5e-7 against 2e-8) and is refined once: the report says so, and
        its n_rhs_evals counts the right-hand sides of both attempts."""
        res, calls = self._counted_geodesic(monkeypatch, [
            "builtin:desitter", "--from=-0.11,-0.29,-0.93,0.7",
            "--dir=-1.3,-0.1,0.6,-0.7", "--length", "1"])
        assert res["refinements"] == 1
        assert res["n_rhs_evals"] == calls

    def test_perturb_33_json(self):
        code, rep = run_json(["perturb", "builtin:torus_quotient", "--theorem",
                              "3.3", "--submanifold", "S", "--at", "0,0",
                              "--nmax", "4"])
        assert code == 0
        fam = rep["family"]
        assert fam["case"] == "zero-H"
        assert all(c["certificate"] > 0 for c in fam["certificates"])

    def test_perturb_42_csv(self):
        code, text = run_cli(["perturb", "builtin:minkowski", "--theorem",
                              "4.2", "--at", "0,0,0,0", "--witness",
                              "v=1,0,0,0", "w=0,0,1,0", "--nmax", "3",
                              "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("n,certificate")
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(-math.exp(2.0) / 1.0)

    def test_single_member_family_is_strict_json(self):
        """Slopes of a one-member family are undefined: null, never NaN."""
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code, text = run_cli(["perturb", "builtin:minkowski", "--theorem",
                              "4.2", "--at", "0,0,0,0", "--witness",
                              "v=1,0,0,0", "w=0,0,1,0", "--nmax", "1"])
        assert code == 0
        rep = json.loads(text, parse_constant=reject)
        jsonschema.validate(rep, SCHEMA)
        assert rep["family"]["certificate_scaling_exponent"] is None
        assert rep["family"]["seminorm_slope_c2"] is None

    def test_perturb_42_requires_witness(self):
        code, text = run_cli(["perturb", "builtin:minkowski", "--theorem",
                              "4.2", "--at", "0,0,0,0"])
        assert code == 1
        assert "witness" in json.loads(text)["error"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("witness", ["v=1,0,0,0 w=0,0,0,0",
                                         "v=0,0,0,0 w=0,0,1,0"])
    def test_zero_witness_is_usage_error(self, witness, capsys):
        code, text = run_cli(("perturb builtin:minkowski --theorem 4.2 --at "
                              f"0,0,0,0 --witness {witness}").split())
        assert code == 2 and text == ""
        assert "must be nonzero" in capsys.readouterr().err

    def test_desitter_positivity_exit_is_a_family(self):
        """A curved chart: eight certificates -8/n and a seminorm table."""
        code, rep = run_json(["perturb", "builtin:desitter", "--theorem",
                              "4.2", "--at", "0,0,0,0", "--witness",
                              "v=1,1,0,0", "w=0,0,1,0"])
        assert code == 0 and rep["satisfied"]
        fam = rep["family"]
        assert [c["certificate"] for c in fam["certificates"]] == \
            pytest.approx([-8.0 / n for n in range(1, 9)], rel=1e-12)
        assert len(fam["seminorms"]) == 8
        assert -1.1 <= fam["seminorm_slope_c2"] <= -0.9


class TestDeterminism:
    def test_reports_byte_identical(self):
        argv = ["check", "builtin:schwarzschild_ef", "--condition", "FP",
                "--seed", "0", "--points", "6", "--dirs", "8"]
        _, a = run_cli(argv)
        _, b = run_cli(argv)
        assert a == b

    def test_seed_changes_samples(self):
        argv = lambda s: ["check", "builtin:flrw_dust", "--condition", "SE",
                          "--seed", s, "--points", "6", "--dirs", "8"]
        _, a = run_cli(argv("0"))
        _, b = run_cli(argv("1"))
        assert a != b

    def test_timing_flag_adds_wall_time(self):
        code, rep = run_json(["classify", "builtin:torus_quotient",
                              "--submanifold", "S", "--timing"])
        assert code == 0
        assert "wall_time_s" in rep


class TestAnalyzeOracle:
    """analyze against the sympy curvature of perfbench/oracle.py, which
    writes every builtin's metric out again by hand."""

    @pytest.fixture(scope="class")
    def oracle(self):
        pytest.importorskip("sympy")
        spec = importlib.util.spec_from_file_location("perfbench_oracle",
                                                      ORACLE)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_analyze_matches_oracle(self, bundles, oracle, name):
        geo = oracle.geometry(name)
        for p in region_points(bundles[name], 2, seed=53):
            code, rep = run_json(["analyze", f"builtin:{name}",
                                  "--at=" + ",".join(repr(float(x))
                                                     for x in p)])
            assert code == 0
            riem = geo.riemann(p)
            # vacuum Ricci is rounding noise on both sides: Riemann's size
            # is its scale
            for key, want, scale in (
                    ("christoffel", geo.christoffel(p), 0.0),
                    ("riemann", riem, 0.0),
                    ("ricci", geo.ricci(p), np.abs(riem).max())):
                got = np.array(rep[key])
                bound = 1e-10 * max(np.abs(want).max(), scale)
                assert np.abs(got - want).max() <= bound, (name, key)


def test_cli_import_leaves_scipy_unloaded():
    """scipy is imported by the first integration, not by the CLI."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, lorentzkit.cli; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, check=True, timeout=60)
    assert probe.stdout.strip() == "False"


def test_module_runs_as_a_script():
    """`python -m lorentzkit.cli` runs the command: the E condition is
    violated on de Sitter, so the report is JSON and the exit code 1."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lorentzkit.cli", "check", "builtin:desitter",
         "--condition", "E", "--points", "4", "--dirs", "8"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    rep = json.loads(proc.stdout)
    jsonschema.validate(rep, SCHEMA)
    assert rep["satisfied"] is False


@pytest.mark.parametrize("argv", [
    ["geodesic", "builtin:schwarzschild_ef", "--from", "0,3,1.5707,0",
     "--dir", "1,-1,0,0", "--length", "2"],
    ["gs", "builtin:desitter", "--submanifold", "sphere", "--at",
     "1.5707963,0.5", "--dir", "1,0,0,0", "--length", "1"],
], ids=["geodesic", "gs"])
def test_integrating_commands_leave_scipy_unloaded(argv):
    """The integrator is the package's own: a command that integrates
    imports no scipy module either."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import io, sys; from lorentzkit.cli import run; "
         f"code = run({argv!r}, io.StringIO()); "
         "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, check=True, timeout=60)
    assert probe.stdout.split() == ["0" if argv[0] == "geodesic" else "1",
                                    "False"]


def test_no_module_of_the_package_imports_scipy():
    """scipy is a test dependency only: no import of it, at module level or
    inside a function, anywhere under src/lorentzkit."""
    package = Path(__file__).resolve().parents[1] / "src" / "lorentzkit"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] == "scipy"]
    assert len(list(package.glob("*.py"))) > 10
    assert found == []


SPEC_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spacetimes" \
    / "contracting_desitter.st"
NONSPACELIKE = Path(__file__).resolve().parent / "data" / "nonspacelike.st"
# gs along a null curve, whose induced metric is singular
NULL_CURVE_GS = ["gs", str(NONSPACELIKE), "--submanifold", "null_curve",
                 "--at", "0.3", "--dir", "1,1,0", "--length", "0.5"]


@pytest.mark.parametrize("line, replacement, extra", [
    pytest.param("dimension 4", "dimension four", [], id="dimension-word"),
    pytest.param("dimension 4", "dimension 0", [], id="dimension-zero"),
    pytest.param("  grid 8 8", "  grid 4 x", [], id="grid-word"),
    pytest.param("  grid 8 8", "  grid 0 4", [], id="grid-zero"),
    pytest.param("  grid 8 8", "  grid -3", [], id="grid-negative-short"),
    pytest.param("  grid 8 8", "  grid -3 8", [], id="grid-negative"),
    pytest.param("coordinate x\n", "coordinate x periodic 0\n", [],
                 id="period-zero"),
    pytest.param("coordinate x\n", "coordinate x periodic -1\n", [],
                 id="period-negative"),
    pytest.param("periodic 6.283185307179586", "periodic 0", [],
                 id="parameter-period-zero"),
    pytest.param("param H = 0.5", "param H = 0.5\nparam s = 1", [],
                 id="param-named-like-a-coordinate"),
    pytest.param("", "", ["--param", "s=1"], id="override-a-coordinate"),
    pytest.param("", "", ["--param", "Q=1"], id="override-undeclared"),
])
def test_bad_spec_file_is_a_json_error(tmp_path, capsys, line, replacement,
                                       extra):
    """A malformed spec file, or a parameter override it does not declare,
    exits 1 with a JSON error, never a traceback."""
    text = SPEC_FILE.read_text()
    assert line in text
    spec = tmp_path / "bad.st"
    spec.write_text(text.replace(line, replacement, 1))
    code, rep = run_json(["analyze", str(spec), "--at", "0,0,0,0"] + extra)
    assert code == 1
    assert rep["error_type"] in ("SpacetimeFileError", "ParamError")
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("n", ["2.5", "1e9", "7"])
def test_bad_builtin_dimension_is_a_json_error(n):
    code, rep = run_json(["analyze", "builtin:minkowski", "--param",
                          f"n={n}", "--at", "0,0,0,0"])
    assert code == 1 and rep["error_type"] == "ParamError"


@pytest.mark.parametrize("argv", [
    "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0,0 --length -1",
    "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0,0 --length 0",
    "gs builtin:minkowski --submanifold sphere --at 1,1 --dir 1,0,0,0 "
    "--length -1",
    "gs builtin:minkowski --submanifold sphere --at 1,1 --dir 1,0,0,0 "
    "--length 0",
])
def test_length_must_be_positive(argv, capsys):
    code, text = run_cli(argv.split())
    assert code == 2 and text == ""
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "catalog",
    "analyze builtin:desitter --at 0,0,0,0",
    "classify builtin:minkowski --submanifold sphere",
    "check builtin:flrw_dust --condition E --points 3 --dirs 8",
    "gs builtin:desitter --submanifold sphere --at 1.5707,0.5 --dir 1,0,0,0",
    "perturb builtin:minkowski --theorem 4.2 --at 0,0,0,0 "
    "--witness v=1,0,0,0 w=0,0,1,0 --nmax 3",
    "geodesic builtin:minkowski --from 0,0,0,0 --dir 1,0,0,0",
], ids=lambda argv: argv.split()[0])
def test_timing_adds_only_the_wall_time(argv):
    """Every subcommand's --timing report is its untimed report plus
    wall_time_s, with the same exit code."""
    code, rep = run_json(argv.split())
    timed_code, timed = run_json(argv.split() + ["--timing"])
    assert timed_code == code
    wall = timed.pop("wall_time_s")
    assert isinstance(wall, float) and wall >= 0.0
    assert timed == rep


@pytest.mark.parametrize("entry,cause", [
    ("-1 + 0*(" + "+".join(["s"] * 700) + ")", "expression tree deeper than"),
    ("-1 + Q*s", "Q"),
    ("-1 + (s", "expected ')'")])
def test_bad_metric_entries_name_their_line(tmp_path, capsys, entry, cause):
    """A bad metric expression is reported at the line of its entry (the
    `metric s s` entry is line 16 of the spec file), with the parser's
    message, as a JSON error and exit 1."""
    lines = SPEC_FILE.read_text().splitlines(keepends=True)
    assert lines[15].startswith("metric s s = ")
    lines[15] = f"metric s s = {entry}\n"
    spec = tmp_path / "bad_entry.st"
    spec.write_text("".join(lines))
    code, rep = run_json(["analyze", str(spec), "--at", "0,0,0,0"])
    assert code == 1 and rep["error_type"] == "SpacetimeFileError"
    assert rep["error"].startswith("line 16: invalid metric entry (s, s): ")
    assert cause in rep["error"]
    assert "Traceback" not in capsys.readouterr().err


# (line of the file to replace, its replacement, line the error must name)
@pytest.mark.parametrize("line, replacement, lineno", [
    pytest.param("  embed z = (1/H)*cos(ua)", "  embed z = (1/H)*cos(uq)", 35,
                 id="embed-undeclared-symbol"),
    pytest.param("  hint = 0, x, y, z", "  hint = 0, x, y, q", 36,
                 id="hint-undeclared-symbol"),
    pytest.param("  hint = 0, x, y, z", "  hint = 0, x, y, (z", 36,
                 id="hint-syntax"),
    pytest.param("dimension 4", "dimension 4\ndimension 4", 7,
                 id="duplicate-dimension"),
    pytest.param("orientation = 1, 0, 0, 0",
                 "orientation = 1, 0, 0, 0\norientation = 1, 0, 0, 0", 27,
                 id="duplicate-orientation"),
    pytest.param("temporal = s", "temporal = s\ntemporal = -s", 28,
                 id="duplicate-temporal"),
    pytest.param("coordinate x", "coordinate x\ncoordinate x", 9,
                 id="duplicate-coordinate"),
    pytest.param("param H = 0.5", "param H = 0.5\nparam H = 0.7", 12,
                 id="duplicate-param"),
    pytest.param("region s -0.3 0.3", "region s -0.3 0.3\ndomain s -1 1\n"
                 "domain s -2 2", 14, id="duplicate-domain"),
    pytest.param("region s -0.3 0.3", "region s -0.3 0.3\nregion s -0.2 0.2",
                 13, id="duplicate-region"),
    pytest.param("  embed z = (1/H)*cos(ua)",
                 "  embed z = (1/H)*cos(ua)\n  embed z = 0", 36,
                 id="duplicate-embed"),
    pytest.param("  grid 8 8", "  grid 8 8\n  grid 4 4", 32,
                 id="duplicate-grid"),
    pytest.param("  hint = 0, x, y, z", "  hint = 0, x, y, z\n  hint = 1, 0, 0, 0",
                 37, id="duplicate-hint"),
    pytest.param("  parameter ub", "  parameter ua 0 1\n  parameter ub", 30,
                 id="duplicate-parameter"),
    pytest.param("end", "end\nsubmanifold horizon\n  parameter ua 0 1\n"
                 "  parameter ub 0 1\n  embed s = 0\n  embed x = ua\n"
                 "  embed y = ub\n  embed z = 0.5\nend", 38,
                 id="duplicate-submanifold"),
    pytest.param("region s -0.3 0.3", "region s -0.3 0.3\ndomain q 0 1", 13,
                 id="domain-undeclared-coordinate"),
    pytest.param("region s -0.3 0.3", "region q -0.3 0.3", 12,
                 id="region-undeclared-coordinate"),
    pytest.param("  embed s = 0", "  embed s = 0\n  embed q = 0", 33,
                 id="embed-undeclared-coordinate"),
    pytest.param("  grid 8 8", "  grid", 31, id="grid-without-sizes"),
    pytest.param("param H = 0.5", "param H = 0.5\nparam = 7", 12,
                 id="param-without-name"),
    pytest.param("param H = 0.5", "param H = 0.5\nparam 1x = 7", 12,
                 id="param-number-name"),
    pytest.param("param H = 0.5", "param H = 0.5\nparam exp = 2", 12,
                 id="param-function-name"),
    pytest.param("coordinate x", "coordinate sin", 8,
                 id="coordinate-function-name"),
    pytest.param("  parameter ua", "  parameter cos", 29,
                 id="parameter-function-name"),
    pytest.param("region s -0.3 0.3", "region s -0.3 0.3\ndomain x nan 1", 13,
                 id="domain-nan"),
    pytest.param("region s -0.3 0.3", "region s -0.3 0.3\ndomain x 1 1", 13,
                 id="domain-empty"),
    pytest.param("region s -0.3 0.3", "region s nan 0.3", 12,
                 id="region-nan"),
    pytest.param("region s -0.3 0.3", "region s 0.3 -0.3", 12,
                 id="region-reversed"),
    pytest.param("  parameter ua 0.35 2.791592653589793",
                 "  parameter ua 2.791592653589793 0.35", 29,
                 id="parameter-reversed"),
    pytest.param("region s -0.3 0.3", "region s -0.3 inf", 12,
                 id="region-infinite"),
    pytest.param("region x -1 1", "region x -inf 1", 13,
                 id="region-minus-infinite"),
    pytest.param("  parameter ua 0.35 2.791592653589793",
                 "  parameter ua 0.35 inf", 29, id="parameter-infinite"),
    pytest.param("param H = 0.5", "param H = 0.5\nparam s = 1", 12,
                 id="param-named-like-a-coordinate"),
    pytest.param("  parameter ub", "  parameter H", 30,
                 id="parameter-named-like-a-param"),
    pytest.param("  grid 8 8", "  grid 8", 31, id="grid-length"),
])
def test_malformed_stanzas_name_their_line(tmp_path, capsys, line, replacement,
                                           lineno):
    """Every malformed stanza exits 1 with a JSON SpacetimeFileError at the
    line of that stanza, never a traceback and never a silent load."""
    text = SPEC_FILE.read_text()
    assert line in text
    spec = tmp_path / "bad.st"
    spec.write_text(text.replace(line, replacement, 1))
    code, rep = run_json(["analyze", str(spec), "--at", "0,0,0,0"])
    assert code == 1 and rep["error_type"] == "SpacetimeFileError"
    assert rep["error"].startswith(f"line {lineno}: ")
    assert "Traceback" not in capsys.readouterr().err


SPEC_LINES = SPEC_FILE.read_text().splitlines()
SCHEMA_VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
_TOKENS = sorted({t for line in SPEC_LINES for t in line.split()}
                 | {"nan", "inf", "-inf", "0", "-1", "1e400", "=", "x^1"})


@st.composite
def _mutated_spec(draw):
    """contracting_desitter.st with one to three lines dropped, duplicated,
    truncated or given another token."""
    lines = list(SPEC_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "truncate", "swap"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = \
                draw(st.sampled_from(_TOKENS))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_mutated_spec())
def test_mutated_spec_files_keep_the_error_contract(tmp_path_factory, text):
    """`analyze` on a mutated spec file exits 0, 1 or 2 and prints no
    traceback; a report is schema-valid JSON, and an error report names its
    error type."""
    spec = tmp_path_factory.mktemp("fuzz") / "mutated.st"
    spec.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["analyze", str(spec), "--at", "0,0,0,0"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        rep = json.loads(out)
        SCHEMA_VALIDATOR.validate(rep)
        assert code == 0 or "error_type" in rep


_NUMBER = st.one_of(st.floats(-3.0, 3.0).map(repr), st.sampled_from(
    ["0", "1", "-1", "0.5", "1.5", "3", "1e-300", "1e300", "1e400", "nan",
     "inf", "-inf", "", "x"]))


def _vector(size):
    """Comma-joined numbers: mostly `size` finite ones, sometimes another
    length or a bad token."""
    return st.one_of(
        st.lists(st.floats(-3.0, 3.0).map(repr), min_size=size,
                 max_size=size),
        st.lists(st.floats(-3.0, 3.0).map(repr), min_size=size,
                 max_size=size),
        st.lists(_NUMBER, min_size=1, max_size=5)).map(",".join)


# the four-dimensional spacetimes, the spec file, and two that do not load
_SPECS = st.sampled_from([f"builtin:{name}" for name in CATALOG_NAMES]
                         + [str(SPEC_FILE), "builtin:nope", "missing.st"])
# at most 1: every example integrates quickly
_LENGTH = st.one_of(st.floats(1e-3, 1.0).map(repr),
                    st.floats(1e-3, 1.0).map(repr),
                    st.sampled_from(["1", "0", "-0.5", "nan", "1e-9", "x"]))


def _flag(name, value):
    """A flag and its value, left out when the value is None."""
    return [] if value is None else [f"{name}={value}"]


def _mostly(strategy):
    """The strategy, or (about one time in eight) None: a missing flag."""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda keep: strategy if keep else st.none())


# submanifolds of each spec that loads; a draw of None asks for "nope",
# which no spec has
_SUBMANIFOLDS = {
    "builtin:minkowski": ["sphere", "plane"],
    "builtin:torus_quotient": ["S", "Pi"],
    "builtin:schwarzschild_ef": ["inner_sphere", "horizon_sphere"],
    "builtin:schwarzschild_static": ["far_sphere"],
    "builtin:flrw_dust": ["sphere"],
    "builtin:desitter": ["sphere"],
    "builtin:null_H_demo": ["sheet"],
    str(SPEC_FILE): ["horizon"],
}


@st.composite
def _gs_argv(draw):
    spec = draw(_SPECS)
    sub = draw(_mostly(st.sampled_from(_SUBMANIFOLDS.get(spec, ["sphere"]))))
    sub = "nope" if sub is None else sub
    direction = st.one_of(st.sampled_from(["1,0,0,0", "0,-1,0,0",
                                           "1,0.2,0,0"]), _vector(4))
    return (["gs", spec, "--submanifold", sub]
            + _flag("--at", draw(_mostly(_vector(2))))
            + _flag("--dir", draw(_mostly(direction)))
            + _flag("--length", draw(st.none() | _LENGTH)))


@st.composite
def _geodesic_argv(draw):
    transport = draw(st.none() | st.lists(_vector(4), min_size=1, max_size=2)
                     .map(";".join))
    return (["geodesic", draw(_SPECS)]
            + _flag("--from", draw(_mostly(_vector(4))))
            + _flag("--dir", draw(_mostly(_vector(4))))
            + _flag("--length", draw(st.none() | _LENGTH))
            + _flag("--transport", transport))


def _keeps_the_error_contract(argv):
    """Exit 0, 1 or 2 with no traceback; a report is schema-valid JSON."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code in (0, 1):
        SCHEMA_VALIDATOR.validate(json.loads(out))


# a direction whose squared norm underflows to 0 is refused as zero
_TINY_DIR = "--dir=0.0,0.0,0.0,1.6783824282020422e-242"


@settings(max_examples=100, deadline=None)
@given(argv=_gs_argv())
@example(argv=["gs", "builtin:minkowski", "--submanifold", "sphere",
               "--at=1.5,0.5", _TINY_DIR])
@example(argv=NULL_CURVE_GS)
def test_gs_argv_keeps_the_error_contract(argv):
    _keeps_the_error_contract(argv)


@settings(max_examples=100, deadline=None)
@given(argv=_geodesic_argv())
@example(argv=["geodesic", "builtin:minkowski", "--from=0.0,0.0,0.0,0.0",
               _TINY_DIR])
def test_geodesic_argv_keeps_the_error_contract(argv):
    _keeps_the_error_contract(argv)


def _usually(good, bad):
    """`good` seven times in eight, else `bad`: most argv reach the command,
    the rest its argument checks."""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda ok: good if ok else bad)


# parameter overrides: real ones with good and bad values, and unknown ones
_PARAM = st.sampled_from(["M=1", "M=0.5", "M=-1", "M=0", "M=nan", "M=1e400",
                          "H=2", "H=-1", "n=2", "n=3", "n=7", "m=2",
                          "nope=1", "M", "=1", "M=x"])


def _common(draw):
    """Flags every subcommand accepts, each left out most of the time."""
    seed = _usually(st.none() | st.sampled_from(["0", "7"]),
                    st.sampled_from(["-3", "x", ""]))
    return (_flag("--seed", draw(seed))
            + _flag("--param", draw(_usually(st.none(), _PARAM)))
            + (["--timing"] if draw(st.integers(0, 7)) == 0 else []))


@st.composite
def _catalog_argv(draw):
    extra = draw(_usually(st.just([]), st.sampled_from(
        [["builtin:minkowski"], ["--at=0"], ["--format=csv"]])))
    return ["catalog"] + extra + _common(draw)


@st.composite
def _analyze_argv(draw):
    return (["analyze", draw(_SPECS)]
            + _flag("--at", draw(_mostly(_vector(4)))) + _common(draw))


@st.composite
def _classify_argv(draw):
    spec = draw(_SPECS)
    sub = draw(_mostly(st.sampled_from(_SUBMANIFOLDS.get(spec, ["sphere"]))))
    return (["classify", spec, "--submanifold",
             "nope" if sub is None else sub] + _common(draw))


def _count(good):
    return _usually(st.sampled_from(good), st.sampled_from(["0", "-1", "x"]))


# a box of four intervals, or malformed ones
_REGION = _usually(
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 2.0))
             .map(lambda c: f"{c[0]!r}:{c[0] + c[1]!r}"),
             min_size=4, max_size=4).map(",".join),
    st.lists(st.tuples(_NUMBER, _NUMBER).map(":".join) | _NUMBER,
             min_size=1, max_size=5).map(",".join))


@st.composite
def _check_argv(draw):
    condition = draw(_mostly(st.sampled_from(
        ["E", "SE", "P", "FP", "O", "inclusions", "orientation", "temporal",
         "bogus"])))
    return (["check", draw(_SPECS)] + _flag("--condition", condition)
            + _flag("--region", draw(st.none() | _REGION))
            + _flag("--points", draw(_count(["1", "2", "3"])))
            + _flag("--dirs", draw(st.none() | _count(["1", "4", "8"])))
            + (["--strict"] if draw(st.booleans()) else []) + _common(draw))


@st.composite
def _perturb_argv(draw):
    spec = draw(_SPECS)
    theorem = draw(_usually(st.sampled_from(["3.3", "4.2"]),
                            st.sampled_from([None, "5"])))
    if theorem == "4.2":
        witness = ["v=" + draw(_usually(_vector(4), st.just(""))),
                   "w=" + draw(_usually(_vector(4), st.just("")))]
        witness = draw(_usually(st.just(witness), st.sampled_from(
            [[], witness[:1], ["u=1,0,0,0"] + witness, ["v"]])))
        at = _vector(4)
        sub = st.none()
    else:
        witness = []
        at = _vector(2)
        sub = _mostly(st.sampled_from(_SUBMANIFOLDS.get(spec, ["sphere"])))
    return (["perturb", spec] + _flag("--theorem", theorem)
            + _flag("--submanifold", draw(sub))
            + _flag("--at", draw(_mostly(at)))
            + (["--witness", *witness] if witness else [])
            + _flag("--nmax", draw(_count(["1", "2"])))
            + _common(draw))


@pytest.mark.parametrize("argv", [
    _catalog_argv(), _analyze_argv(), _classify_argv(), _check_argv(),
    _perturb_argv()], ids=["catalog", "analyze", "classify", "check",
                           "perturb"])
def test_argv_keeps_the_error_contract(argv):
    """Each remaining subcommand on drawn argv: small grids, at most 3
    points and n_max at most 2, so every example runs quickly."""
    @settings(max_examples=40, deadline=None)
    @given(argv=argv)
    def keeps(argv):
        _keeps_the_error_contract(argv)
    keeps()


def test_negative_seed_is_a_usage_error():
    """numpy takes non-negative seeds only: a negative --seed exits 2 (it
    was a ValueError traceback in `check`'s sampling)."""
    argv = ["check", "builtin:minkowski", "--condition=E", "--points=1",
            "--seed=-3"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert "must be at least 0, got -3" in err.getvalue()
    assert run_cli(argv[:-1] + ["--seed=0"])[0] in (0, 1)


def test_sparse_shell_is_a_usage_error():
    """The causal shell needs at least 8 directions: --dirs 7 exits 2 with
    the message on stderr, as --points 0 does (it was a ParamError report
    with exit 1)."""
    argv = ["check", "builtin:minkowski", "--condition=E", "--points=1",
            "--dirs=7"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(argv)
    assert code == 2 and out == ""
    assert "must be at least 8, got 7" in err.getvalue()
    assert run_cli(argv[:-1] + ["--dirs=8"])[0] in (0, 1)


@pytest.mark.parametrize("condition", ["O", "inclusions"])
def test_an_empty_tidal_screen_is_a_json_error(condition):
    """In dimension 2 the screen of a null vector is empty: the O margin
    and the inclusion audit exit 1 with a NotApplicable report naming the
    dimension (they were IndexError tracebacks)."""
    argv = ["check", "builtin:minkowski", "--param", "n=2", "--condition",
            condition]
    _keeps_the_error_contract(argv)
    code, rep = run_json(argv)
    assert code == 1 and rep["error_type"] == "NotApplicable"
    assert "empty in dimension 2" in rep["error"]


def test_gs_rejects_a_submanifold_that_is_not_spacelike(capsys):
    """gs along a null curve exits 1 with a NotSpacelike report, worded as
    the mean-curvature pass words it (it was numpy's LinAlgError
    traceback, from inverting the singular induced metric)."""
    code, rep = run_json(NULL_CURVE_GS)
    assert code == 1 and rep["error_type"] == "NotSpacelike"
    assert rep["error"] == "induced metric not positive definite at u = [0.3]"
    assert "Traceback" not in capsys.readouterr().err


def test_a_spec_file_is_read_once_per_command(monkeypatch):
    """The bytes a command parses are the bytes its `input_digest`
    hashes: one open of the file per command."""
    opened = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if str(file) == str(SPEC_FILE):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    code, rep = run_json(["check", str(SPEC_FILE), "--condition",
                          "orientation", "--points", "7"])
    assert code == 0 and len(opened) == 1
    assert rep["input_digest"] == \
        hashlib.sha256(SPEC_FILE.read_bytes()).hexdigest()[:16]


def test_a_crlf_spec_file_gives_the_same_bundle(tmp_path):
    """CRLF line ends parse as LF ones: the same bundle, and reports that
    differ only in the input's name and digest."""
    crlf = tmp_path / "crlf.st"
    crlf.write_bytes(SPEC_FILE.read_bytes().replace(b"\n", b"\r\n"))
    a, b = load_spec(str(SPEC_FILE)), load_spec(str(crlf))
    assert a.field.entries == b.field.entries
    assert (a.params, a.default_box) == (b.params, b.default_box)
    assert a.submanifolds["horizon"].exprs == b.submanifolds["horizon"].exprs
    for argv in (["classify", "--submanifold", "horizon"],
                 ["check", "--condition", "temporal", "--points", "7"]):
        reports = [run_json([argv[0], str(spec)] + argv[1:])
                   for spec in (SPEC_FILE, crlf)]
        for _, rep in reports:
            del rep["input"], rep["input_digest"]
        assert reports[0] == reports[1]


def test_a_spec_file_that_is_not_utf8_is_a_json_error(tmp_path, capsys):
    """A byte that is not UTF-8 exits 1 with a SpacetimeFileError naming
    its offset (it was a UnicodeDecodeError traceback)."""
    text = SPEC_FILE.read_bytes()
    assert text.startswith(b"# Contracting")
    spec = tmp_path / "latin1.st"
    spec.write_bytes(text.replace(b"Contracting", b"Contr\xe4cting", 1))
    code, rep = run_json(["analyze", str(spec), "--at", "0,0,0,0"])
    assert code == 1 and rep["error_type"] == "SpacetimeFileError"
    assert rep["error"] == ("line 0: not UTF-8 text: 'utf-8' codec can't "
                            "decode byte 0xe4 in position 7: invalid "
                            "continuation byte")
    assert "Traceback" not in capsys.readouterr().err


def test_zero_orientation_is_a_param_error(tmp_path, capsys):
    """A zero orientation vector is not timelike: the load exits 1 with a
    JSON ParamError, never a ZeroDivisionError traceback."""
    text = SPEC_FILE.read_text()
    assert "orientation = 1, 0, 0, 0" in text
    spec = tmp_path / "zero.st"
    spec.write_text(text.replace("orientation = 1, 0, 0, 0",
                                 "orientation = 0, 0, 0, 0", 1))
    code, rep = run_json(["analyze", str(spec), "--at", "0,0,0,0"])
    assert code == 1 and rep["error_type"] == "ParamError"
    assert "not timelike" in rep["error"]
    assert "Traceback" not in capsys.readouterr().err

def test_expressions_past_the_depth_bound_are_syntax_errors(tmp_path,
                                                            capsys):
    """A metric entry nested or chained past MAX_DEPTH exits 1 with a JSON
    error and no traceback; an expression at the bound compiles at order 2
    and matches the Jet2 reference."""
    text = SPEC_FILE.read_text()
    for name, entry in [
            ("chain", "-1 + 0*(" + "+".join(["s"] * 700) + ")"),
            ("brackets", "-1 + " + "(" * 3000 + "s" + ")" * 3000 + "*0")]:
        spec = tmp_path / f"{name}.st"
        spec.write_text(text.replace("metric s s = -1",
                                     f"metric s s = {entry}", 1))
        code, rep = run_json(["analyze", str(spec), "--at", "0,0,0,0"])
        # the spec loader reports every bad metric expression as a
        # SpacetimeFileError; its cause is the parser's
        assert code == 1 and rep["error_type"] == "SpacetimeFileError"
        assert "at offset" in rep["error"]
        with pytest.raises(SpacetimeFileError) as exc:
            load_spec(str(spec))
        assert isinstance(exc.value.__cause__, ExprSyntaxError)
    assert "Traceback" not in capsys.readouterr().err

    table = SymbolTable(["x", "y"])
    d = MAX_DEPTH
    nested = "cos(" * (d - 2) + "x*y" + ")" * (d - 2)
    chain = " + ".join(["x*y"] * (d - 1))
    for at_bound in (nested, chain, "(" * d + "x" + ")" * d):
        e = parse(at_bound, table)
        want = jet_eval(e, [Jet2.variable(0.3, 0, 2),
                            Jet2.variable(0.7, 1, 2)], {})
        got = compile((e,), 2, order=2, shape=(), slots=[(0,)])(
            np.array([0.3, 0.7]))
        for g, w in zip(got, (want.value, want.grad, want.hess)):
            assert np.allclose(g, w, rtol=1e-12, atol=0.0)
    for past, offset in [("(" * (d + 1) + "x" + ")" * (d + 1), d),
                         ("-" * (d + 1) + "x", d),
                         ("cos(" * (d - 1) + "x*y" + ")" * (d - 1), 0),
                         (chain + " + x*y", len(chain) + 1)]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(past, table)
        assert exc.value.position == offset
