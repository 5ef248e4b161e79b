"""CLI behavior: exit-code contract, report shapes, determinism, CSV."""

import importlib.util
import io
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import lorentzkit.geodesics as geodesics
from lorentzkit.cli import run

from conftest import CATALOG_NAMES, region_points

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

    def test_radial_infall_counts_its_refinement(self, monkeypatch):
        """The infall to the r = 1e-3 edge misses the drift budget at the
        default rtol and is refined once: the report says so, and its
        n_rhs_evals counts every right-hand side of both attempts (4126 on
        the machine where this was written, 794 of them discarded)."""
        calls = [0]
        original = geodesics.solve_ivp

        def solve_ivp(fun, *args, **kwargs):
            def counted(*a):
                calls[0] += 1
                return fun(*a)
            return original(counted, *args, **kwargs)

        monkeypatch.setattr(geodesics, "solve_ivp", solve_ivp)
        code, rep = run_json(["geodesic", "builtin:schwarzschild_ef",
                              "--from", "0,3,1.5707,0", "--dir", "1,-1,0,0",
                              "--length", "2"])
        assert code == 0
        res = rep["result"]
        assert res["chart_exit"]
        assert res["refinements"] == 1
        assert res["n_rhs_evals"] == calls[0]

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
