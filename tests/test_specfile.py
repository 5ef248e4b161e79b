import math
import textwrap

import numpy as np
import pytest

from lorentzkit.errors import SpacetimeFileError
from lorentzkit.geometry import curvature_data
from lorentzkit.specfile import load_spec, parse_spacetime_file
from lorentzkit.submanifold import classify_trapped

EF_FILE = textwrap.dedent("""\
    # ingoing Eddington-Finkelstein chart, regular across r = 2M
    dimension 4
    coordinate v
    coordinate r
    coordinate theta
    coordinate phi periodic 6.283185307179586
    param M = 1.0
    domain r 0.001 inf
    domain theta 0 3.141592653589793
    region v 0 1
    region r 1.2 6
    region theta 0.6 2.5

    metric v v = -(1 - 2*M/r)
    metric r v = 1
    metric r r = 0
    metric theta v = 0
    metric theta r = 0
    metric theta theta = r^2
    metric phi v = 0
    metric phi r = 0
    metric phi theta = 0
    metric phi phi = r^2*sin(theta)^2

    orientation = 1, -2, 0, 0
    temporal = v - r

    submanifold horizon
      parameter ua 0.35 2.7915926535897933
      parameter ub 0 6.283185307179586 periodic 6.283185307179586
      grid 12 12
      embed v = 0
      embed r = 2*M
      embed theta = ua
      embed phi = ub
      hint = 0, 1, 0, 0
    end
""")


class TestParsing:
    def test_ef_round_trip(self, tmp_path):
        path = tmp_path / "ef.spacetime"
        path.write_text(EF_FILE)
        bundle = load_spec(str(path))
        assert bundle.field.dim == 4
        assert bundle.field.params["M"] == 1.0
        # vacuum check at a point
        data = curvature_data(bundle.field, [0.0, 3.0, math.pi / 2, 0.2])
        assert np.abs(data.ric).max() < 1e-8
        verdict = classify_trapped(bundle.field, bundle.orientation,
                                   bundle.submanifolds["horizon"],
                                   bundle.hints["horizon"])
        assert verdict.class_name == "weakly-future-trapped"
        assert verdict.subtype == "MOTS"

    def test_param_override(self, tmp_path):
        path = tmp_path / "ef.spacetime"
        path.write_text(EF_FILE)
        bundle = load_spec(str(path), {"M": 2.0})
        g = bundle.field.value([0.0, 4.0, math.pi / 2, 0.0])
        assert g[0, 0] == pytest.approx(0.0, abs=1e-14)   # horizon at r = 4

    def test_builtin_prefix(self):
        bundle = load_spec("builtin:minkowski")
        assert bundle.name == "minkowski"

    def test_missing_metric_entries(self):
        bad = EF_FILE.replace("metric phi phi = r^2*sin(theta)^2\n", "")
        with pytest.raises(SpacetimeFileError) as exc:
            parse_spacetime_file(bad)
        assert "lower-triangle" in str(exc.value)

    def test_unknown_coordinate_in_metric(self):
        bad = EF_FILE.replace("metric v v", "metric v q")
        with pytest.raises(SpacetimeFileError):
            parse_spacetime_file(bad)

    def test_unknown_stanza_reports_line(self):
        bad = "dimension 2\ncoordinate t\ncoordinate x\nfrobnicate 3\n"
        with pytest.raises(SpacetimeFileError) as exc:
            parse_spacetime_file(bad)
        assert exc.value.line == 4

    def test_bad_expression_rejected(self):
        bad = EF_FILE.replace("-(1 - 2*M/r)", "-(1 - 2*Q/r)")
        with pytest.raises(SpacetimeFileError):
            parse_spacetime_file(bad)

    def test_missing_orientation(self):
        bad = EF_FILE.replace("orientation = 1, -2, 0, 0\n", "")
        with pytest.raises(SpacetimeFileError) as exc:
            parse_spacetime_file(bad)
        assert "orientation" in str(exc.value)

    def test_submanifold_without_end(self):
        bad = EF_FILE.rstrip()[:-len("end")]
        with pytest.raises(SpacetimeFileError):
            parse_spacetime_file(bad)

    def test_duplicate_metric_entry(self):
        bad = EF_FILE + "\nmetric v v = -1\n"
        with pytest.raises(SpacetimeFileError):
            parse_spacetime_file(bad)

    def test_missing_embed(self):
        bad = EF_FILE.replace("  embed phi = ub\n", "")
        with pytest.raises(SpacetimeFileError) as exc:
            parse_spacetime_file(bad)
        assert "embed" in str(exc.value) or "missing" in str(exc.value)

    def test_caret_names_stay_legal(self):
        bundle = parse_spacetime_file(EF_FILE.replace("phi", "x^3"))
        assert bundle.field.table.coordinates[3] == "x^3"
        assert bundle.submanifolds["horizon"].n == 4

