"""The package's DOP853 against scipy's, which it follows step for step.

scipy is a test dependency only: here it is the oracle. The tableau must
match `scipy.integrate._ivp.dop853_coefficients` bit for bit, and every
solve that `geodesic` makes (plain, with transported columns, with Jacobi
columns, retries and chart exits included) must give the same accepted
times, states, right-hand-side count, status and dense values as scipy's
`solve_ivp(method="DOP853")` on the same arguments; the event roots must be
scipy's `brentq`'s.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

from conftest import CATALOG_NAMES, region_points
from lorentzkit import dop853, geodesics
from lorentzkit.errors import LorentzkitError
from lorentzkit.geodesics import geodesic

EPS = np.finfo(float).eps


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_tableau_matches_scipy_bit_for_bit():
    ref = dop853_coefficients
    assert (dop853.N_STAGES, dop853.N_STAGES_EXTENDED,
            dop853.INTERPOLATOR_POWER) == (ref.N_STAGES,
                                           ref.N_STAGES_EXTENDED,
                                           ref.INTERPOLATOR_POWER)
    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert _same_bits(getattr(dop853, name), getattr(ref, name)), name


@pytest.fixture
def recorded(monkeypatch):
    """Every (fun, t_span, y0, options) `geodesic` hands to
    `geodesics.solve_ivp`, and every bracket the event search solves."""
    calls, roots = [], []
    solve, brent = geodesics.solve_ivp, dop853._brentq

    def solve_ivp(fun, t_span, y0, **options):
        calls.append((fun, t_span, y0, options))
        return solve(fun, t_span, y0, **options)

    def _brentq(f, a, b):
        root = brent(f, a, b)
        roots.append((f, a, b, root))
        return root

    monkeypatch.setattr(geodesics, "solve_ivp", solve_ivp)
    monkeypatch.setattr(dop853, "_brentq", _brentq)
    return calls, roots


def _starts(bundles):
    """(name, p, v, length): one seeded start per builtin, a curve across
    the torus' periodic axes, and two chart exits of `schwarzschild_ef`:
    the radial infall to r = 1e-3 and a curve into the pole (its transport
    and Jacobi solves end in `SingularMetric` on the way)."""
    rng = np.random.default_rng(2601)
    out = []
    for name in CATALOG_NAMES:
        p = region_points(bundles[name], 1, seed=2601)[0]
        v = np.concatenate([[1.0], 0.3 * rng.standard_normal(3)])
        out.append((name, p, v, 0.8))
    out += [("torus_quotient", np.array([0.0, 0.9, 0.5, 0.2]),
             np.array([1.0, 0.7, -0.4, 0.3]), 1.0),
            ("schwarzschild_ef", np.array([0.0, 3.0, 1.5707, 0.0]),
             np.array([1.0, -1.0, 0.0, 0.0]), 2.0),
            ("schwarzschild_ef", np.array([0.0, 5.0, 0.3, 0.0]),
             np.array([1.0, 0.0, -1.5, 0.0]), 1.0)]
    return out


SHAPES = ("plain", "transport", "jacobi")


def _integrate(field_, p, v, length, shape, rng):
    n = field_.dim
    cols = rng.standard_normal((n, 2))
    try:
        if shape == "plain":
            return geodesic(field_, p, v, length)
        if shape == "transport":
            return geodesic(field_, p, v, length, transport=cols)
        return geodesic(field_, p, v, length, jacobi=cols)
    except LorentzkitError:
        return None    # a missed drift budget still made its solves


def _outcome(solve, *args, **options):
    """The solve's result, or the error its right-hand side raised."""
    try:
        return solve(*args, **options)
    except LorentzkitError as exc:
        return exc


def test_solves_match_scipy(bundles, recorded):
    calls, roots = recorded
    rng = np.random.default_rng(2602)
    statuses, wrapped = [], False
    for name, p, v, length in _starts(bundles):
        field_ = bundles[name].field
        for shape in SHAPES:
            del calls[:]
            sol = _integrate(field_, p, v, length, shape, rng)
            if sol is not None and name == "torus_quotient":
                wrapped |= bool(np.any(sol.point(sol.t_reached)[1:] > 1.0))
            assert calls, (name, shape)
            for fun, t_span, y0, options in calls:
                ours = _outcome(dop853.solve_ivp, fun, t_span, y0, **options)
                ref = _outcome(scipy_solve_ivp, fun, t_span, y0,
                               method="DOP853", **options)
                where = (name, shape, t_span)
                if isinstance(ours, LorentzkitError):
                    assert (type(ref), str(ref)) == (type(ours), str(ours))
                    statuses.append(None)
                    continue
                assert _same_bits(ours.t, ref.t), where
                assert _same_bits(ours.y, ref.y), where
                assert (ours.nfev, ours.status, ours.message) == \
                    (ref.nfev, ref.status, ref.message), where
                for num in (33, 200):
                    s = np.linspace(0.0, ours.t[-1], num)
                    assert np.array_equal(ours.sol(s), ref.sol(s)), where
                assert np.array_equal(ours.sol(s[57]), ref.sol(s[57])), where
                statuses.append(ours.status)
    assert wrapped, "no curve crossed a period of the torus"
    assert statuses.count(1) == 4 and statuses.count(None) == 2
    # the event roots are scipy's brentq's on the same brackets
    assert roots
    for f, a, b, root in roots:
        assert root == scipy_brentq(f, a, b, xtol=4 * EPS, rtol=4 * EPS)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: math.exp(x) - 1e3, 0.0, 10.0),
    (lambda x: math.atan(1e4 * (x - 1e-3)), -1.0, 1.0),
])
def test_brentq_matches_scipy(f, a, b):
    assert dop853._brentq(f, a, b) == scipy_brentq(f, a, b, xtol=4 * EPS,
                                                   rtol=4 * EPS)


def test_brentq_needs_a_sign_change_and_gives_up_as_scipy_does():
    with pytest.raises(ValueError, match="different signs"):
        dop853._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    # a fifth-order root: the bracket shrinks too slowly for 100 iterations
    for brent in (dop853._brentq,
                  lambda f, a, b: scipy_brentq(f, a, b, xtol=4 * EPS,
                                               rtol=4 * EPS)):
        with pytest.raises(RuntimeError, match="after 100 iterations"):
            brent(lambda x: (x - 0.3) ** 5, 0.0, 1.0)


def test_radial_infall_length_is_pinned(bundles):
    """The radial infall's chart exit, the figure the benchmark's `curves`
    part and the golden reports read."""
    sol = geodesic(bundles["schwarzschild_ef"].field,
                   np.array([0.0, 3.0, 1.5707, 0.0]),
                   np.array([1.0, -1.0, 0.0, 0.0]), 2.0)
    assert sol.chart_exit
    assert sol.t_reached.hex() == (1.8185374593259471).hex()


def test_a_step_size_breakdown_reports_status_minus_one():
    """A right-hand side that is NaN past t = 0.5 rejects every step there
    until the step falls below ten spacings of t."""
    def fun(t, y):
        return -y if t < 0.5 else np.full_like(y, np.nan)
    ours = dop853.solve_ivp(fun, (0.0, 1.0), [1.0], rtol=1e-8, atol=1e-10)
    ref = scipy_solve_ivp(fun, (0.0, 1.0), [1.0], method="DOP853",
                          rtol=1e-8, atol=1e-10)
    assert ours.status == ref.status == -1
    assert ours.message == ref.message == dop853.TOO_SMALL_STEP
    assert _same_bits(ours.t, ref.t) and ours.nfev == ref.nfev


@pytest.mark.parametrize("kwargs, match", [
    ({"t_span": (1.0, 0.0)}, "forward"),
    ({"y0": [[1.0]]}, "1-dimensional"),
    ({"y0": [np.inf]}, "finite"),
    ({"events": [lambda t, y: y[0]]}, "terminal"),
])
def test_rejects_what_it_does_not_integrate(kwargs, match):
    args = {"t_span": (0.0, 1.0), "y0": [1.0]} | kwargs
    with pytest.raises(ValueError, match=match):
        dop853.solve_ivp(lambda t, y: -y, **args)
