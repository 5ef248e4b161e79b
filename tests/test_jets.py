import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzkit import jets
from lorentzkit.conformal import rescale
from lorentzkit.errors import DomainError
from lorentzkit.expr import FUNCTIONS, SymbolTable, parse
from lorentzkit.fields import ExprScalarField
from lorentzkit.metric import ExprMetricField, minkowski_field
from lorentzkit.normal import NormalChart, orthonormal_frame_from
from lorentzkit.perturb import BumpField, NormalCoordBump
from lorentzkit.specfile import load_spec

from conftest import CATALOG_NAMES, region_points
from jet_reference import Jet2

finite = st.floats(-3.0, 3.0, allow_nan=False)


def test_jet2_is_a_container():
    """The package's one jet arithmetic is its compiled kernels: lorentzkit's
    Jet2 carries value, gradient and Hessian and defines no operator and no
    univariate function, and Expr.eval takes floats only."""
    arithmetic = {"__add__", "__radd__", "__iadd__", "__sub__", "__rsub__",
                  "__isub__", "__mul__", "__rmul__", "__imul__",
                  "__truediv__", "__rtruediv__", "__itruediv__",
                  "__floordiv__", "__rfloordiv__", "__mod__", "__pow__",
                  "__rpow__", "__neg__", "__pos__", "__abs__", "__matmul__",
                  "__rmatmul__"}
    names = set(dir(jets.Jet2))
    assert not arithmetic & names
    assert not (set(FUNCTIONS) | {"cutoff"}) & names
    assert {n for n in names if not n.startswith("_")} == \
        {"value", "grad", "hess", "constant"}
    seed = jets.Jet2.constant(0.3, 1)
    for text in ("sin(x)", "x * x", "2 - x"):
        with pytest.raises(TypeError):
            parse(text, SymbolTable(["x"])).eval([seed], {})


# --- the reference arithmetic (tests/jet_reference.py) ----------------------


def jet_of(f, x, y):
    """Jet of f(x, y) seeded on two variables."""
    return f(Jet2.variable(x, 0, 2), Jet2.variable(y, 1, 2))


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(finite, finite)
    def test_product_rule(self, x, y):
        j = jet_of(lambda a, b: a * b, x, y)
        assert j.value == pytest.approx(x * y)
        assert np.allclose(j.grad, [y, x])
        assert np.allclose(j.hess, [[0, 1], [1, 0]])

    @settings(max_examples=60, deadline=None)
    @given(finite, finite.filter(lambda v: abs(v) > 0.1))
    def test_quotient_rule(self, x, y):
        j = jet_of(lambda a, b: a / b, x, y)
        assert j.value == pytest.approx(x / y)
        assert np.allclose(j.grad, [1 / y, -x / y ** 2], atol=1e-12)
        assert j.hess[1, 1] == pytest.approx(2 * x / y ** 3, rel=1e-12)

    def test_integer_power_is_exact(self):
        j = Jet2.variable(3.0, 0, 1) ** 5
        assert j.value == 243.0
        assert j.grad[0] == 5 * 81.0
        assert j.hess[0, 0] == 20 * 27.0

    def test_negative_power(self):
        j = Jet2.variable(2.0, 0, 1) ** (-2)
        assert j.value == pytest.approx(0.25)
        assert j.grad[0] == pytest.approx(-2 / 8)

    def test_real_power_requires_positive_base(self):
        with pytest.raises(DomainError):
            Jet2.variable(-1.0, 0, 1) ** 0.5


class TestFunctions:
    @pytest.mark.parametrize("name,f,fp,fpp", [
        ("exp", math.exp, math.exp, math.exp),
        ("sin", math.sin, math.cos, lambda u: -math.sin(u)),
        ("cos", math.cos, lambda u: -math.sin(u), lambda u: -math.cos(u)),
        ("sinh", math.sinh, math.cosh, math.sinh),
        ("cosh", math.cosh, math.sinh, math.cosh),
        ("tanh", math.tanh, lambda u: 1 - math.tanh(u) ** 2,
         lambda u: -2 * math.tanh(u) * (1 - math.tanh(u) ** 2)),
    ])
    def test_univariate_derivatives(self, name, f, fp, fpp):
        u = 0.63
        j = getattr(Jet2.variable(u, 0, 1), name)()
        assert j.value == pytest.approx(f(u), rel=1e-14)
        assert j.grad[0] == pytest.approx(fp(u), rel=1e-12)
        assert j.hess[0, 0] == pytest.approx(fpp(u), rel=1e-12)

    def test_sqrt_log_chain(self):
        u = 1.7
        j = Jet2.variable(u, 0, 1).sqrt().log()   # log(sqrt(u)) = log(u)/2
        assert j.value == pytest.approx(math.log(u) / 2)
        assert j.grad[0] == pytest.approx(1 / (2 * u))
        assert j.hess[0, 0] == pytest.approx(-1 / (2 * u ** 2))

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            Jet2.variable(0.0, 0, 1).log()
        with pytest.raises(DomainError):
            Jet2.variable(-1.0, 0, 1).sqrt()
        with pytest.raises(DomainError):
            Jet2.constant(1.0, 1) / Jet2.constant(0.0, 1)

    def test_hessian_symmetry(self):
        a = Jet2.variable(0.4, 0, 3)
        b = Jet2.variable(-0.7, 1, 3)
        c = Jet2.variable(1.3, 2, 3)
        j = ((a * b).exp() + c.sin() * a).symmetrized()
        assert np.allclose(j.hess, j.hess.T)


# --- order-1 jets: value and gradient only ---------------------------------

SPEC_FILE = (Path(__file__).resolve().parents[1] / "perfbench" / "spacetimes"
             / "contracting_desitter.st")


def _order1_fields(bundles):
    """The seven builtins, the benchmark's spec file and one conformal
    rescaling, each with a deterministic sample point."""
    fields = [(name, b.field, region_points(b, 1, seed=5)[0])
              for name, b in bundles.items()]
    spec = load_spec(str(SPEC_FILE))
    fields.append(("contracting_desitter", spec.field,
                   region_points(spec, 1, seed=5)[0]))
    b = bundles["schwarzschild_ef"]
    factor = ExprScalarField("0.1*sin(r)*cos(theta) + 0.05*v", b.field.table)
    fields.append(("conformal schwarzschild_ef", rescale(b.field, factor),
                   region_points(b, 1, seed=5)[0]))
    return fields


def test_order1_jets_equal_order2_value_and_gradient(bundles):
    for name, field, p in _order1_fields(bundles):
        g1, dg1, d2g1 = field.component_jets(p, order=1)
        g2, dg2, _ = field.component_jets(p, order=2)
        assert d2g1 is None, name
        assert np.array_equal(g1, g2), name
        assert np.array_equal(dg1, dg2), name


def test_order1_jets_build_no_hessian(bundles, monkeypatch):
    calls = []
    outer = np.outer

    def counting_outer(*args, **kwargs):
        calls.append(1)
        return outer(*args, **kwargs)

    monkeypatch.setattr(np, "outer", counting_outer)
    for name in CATALOG_NAMES:
        b = bundles[name]
        b.field.component_jets(region_points(b, 1, seed=5)[0], order=1)
    assert not calls
    # the code the queries run: order 1 forms no Hessian term (named h<i>),
    # order 2 does
    hessian_term = re.compile(r"\bh\d+ = ")
    for name in CATALOG_NAMES:
        kernels = bundles[name].field._kernels
        assert not hessian_term.search(kernels.kernel(1).source), name
    kernels = bundles["schwarzschild_ef"].field._kernels
    assert hessian_term.search(kernels.kernel(2).source)


def test_order1_jets_stay_order1():
    x = Jet2.variable(0.7, 0, 2, order=1)
    y = Jet2.variable(-0.4, 1, 2)                   # order 2
    for j in (x * y, x + y, y - x, x / y, 2.0 / x, x ** 3, x ** 0, x ** -2,
              (x * y).exp().sin(), x.sqrt().log(), x ** 1.5):
        assert j.hess is None and j.order == 1
    assert (x ** 0).value == 1.0 and np.array_equal((x ** 0).grad, [0.0, 0.0])
    assert (y * y).order == 2


def test_zero_power_factor_at_order_one():
    table = SymbolTable(["t", "x"])
    field = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                    (1, 1): "x^0 * (1 + x^2)"})
    g, dg, d2g = field.component_jets([0.0, 0.5], order=1)
    assert g[1, 1] == 1.25 and dg[1, 1, 1] == 1.0 and d2g is None


def test_rescaled_order1_query_builds_no_hessian(bundles, monkeypatch):
    """An order-1 query on a rescaled metric asks its factor for an order-1
    jet: no kernel runs at order 2 (every Hessian comes from one), for an
    expression factor and for a bump."""
    from lorentzkit.expr import Kernel
    from lorentzkit.perturb import bump
    orders = []
    call = Kernel.__call__

    def counting_call(self, points):
        orders.append(self.order)
        return call(self, points)

    b = bundles["schwarzschild_ef"]
    p = region_points(b, 1, seed=5)[0]
    factors = [ExprScalarField("0.1*sin(r)*cos(theta) + 0.05*v", b.field.table),
               bump(b.field, p, 0.0, [0.1, -0.2, 0.05, 0.0], 0.3)]
    monkeypatch.setattr(Kernel, "__call__", counting_call)
    for factor in factors:
        field = rescale(b.field, factor, 0.5)
        g, dg, d2g = field.component_jets(p + 0.01, order=1)
        assert d2g is None
        assert orders and max(orders) == 1
        orders.clear()
        # the counter does see the factor's order-2 path
        field.component_jets(p + 0.01, order=2)
        assert 2 in orders
        orders.clear()


# --- batched jets: a (B,) value, batch axis first ---------------------------

def _close(batch, one, rel=1e-15):
    """Elementwise relative agreement; exact where the per-point entry is 0."""
    scale = np.where(one != 0.0, np.abs(one), 1.0)
    return bool(np.all(np.abs(batch - one) <= rel * scale))


def _batch_fields(bundles):
    fields = [(name, b, region_points(b, 9, seed=11))
              for name, b in bundles.items()]
    spec = load_spec(str(SPEC_FILE))
    fields.append(("contracting_desitter", spec, region_points(spec, 9, seed=11)))
    return fields


@pytest.mark.parametrize("order", [0, 1, 2])
def test_batched_component_jets_match_points(bundles, order):
    for name, b, pts in _batch_fields(bundles):
        batch = b.field.component_jets(pts, order=order)
        for k, p in enumerate(pts):
            for part, one in zip(batch, b.field.component_jets(p, order=order)):
                if one is None:
                    assert part is None, name
                    continue
                assert part.shape == (len(pts),) + one.shape, name
                assert _close(part[k], one), (name, order, k)


def test_batched_embedding_jets_match_points(bundles):
    spec = load_spec(str(SPEC_FILE))
    embeddings = [(f"{name}/{sub}", emb) for name, b in bundles.items()
                  for sub, emb in b.submanifolds.items()]
    embeddings += [(f"spec/{sub}", emb) for sub, emb in spec.submanifolds.items()]
    for name, emb in embeddings:
        us = emb.grid_points()
        batch = emb.first_second(us)
        for k in range(0, len(us), 5):
            for part, one in zip(batch, emb.first_second(us[k])):
                assert _close(part[k], one), (name, k)


def test_batched_conformal_and_vector_fields_match_points(bundles):
    """A rescaled metric answers a batch in one pass, through the same
    product rule as a point: equal to the point's jets bit for bit with a
    stacking factor (ExprScalarField), and to 1e-15 with the batched bump
    factors (BumpField; an affine NormalCoordBump), whose points lie on the
    plateau, the ramp and outside the support. Vector fields evaluate a
    batch in one pass."""
    b = bundles["schwarzschild_ef"]
    pts = region_points(b, 4, seed=2)
    center = 0.3 * pts[1] + 0.7 * pts[2]
    factors = [
        (ExprScalarField("0.1*sin(r)*cos(theta) + 0.05*v", b.field.table),
         np.array_equal),
        (BumpField(b.field, center, 0.2, [0.3, -0.5, 0.1, 0.2], 0.8), _close),
        (NormalCoordBump(minkowski_field(), center, np.eye(4),
                         "exp(n0) + n1*n2", 0.8), _close),
    ]
    for factor, agree in factors:
        field = rescale(b.field, factor, 0.7)
        for order in (0, 1, 2):
            batch = field.component_jets(pts, order=order)
            for k, p in enumerate(pts):
                for part, one in zip(batch,
                                     field.component_jets(p, order=order)):
                    assert one is None and part is None \
                        or agree(part[k], one), (factor, order, k)
    for vf in (b.orientation, b.hints["inner_sphere"]):
        vals = vf.value(pts)
        assert vals.shape == pts.shape
        for k, p in enumerate(pts):
            assert _close(vals[k], vf.value(p))


def test_rescaled_metric_answers_a_batch_in_one_pass(bundles, monkeypatch):
    """A batch query of a rescaled metric makes one batched base query."""
    b = bundles["schwarzschild_ef"]
    pts = region_points(b, 6, seed=3)
    calls = []
    base_jets = ExprMetricField.component_jets

    def counted(self, q, order=2):
        calls.append(np.shape(q))
        return base_jets(self, q, order)

    monkeypatch.setattr(ExprMetricField, "component_jets", counted)
    factor = BumpField(b.field, pts[0], 0.1, [0.2, 0.1, 0.0, -0.3], 0.5)
    rescale(b.field, factor).component_jets(pts, order=2)
    assert calls == [pts.shape]


def test_rescaled_metric_reads_its_factor_once_per_batch(bundles,
                                                         monkeypatch):
    """A batch query of a rescaled metric makes one batched factor.jet2
    call, for an expression factor and for both bumps: stacking per-point
    jets would give the same result B calls later."""
    b = bundles["schwarzschild_ef"]
    pts = region_points(b, 6, seed=3)
    frame = orthonormal_frame_from(b.field, pts[0],
                                   first=np.array([1.0, 0, 0, 0]),
                                   second=np.array([0.0, 1, 0, 0]))
    factors = [ExprScalarField("0.1*sin(r)*cos(theta) + 0.05*v", b.field.table),
               BumpField(b.field, pts[0], 0.1, [0.2, 0.1, 0.0, -0.3], 0.5),
               NormalCoordBump(b.field, pts[0], frame, "(n0 + n1)^2")]
    for factor in factors:
        calls = []
        jet2 = factor.jet2

        def counted(q, order=2, jet2=jet2):
            calls.append(np.shape(q))
            return jet2(q, order)

        monkeypatch.setattr(factor, "jet2", counted)
        for order in (0, 1, 2):
            calls.clear()
            rescale(b.field, factor).component_jets(pts, order=order)
            assert calls == [pts.shape], (factor, order)


def test_batched_jet_arithmetic_and_domain_checks():
    xs = np.array([0.3, 1.7, 2.9])
    batch = Jet2.variable(xs, 0, 2) * Jet2.variable(np.array([-0.5, 0.4, 1.1]), 1, 2)
    batch = (batch.sin() + batch.exp() / (batch * batch + 1.0)) ** 3
    for k, (x, y) in enumerate(zip(xs, [-0.5, 0.4, 1.1])):
        one = Jet2.variable(x, 0, 2) * Jet2.variable(y, 1, 2)
        one = (one.sin() + one.exp() / (one * one + 1.0)) ** 3
        assert batch.grad.shape == (2, 3) and batch.hess.shape == (2, 2, 3)
        assert _close(batch.value[k], one.value)
        assert _close(batch.grad[:, k], one.grad)
        assert _close(batch.hess[:, :, k], one.hess)
    # every element is checked, and the message names the first bad one
    with pytest.raises(DomainError, match="log of nonpositive value -0.5"):
        Jet2.variable(np.array([1.0, -0.5, -2.0]), 0, 1).log()
    with pytest.raises(DomainError, match="division by zero"):
        1.0 / Jet2.variable(np.array([1.0, 0.0]), 0, 1)
    with pytest.raises(DomainError, match="positive base, got 0.0"):
        Jet2.variable(np.array([2.0, 0.0]), 0, 1) ** 0.5
    zero = Jet2.variable(xs, 0, 1, order=1) ** 0
    assert np.array_equal(zero.value, np.ones(3)) and zero.grad.shape == (1, 3)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_batched_evaluation_raises_where_a_point_does(order):
    """A batch raises DomainError when one of its points does: overflow,
    log of a negative and division by zero, at every order."""
    table = SymbolTable(["t", "x"])
    pts = np.array([[0.0, 0.5], [0.0, 1.0], [0.0, 2.0]])
    for text, bad in (("exp(400*x)", 2.0), ("log(1.5 - x)", 2.0),
                      ("1/(x - 1)", 1.0)):
        field = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                        (1, 1): text})
        good = pts[pts[:, 1] != bad]
        field.component_jets(good, order=order)
        with pytest.raises(DomainError):
            field.component_jets(pts, order=order)


# --- jets composed on kernels, against sympy ----------------------------------

def _sympy_jets(sp, expr, syms, point):
    """Value, gradient and Hessian of a sympy expression at a point, to 30
    digits; the point's floats enter exactly."""
    at = {s: sp.Rational(float(v)) for s, v in zip(syms, point)}

    def num(e):
        return float(sp.N(e.subs(at), 30))

    grad = [sp.diff(expr, s) for s in syms]
    return (np.array(num(expr)), np.array([num(g) for g in grad]),
            np.array([[num(sp.diff(g, s)) for s in syms] for g in grad]))


def _chi(sp, u):
    """The C^2 cutoff on its ramp 1/4 <= u <= 1 (1 on the plateau)."""
    z = (u - sp.Rational(1, 4)) / sp.Rational(3, 4)
    return 1 - z ** 3 * (10 - 15 * z + 6 * z ** 2)


def _assert_parts_close(got, want, what):
    """Each part to 1e-12 relative to its largest entry."""
    for order, (g, w) in enumerate(zip(got, want)):
        scale = np.abs(w).max()
        assert np.all(np.abs(np.asarray(g) - w) <= 1e-12 * scale), \
            (what, order, g, w)


def _plateau_and_ramp_points(center, radius, frame_inv, seed):
    """Points whose normalized squared radius |A (q - p)|^2 / rho^2 lies on
    the plateau (below 1/4) and on the ramp (between 1/4 and 1)."""
    rng = np.random.default_rng(seed)
    points = []
    for r in (0.3, 0.45, 0.6, 0.75, 0.9):
        d = rng.normal(size=len(center))
        x = radius * r * d / np.linalg.norm(d)
        points.append(center + np.linalg.solve(frame_inv, x))
    return points


def test_bump_jets_match_sympy():
    """BumpField = (v0 + dphi . (q - p)) * chi(|q - p|^2 / rho^2)."""
    sp = pytest.importorskip("sympy")
    f = minkowski_field()
    center = np.array([0.1, -0.2, 0.3, 0.05])
    dphi = np.array([0.5, -1.0, 2.0, 0.3])
    b = BumpField(f, center, 0.7, dphi, 0.4)
    q = sp.symbols("q0:4")
    d = [qk - sp.Rational(float(c)) for qk, c in zip(q, center)]
    core = sp.Rational(0.7) + sum(sp.Rational(float(w)) * dk
                                  for w, dk in zip(dphi, d))
    u = sum(dk ** 2 for dk in d) / sp.Rational(0.4) ** 2
    for p in _plateau_and_ramp_points(center, 0.4, np.eye(4), seed=31):
        plateau = float(np.sum((p - center) ** 2)) / 0.16 <= 0.25
        phi = core * (1 if plateau else _chi(sp, u))
        want = _sympy_jets(sp, phi, q, p)
        for order in (1, 2):
            jet = b.jet2(p, order)
            got = (jet.value, jet.grad, jet.hess)[:order + 1]
            _assert_parts_close(got, want[:order + 1], (p, order))


@pytest.mark.parametrize("core", ["exp(n0)", "(n0 + n1)^2"])
def test_affine_normal_bump_jets_match_sympy(core):
    """NormalCoordBump on an affine chart: core(x) * chi(|x|^2 / rho^2) with
    x = A (q - p)."""
    sp = pytest.importorskip("sympy")
    f = minkowski_field()
    center = np.array([0.2, -0.1, 0.3, 0.0])
    frame = orthonormal_frame_from(f, center, first=np.array([1.0, 0.3, 0.1, 0.0]),
                                   second=np.array([0.0, 1.0, 0.5, 0.0]))
    chart = NormalChart(f, center, frame)
    assert chart.affine
    nb = NormalCoordBump(f, center, frame, core, 0.3)
    q = sp.symbols("q0:4")
    a = chart.frame_inv
    x = [sum(sp.Rational(float(a[k, j])) * (q[j] - sp.Rational(float(center[j])))
             for j in range(4)) for k in range(4)]
    core_expr = sp.sympify(core.replace("^", "**"),
                           locals={f"n{k}": x[k] for k in range(4)})
    u = sum(xk ** 2 for xk in x) / sp.Rational(0.3) ** 2
    for p in _plateau_and_ramp_points(center, 0.3, a, seed=32):
        xp = a @ (p - center)
        plateau = float(xp @ xp) / 0.09 <= 0.25
        phi = core_expr * (1 if plateau else _chi(sp, u))
        want = _sympy_jets(sp, phi, q, p)
        for order in (1, 2):
            jet = nb.jet2(p, order)
            got = (jet.value, jet.grad, jet.hess)[:order + 1]
            _assert_parts_close(got, want[:order + 1], (core, p, order))


def test_conformal_metric_jets_match_sympy():
    """ConformalScaledMetric: e^{2 s f} g with an expression factor f, every
    component's value, gradient and Hessian at orders 0, 1 and 2."""
    sp = pytest.importorskip("sympy")
    names = ["t", "x", "y"]
    entries = {(0, 0): "-(1 + 0.1*x^2)", (1, 0): "0.05*x*y",
               (1, 1): "1 + 0.2*sin(t)*y", (2, 0): "0", (2, 1): "0.1*t",
               (2, 2): "exp(0.3*x)"}
    factor_text = "0.1*sin(x)*cos(y) + 0.05*t"
    table = SymbolTable(names)
    field = rescale(ExprMetricField(table, entries),
                    ExprScalarField(factor_text, table), 0.7)
    syms = sp.symbols(names)
    local = dict(zip(names, syms))

    def sym(text):
        return sp.sympify(text.replace("^", "**"), locals=local)

    e2sf = sp.exp(2 * sp.Rational(0.7) * sym(factor_text))
    rng = np.random.default_rng(33)
    for p in rng.uniform(-0.8, 0.8, size=(3, 3)):
        want = {}
        for (i, j), text in entries.items():
            want[i, j] = want[j, i] = _sympy_jets(sp, e2sf * sym(text), syms, p)
        for order in (0, 1, 2):
            got = field.component_jets(p, order)
            for (i, j), (v, g, h) in want.items():
                parts = [got[0][i, j]]
                if order >= 1:
                    parts.append(got[1][:, i, j])
                if order >= 2:
                    parts.append(got[2][:, :, i, j])
                _assert_parts_close(parts, (v, g, h)[:order + 1],
                                    (p, order, i, j))
