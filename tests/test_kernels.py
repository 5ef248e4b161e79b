"""Compiled jet kernels against the tree-walking Jet2 reference
(`jet_reference`), their module-wide cache and their finiteness check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzkit import catalog, expr
from lorentzkit.errors import DomainError
from lorentzkit.expr import (FUNCTIONS, Binary, Num, Sym, SymbolTable, Unary,
                             compile)
from lorentzkit.metric import ExprMetricField

from jet_reference import Jet2, jet_eval

PARAMS = {"a": 0.7, "b": -1.3}

# --- random trees of the full grammar ------------------------------------------

_leaves = st.one_of(
    st.sampled_from([Sym("x", 0), Sym("y", 1), Sym("a", None), Sym("b", None)]),
    st.floats(-3.0, 3.0, allow_nan=False).map(Num),
    st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(Num),
)


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg",) + FUNCTIONS), children),
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        # integer, real and coordinate-dependent exponents
        st.builds(lambda a, k: Binary("^", a, Num(float(k))), children,
                  st.integers(-3, 4)),
        st.builds(lambda a, c: Binary("^", a, Num(c)), children,
                  st.sampled_from([0.5, 1.5, -0.5, 2.5])),
        st.builds(lambda a, b: Binary("^", a, b), children, children),
    )


trees = st.recursive(_leaves, _extend, max_leaves=10)
coordinate = st.floats(-3.0, 3.0, allow_nan=False)
points = st.tuples(coordinate, coordinate)


def _reference(e, xs, order):
    """jet_eval on Jet2 seeds (order 1 for order 0): (value, grad, hess)
    or the exception it raised. A batch runs under numpy's raising
    errstate, as the kernel's batch does."""
    seeds = [Jet2.variable(x, i, 2, max(order, 1)) for i, x in enumerate(xs)]
    state = "raise" if isinstance(xs[0], np.ndarray) else "ignore"
    try:
        with np.errstate(divide=state, over=state, invalid=state):
            jet = jet_eval(e, seeds, PARAMS)
    except (DomainError, ValueError) as exc:
        return exc
    if not isinstance(jet, Jet2):
        jet = Jet2.constant(np.broadcast_to(jet, np.shape(xs[0])) + 0.0
                            if isinstance(xs[0], np.ndarray) else jet, 2)
    return jet.value, jet.grad, jet.hess


def _compiled(e, pts, order):
    try:
        return compile((e,), 2, PARAMS, order, shape=(), slots=[(0,)])(pts)
    except DomainError as exc:
        return exc


# Jet2 forms f'' only at order 2, as the kernel does; at order 0 the
# reference still runs Jet2 at order 1, whose f' can overflow or divide by
# an underflowed power where the value alone is finite. Nothing else lets a
# kernel pass where Jet2 fails.
def _kernel_may_pass(exc, order):
    return order == 0 and isinstance(exc.__cause__, ArithmeticError)


def _agree(got, want, order):
    """Value, gradient and the Hessian's upper triangle (the kernel mirrors
    it) to 1e-12 relative to each part's largest entry. A batched kernel
    leads with its batch axis, which the reference carries last."""
    iu = np.triu_indices(2)
    value, grad, hess = (part if part is None or np.ndim(got[0]) == 0
                         else np.moveaxis(part, 0, -1) for part in got)
    parts = [(value, want[0])]
    if order >= 1:
        parts.append((grad, want[1]))
    if order >= 2:
        assert np.array_equal(hess, hess.swapaxes(0, 1))
        parts.append((hess[iu], want[2][iu]))
    for g, w in parts:
        w = np.asarray(w, dtype=float)
        scale = np.abs(w).max() if w.size else 0.0
        assert np.all(np.abs(g - w) <= 1e-12 * scale), (g, w)


def _check_against_reference(e, pts, order):
    xs = list(pts.T) if pts.ndim > 1 else pts.tolist()
    want = _reference(e, xs, order)
    got = _compiled(e, pts, order)
    if isinstance(want, Exception):
        if isinstance(got, Exception):
            assert isinstance(got, DomainError)
            if isinstance(want, DomainError) and (want.__cause__ is None
                                                  or order == 2):
                # an explicit domain check, or at order 2 (where both form
                # the same factors) a floating-point error: the same one,
                # the same message
                assert str(got) == str(want)
        else:
            assert isinstance(want, DomainError) \
                and _kernel_may_pass(want, order), \
                (want, e)
        return
    finite = all(np.all(np.isfinite(part)) for part in want[:order + 1])
    if not finite:
        assert isinstance(got, DomainError), e
        return
    assert not isinstance(got, Exception), (got, e)
    _agree(got, want, order)


@settings(max_examples=300, deadline=None)
@given(trees, points, st.lists(points, min_size=2, max_size=4))
def test_compiled_jets_match_the_jet2_reference(e, point, batch):
    for order in (0, 1, 2):
        _check_against_reference(e, np.array(point), order)
        _check_against_reference(e, np.array(batch), order)


def test_division_by_a_subnormal_names_its_operation():
    """x / 5e-324, once drawn by the property test above: 1/5e-324
    overflows while the divisor is folded, and the kernel and the Jet2
    reference both report it as an error of the division, at a point and in
    a batch, at every order."""
    e = Binary("/", Sym("x", 0), Num(5e-324))
    for pts in (np.array([0.0, 0.0]), np.array([[1.0, 0.0], [1.0, 0.0]])):
        xs = list(pts.T) if pts.ndim > 1 else pts.tolist()
        for order in (0, 1, 2):
            for exc in (_compiled(e, pts, order), _reference(e, xs, order)):
                assert isinstance(exc, DomainError)
                assert str(exc) == "'/': 1/5e-324 overflows"


def test_shared_subtrees_are_emitted_once():
    table = SymbolTable(["x", "y"])
    e = expr.parse("sin(x*y) + cos(x*y) * sin(x*y)", table)
    source = compile((e,), 2, order=2).source
    assert source.count("sin(") == 1 and source.count("cos(") == 1


def test_constants_fold_and_zeros_are_not_formed():
    table = SymbolTable(["t", "r"], ["M"])
    e = expr.parse("(1 + 2*M) * r^2", table)
    source = compile((e,), 2, {"M": 0.5}, order=2).source
    assert "M" not in source and "2.0 * 0.5" not in source
    # r^2 has no t derivatives: nothing is written to them
    value, grad, hess = compile((e,), 2, {"M": 0.5}, order=2)(
        np.array([0.3, 1.5]))
    assert value == 2.0 * 2.25 and grad[0] == 0.0 and grad[1] == 2.0 * 3.0
    assert hess[0, 0] == hess[0, 1] == 0.0 and hess[1, 1] == 4.0


# --- the module-wide cache ------------------------------------------------------

def test_kernels_compile_once_per_structure_params_and_order(monkeypatch):
    built = []
    source = expr._Emitter.source

    def counting(self, exprs, slots, width):
        built.append((exprs, self.params, self.order))
        return source(self, exprs, slots, width)

    monkeypatch.setattr(expr._Emitter, "source", counting)
    expr._compiled.cache_clear()
    p = np.array([0.3, 0.2, -0.1, 0.4])
    fields = [catalog.load("desitter").field, catalog.load("desitter").field]
    jets = [[f.component_jets(p, order) for order in (0, 1, 2)]
            for f in fields]
    entries = tuple(fields[0].entries.values())
    assert [(params, order) for exprs, params, order in built
            if exprs == entries] == [({"H": 1.0}, k) for k in (0, 1, 2)]
    for a, b in zip(*jets):
        for x, y in zip(a, b):
            assert x is None and y is None or np.array_equal(x, y)

    h2 = catalog.load("desitter", H=2.0).field
    g2, dg2, _ = h2.component_jets(p, order=1)
    metric = [(params, order) for exprs, params, order in built
              if exprs == entries]
    assert ({"H": 2.0}, 1) in metric
    assert all(metric.count(k) == 1 for k in metric)
    assert not np.array_equal(g2, jets[0][1][0])
    assert not np.array_equal(dg2, jets[0][1][1])


# --- overflow: a point and a batch alike ----------------------------------------

def test_overflowing_derivatives_raise_at_a_point_and_in_a_batch():
    """exp(700 + 800 x) is finite at x = 0.011875 but its derivatives
    overflow: both a point and a batch of two raise DomainError."""
    table = SymbolTable(["t", "x", "y", "z"])
    entries = {(i, j): "0" for i in range(4) for j in range(i)}
    entries.update({(0, 0): "-1", (1, 1): "1 + 1e-300*exp(700 + 800*x)",
                    (2, 2): "1", (3, 3): "1"})
    field = ExprMetricField(table, entries)
    p = np.array([0.0, 0.011875, 0.0, 0.0])
    assert np.isfinite(field.component_jets(p, order=0)[0]).all()
    with pytest.raises(DomainError):
        field.component_jets(p, order=2)
    with pytest.raises(DomainError):
        field.component_jets(np.array([p, np.zeros(4)]), order=2)


@pytest.mark.parametrize("text, at_a_point, in_a_batch", [
    ("exp(x)", "exp: math range error", "exp: overflow encountered in exp"),
    ("x * y^2", "result is not finite",
     "'^': overflow encountered in multiply"),
    ("1e400 + x", "result is not finite", "result is not finite"),
])
def test_floating_point_errors_name_their_operation(text, at_a_point,
                                                    in_a_batch):
    """As Expr.eval does: math's message at a point, numpy's in a batch,
    after the operation's name. A point's float product overflows to inf
    silently, and the finiteness check names that."""
    e = expr.parse(text, SymbolTable(["x", "y"]))
    p = np.array([800.0, 1e300])
    for order in (0, 1, 2):
        kernel = compile((e,), 2, order=order)
        with pytest.raises(DomainError) as point:
            kernel(p)
        with pytest.raises(DomainError) as batch:
            kernel(np.array([p, [0.1, 0.2]]))
        assert (str(point.value), str(batch.value)) == (at_a_point,
                                                        in_a_batch)


def test_order1_jets_form_no_second_derivative_factors():
    """y^-0.5 at y = 4.88e-178: log's f'' is -1/y^2, and y^2 underflows to
    0. An order-1 Jet2 never forms it, so it returns the order-1 kernel's
    finite jets, at a point and in a batch; order 2 still raises."""
    e = expr.parse("y^-0.5 * cosh(-1.12)", SymbolTable(["x", "y"]))
    p = np.array([0.3, 4.88e-178])
    for pts in (p, np.array([p, [0.1, 2.0]])):
        want = _reference(e, list(pts.T) if pts.ndim > 1 else pts.tolist(),
                          1)
        assert not isinstance(want, Exception), want
        got = _compiled(e, pts, 1)
        assert np.all(np.isfinite(want[1])) and want[2] is None
        _agree(got, want, 1)
        assert isinstance(_reference(e, list(pts.T) if pts.ndim > 1
                                     else pts.tolist(), 2), DomainError)


# --- kernels against Jet2 on inputs the random trees seldom draw -------------

def test_large_integer_powers_compile_by_repeated_squaring():
    """x^100000 and x^1000000 take a few dozen products, in the kernel and
    in Jet2 alike, and agree with each other."""
    table = SymbolTable(["x", "y"])
    for text in ("1 + 0.5*x^100000", "x^1000000"):
        e = expr.parse(text, table)
        kernel = compile((e,), 2, order=2, shape=(), slots=[(0,)])
        assert len(kernel.source.splitlines()) < 200
        for pts in (np.array([1.0 - 1e-6, 0.2]),
                    np.array([[1.0 - 1e-6, 0.2], [1.0 + 1e-7, -0.4]])):
            _check_against_reference(e, pts, 2)
            assert not isinstance(_compiled(e, pts, 2), Exception)


def test_negative_zero_numbers_share_the_kernel_of_zero():
    """Num(-0.0) is Num(0.0): the kernel cached for one says what
    Expr.eval says for the other."""
    assert str(Num(-0.0).value) == "0.0"
    expr._compiled.cache_clear()
    for zero in (-0.0, 0.0):
        e = Unary("sqrt", Binary("^", Num(zero), Num(-0.5)))
        with pytest.raises(DomainError) as want:
            e.eval([0.3, 0.2], PARAMS)
        with pytest.raises(DomainError) as got:
            compile((e,), 2, PARAMS, order=2)(np.array([0.3, 0.2]))
        assert str(got.value) == str(want.value)


def test_jet2_forms_cosh_before_sinh():
    """cosh(x^-2) overflows at x = 0.001: in cosh first, not in sinh,
    in the kernel and in Jet2."""
    e = expr.parse("cosh(x^-2)", SymbolTable(["x", "y"]))
    pts = np.array([[0.001, 0.0], [0.0005, 1.0]])
    _check_against_reference(e, pts, 2)
    assert str(_compiled(e, pts, 2)) == "cosh: overflow encountered in cosh"


def test_compiling_hashes_each_node_a_bounded_number_of_times(monkeypatch):
    """Node hashes are cached when a node is built, so compiling a chain
    `x*y + x*y + ...` hashes a bounded number of nodes per node of the tree
    (a recursive hash makes the count grow with the square of its size),
    while equality stays structural."""
    table = SymbolTable(["x", "y"])
    per_node = []
    for terms in (25, 99):
        e = expr.parse(" + ".join(["x*y"] * terms), table)
        calls = [0]
        for cls in (Num, Sym, Unary, Binary):
            def counting(self, original=cls.__hash__):
                calls[0] += 1
                return original(self)
            monkeypatch.setattr(cls, "__hash__", counting)
        expr._compiled.cache_clear()
        compile((e,), 2, order=2, shape=(), slots=[(0,)])
        monkeypatch.undo()
        per_node.append(calls[0] / (4 * terms - 1))
    assert max(per_node) <= 2.0
    # parses are memoized by text and names: an unused parameter name
    # gives a second, separately built tree
    again = expr.parse(" + ".join(["x*y"] * 99),
                       SymbolTable(["x", "y"], ["unused"]))
    assert again == e and hash(again) == hash(e) and again is not e
    assert Binary("+", Sym("x", 0), Num(1.0)) != \
        Binary("+", Sym("x", 0), Num(2.0))


# --- the cutoff: the bumps' internal operation ----------------------------------

CUTOFF = Unary("cutoff", Sym("u", 0))


def _quintic(u):
    """chi(u), chi'(u) and chi''(u): the C^2 ramp's formulas, written out."""
    z = np.clip((u - 0.25) / 0.75, 0.0, 1.0)
    s = z * z * z * (10.0 - 15.0 * z + 6.0 * z * z)
    ds = 30.0 * z * z * ((1.0 - z) * (1.0 - z))
    d2s = 60.0 * z * (1.0 - 3.0 * z + 2.0 * z * z)
    c = 1.0 / 0.75
    return 1.0 - s, -ds * c, -d2s * c * c


def _cutoff_kernel(order):
    return compile((CUTOFF,), 1, order=order, shape=(), slots=[(0,)])


@pytest.mark.parametrize("order", [0, 1, 2])
def test_cutoff_kernels_are_the_quintic_ramp(order):
    """At seeded u on the plateau, on the ramp and beyond it, at a point and
    in a batch, bit for bit."""
    rng = np.random.default_rng(18)
    us = np.concatenate([rng.uniform(0.0, 0.25, 4), rng.uniform(0.25, 1.0, 8),
                         rng.uniform(1.0, 3.0, 4)])
    kernel = _cutoff_kernel(order)
    batch = kernel(us[:, None])
    for k, u in enumerate(us):
        one = kernel(np.array([u]))
        for got, want in zip(one[:order + 1], _quintic(u)):
            assert got.reshape(-1)[0] == want
        for got, want in zip(batch[:order + 1], _quintic(us)):
            assert got.reshape(-1, len(us))[0, k] == want[k]


def test_cutoff_plateau_support_and_ramp_derivatives():
    """Exactly (1, 0, 0) for u <= 1/4 and exactly 0 for u >= 1; on the ramp
    the derivatives pass central differences."""
    kernel = _cutoff_kernel(2)
    for u in (0.0, 0.1, 0.25):
        value, grad, hess = kernel(np.array([u]))
        assert (float(value), float(grad[0]), float(hess[0, 0])) == (1.0, 0.0, 0.0)
    for u in (1.0, 1.5, 40.0):
        value, grad, hess = kernel(np.array([u]))
        assert (float(value), float(grad[0]), float(hess[0, 0])) == (0.0, 0.0, 0.0)
    h = 1e-5
    for u in np.linspace(0.3, 0.95, 8):
        value, grad, hess = (float(a.reshape(-1)[0])
                             for a in kernel(np.array([u])))
        up, down = (kernel(np.array([u + s]))[:2] for s in (h, -h))
        assert grad == pytest.approx((float(up[0]) - float(down[0])) / (2 * h),
                                     rel=1e-8, abs=1e-10)
        assert hess == pytest.approx(
            (float(up[1][0]) - float(down[1][0])) / (2 * h), rel=1e-7,
            abs=1e-9)
