"""Parser and jet-evaluator tests, including the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzkit import expr
from lorentzkit.errors import DomainError, ExprSyntaxError, UnknownSymbol
from lorentzkit.expr import Binary, SymbolTable, Unary, compile, eval2, parse
from lorentzkit.jets import Jet2, compose

from conftest import fd_scalar_jet

TR = SymbolTable(["t", "r"])
XY = SymbolTable(["x", "y"])


class TestParsing:
    def test_ast_shape(self):
        e = parse("exp(2*t) - r^2", TR)
        assert isinstance(e, Binary) and e.op == "-"
        assert isinstance(e.left, Unary) and e.left.op == "exp"
        assert isinstance(e.right, Binary) and e.right.op == "^"

    def test_double_caret_is_syntax_error(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("x^^2", XY)
        assert exc.value.position == 2

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol) as exc:
            parse("sin(q)", TR)
        assert exc.value.name == "q"

    def test_abs_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse("abs(x)", XY)

    def test_power_right_associative(self):
        e = parse("x^2^3", XY)
        assert eval2(e, [2.0, 0.0]).value == 2.0 ** 8

    def test_precedence(self):
        e = parse("2*x + y*3^2", XY)
        assert eval2(e, [1.0, 1.0]).value == pytest.approx(11.0)

    def test_unary_minus_binds_looser_than_power(self):
        assert eval2(parse("-x^2", XY), [3.0, 0.0]).value == -9.0

    def test_caret_coordinate_names(self):
        table = SymbolTable(["x^1", "x^2"])
        e = parse("exp(x^1) + x^2^2", table)
        j = eval2(e, [0.0, 3.0])
        assert j.value == pytest.approx(10.0)
        assert j.grad[0] == pytest.approx(1.0)

    def test_immutability(self):
        e = parse("x + y", XY)
        with pytest.raises(Exception):
            e.op = "*"


class TestParseMemo:
    def test_a_repeated_parse_shares_one_tree(self):
        assert parse("exp(2*t) - r^2", TR) is parse("exp(2*t) - r^2",
                                                   SymbolTable(["t", "r"]))

    def test_coordinate_order_is_part_of_the_key(self):
        a = parse("r", SymbolTable(["t", "r"]))
        b = parse("r", SymbolTable(["r", "t"]))
        assert (a.coord_index, b.coord_index) == (1, 0)
        assert parse("M", SymbolTable(["t"], ["M"])).coord_index is None
        with pytest.raises(UnknownSymbol):
            parse("M", SymbolTable(["t"]))

    @pytest.mark.parametrize("text, error, message", [
        ("sin(q)", UnknownSymbol, "undeclared symbol 'q'"),
        ("t +", ExprSyntaxError, "at offset 3: unexpected 'end of input'"),
        ("t $ r", ExprSyntaxError, "at offset 2: unexpected character '$'"),
        ("(t", ExprSyntaxError, "at offset 2: expected ')'"),
    ])
    def test_errors_are_raised_on_every_call(self, text, error, message):
        for _ in range(3):
            with pytest.raises(error) as exc:
                parse(text, TR)
            assert str(exc.value) == message

    def test_the_memo_is_bounded(self):
        assert expr._parsed.cache_info().maxsize is not None


class TestEval2:
    def test_sinx_times_x_at_zero(self):
        j = eval2(parse("sin(x)*x", SymbolTable(["x"])), [0.0])
        assert j.value == 0.0
        assert j.grad[0] == 0.0
        assert j.hess[0, 0] == pytest.approx(2.0)

    def test_x2y(self):
        j = eval2(parse("x^2*y", XY), [2.0, 3.0])
        assert j.value == 12.0
        assert np.allclose(j.grad, [12.0, 4.0])
        assert np.allclose(j.hess, [[6.0, 4.0], [4.0, 0.0]])

    def test_exponential_unit_jet(self):
        table = SymbolTable(["x^1", "x^2", "x^3", "x^4"])
        j = eval2(parse("exp(x^1)", table), [0.0, 0, 0, 0])
        assert j.value == 1.0
        assert np.allclose(j.grad, [1, 0, 0, 0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(j.hess, expected)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval2(parse("log(x)", XY), [-1.0, 0.0])
        with pytest.raises(DomainError):
            eval2(parse("1/x", XY), [0.0, 1.0])
        with pytest.raises(DomainError):
            eval2(parse("x^0.5", XY), [-2.0, 0.0])

    def test_constant_subtrees_stay_floats(self):
        table = SymbolTable(["r"], ["M"])
        e = parse("2*M^2 + exp(M)/3", table)
        assert type(e.eval([4.0], {"M": 1.0})) is float
        j = eval2(e, [4.0], {"M": 1.0})
        assert j.value == pytest.approx(2.0 + np.e / 3.0)
        assert not j.grad.any() and not j.hess.any()

    def test_overflow_is_domain_error(self):
        table = SymbolTable(["t"], ["H"])
        e = parse("exp(2*H*t)", table)
        with pytest.raises(DomainError):
            e.eval([1.0], {"H": 1000.0})
        with pytest.raises(DomainError):
            eval2(e, [1.0], {"H": 1000.0})
        with pytest.raises(DomainError):
            eval2(parse("t^(0-1)", table), [0.0], {"H": 1.0})

    def test_params(self):
        table = SymbolTable(["r"], ["M"])
        j = eval2(parse("1 - 2*M/r", table), [4.0], {"M": 1.0})
        assert j.value == pytest.approx(0.5)
        assert j.grad[0] == pytest.approx(2.0 / 16.0)

    def test_float_eval_matches_jet_value(self):
        e = parse("exp(t)*sin(r) + t^3/(1 + r^2)", TR)
        p = [0.3, 1.2]
        assert e.eval(p, {}) == pytest.approx(eval2(e, p).value, rel=1e-14)


def _random_poly(rng, names, degree=4):
    terms = []
    for _ in range(rng.integers(2, 6)):
        coef = rng.uniform(-3, 3)
        term = [f"{coef:.6f}"]
        for nm in names:
            k = int(rng.integers(0, degree + 1))
            if k:
                term.append(f"{nm}^{k}")
        terms.append("*".join(term))
    return " + ".join(terms)


class TestFiniteDifferenceOracle:
    def test_random_polynomials(self):
        """Gradient/Hessian agree with central differences to 1e-6 relative."""
        rng = np.random.default_rng(42)
        for nvars in (1, 2, 3, 4):
            names = [f"u{i}" for i in range(nvars)]
            table = SymbolTable(names)
            for _ in range(8):
                text = _random_poly(rng, names)
                e = parse(text, table)
                p = rng.uniform(-1.0, 1.0, size=nvars)
                jet = eval2(e, p)
                _, g_fd, h_fd = fd_scalar_jet(lambda q: e.eval(q.tolist(), {}), p)
                scale = 1.0 + np.abs(g_fd).max()
                assert np.abs(jet.grad - g_fd).max() <= 1e-6 * scale
                hscale = 1.0 + np.abs(h_fd).max()
                assert np.abs(jet.hess - h_fd).max() <= 1e-5 * hscale

    def test_transcendental_against_fd(self):
        table = SymbolTable(["x", "y"])
        e = parse("exp(x*y)*cos(x) + sinh(y)/(2 + tanh(x))", table)
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = rng.uniform(-0.8, 0.8, size=2)
            jet = eval2(e, p)
            _, g_fd, h_fd = fd_scalar_jet(lambda q: e.eval(q.tolist(), {}), p, h=1e-5)
            assert np.abs(jet.grad - g_fd).max() <= 1e-6 * (1 + np.abs(g_fd).max())
            assert np.abs(jet.hess - h_fd).max() <= 1e-4 * (1 + np.abs(h_fd).max())


@st.composite
def _inner_outer(draw):
    inner = draw(st.sampled_from(["x + y", "x*y", "x - 2*y", "x*x + y"]))
    outer = draw(st.sampled_from(["sin(u)", "exp(u)", "u^3", "cosh(u)"]))
    x = draw(st.floats(-1.5, 1.5, allow_nan=False))
    y = draw(st.floats(-1.5, 1.5, allow_nan=False))
    return inner, outer, x, y


class TestChainRule:
    @settings(max_examples=100, deadline=None)
    @given(_inner_outer())
    def test_composition_consistency(self, case):
        """eval2(f . g) equals the kernel of f pulled back through the jet
        of g by jets.compose."""
        inner, outer, x, y = case
        xy = SymbolTable(["x", "y"])
        u = SymbolTable(["u"])
        g_expr = parse(inner, xy)
        f_expr = parse(outer, u)
        composed = parse(outer.replace("u", f"({inner})"), xy)
        direct = eval2(composed, [x, y])
        g_jet = eval2(g_expr, [x, y])
        kernel = compile((f_expr,), 1, order=2, shape=(), slots=[(0,)])
        seeded = compose(kernel(np.array([g_jet.value])), [g_jet])
        assert direct.value == pytest.approx(seeded.value, abs=1e-12, rel=1e-12)
        assert np.allclose(direct.grad, seeded.grad, atol=1e-12, rtol=1e-12)
        assert np.allclose(direct.hess, 0.5 * (seeded.hess + seeded.hess.T),
                           atol=1e-11, rtol=1e-11)

    def test_two_variable_outer(self):
        """An outer kernel in two variables, on two inner jets, at a point
        and in a batch."""
        xy = SymbolTable(["x", "y"])
        uw = SymbolTable(["u", "w"])
        inner = ["x*y + sin(x)", "exp(0.3*x) - y^2"]
        outer = "u^2*w + sin(u*w)"
        composed = parse(outer.replace("u", f"({inner[0]})")
                         .replace("w", f"({inner[1]})"), xy)
        kernel = compile((parse(outer, uw),), 2, order=2, shape=(),
                         slots=[(0,)])
        points = np.random.default_rng(12).uniform(-1.2, 1.2, size=(5, 2))
        batch_inner = [compile((parse(t, xy),), 2, order=2, shape=(),
                               slots=[(0,)])(points) for t in inner]
        batch = compose(kernel(np.stack([j[0] for j in batch_inner], axis=-1)),
                        [Jet2(*j) for j in batch_inner])
        for k, p in enumerate(points):
            direct = eval2(composed, p)
            jets = [eval2(parse(t, xy), p) for t in inner]
            seeded = compose(kernel(np.array([j.value for j in jets])), jets)
            assert direct.value == pytest.approx(seeded.value, abs=1e-12,
                                                 rel=1e-12)
            assert np.allclose(direct.grad, seeded.grad, atol=1e-12, rtol=1e-12)
            assert np.allclose(direct.hess, seeded.hess, atol=1e-11, rtol=1e-11)
            # numpy and math may round sin and exp apart in the last bit
            assert batch.value[k] == pytest.approx(seeded.value, rel=1e-14)
            assert np.allclose(batch.grad[k], seeded.grad, atol=1e-14,
                               rtol=1e-14)
            assert np.allclose(batch.hess[k], seeded.hess, atol=1e-14,
                               rtol=1e-14)
