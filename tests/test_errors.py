"""The one error contract of batched passes: `errors.batch_or_replay`."""

import ast
from pathlib import Path

import numpy as np
import pytest

from lorentzkit.errors import DomainError, batch_or_replay
from lorentzkit.expr import SymbolTable
from lorentzkit.metric import ExprMetricField


def _logging(fn, sizes):
    def logged(*stacks):
        sizes.append(len(stacks[0]))
        return fn(*stacks)
    return logged


def test_a_batch_that_holds_is_one_call():
    sizes = []
    x = np.arange(6.0).reshape(3, 2)
    out = batch_or_replay(_logging(lambda a: a.sum(axis=1), sizes), x)
    assert sizes == [3]
    assert np.array_equal(out, [1.0, 5.0, 9.0])


def test_rows_are_replayed_as_batches_of_one():
    """A failing batch runs again on each row as a batch of one (a slice,
    with its leading axis), and the rows' results are joined."""
    sizes, shapes = [], []

    def fn(a, b):
        shapes.append((a.shape, b.shape))
        if len(a) > 1:
            raise ValueError("batch only")
        return a * b[:, None]

    a, b = np.ones((3, 2)), np.array([1.0, 2.0, 3.0])
    out = batch_or_replay(_logging(fn, sizes), a, b)
    assert sizes == [3, 1, 1, 1]
    assert shapes[1:] == [((1, 2), (1,))] * 3
    assert np.array_equal(out, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])


def test_tuple_results_join_column_by_column_and_none_stays_none():
    def fn(a):
        if len(a) > 1:
            raise ArithmeticError
        return a, None, 2.0 * a[:, :1]

    a = np.arange(4.0).reshape(2, 2)
    got = batch_or_replay(fn, a)
    assert isinstance(got, tuple) and len(got) == 3
    assert np.array_equal(got[0], a)
    assert got[1] is None
    assert np.array_equal(got[2], [[0.0], [4.0]])


def test_the_first_failing_row_raises_its_own_error():
    """The batch fails with numpy's message; the replay raises the error of
    the first row that fails (row 2, an overflow), at its point, math's,
    and not the later row's (row 3, a square root of -1)."""
    table = SymbolTable(["t", "x"])
    f = ExprMetricField(table, {(0, 0): "-1", (1, 0): "0",
                                (1, 1): "sqrt(2 - t) + exp(800*x)"})
    points = np.array([[0.0, -1.0], [0.0, 0.5], [0.0, 2.0], [3.0, 0.0]])
    with pytest.raises(DomainError) as batched:
        f.value(points)
    with pytest.raises(DomainError) as alone:
        f.value(points[2])
    with pytest.raises(DomainError) as replayed:
        batch_or_replay(f.value, points)
    assert str(replayed.value) == str(alone.value) == "exp: math range error"
    assert str(batched.value) != str(alone.value)


def test_an_error_outside_the_contract_is_not_replayed():
    calls = []

    def fn(a):
        calls.append(len(a))
        raise KeyError("not a computation error")

    with pytest.raises(KeyError):
        batch_or_replay(fn, np.zeros((3, 2)))
    assert calls == [3]


def _catches_both(handler: ast.ExceptHandler) -> bool:
    """Whether an except clause names LorentzkitError and ArithmeticError
    together, the signature of a bespoke replay."""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    names = {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None)
             for k in kinds}
    return {"LorentzkitError", "ArithmeticError"} <= names


def test_batch_or_replay_is_the_only_replay():
    """No module of the package but `errors` catches LorentzkitError
    together with ArithmeticError: a batched pass replays through
    `batch_or_replay`, not through a loop of its own."""
    package = Path(__file__).resolve().parents[1] / "src" / "lorentzkit"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None \
                    and _catches_both(node):
                found.append((path.name, node.lineno))
    assert len(list(package.glob("*.py"))) > 10
    assert [name for name, _ in found] == ["errors.py"]
