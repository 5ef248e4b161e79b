"""Pointwise multilinear algebra: tensor values, index moves, contraction.

Dense storage throughout; chart dimensions stay small (n <= 6) so there is
nothing to gain from symmetry-aware layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularMetric, SlotError

UPPER = "upper"
LOWER = "lower"

RCOND_FLOOR = 1e-12


def _factor(g: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(inverse, rcond, eigenvalues) of a symmetric matrix from one eigh, or
    of a stack (B, n, n) of them, with the batch axis leading every result.

    The singular values of a symmetric matrix are the moduli of its
    eigenvalues, so rcond is the usual reciprocal condition number. Raises
    SingularMetric when it drops below RCOND_FLOOR (a NaN entry gives 0), at
    the first such matrix of a stack: degenerate metrics must fail loudly
    rather than poison downstream curvature.
    """
    lam, q = np.linalg.eigh(g)
    if g.ndim == 2:
        # one matrix, on the geodesic right-hand side: Python floats beat
        # numpy reductions over n values
        mag = [abs(v) for v in lam.tolist()]
        big = max(mag)
        rcond = min(mag) / big if big > 0 and not math.isnan(sum(mag)) \
            else 0.0
        low = [rcond] if rcond < RCOND_FLOOR else []
        columns = lam
    else:
        mag = np.abs(lam)
        big = mag.max(axis=-1)
        rcond = np.divide(mag.min(axis=-1), big, out=np.zeros_like(big),
                          where=big > 0)
        low = rcond[rcond < RCOND_FLOOR]
        columns = lam[:, None, :]
    if len(low):
        raise SingularMetric(
            f"metric value nearly degenerate (rcond={low[0]:.3e})")
    return (q / columns) @ q.swapaxes(-1, -2), rcond, lam


def invert_metric(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert a symmetric matrix, refusing near-degenerate input.

    Returns (inverse, rcond); raises SingularMetric as `_factor` does.
    """
    g_inv, rcond, _ = _factor(g)
    return g_inv, rcond


@dataclass(frozen=True)
class MetricValue:
    """A metric evaluated at one point, with its inverse and index; from a
    stack (B, n, n), every field carries the batch axis."""

    g: np.ndarray
    g_inv: np.ndarray
    index: int
    rcond: float

    @staticmethod
    def from_matrix(g: np.ndarray) -> "MetricValue":
        g = np.asarray(g, dtype=float)
        gt = g.swapaxes(-1, -2)
        # np.allclose(g, g.T, atol=1e-12) without its overhead; NaN fails
        if not np.all(np.abs(g - gt) <= 1e-12 + 1e-5 * np.abs(gt)):
            raise SingularMetric("metric value not symmetric")
        g = 0.5 * (g + gt)
        g_inv, rcond, lam = _factor(g)
        index = np.sum(lam < 0.0, axis=-1)
        return MetricValue(g, g_inv, int(index) if g.ndim == 2 else index,
                           rcond)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    def inner(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(v @ self.g @ w)


@dataclass(frozen=True)
class TensorValue:
    """Dense tensor components plus a variance signature per slot."""

    components: np.ndarray
    variance: tuple[str, ...]

    def __post_init__(self):
        if self.components.ndim != len(self.variance):
            raise SlotError("variance length != tensor rank")
        for v in self.variance:
            if v not in (UPPER, LOWER):
                raise SlotError(f"bad variance {v!r}")

    @property
    def rank(self) -> int:
        return len(self.variance)

    @property
    def dim(self) -> int:
        return self.components.shape[0] if self.rank else 0


def move_index(m: MetricValue, t: TensorValue, slot: int, direction: str) -> TensorValue:
    """Raise or lower one slot by contracting with g or its inverse."""
    if not 0 <= slot < t.rank:
        raise SlotError(f"slot {slot} out of range for rank {t.rank}")
    if direction not in (UPPER, LOWER):
        raise SlotError(f"direction must be 'upper' or 'lower', got {direction!r}")
    if t.variance[slot] == direction:
        raise SlotError(f"slot {slot} already {direction}")
    mat = m.g if direction == LOWER else m.g_inv
    comps = np.tensordot(mat, t.components, axes=([1], [slot]))
    # tensordot puts the new index first; rotate it back into place
    comps = np.moveaxis(comps, 0, slot)
    variance = list(t.variance)
    variance[slot] = direction
    return TensorValue(comps, tuple(variance))


def contract(t: TensorValue, i: int, j: int) -> TensorValue:
    """Einstein contraction of an upper slot i with a lower slot j."""
    if i == j or not (0 <= i < t.rank and 0 <= j < t.rank):
        raise SlotError(f"bad contraction slots ({i}, {j})")
    if t.variance[i] != UPPER or t.variance[j] != LOWER:
        raise SlotError("contract needs variance (upper, lower); move indices first")
    comps = np.trace(t.components, axis1=i, axis2=j)
    variance = tuple(v for k, v in enumerate(t.variance) if k not in (i, j))
    if not variance:
        comps = np.asarray(comps, dtype=float)
    return TensorValue(comps, variance)
