"""Pointwise multilinear algebra: tensor values, index moves, contraction.

Dense storage throughout; chart dimensions stay small (n <= 6) so there is
nothing to gain from symmetry-aware layouts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularMetric, SlotError

UPPER = "upper"
LOWER = "lower"

RCOND_FLOOR = 1e-12


def _factor(g: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(inverse, rcond, eigenvalues) of a symmetric matrix from one eigh.

    The singular values of a symmetric matrix are the moduli of its
    eigenvalues, so rcond is the usual reciprocal condition number. Raises
    SingularMetric when it drops below RCOND_FLOOR (a NaN entry gives 0):
    degenerate metrics must fail loudly rather than poison downstream
    curvature.
    """
    lam, q = np.linalg.eigh(g)
    mag = np.abs(lam)
    big = mag.max()
    rcond = float(mag.min() / big) if big > 0 else 0.0
    if rcond < RCOND_FLOOR:
        raise SingularMetric(
            f"metric value nearly degenerate (rcond={rcond:.3e})")
    return (q / lam) @ q.T, rcond, lam


def invert_metric(g: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert a symmetric matrix, refusing near-degenerate input.

    Returns (inverse, rcond); raises SingularMetric as `_factor` does.
    """
    g_inv, rcond, _ = _factor(g)
    return g_inv, rcond


@dataclass(frozen=True)
class MetricValue:
    """A metric evaluated at one point, with its inverse and index."""

    g: np.ndarray
    g_inv: np.ndarray
    index: int
    rcond: float

    @staticmethod
    def from_matrix(g: np.ndarray) -> "MetricValue":
        g = np.asarray(g, dtype=float)
        # np.allclose(g, g.T, atol=1e-12) without its overhead; NaN fails
        if not np.all(np.abs(g - g.T) <= 1e-12 + 1e-5 * np.abs(g.T)):
            raise SingularMetric("metric value not symmetric")
        g = 0.5 * (g + g.T)
        g_inv, rcond, lam = _factor(g)
        return MetricValue(g, g_inv, int(np.sum(lam < 0.0)), rcond)

    @property
    def dim(self) -> int:
        return self.g.shape[0]

    @property
    def lorentzian(self) -> bool:
        return self.index == 1

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
