"""Second-order jets: (value, gradient, Hessian) carried together.

Every jet in the package is computed by a compiled kernel (`expr.compile`).
`Jet2` only carries the parts where fields meet: a scalar field's jet, a
chart's normal-coordinate jets, the inner jets a kernel is composed on.
`compose` is the one chain rule through inner variables: it pulls the jets
of a kernel in m variables back through m inner jets (bump cores on normal
coordinates, the cutoff on a squared radius, e^{2sf} on a conformal factor).

A jet is either at one point (a float value, gradient (n,), Hessian (n, n))
or at a batch of B points, with the batch axis first: value (B,), gradient
(B, n), Hessian (B, n, n). An order-1 jet carries no Hessian (`hess` is
None).

The helpers below are the domain checks the kernels share at a point and
in a batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def any_true(mask) -> bool:
    """Whether a domain check fails: a bool, or any element of a batch."""
    return mask.any() if isinstance(mask, np.ndarray) else mask


def first_bad(v, mask):
    """The value that fails the check `mask`: v itself, or the first batch
    element where the mask holds."""
    if isinstance(mask, np.ndarray):
        return np.broadcast_to(v, mask.shape)[mask][0]
    return v


def reciprocal(c: float) -> float:
    """1 / c for a divisor the kernels fold, refusing 0 (with the message
    of the kernels' own division check) and a c so small (subnormal) that
    1 / c overflows."""
    if c == 0:
        raise DomainError("division by zero")
    r = 1.0 / c
    if math.isinf(r):
        raise DomainError(f"'/': 1/{c!r} overflows")
    return r


@dataclass(slots=True)
class Jet2:
    """Value, gradient and (symmetric) Hessian of a scalar at a point, or at
    a batch of points (batch axis first)."""

    value: float | np.ndarray   # float, or shape (B,)
    grad: np.ndarray            # shape (n,) or (B, n)
    hess: np.ndarray | None     # (n, n) or (B, n, n), symmetric; None at order 1

    @staticmethod
    def constant(c, n: int, order: int = 2) -> "Jet2":
        """The constant c: a float, or a (B,) array for a batch."""
        lead = np.shape(c)
        return Jet2(c if lead else float(c), np.zeros(lead + (n,)),
                    np.zeros(lead + (n, n)) if order >= 2 else None)


def compose(kernel_jets, inner) -> Jet2:
    """The jet of F(y_1, ..., y_m) from F's kernel jets at the inner values
    and the m inner jets y_k, by the second-order chain rule:

        grad = sum_k F_k grad y_k
        hess = sum_kl F_kl grad y_k grad y_l^T + sum_k F_k hess y_k

    `kernel_jets` is what a one-expression kernel returns at the stacked
    inner values: value (), gradient (m,) and Hessian (m, m) at a point,
    each led by the batch axis (B,) in a batch, where an inner jet's
    constant parts may leave that axis out and broadcast. The result has
    the order of the kernel (a kernel gradient is required; order 1 without
    a Hessian). Sums run term by term, and each cross term is formed as
    g_k g_l^T + g_l g_k^T, so a point and a batch round alike and the
    Hessian is exactly symmetric. Products keep the batch innermost in
    memory, as kernel results do, so numpy loops along the batch, not n.
    """
    f, fg, fh = kernel_jets
    value = float(f) if np.ndim(f) == 0 else f
    grads = [y.grad for y in inner]
    products = [_times(fg[..., k, None], g) for k, g in enumerate(grads)]
    grad = sum(products[1:], products[0])
    if fh is None:
        return Jet2(value, grad, None)
    terms = []
    for k, a in enumerate(grads):
        for l in range(k, len(grads)):
            cross = _times(a[..., :, None], grads[l][..., None, :])
            if l != k:
                cross = cross + cross.swapaxes(-1, -2)
            terms.append(_times(fh[..., k, l, None, None], cross))
    terms += [_times(fg[..., k, None, None], y.hess)
              for k, y in enumerate(inner)]
    return Jet2(value, grad, sum(terms[1:], terms[0]))


# a * b, laid out with its first (batch) axis innermost in memory
_times = functools.partial(np.multiply, order="F")
