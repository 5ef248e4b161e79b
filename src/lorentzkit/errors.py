"""Exception hierarchy for lorentzkit.

Every failure mode that callers are expected to handle gets its own class;
all inherit from LorentzkitError so `except LorentzkitError` catches the lot.
`batch_or_replay` (the one replay) keeps it for batched passes: a failing
batch is replayed point by point and raises its first failing point's error.
"""

import numpy as np


class LorentzkitError(Exception):
    pass


def batch_or_replay(fn, *stacks):
    """fn(*stacks) on stacks with a leading batch axis, in one call.

    When the batch raises a LorentzkitError, an ArithmeticError or a
    ValueError, each row runs again as a batch of one (row[None], on the
    kernels' point path: math's DomainError where a batch overflows), so
    the first failing row raises its own error. Results join along the
    batch axis, a tuple column by column (a None column stays None).
    """
    try:
        return fn(*stacks)
    except (LorentzkitError, ArithmeticError, ValueError):
        rows = [fn(*(s[None] for s in row)) for row in zip(*stacks)]
    if isinstance(rows[0], tuple):
        return tuple(None if col[0] is None else np.concatenate(col)
                     for col in zip(*rows))
    return np.concatenate(rows)


# --- expression layer -------------------------------------------------------

class ExprSyntaxError(LorentzkitError):
    """Malformed expression text; carries the character offset."""

    def __init__(self, position: int, message: str):
        self.position = position
        super().__init__(f"at offset {position}: {message}")


class UnknownSymbol(LorentzkitError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"undeclared symbol {name!r}")


class DomainError(LorentzkitError):
    """log/sqrt of a nonpositive argument, division by zero, and friends."""


# --- pointwise algebra ------------------------------------------------------

class SlotError(LorentzkitError):
    """Tensor slot out of range or variance mismatch."""


class SingularMetric(LorentzkitError):
    """Metric value is (numerically) degenerate; rcond below threshold."""


# --- metric-level geometry --------------------------------------------------

class OrientationError(LorentzkitError):
    """Designated time-orientation field fails to be timelike."""


class NotCausal(LorentzkitError):
    """A causal (timelike or null) vector was required."""


class FrameNotOrthonormal(LorentzkitError):
    pass


class InversionFailure(LorentzkitError):
    """Newton inversion of the exponential map failed at the requested radius."""


class StepFailure(LorentzkitError):
    """Integrator step size underflowed. Reports the last reached point; this
    is a numerical breakdown signal, not a statement about the spacetime."""

    def __init__(self, message: str, last_point=None, last_time=None):
        self.last_point = last_point
        self.last_time = last_time
        super().__init__(message)


class ToleranceExceeded(LorentzkitError):
    """A conserved quantity drifted beyond the requested tolerance."""


# --- submanifolds -----------------------------------------------------------

class DegenerateEmbedding(LorentzkitError):
    """Parametrization Jacobian loses rank."""


class NotSpacelike(LorentzkitError):
    """Induced metric is not positive definite at the queried point."""


class WrongCodimension(LorentzkitError):
    pass


class OrientationHintDegenerate(LorentzkitError):
    """Outward hint cannot distinguish the two null normal directions."""


# --- perturbation machinery -------------------------------------------------

class RadiusError(LorentzkitError):
    """Bump support does not fit inside the chart domain."""


class NotApplicable(LorentzkitError):
    """Construction preconditions not met at the marked point."""


class SupportNotContained(UserWarning):
    """Seminorm box does not contain the perturbation support (warning)."""


# --- catalog / input --------------------------------------------------------

class UnknownSpacetime(LorentzkitError):
    def __init__(self, name: str):
        super().__init__(f"no builtin spacetime named {name!r}")


class ParamError(LorentzkitError):
    pass


class SpacetimeFileError(LorentzkitError):
    """Problem in a spacetime definition file; carries the line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
