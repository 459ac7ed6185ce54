"""Exception types shared across the package, and the integer test of its parameter checks.

Every operation that can hit a singular locus, an invalid parameter
range, or a non-converging iteration raises one of these instead of
returning NaNs, so callers can distinguish "outside the model" from
"numerical accident".
"""

from __future__ import annotations

import numpy as np


class CurvedKeplerError(Exception):
    """Base class for all package errors."""


class DomainError(CurvedKeplerError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularLocusError(DomainError):
    """Point sits on a chart or metric singular locus."""


class ConstraintError(CurvedKeplerError):
    """Complex parabolic coordinates violate the conjugation constraint."""


class ParameterError(CurvedKeplerError, ValueError):
    """Invalid hypergeometric or state parameters."""


class ConvergenceError(CurvedKeplerError):
    """An iterative evaluation failed to converge within its budget."""


class BoundStateError(DomainError):
    """Requested state is not a normalizable bound state."""


class IntegrabilityError(ConvergenceError):
    """Normalization integral does not decay within the probed range."""


class IndeterminateCoordinateWarning(UserWarning):
    """A returned angle is indeterminate at a degenerate locus.

    The coordinate functions return a canonical representative (angle 0)
    and emit this warning instead of failing, since the underlying point
    is perfectly regular.
    """


def is_integer(x) -> bool:
    """Whether x is an int or a numpy integer; a bool is neither, though Python's bool subclasses int."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)
