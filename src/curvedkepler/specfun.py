"""Gauss hypergeometric evaluation and complex-parameter helpers.

The separated bound-state factors are built from 2F1(alpha, beta; gamma; t)
with beta a nonpositive integer, so the generic case here is a terminating
series of small degree; the full series is kept for cross-checks inside
the unit disc.  Powers with complex exponents use the principal branch
throughout the package (log cut on the negative real axis, arg in
(-pi, pi]), which fixes the phase of the wave functions once and for all.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryRootWarning, ConvergenceError, DomainError, ParameterError
from .spaces import Model, SpaceTag

__all__ = [
    "Hyp2F1Params",
    "hyp2f1",
    "hyp2f1_derivative",
    "spectral_root",
]

# Series parameters: termination test and hard cap.
SERIES_RELATIVE_CUTOFF = 1e-16
SERIES_MAX_TERMS = 100_000

# Slack for recognizing integer-valued complex parameters.
INTEGER_DETECTION_TOL = 1e-12


def _as_nonpositive_int(z: complex) -> int | None:
    """Return n >= 0 with z == -n when z is a nonpositive integer, else None."""
    if abs(z.imag) > INTEGER_DETECTION_TOL:
        return None
    r = round(z.real)
    if r > 0 or abs(z.real - r) > INTEGER_DETECTION_TOL:
        return None
    return -int(r)


@dataclass(frozen=True)
class Hyp2F1Params:
    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self) -> None:
        if _as_nonpositive_int(self.gamma) is not None:
            raise ParameterError(f"gamma={self.gamma} is a nonpositive integer")

    @property
    def polynomial_degree(self) -> int | None:
        """Degree of the terminating series, or None if it does not terminate.

        Termination happens when alpha or beta is a nonpositive integer;
        with both, the series stops at the smaller modulus.
        """
        na = _as_nonpositive_int(self.alpha)
        nb = _as_nonpositive_int(self.beta)
        candidates = [n for n in (na, nb) if n is not None]
        return min(candidates) if candidates else None

    def shifted(self, by: int = 1) -> "Hyp2F1Params":
        """Parameters of the contiguous derivative, all raised by ``by``."""
        return Hyp2F1Params(self.alpha + by, self.beta + by, self.gamma + by)


def hyp2f1(params: Hyp2F1Params, t):
    """Evaluate 2F1(alpha, beta; gamma; t), scalar or elementwise on arrays.

    Terminating cases sum the finite series by the rising-factorial
    recurrence (valid for any t); otherwise the power series is summed
    inside |t| < 1 until terms fall below 1e-16 of the partial sum.
    """
    scalar = np.isscalar(t) or isinstance(t, complex)
    tt = np.asarray(t, dtype=complex)
    a, b, g = params.alpha, params.beta, params.gamma
    degree = params.polynomial_degree

    total = np.ones_like(tt)
    term = np.ones_like(tt)
    if degree is not None:
        for j in range(degree):
            term = term * ((a + j) * (b + j) / ((g + j) * (1 + j))) * tt
            total = total + term
    else:
        if np.max(np.abs(tt)) >= 1.0:
            raise DomainError("series requires |t| < 1 for non-terminating parameters")
        converged = False
        for j in range(SERIES_MAX_TERMS):
            term = term * ((a + j) * (b + j) / ((g + j) * (1 + j))) * tt
            total = total + term
            if np.max(np.abs(term)) <= SERIES_RELATIVE_CUTOFF * np.max(np.abs(total)):
                converged = True
                break
        if not converged:
            raise ConvergenceError("hypergeometric series hit the term cap")
    return complex(total[()]) if scalar else total


def hyp2f1_derivative(params: Hyp2F1Params, t, order: int = 1):
    """First or second t-derivative of 2F1 via the contiguous relation.

    d/dt F(a,b;g;t) = (a b / g) F(a+1, b+1; g+1; t), applied once or
    twice.  A vanishing prefactor short-circuits to exact zero without
    touching the shifted series (whose parameters may fall outside the
    terminating case).
    """
    if order == 1:
        c = params.alpha * params.beta / params.gamma
        if c == 0:
            return 0j if np.isscalar(t) else np.zeros(np.shape(t), dtype=complex)
        return c * hyp2f1(params.shifted(1), t)
    if order == 2:
        a, b, g = params.alpha, params.beta, params.gamma
        c = a * b * (a + 1) * (b + 1) / (g * (g + 1))
        if c == 0:
            return 0j if np.isscalar(t) else np.zeros(np.shape(t), dtype=complex)
        return c * hyp2f1(params.shifted(2), t)
    raise ParameterError(f"derivative order must be 1 or 2, got {order}")


def pow_arr(base: np.ndarray, exponent: complex) -> np.ndarray:
    """Principal-branch power base**exponent, elementwise.

    Real dtype input is promoted to complex first so negative reals land
    on the arg = +pi side of the cut.  A zero base gives zero for
    Re(exponent) > 0 and is a domain error otherwise (including 0**0).
    """
    zb = np.asarray(base, dtype=complex)
    zero = zb == 0
    if np.any(zero):
        if complex(exponent).real <= 0:
            raise DomainError("0 cannot be raised to an exponent with Re <= 0")
        out = np.zeros_like(zb)
        nz = ~zero
        out[nz] = np.exp(exponent * np.log(zb[nz]))
        return out
    return np.exp(exponent * np.log(zb))


def spectral_root(space: SpaceTag, e: float, k: int, branch: int) -> complex:
    """Closed-form value of the quantization square roots.

    For principal number k the two roots entering the factor exponents
    evaluate to (k + branch*e/k)/2 on H3 and (k + branch*i*e/k)/2 on S3,
    with branch in {+1, -1}.  The returned value squares to
    1/4 + (e - eps)/2 resp. 1/4 + (eps - i e)/2 and its analogues.
    """
    if branch not in (1, -1):
        raise ParameterError("branch must be +1 or -1")
    if k < 1:
        raise DomainError("principal number k must be >= 1")
    unit = 1j if space.model is Model.S3 else 1.0
    root = complex((k + branch * unit * e / k) / 2.0)
    if root.real == 0.0:
        warnings.warn("spectral root has Re = 0 (bound-regime boundary)", BoundaryRootWarning)
    return root
