"""Gauss hypergeometric evaluation and the principal-branch power kernel.

The separated bound-state factors are built from 2F1(alpha, beta; gamma; t)
with beta a nonpositive integer, so the generic case here is a terminating
series of small degree; the full series is kept for cross-checks inside
the unit disc.

The powers t^a (1-t)^b in front of each series come from one kernel,
:func:`power_product`: one exponential of a log t + b log(1-t), with each
logarithm taken as the real pair (log|z|, arg z) and the exponential as
exp(Re)(cos Im + i sin Im), so no complex log or exp runs.  The branch is
the principal one throughout the package: log cut on the negative real
axis, arg in (-pi, pi], and a negative real base has arg = +pi whatever
the sign of its zero imaginary part.  That fixes the phase of the wave
functions once and for all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "Hyp2F1Params",
    "hyp2f1",
    "hyp2f1_derivative",
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

    total = term = 1.0 + 0j  # the first term makes both arrays
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
    return complex(total) if scalar else (total if degree != 0 else np.full(tt.shape, total))


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


def power_product(t, a: complex, b: complex = 0.0) -> np.ndarray:
    """t^a (1-t)^b on principal branches, elementwise, as one exponential.

    A zero exponent drops its factor (exactly 1, at a zero base too); a
    zero base gives 0 when the exponent has Re > 0 and is a domain error
    otherwise.  The module docstring has the arithmetic and the branch.
    """
    t = np.asarray(t, dtype=complex)
    re, im = np.zeros(t.shape), np.zeros(t.shape)
    zero = np.zeros(t.shape, dtype=bool)
    for w, z in ((complex(a), t), (complex(b), 1.0 - t if b != 0 else None)):
        if w == 0:
            continue
        hit = z == 0
        if hit.any():
            if w.real <= 0:
                raise DomainError("0 cannot be raised to an exponent with Re <= 0")
            zero |= hit
            z = np.where(hit, 1.0, z)
        log_abs = np.log(np.abs(z))
        arg = np.arctan2(z.imag + 0.0, z.real)
        re += w.real * log_abs - w.imag * arg
        im += w.real * arg + w.imag * log_abs
    # in place: keeps the peak memory of a 32768-point normalize grid
    # below that of the complex log and exp this replaces
    mag = np.exp(re, out=re)
    out = np.empty(t.shape, dtype=complex)
    np.multiply(mag, np.cos(im), out=out.real)
    np.multiply(mag, np.sin(im, out=im), out=out.imag)
    out[zero] = 0.0
    return out[()]


def pow_arr(base, exponent: complex) -> np.ndarray:
    """Principal-branch power base**exponent, elementwise.

    The one-factor case of :func:`power_product`, with the same rules;
    0**0 is a domain error here as well.
    """
    if exponent == 0 and np.any(np.asarray(base) == 0):
        raise DomainError("0 cannot be raised to an exponent with Re <= 0")
    return power_product(base, exponent)
