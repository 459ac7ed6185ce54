"""Gauss hypergeometric evaluation and the principal-branch power kernel.

The separated bound-state factors are built from 2F1(alpha, beta; gamma; t)
with beta a nonpositive integer, so every series here terminates; both
evaluators refuse one that does not.  :func:`scaled_series` sums the
polynomial and its derivatives by Horner's rule with the growth |t|^n
split off, which is how the wave functions evaluate it.  It runs in the
dtype of its input: float64 when t is real and alpha, beta, gamma have
zero imaginary parts (every H3 state on the real H3 chart), complex128
otherwise; the radial functions of the spherical chart sum their series
through it too.  :func:`hyp2f1` sums the polynomial in complex arithmetic
by the rising-factorial recurrence; no runtime path calls it.

:func:`pow_arr` computes a power z^w as one exponential of w log z, with
the logarithm taken as the real pair (log|z|, arg z) and the exponential
as exp(Re)(cos Im + i sin Im), so no complex log or exp runs.  Its branch
is the principal one: log cut on the negative real axis, arg in
(-pi, pi], and a negative real base has arg = +pi whatever the sign of
its zero imaginary part.  As with :func:`hyp2f1`, no runtime path
calls it: it serves only ``operators.factor_derivatives`` (which no
suite calls), its own tests and the benchmark tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Hyp2F1Params",
    "hyp2f1",
    "scaled_series",
    "series_coefficients",
]

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


def hyp2f1(params: Hyp2F1Params, t) -> np.ndarray:
    """Evaluate a terminating 2F1(alpha, beta; gamma; t) elementwise, complex128 of t's shape.

    The finite series is summed by the rising-factorial recurrence, valid
    for any t; a scalar t gives a 0-d array.  Non-terminating parameters
    raise ParameterError, as in :func:`scaled_series`.
    """
    degree = params.polynomial_degree
    if degree is None:
        raise ParameterError("hyp2f1 needs a terminating series")
    tt = np.asarray(t, dtype=complex)
    a, b, g = params.alpha, params.beta, params.gamma
    total = term = 1.0 + 0j
    for j in range(degree):
        term = term * ((a + j) * (b + j) / ((g + j) * (1 + j))) * tt
        total = total + term
    return np.full(tt.shape, total)


def per_state(group, values) -> tuple:
    """The tuple values(x) over a level's members, each value an (n, 1) column."""
    return tuple(np.array(col)[:, None] for col in zip(*map(values, group)))


def series_coefficients(p: Hyp2F1Params, real: bool) -> np.ndarray:
    """c_0 .. c_n of a terminating 2F1 = sum c_j t^j, c_{j+1} = c_j (a+j)(b+j)/((g+j)(1+j)): float64
    from the parameters' real parts if ``real``, complex128 otherwise."""
    n = p.polynomial_degree
    if n is None:
        raise ParameterError("a terminating series is needed")
    a, b, g = (p.alpha.real, p.beta.real, p.gamma.real) if real else (p.alpha, p.beta, p.gamma)
    c = np.ones(n + 1, dtype=float if real else complex)
    for j in range(n):
        c[j + 1] = c[j] * ((a + j) * (b + j) / ((g + j) * (1 + j)))
    return c


def scaled_series(params: Sequence[Hyp2F1Params], t, order: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A level's terminating 2F1s and their first ``order`` derivatives, finite at any t, t stacked a row per series.

    Returns ``(rows, log_scale)`` with d^j F/dt^j = rows[j] exp(log_scale),
    elementwise.  Where |t| <= 1 the series is summed by Horner in t and
    log_scale is 0; where |t| > 1, by Horner in 1/t on the reversed
    coefficients, with log_scale = n log|t| for the row's degree n.  The
    rows are float64 when t is real and alpha, beta, gamma have zero
    imaginary parts, and complex128 otherwise; complex t is not copied.
    All rows run in one Horner pass: a series' coefficients are padded
    with zeros at the start of its Horner order, which compute exact
    zeros, and it keeps its own degree.
    """
    real = not (np.iscomplexobj(t) or any(p.alpha.imag or p.beta.imag or p.gamma.imag for p in params))
    tt = np.asarray(t, dtype=float if real else complex)
    coefficients = [series_coefficients(p, real) for p in params]
    degrees = [c.size - 1 for c in coefficients]
    top = max(degrees)
    # hi[p], lo[p]: the coefficients of Horner step p in 1/t and in t, a column per series; a series'
    # table has a row per c_i, with c_i and its first ``order`` derivative coefficients
    hi, lo = np.zeros((2, top + 1, order + 1, len(degrees), 1), dtype=tt.dtype)
    for s, (c, n) in enumerate(zip(coefficients, degrees)):
        table = hi[top - n :, :, s, 0]
        table[:, 0] = c
        for j in range(1, order + 1):
            table[: n + 1 - j, j] = table[1 : n + 2 - j, j - 1] * np.arange(1, n + 2 - j)
        lo[top - n :, :, s, 0] = table[::-1]
    degree = np.array(degrees)[:, None]
    size = np.maximum(np.abs(tt), 1.0)
    big = size > 1.0
    x = np.divide(1.0, tt, out=tt.copy(), where=big)
    rows = np.where(big, hi[0], lo[0])
    for p in range(1, top + 1):
        rows *= x
        rows += np.where(big, hi[p], lo[p])
    if top:
        # the phase (t/|t|)^n of the split-off t^n, an integer power: exactly
        # (-1)^n for real t; complex t divides as t (1/|t|), up to an ulp off
        # +-1 on the real axis, the same for either sign of a zero Im t
        phase = np.where(big, np.divide(tt, size, out=x), 1.0)
        factor = phase**top
        for n in set(degrees) - {top}:  # a padded series takes the power of its own degree
            factor = np.where(degree == n, phase**n if n else 1.0, factor)
        rows *= factor
    return rows, degree * np.log(size)


def pow_arr(base, exponent) -> np.ndarray:
    """Principal-branch power base**exponent, elementwise, as one exponential.

    The module docstring has the arithmetic and the branch; the exponent
    may be an array that broadcasts to the base.  A zero base gives 0 where
    the exponent has Re > 0 and is a domain error otherwise, 0**0 included.
    """
    z = np.asarray(base, dtype=complex)
    w = np.asarray(exponent, dtype=complex)
    zero = z == 0
    if zero.any():
        if np.any(zero & (w.real <= 0)):
            raise DomainError("0 cannot be raised to an exponent with Re <= 0")
        z = np.where(zero, 1.0, z)
    log_abs = np.log(np.abs(z))
    arg = np.arctan2(z.imag + 0.0, z.real)
    mag = np.exp(w.real * log_abs - w.imag * arg)
    im = w.real * arg + w.imag * log_abs
    out = np.empty(z.shape, dtype=complex)
    np.multiply(mag, np.cos(im), out=out.real)
    np.multiply(mag, np.sin(im), out=out.imag)
    out[zero] = 0.0
    return out[()]
