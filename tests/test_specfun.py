"""Tests for the special-function layer: hypergeometric series and the
principal-branch power kernel.

Terminating hypergeometric values are cross-checked against an
independent Horner evaluation of the explicit polynomial coefficients,
non-terminating ones against a plain term-by-term summation written
here, and closed-form identities (log series, Chu-Vandermonde) against
their right-hand sides.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from curvedkepler.specfun import SERIES_MAX_TERMS, SERIES_RELATIVE_CUTOFF
from curvedkepler import (
    DomainError,
    Hyp2F1Params,
    ParameterError,
    hyp2f1,
    hyp2f1_derivative,
    pow_arr,
)

HORNER_RTOL = 5e-15
SERIES_RTOL = 1e-13
IDENTITY_RTOL = 5e-14
GAMMA_RTOL = 1e-12
TWO_LN_TWO = 1.3862943611198906


def _horner_coeffs(params: Hyp2F1Params, degree: int) -> list[complex]:
    """Explicit polynomial coefficients c_j = (alpha)_j (beta)_j / ((gamma)_j j!)."""
    coeffs = [complex(1.0)]
    a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
    for j in range(degree):
        coeffs.append(coeffs[-1] * (a + j) * (b + j) / ((g + j) * (j + 1.0)))
    return coeffs


def _horner_eval(coeffs: list[complex], t: complex) -> complex:
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def test_terminating_matches_horner_oracle():
    rng = np.random.default_rng(1812)
    for _ in range(300):
        n = int(rng.integers(0, 7))
        params = Hyp2F1Params(
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
            -float(n),
            complex(rng.uniform(0.5, 4.0), rng.uniform(-2.0, 2.0)),
        )
        t = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        coeffs = _horner_coeffs(params, n)
        want = _horner_eval(coeffs, t)
        got = hyp2f1(params, t)
        # scale by the conditioning sum so cancellation-heavy draws are judged fairly
        cond = sum(abs(c) * abs(t) ** j for j, c in enumerate(coeffs))
        assert abs(got - want) <= HORNER_RTOL * max(1.0, cond), (params, t)


def test_terminating_polynomial_degree_and_large_argument():
    params = Hyp2F1Params(1.5, -3.0, 2.0)
    assert params.polynomial_degree == 3
    assert Hyp2F1Params(1.0, 0.25, 2.0).polynomial_degree is None
    # degree-0 case is identically one, anywhere
    assert hyp2f1(Hyp2F1Params(2.7, 0.0, 1.3), 55.0) == 1.0 + 0.0j
    # a terminating series is a polynomial: |t| > 1 must be accepted
    got = hyp2f1(params, -40.0)
    want = _horner_eval(_horner_coeffs(params, 3), -40.0)
    assert abs(got - want) <= HORNER_RTOL * abs(want)


def test_series_against_plain_summation():
    rng = np.random.default_rng(90125)
    for _ in range(200):
        params = Hyp2F1Params(
            complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)),
            complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)),
            complex(rng.uniform(0.7, 3.0), rng.uniform(-1.0, 1.0)),
        )
        t = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3))
        term = complex(1.0)
        acc = complex(0.0)
        cond = 0.0
        a, b, g = complex(params.alpha), complex(params.beta), complex(params.gamma)
        for j in range(250):
            acc += term
            cond += abs(term)
            term *= t * (a + j) * (b + j) / ((g + j) * (j + 1.0))
        got = hyp2f1(params, t)
        assert abs(got - acc) <= SERIES_RTOL * max(1.0, cond)


@pytest.mark.parametrize("x", [0.5, 0.25, -0.7, 0.9])
def test_log_identity(x):
    """2F1(1, 1; 2; x) = -log(1 - x) / x."""
    got = hyp2f1(Hyp2F1Params(1.0, 1.0, 2.0), x)
    want = -math.log1p(-x) / x
    assert abs(got - want) <= IDENTITY_RTOL * abs(want)


def test_log_identity_frozen_value():
    got = hyp2f1(Hyp2F1Params(1.0, 1.0, 2.0), 0.5)
    assert abs(got - TWO_LN_TWO) < 5e-15


@pytest.mark.parametrize(
    "n, b, c",
    [
        (3, 0.7 + 0.2j, 2.3),
        (5, -0.4, 1.1),
        (2, 1.5 - 0.8j, 3.0 + 0.5j),
        (6, 0.25, 4.5),
    ],
)
def test_chu_vandermonde_at_unit_argument(n, b, c):
    """Terminating value at t = 1 equals (c-b)_n / (c)_n."""

    def poch(z, m):
        return complex(mpmath.rf(complex(z), m))

    got = hyp2f1(Hyp2F1Params(-float(n), b, c), 1.0)
    want = poch(complex(c) - complex(b), n) / poch(c, n)
    assert abs(got - want) <= GAMMA_RTOL * abs(want)


def test_nonpositive_integer_gamma_rejected():
    with pytest.raises(ParameterError):
        Hyp2F1Params(1.0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        Hyp2F1Params(1.0, 1.0, -2.0)
    # rejected even when the series would terminate before the pole
    with pytest.raises(ParameterError):
        Hyp2F1Params(0.5, -1.0, -3.0)


def test_nonterminating_outside_disc_rejected():
    params = Hyp2F1Params(1.5, 0.25, 2.0)
    with pytest.raises(DomainError):
        hyp2f1(params, 1.0)
    with pytest.raises(DomainError):
        hyp2f1(params, -1.2)


def _hyp2f1_from_ones(params: Hyp2F1Params, t):
    """Oracle: the series with both sums started from np.ones_like(t)."""
    scalar = np.isscalar(t) or isinstance(t, complex)
    tt = np.asarray(t, dtype=complex)
    a, b, g = params.alpha, params.beta, params.gamma
    degree = params.polynomial_degree
    total = np.ones_like(tt)
    term = np.ones_like(tt)
    for j in range(degree if degree is not None else SERIES_MAX_TERMS):
        term = term * ((a + j) * (b + j) / ((g + j) * (1 + j))) * tt
        total = total + term
        if degree is None and np.max(np.abs(term)) <= SERIES_RELATIVE_CUTOFF * np.max(
            np.abs(total)
        ):
            break
    return complex(total[()]) if scalar else total


def test_hyp2f1_matches_the_ones_like_start_bit_for_bit():
    rng = np.random.default_rng(4182)
    for n in range(8):
        params = Hyp2F1Params(
            complex(-n), complex(rng.standard_normal(), 3.0 * rng.standard_normal()), 2.0
        )
        ts = (rng.standard_normal((40, 25)) + 1j * rng.standard_normal((40, 25))) * 10.0
        got = hyp2f1(params, ts)
        assert got.shape == ts.shape and got.flags.writeable
        assert got.tobytes() == _hyp2f1_from_ones(params, ts).tobytes()
        for t in (complex(ts[0, 0]), -1.5, np.asarray(0.25 - 2j)):
            got, want = hyp2f1(params, t), _hyp2f1_from_ones(params, t)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    params = Hyp2F1Params(complex(0.5, 1.0), complex(-0.3), complex(2.5))
    ts = rng.uniform(-0.9, 0.9, 300) + 1j * rng.uniform(-0.4, 0.4, 300)
    assert hyp2f1(params, ts).tobytes() == _hyp2f1_from_ones(params, ts).tobytes()


def test_hyp2f1_accepts_arrays():
    params = Hyp2F1Params(0.5, -4.0, 1.5)
    ts = np.array([-1.5, 0.0, 0.3, 2.0 + 1.0j])
    vec = hyp2f1(params, ts)
    assert vec.shape == ts.shape
    for i, t in enumerate(ts):
        assert vec[i] == hyp2f1(params, complex(t))


@pytest.mark.parametrize("order, h, rtol", [(1, 1e-5, 2e-6), (2, 1e-4, 1e-5)])
def test_derivative_against_finite_differences(order, h, rtol):
    rng = np.random.default_rng(4181)
    checked = 0
    for _ in range(250):
        params = Hyp2F1Params(
            complex(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)),
            -float(rng.integers(0, 6)),
            complex(rng.uniform(0.8, 3.0)),
        )
        t = float(rng.uniform(-0.6, 0.6))
        got = hyp2f1_derivative(params, t, order=order)
        f = lambda x: hyp2f1(params, x)  # noqa: E731
        if order == 1:
            fd = (f(t + h) - f(t - h)) / (2.0 * h)
        else:
            fd = (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)
        scale = max(1.0, abs(fd))
        assert abs(got - fd) <= rtol * scale, (params, t)
        checked += 1
    assert checked == 250


def test_derivative_of_log_series():
    # d/dt [-log(1-t)/t] at t=0.5, from the closed form
    t = 0.5
    want = (1.0 / (t * (1.0 - t)) + math.log1p(-t) / (t * t))
    got = hyp2f1_derivative(Hyp2F1Params(1.0, 1.0, 2.0), t, order=1)
    assert abs(got - want) < 1e-12


def test_pow_arr_principal_branch():
    assert abs(pow_arr(-1.0, 0.5) - 1j) < 1e-15
    got = pow_arr(-8.0, 1.0 / 3.0)
    assert abs(got - (1.0 + 1j * math.sqrt(3.0))) < 4e-15
    # negative real base takes arg = +pi, never -pi, also from a real array
    for w in (0.5 + 0.0j, 1j, 1.25 - 0.4j):
        ref = cmath.exp(w * complex(math.log(2.0), math.pi))
        for z in (pow_arr(-2.0, w), pow_arr(np.array([-2.0]), w)[0]):
            assert abs(z - ref) <= 1e-15 * max(1.0, abs(ref)), w


def test_pow_arr_negative_zero_imaginary_part_takes_arg_plus_pi():
    want = 1j * math.sqrt(2.0)
    for z in (pow_arr(complex(-2.0, -0.0), 0.5), pow_arr(np.array([complex(-2.0, -0.0)]), 0.5)[0]):
        assert abs(z - want) <= 1e-15 * abs(want)
    assert pow_arr(complex(-2.0, -0.0), 0.5) == pow_arr(complex(-2.0, 0.0), 0.5)


def test_pow_arr_zero_base_rules():
    assert pow_arr(0.0, 2.5) == 0.0
    assert pow_arr(0.0, 1.0 + 5.0j) == 0.0
    assert np.array_equal(pow_arr(np.array([0.0, 4.0]), 0.5), [0.0, 2.0])
    for w in (0.0, -1.0, 1j):
        with pytest.raises(DomainError):
            pow_arr(0.0, w)
        with pytest.raises(DomainError):
            pow_arr(np.array([1.0, 0.0]), w)


def test_pow_arr_matches_scalar():
    rng = np.random.default_rng(2718)
    base = rng.uniform(-2.0, 2.0, 40) + 1j * rng.uniform(-2.0, 2.0, 40)
    base[::7] = base[::7].real  # sprinkle exact reals, some negative
    base[3] = 0.0
    w = 1.25 - 0.4j
    vec = pow_arr(base, w)
    for i in range(base.size):
        z = complex(base[i])
        if z == 0.0:
            assert vec[i] == 0.0
            continue
        want = cmath.exp(w * cmath.log(z))
        # numpy's exp/log and cmath's may disagree in the last bits
        assert abs(vec[i] - want) <= 2e-15 * max(1.0, abs(want)), (i, z)
