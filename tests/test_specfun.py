"""Tests for the special-function layer: hypergeometric series and the
principal-branch power kernel.

Terminating hypergeometric values are cross-checked against an
independent Horner evaluation of the explicit polynomial coefficients
and the Chu-Vandermonde identity; a series that does not terminate is
refused.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from curvedkepler import (
    DomainError,
    Hyp2F1Params,
    ParameterError,
    hyp2f1,
    pow_arr,
)
from curvedkepler.specfun import scaled_series

HORNER_RTOL = 5e-15
GAMMA_RTOL = 1e-12


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


def test_nonterminating_parameters_refused():
    params = Hyp2F1Params(1.5, 0.25, 2.0)
    for t in (0.5, 1.0, -1.2, np.array([0.1, 0.2j])):
        with pytest.raises(ParameterError):
            hyp2f1(params, t)
        with pytest.raises(ParameterError):
            scaled_series([Hyp2F1Params(1.5, -2.0, 2.0), params], np.stack([np.ravel(t)] * 2))


def _hyp2f1_from_ones(params: Hyp2F1Params, t):
    """Oracle: the series with both sums started from np.ones_like(t)."""
    tt = np.asarray(t, dtype=complex)
    a, b, g = params.alpha, params.beta, params.gamma
    total = np.ones_like(tt)
    term = np.ones_like(tt)
    for j in range(params.polynomial_degree):
        term = term * ((a + j) * (b + j) / ((g + j) * (1 + j))) * tt
        total = total + term
    return np.asarray(total)


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
            assert type(got) is np.ndarray and got.shape == () and got.dtype == complex
            assert got.tobytes() == want.tobytes()


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
        rows, log_scale = scaled_series([params], t, order)
        assert log_scale[0, 0] == 0
        got = complex(rows[order, 0, 0])
        f = lambda x: hyp2f1(params, x)  # noqa: E731
        if order == 1:
            fd = (f(t + h) - f(t - h)) / (2.0 * h)
        else:
            fd = (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h)
        scale = max(1.0, abs(fd))
        assert abs(got - fd) <= rtol * scale, (params, t)
        checked += 1
    assert checked == 250


def test_scaled_series_matches_horner_oracle():
    """rows[j] e^s is the j-th derivative on both sides of |t| = 1."""
    rng = np.random.default_rng(4183)
    for n in range(7):
        params = Hyp2F1Params(
            complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)), complex(-n), complex(rng.uniform(1.0, 4.0))
        )
        coeffs = _horner_coeffs(params, n)
        ts = np.array([0.0, 0.3 - 0.4j, -0.99, 1.0, 1.01j, -1.7, 3.0 + 4.0j, -250.0])
        rows, log_scale = scaled_series([params], ts[None], 2)
        assert rows.shape == (3, 1, ts.size) and log_scale.shape == (1, ts.size)
        rows, log_scale = rows[:, 0], log_scale[0]
        assert np.all(log_scale[np.abs(ts) <= 1.0] == 0)
        for j in range(3):
            dj = [math.perm(p, j) * c for p, c in enumerate(coeffs)][j:]
            for t, r, s in zip(ts, rows[j], log_scale):
                want = _horner_eval(dj, t)
                size = sum(abs(c) * abs(t) ** p for p, c in enumerate(dj))
                assert abs(r * cmath.exp(s) - want) <= 1e-13 * max(size, 1e-300), (n, j, t)


def test_scaled_series_stays_finite_far_out():
    """F ~ c_n t^n overflows at t = -1e300; the rows carry c_n (-1)^n and
    s = n log|t|, the same for either sign of a zero imaginary part."""
    params = Hyp2F1Params(complex(2.5, 1.0), -5.0, 2.0)
    c = _horner_coeffs(params, 5)
    rows, log_scale = scaled_series([params], np.array([[-1e300, complex(-1e300, -0.0)]]), 1)
    rows, log_scale = rows[:, 0], log_scale[0]
    assert np.isfinite(rows).all()
    assert abs(rows[0, 0] / -c[5] - 1.0) < 1e-14
    assert log_scale[0] == log_scale[1] == 5.0 * math.log(1e300)
    assert rows[0, 0] == rows[0, 1]


@pytest.mark.parametrize("n", [0, 1, 2, 5, 12, 19])
def test_scaled_series_keeps_float64_for_real_input(n):
    """Real t with real alpha, beta, gamma sums in float64 on both sides of
    |t| = 1 and agrees with the complex-input rows to 1e-15 relative.

    The complex path divides t by |t| as t (1/|t|) in complex arithmetic,
    which can miss -1 or 1 by an ulp, so its phase (t/|t|)^n is up to about
    n ulp off on the real axis; that phase is swapped for the exact sign.
    """
    rng = np.random.default_rng(4189 + n)
    ts = np.concatenate(
        [[0.0, 1.0, -1.0], rng.uniform(-1.0, 1.0, 40), -np.logspace(0.01, 8.0, 40), np.logspace(0.01, 3.0, 10)]
    )
    for params in (
        Hyp2F1Params(complex(rng.uniform(-45.0, 45.0)), complex(-n), complex(rng.integers(1, 20))),
        Hyp2F1Params(rng.uniform(-45.0, 45.0), -n, 1.0 + n),
    ):
        rows, log_scale = scaled_series([params], ts, 2)
        assert rows.dtype == np.float64 and log_scale.dtype == np.float64
        want, want_scale = scaled_series([params], ts.astype(complex), 2)
        assert want.dtype == np.complex128
        assert np.array_equal(log_scale, want_scale)
        big = np.abs(ts) > 1.0
        want = want / np.where(big, (ts.astype(complex) / np.maximum(np.abs(ts), 1.0)) ** n, 1.0)
        want = want * np.where(big, np.sign(ts) ** n, 1.0)
        assert np.all(np.abs(rows - want) <= 1e-15 * np.abs(want)), params


def test_scaled_series_turns_complex_with_a_complex_parameter():
    ts = np.array([0.25, -3.0])
    for params in (Hyp2F1Params(2.5 + 1e-3j, -2.0, 1.0), Hyp2F1Params(2.5, -2.0, 1.0 - 1e-3j)):
        rows, log_scale = scaled_series([params], ts, 1)
        assert rows.dtype == np.complex128
        coeffs = _horner_coeffs(params, 2)
        for t, r, sc in zip(ts, rows[0, 0], log_scale[0]):
            want = _horner_eval(coeffs, t)
            assert abs(r * math.exp(sc) - want) <= 1e-13 * abs(want), (params, t)


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
