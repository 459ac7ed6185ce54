"""Separated factors and their derivatives against a 50-digit mpmath oracle.

The oracle evaluates f = t^a (1-t)^b F(alpha, beta; gamma; t) with
mpmath's principal powers and hypergeometric function, and f', f''
through the logarithmic derivative g = a/t - b/(1-t) + F'/F:

    f' = f g,    f'' = f (g^2 + g'),

with F' and F'' from mpmath's numerical differentiation of the
(polynomial) series.  That route shares no formula with the float64
product rule, so it checks the one-exponential power kernel, the scaled
Horner sums of the series and the prefactors together.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest

from curvedkepler import (
    H3,
    DomainError,
    QuantumNumbers,
    S3,
    assemble_state,
    factor,
    factor_derivatives,
)

ORACLE_DPS = 50
ORACLE_RTOL = 1e-12

# S3 charts fill the disc |t - 1| <= 1; Im t1 < 0 is the far hemisphere
# (chi > pi/2).  Points on both hemispheres, on |t| = 1 and at |1-t| = 1e-3.
S3_POINTS = (
    [1.0 + r * cmath.exp(1j * psi) for r in (1e-3, 0.4, 0.9) for psi in (2.1, -2.1, 0.5, -0.5)]
    + [cmath.exp(1j * psi) for psi in (0.3, -0.3, 1.0, -1.0)]
    + [0.25 + 0.3j, 0.25 - 0.3j, 1.7 + 0.2j, 1.7 - 0.2j]
)
H3_T1 = [1e-3, 0.05, 0.3, 0.7, 0.999]
H3_T2 = [-1e-3, -0.2, -1.0, -7.5, -40.0, -1e2]

S3_STATES = [
    (2.0, QuantumNumbers(0, 0, 0)),
    (2.0, QuantumNumbers(1, 2, -1)),
    (2.0, QuantumNumbers(2, 0, 1)),
    (10.0, QuantumNumbers(0, 1, 3)),
    (7.0, QuantumNumbers(1, 0, -2)),
]
H3_STATES = [
    (10.0, QuantumNumbers(0, 1, 1)),
    (10.0, QuantumNumbers(1, 1, 0)),
    (100.0, QuantumNumbers(2, 0, 2)),
    (100.0, QuantumNumbers(0, 2, -3)),
    (100.0, QuantumNumbers(1, 3, 0)),
]


def _oracle(fac, t: complex):
    """(f, f', f'') at t from mpmath at ORACLE_DPS digits."""
    with mpmath.workdps(ORACLE_DPS):
        p = fac.params
        al, be, ga = (mpmath.mpc(z) for z in (p.alpha, p.beta, p.gamma))
        a, b, x = mpmath.mpf(fac.a), mpmath.mpc(fac.b), mpmath.mpc(t)

        def F(s):
            return mpmath.hyp2f1(al, be, ga, s)

        F0, F1, F2 = (mpmath.diff(F, x, n) for n in (0, 1, 2))
        f = x**a * (1 - x) ** b * F0
        g = a / x - b / (1 - x) + F1 / F0
        dg = -a / x**2 - b / (1 - x) ** 2 + F2 / F0 - (F1 / F0) ** 2
        return tuple(complex(v) for v in (f, f * g, f * (g * g + dg)))


def _cases():
    for e, qn in S3_STATES:
        st = assemble_state(S3, e, qn)
        for which in (1, 2):
            yield pytest.param(st, which, S3_POINTS, id=f"s3-e{e:g}-{qn.n1}{qn.n2}{qn.m}-f{which}")
    for e, qn in H3_STATES:
        st = assemble_state(H3, e, qn)
        yield pytest.param(st, 1, H3_T1, id=f"h3-e{e:g}-{qn.n1}{qn.n2}{qn.m}-f1")
        yield pytest.param(st, 2, H3_T2, id=f"h3-e{e:g}-{qn.n1}{qn.n2}{qn.m}-f2")


@pytest.mark.parametrize("state, which, points", list(_cases()))
def test_factor_and_derivatives_match_mpmath(state, which, points):
    fac = factor(state, which)
    t = np.array(points, dtype=complex)
    derivs = factor_derivatives(fac, t)
    for i, ti in enumerate(points):
        want = _oracle(fac, complex(ti))
        got = tuple(d[i] for d in derivs)
        for name, g, w in zip(("f", "f'", "f''"), got, want):
            rel = abs(g - w) / abs(w)
            assert rel <= ORACLE_RTOL, (name, ti, g, w, rel)


@pytest.mark.parametrize("m", [3, -4])
def test_factor_derivatives_at_zero_refuse_small_m(m):
    st = assemble_state(H3, 100.0, QuantumNumbers(0, 0, m))
    with pytest.raises(DomainError):
        factor_derivatives(factor(st, 1), 0.0)
    with pytest.raises(DomainError):
        factor_derivatives(factor(st, 2), np.array([-0.5, 0.0]))


def test_factor_derivatives_at_zero_vanish_from_m_five():
    st = assemble_state(H3, 100.0, QuantumNumbers(0, 0, 5))
    at_zero = factor_derivatives(factor(st, 1), 0.0)
    assert [(d.shape, d.dtype, complex(d)) for d in at_zero] == [((), complex, 0j)] * 3
    f, f1, f2 = factor_derivatives(factor(st, 2), np.array([0.0, -0.5]))
    assert f[0] == f1[0] == f2[0] == 0.0
    assert all(math.isfinite(abs(v)) and v != 0 for v in (f[1], f1[1], f2[1]))
