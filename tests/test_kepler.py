"""Bound-state construction tests: spectra, admissibility, parameter
assembly, separated factors, radial functions, and normalization.

The closed-form parameter bundles are pinned both by hand-computed
frozen examples and by the algebraic relations the assembly must
satisfy for every admissible state.
"""

import cmath
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from curvedkepler import geometry, kepler, specfun, verify
from curvedkepler import (
    BoundStateError,
    DomainError,
    H3,
    IntegrabilityError,
    ParameterError,
    QuantumNumbers,
    S3,
    SphericalPoint,
    StateParams,
    assemble_state,
    bound_count_h3,
    bound_interval_h3,
    bound_states,
    chart_points,
    energy,
    energy_split,
    enumerate_states,
    factor,
    factor_derivatives,
    is_admissible,
    make_rng,
    normalize,
    perturbed,
    radial_spherical,
    spherical_to_parabolic,
    wavefunction_values,
)

RELATION_TOL = 1e-12
VALUE_TOL = 1e-13
SUBSTITUTION_TOL = 1e-12
NORM_RTOL = 1e-10
ENERGY_GRID_E = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
MAX_K = 6


def _admissible_states(space):
    out = []
    for e in ENERGY_GRID_E:
        for k in range(1, MAX_K + 1):
            if not is_admissible(space, e, k):
                continue
            for qn in enumerate_states(k):
                out.append(assemble_state(space, e, qn))
    return out


@pytest.mark.parametrize("k, want", [(1, -12.5), (2, -4.625)])
def test_h3_energy_frozen(k, want):
    assert energy(H3, 5.0, k) == want


@pytest.mark.parametrize("k, want", [(1, -2.0), (2, 1.0), (3, 33.0 / 9.0 + 2.0 / 9.0)])
def test_s3_energy_frozen(k, want):
    # k = 3: -4/18 + 4 = 34/9; spelled as a float expression to stay exact
    if k == 3:
        want = -(2.0**2) / (2.0 * 9.0) + (9.0 - 1.0) / 2.0
    assert energy(S3, 2.0, k) == want


@pytest.mark.parametrize("space", [H3, S3])
@pytest.mark.parametrize("e", ENERGY_GRID_E)
def test_energy_closed_form(space, e):
    for k in range(1, MAX_K + 1):
        if not is_admissible(space, e, k):
            continue
        sign = -1.0 if space is H3 else 1.0
        want = -e * e / (2.0 * k * k) + sign * (k * k - 1.0) / 2.0
        assert energy(space, e, k) == want, (space, e, k)


@pytest.mark.parametrize("space", [H3, S3])
def test_energy_split_reassembles(space):
    for e in ENERGY_GRID_E:
        for k in range(1, MAX_K + 1):
            ryd, curv = energy_split(space, e, k)
            assert ryd == -e * e / (2.0 * k * k)
            if space is H3:
                assert curv <= 0.0
            else:
                assert curv >= 0.0
            if k == 1:
                assert curv == 0.0
                assert math.copysign(1.0, curv) > 0.0  # never -0.0
            if is_admissible(space, e, k):
                assert ryd + curv == energy(space, e, k)


def test_h3_bound_interval_and_counts():
    assert bound_interval_h3(5.0) == (-12.5, 0.5 - 5.0)
    for e, want in [(5.0, 2), (10.0, 3), (20.0, 4), (16.0, 3)]:
        assert bound_count_h3(e) == want, e
        ks = [k for k in range(1, 40) if is_admissible(H3, e, k)]
        assert len(ks) == want and ks == list(range(1, want + 1))


def _loop_bound_count_h3(e):
    """The count as the k-by-k loop it replaced: integers k >= 1 with k^2 < e."""
    count, k = 0, 1
    while k * k < e:
        count, k = count + 1, k + 1
    return count


@pytest.mark.parametrize("e", [0.0, 0.5, 1.0, 2.0, 4.0, 4.0000001, 9.0, 10.5, 1e4])
def test_h3_bound_count_matches_the_loop(e):
    assert bound_count_h3(e) == _loop_bound_count_h3(e)


def test_h3_energies_lie_in_bound_interval():
    for e in (5.0, 10.0, 20.0):
        lo, hi = bound_interval_h3(e)
        for k in range(1, bound_count_h3(e) + 1):
            eps = energy(H3, e, k)
            assert lo <= eps < hi, (e, k, eps)


def test_inadmissible_energy_is_refused():
    with pytest.raises(BoundStateError):
        energy(H3, 5.0, 3)
    # the unchecked formula is the sum of the split
    assert sum(energy_split(H3, 5.0, 3)) == -25.0 / 18.0 - 4.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: energy_split(H3, 1e300, 1),
        lambda: energy(S3, math.nan, 1),
        lambda: energy(H3, math.inf, 1),
        lambda: bound_count_h3(math.inf),
        lambda: bound_count_h3(math.nan),
        lambda: bound_interval_h3(1e300),
        lambda: assemble_state(H3, 1e300, QuantumNumbers(0, 0, 0)),
        lambda: assemble_state(S3, math.nan, QuantumNumbers(0, 0, 0)),
    ],
    ids=["energy_split", "energy-s3-nan", "energy-h3-inf", "bound_count-inf", "bound_count-nan", "interval", "state-h3",
         "state-nan"],
)
def test_a_coupling_whose_square_is_not_finite_is_refused(call):
    with pytest.raises(DomainError, match=r"e\*e must be finite"):
        call()


def test_s3_assembles_up_to_the_last_coupling_with_a_finite_square():
    state = assemble_state(S3, 1e154, QuantumNumbers(0, 0, 0))
    assert all(cmath.isfinite(getattr(state, name)) for name in ("k1", "k2", "alpha1", "alpha2", "b1"))
    with pytest.raises(DomainError):
        assemble_state(S3, 1e155, QuantumNumbers(0, 0, 0))


def test_s3_always_admissible():
    for k in range(1, 10):
        assert is_admissible(S3, 0.1, k)
        assert is_admissible(S3, 100.0, k)


def test_is_admissible_needs_k_at_least_1_and_checks_e_as_energy_split_does():
    assert not is_admissible(H3, 5.0, 0)
    assert not is_admissible(S3, 5.0, 0)
    assert is_admissible(H3, 5.0, 2) and not is_admissible(H3, 4.0, 2)
    assert is_admissible(S3, 0.0, 1) and not is_admissible(H3, 0.0, 1)
    with pytest.raises(DomainError, match="coupling e must be >= 0"):
        is_admissible(S3, -1.0, 1)
    with pytest.raises(DomainError, match=r"e\*e must be finite"):
        is_admissible(H3, math.nan, 1)


def test_s3_at_e_0_is_the_free_particle():
    """Psi of the ground state is exactly 1 at every chart point, and c = 1/sqrt(vol S3) = 1/(sqrt(2) pi);
    each k = 2 state has |Psi|^2 integrating to pi^2, so c = 1/pi."""
    ground = assemble_state(S3, 0.0, QuantumNumbers(0, 0, 0))
    assert ground.epsilon == 0.0
    pts = chart_points(S3, make_rng(3), 500)
    assert np.all(wavefunction_values(ground, pts.t1, pts.t2, pts.phi) == 1.0)
    want = 1.0 / (math.sqrt(2.0) * math.pi)
    assert normalize(ground).constant == pytest.approx(want, rel=1e-14, abs=0)
    for qn in enumerate_states(2):
        state = assemble_state(S3, 0.0, qn)
        assert state.epsilon == 1.5
        assert normalize(state).constant == pytest.approx(1.0 / math.pi, rel=1e-14, abs=0)


def test_degeneracy_is_k_squared():
    for k in range(1, 7):
        qns = enumerate_states(k)
        assert len(qns) == k * k
        assert len(set(qns)) == k * k
        for qn in qns:
            assert qn.k == k
            assert qn.n1 + qn.n2 + abs(qn.m) + 1 == k


def test_quantum_number_validation():
    with pytest.raises(ParameterError):
        QuantumNumbers(True, 0, 0)
    with pytest.raises(ParameterError):
        QuantumNumbers(-1, 0, 0)
    with pytest.raises(ParameterError):
        QuantumNumbers(0.5, 0, 0)
    qn = QuantumNumbers(1, 2, -3)
    assert qn.k == 7


def test_assemble_frozen_s3_example():
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))
    assert st.epsilon == 1.0
    assert st.a1 == 0.5 and st.a2 == 0.5
    assert abs(st.b1 - (-0.5j)) < VALUE_TOL
    assert abs(st.b2 - 0.5j) < VALUE_TOL
    assert abs(st.alpha1 - (2.0 - 1.0j)) < VALUE_TOL
    assert abs(st.alpha2 - (2.0 + 1.0j)) < VALUE_TOL
    assert st.beta1 == 0.0 and st.beta2 == 0.0
    assert st.gamma1 == 2.0 and st.gamma2 == 2.0
    assert abs((st.k1 - st.k2) - (-2.0j)) < VALUE_TOL


def test_assemble_frozen_h3_example():
    st = assemble_state(H3, 5.0, QuantumNumbers(0, 1, 0))
    assert st.epsilon == -4.625
    assert st.a1 == 0.0 and st.a2 == 0.0
    assert abs(st.b1 - 1.75) < VALUE_TOL
    assert abs(st.b2 + 1.75) < VALUE_TOL
    assert abs(st.alpha1 - 4.5) < VALUE_TOL
    assert abs(st.alpha2 + 1.5) < VALUE_TOL
    assert st.beta1 == 0.0 and st.beta2 == -1.0
    assert st.gamma1 == 1.0 and st.gamma2 == 1.0
    assert abs(st.k1 - 1.75) < VALUE_TOL
    assert abs(st.k2 + 3.25) < VALUE_TOL


def test_h3_states_hold_floats_and_s3_states_hold_complex_values():
    """The arithmetic type is set once, in assemble_state: every complex-annotated field is a float on H3.  On S3
    r = kappa/k is complex, and so is every value that reads it; beta and gamma, integers, are floats on both."""
    typed = [f.name for f in dataclasses.fields(StateParams) if f.type in (complex, "complex")]
    assert typed == ["b1", "b2", "alpha1", "beta1", "gamma1", "alpha2", "beta2", "gamma2", "k1", "k2"]
    for st in _admissible_states(H3):
        assert all(type(getattr(st, name)) is float for name in typed), st.qn
    for st in _admissible_states(S3):
        assert all(type(getattr(st, name)) is complex for name in ("b1", "b2", "alpha1", "alpha2", "k1", "k2"))
        assert all(type(getattr(st, name)) is float for name in ("beta1", "gamma1", "beta2", "gamma2"))


@pytest.mark.parametrize("space, e, qn, want", [
    (H3, 900.0, (3, 4, -2), {
        "space": "h3", "e": 900.0, "n1": 3, "n2": 4, "m": -2, "k": 10, "epsilon": -4099.5, "a1": 1.0, "a2": 1.0,
        "b1": [45.5, 0.0], "b2": [-45.5, 0.0], "alpha1": [97.0, 0.0], "beta1": [-3.0, 0.0], "gamma1": [3.0, 0.0],
        "alpha2": [-84.0, 0.0], "beta2": [-4.0, 0.0], "gamma2": [3.0, 0.0], "k1": [430.5, 0.0], "k2": [-469.5, 0.0],
    }),
    (S3, 2.0, (1, 0, 1), {
        "space": "s3", "e": 2.0, "n1": 1, "n2": 0, "m": 1, "k": 3, "epsilon": 3.7777777777777777, "a1": 0.5,
        "a2": 0.5, "b1": [-0.5, -0.3333333333333333], "b2": [0.5, 0.3333333333333333],
        "alpha1": [2.0, -0.6666666666666666], "beta1": [-1.0, 0.0], "gamma1": [2.0, 0.0],
        "alpha2": [3.0, 0.6666666666666666], "beta2": [0.0, 0.0], "gamma2": [2.0, 0.0],
        "k1": [2.0, -1.3333333333333333], "k2": [2.0, 0.6666666666666667],
    }),
])
def test_state_json_prints_every_complex_field_as_a_pair(space, e, qn, want):
    """A float field annotated complex still prints as [re, im], in declaration order and with the same values."""
    got = assemble_state(space, e, QuantumNumbers(*qn)).to_json_dict()
    assert json.dumps(got) == json.dumps(want)  # key order and values


@pytest.mark.parametrize("space", [H3, S3])
def test_assembly_relations_on_grid(space):
    """Algebraic relations every admissible parameter bundle satisfies."""
    states = _admissible_states(space)
    assert states, "grid produced no states"
    for st in states:
        qn, k = st.qn, st.qn.k
        r = st.e / k if space is H3 else -1j * st.e / k
        assert abs(st.b1 + st.b2) < RELATION_TOL
        assert st.a1 == abs(qn.m) / 2.0 == st.a2
        assert st.beta1 == -qn.n1 and st.beta2 == -qn.n2
        assert st.gamma1 == abs(qn.m) + 1 == st.gamma2
        assert abs((st.k1 - st.k2) - (st.e if space is H3 else -1j * st.e)) < RELATION_TOL
        # alpha sums/differences close on the quantum numbers
        assert abs((st.alpha1 + st.alpha2) - (k + abs(qn.m) + 1)) < RELATION_TOL
        assert abs((st.alpha1 - st.alpha2) - (2.0 * st.b1 + r)) < RELATION_TOL
        assert abs(2.0 * st.b1 - ((qn.n2 - qn.n1) + r)) < RELATION_TOL


def test_h3_quantization_root_relation():
    """sqrt(1 + 2(e - eps)) = k + e/k, so it exceeds 2 b1 by 2 n1 + |m| + 1."""
    for st in _admissible_states(H3):
        root = math.sqrt(1.0 + 2.0 * (st.e - st.epsilon))
        assert abs(root - (st.qn.k + st.e / st.qn.k)) < RELATION_TOL
        assert abs(root - 2.0 * st.b1.real - (2 * st.qn.n1 + abs(st.qn.m) + 1)) < RELATION_TOL


def test_assemble_validation():
    with pytest.raises(DomainError):
        assemble_state(H3, 0.0, QuantumNumbers(0, 0, 0))
    with pytest.raises(DomainError):
        assemble_state(S3, -1.0, QuantumNumbers(0, 0, 0))
    with pytest.raises(BoundStateError):
        assemble_state(H3, 5.0, QuantumNumbers(1, 1, 0))  # k = 3, k^2 > e
    with pytest.raises(DomainError):
        enumerate_states(0)


def test_bound_states_enumeration():
    sts = bound_states(H3, 10.0, 3)
    assert len(sts) == 1 + 4 + 9
    assert all(st.qn.k <= 3 for st in sts)
    # H3 cap: only admissible levels are returned even if max_k is larger
    assert len(bound_states(H3, 5.0, 6)) == 1 + 4
    assert len(bound_states(S3, 5.0, 2)) == 1 + 4


def test_bound_states_stops_at_the_first_unbound_level(monkeypatch):
    """No H3 level above an unbound one is bound, so a large max_k costs no scan past k = 3 at e = 10."""
    asked = []
    monkeypatch.setattr(verify, "is_admissible", lambda *args: asked.append(args[2]) or is_admissible(*args))
    assert len(bound_states(H3, 10.0, 100)) == 1 + 4 + 9
    assert asked == [1, 2, 3, 4]


def test_factor_value_closed_form_powers():
    """With n1 = n2 = 0 the series terminates at one term, so each factor
    is exactly t^a (1-t)^b; compare against cmath arithmetic."""
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))
    for t in (0.7, 0.3 + 0.4j, -0.2 + 0.1j):
        got = factor_derivatives(factor(st, 1), t)[0]
        want = cmath.exp(st.a1 * cmath.log(t)) * cmath.exp(st.b1 * cmath.log(1.0 - t))
        assert abs(got - want) < 1e-14 * max(1.0, abs(want)), t


def test_factor_value_frozen():
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))
    got = factor_derivatives(factor(st, 1), 0.7)[0]
    assert abs(got - (0.6895855519843869 + 0.47378451483178363j)) < 5e-15


def _equator_constant(st):
    """Psi past the S3 equator over the product of principal-branch factors."""
    return (-1) ** (st.qn.n2 - st.qn.n1) * math.exp(-math.pi * st.e / st.qn.k)


def _psi_oracle(st, p):
    """Psi at one chart point from the per-point factor values on principal
    branches, times the equator constant where Im t1 < 0 on S3."""
    f1 = factor_derivatives(factor(st, 1), p.t1)[0]
    f2 = factor_derivatives(factor(st, 2), p.t2)[0]
    psi = f1 * f2 * cmath.exp(1j * st.qn.m * p.phi)
    if st.space is S3 and p.t1.imag < 0:
        psi *= _equator_constant(st)
    return psi


def test_wavefunction_is_product_of_factors():
    rng = make_rng(211)
    for space in (H3, S3):
        st = assemble_state(space, 5.0, QuantumNumbers(0, 1, 0) if space is H3 else QuantumNumbers(1, 0, 2))
        pts = chart_points(space, rng, n=50)
        vec = wavefunction_values(st, pts.t1, pts.t2, pts.phi)
        for got, p in zip(vec, pts):
            want = _psi_oracle(st, p)
            assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_h3_batches_have_no_negative_zero_imaginary_parts():
    """A -0.0 in Im t2 would flip t2^(|m|/2) to the other side of the cut."""
    pts = chart_points(H3, make_rng(213), n=200)
    grid = spherical_to_parabolic(
        H3, SphericalPoint(np.linspace(0.0, 3.0, 40), np.linspace(0.0, math.pi, 40)[:, None], 0.0)
    )
    for batch in (pts, grid):
        assert not np.signbit(batch.t1.imag).any()
        assert not np.signbit(batch.t2.imag).any()
    st = assemble_state(H3, 10.0, QuantumNumbers(0, 1, 1))
    vec = wavefunction_values(st, pts.t1, pts.t2, pts.phi)
    for v, p in zip(vec, pts):
        s = _psi_oracle(st, p)
        assert abs(v - s) < 1e-12 * max(1.0, abs(s))


def test_h3_negative_zero_imaginary_part_keeps_the_sign_of_psi():
    """A hand-built t2 = -3 - 0j takes arg = +pi like t2 = -3 + 0j."""
    st = assemble_state(H3, 10.0, QuantumNumbers(0, 1, 1))
    plus = wavefunction_values(st, [0.4], [complex(-3.0, 0.0)], [0.0])[0]
    minus = wavefunction_values(st, [0.4], [complex(-3.0, -0.0)], [0.0])[0]
    assert minus == plus
    # t2^(1/2) on the upper side of the cut is +i sqrt(3)
    f1 = factor_derivatives(factor(st, 1), 0.4)[0]
    series = 1.0 + st.alpha2 * st.beta2 / st.gamma2 * -3.0  # n2 = 1: degree one
    want = f1 * 1j * math.sqrt(3.0) * 4.0**st.b2 * series
    assert abs(plus - want) < 1e-13 * abs(want)


@pytest.mark.parametrize("e", [2.0, 10.0])
def test_s3_psi_is_continuous_across_the_equator(e):
    """Psi(chi = pi/2 + d) / Psi(pi/2 - d) -> 1; principal branches of
    (1-t)^b made it jump by (-1)^(n2-n1) e^(pi e/k) there."""
    d = 1e-7
    theta = np.array([0.3, 1.2, 2.5])
    below = spherical_to_parabolic(S3, SphericalPoint(math.pi / 2 - d, theta, 0.4))
    above = spherical_to_parabolic(S3, SphericalPoint(math.pi / 2 + d, theta, 0.4))
    for k in (1, 2, 3):
        for qn in enumerate_states(k):
            st = assemble_state(S3, e, qn)
            ratio = wavefunction_values(st, above.t1, above.t2, above.phi) / wavefunction_values(
                st, below.t1, below.t2, below.phi
            )
            assert np.max(np.abs(ratio - 1.0)) < 1e-5, (qn, ratio)


ORACLE_DPS = 40


def _mp_psi(st, chi, theta, phi):
    """Psi from principal-branch powers of the factor product f1 f2 e^(i m phi)
    at ORACLE_DPS digits, times the equator constant past chi = pi/2 on S3."""
    with mpmath.workdps(ORACLE_DPS):
        chi, c = mpmath.mpf(chi), mpmath.cos(mpmath.mpf(theta))
        if st.space is H3:
            sh = mpmath.sinh(chi)
            t1 = mpmath.mpc((1 + c) * sh * mpmath.exp(-chi))
            t2 = mpmath.mpc(-(1 - c) * sh * mpmath.exp(chi))
        else:
            w = mpmath.sin(chi) * mpmath.expj(mpmath.pi / 2 - chi)
            t1, t2 = (1 + c) * w, (1 - c) * mpmath.conj(w)
        psi = mpmath.expj(st.qn.m * mpmath.mpf(phi))
        for t, a, b, (al, be, ga) in (
            (t1, st.a1, st.b1, (st.alpha1, st.beta1, st.gamma1)),
            (t2, st.a2, st.b2, (st.alpha2, st.beta2, st.gamma2)),
        ):
            a, b = mpmath.mpf(a), mpmath.mpc(b)
            psi *= t**a * (1 - t) ** b * mpmath.hyp2f1(mpmath.mpc(al), mpmath.mpc(be), mpmath.mpc(ga), t)
        if st.space is S3 and chi > mpmath.pi / 2:
            psi *= _equator_constant(st)
        return complex(psi)


@pytest.mark.parametrize(
    "space, e, chis",
    [
        (S3, 2.0, (0.1, 0.9, 1.5, 1.65, 2.4, 3.0)),
        (S3, 10.0, (0.1, 0.9, 1.5, 1.65, 2.4, 3.0)),
        (H3, 20.0, (0.1, 0.7, 1.5, 2.5, 3.7, 5.0)),
    ],
)
def test_wavefunction_values_match_mpmath(space, e, chis):
    theta, phi = (0.3, 1.2, 2.5), 0.7
    cc, tt = np.meshgrid(chis, theta, indexing="ij")
    pts = spherical_to_parabolic(space, SphericalPoint(cc.ravel(), tt.ravel(), phi))
    for k in (1, 2, 3, 4):
        for qn in enumerate_states(k):
            st = assemble_state(space, e, qn)
            got = wavefunction_values(st, pts.t1, pts.t2, pts.phi)
            for g, chi, th in zip(got, cc.ravel(), tt.ravel()):
                want = _mp_psi(st, chi, th, phi)
                assert abs(g - want) <= 1e-10 * abs(want), (qn, chi, th, g, want)


@pytest.mark.parametrize("space, e, dtype", [(H3, 20.0, np.float64), (S3, 2.0, np.complex128)])
def test_wavefunction_values_sum_f_in_the_dtype_of_the_space(monkeypatch, space, e, dtype):
    """H3 chart values are real, so F1 and F2 run in float64 there; Psi stays complex."""
    seen, series = [], kepler.scaled_series

    def recorded(params, t, order=0):
        rows, log_scale = series(params, t, order)
        seen.append((t.dtype, rows.dtype))
        return rows, log_scale

    monkeypatch.setattr(kepler, "scaled_series", recorded)
    pts = chart_points(space, make_rng(215), n=60)
    for k in (1, 2, 3, 4):
        for qn in enumerate_states(k):
            seen.clear()
            psi = wavefunction_values(assemble_state(space, e, qn), pts.t1, pts.t2, pts.phi)
            assert psi.dtype == np.complex128
            assert seen == [(dtype, dtype)] * 2, qn


@pytest.mark.parametrize("qn", [(0, 2, 0), (1, 2, 0), (0, 3, 0), (0, 2, -1)])
def test_h3_psi_stays_finite_to_chi_300(qn):
    st = assemble_state(H3, 20.0, QuantumNumbers(*qn))
    pts = spherical_to_parabolic(
        H3, SphericalPoint(np.linspace(0.0, 300.0, 601)[:, None], [0.0, 0.3, 1.6, 3.0], 0.5)
    )
    psi = wavefunction_values(st, pts.t1, pts.t2, pts.phi)
    assert np.isfinite(psi).all()
    assert np.count_nonzero(psi) > psi.size // 4


@pytest.mark.parametrize("e, chi", [(3.0, 0.4), (3.0, 2.0), (1.5, 1.0)])
def test_radial_ground_state_exponential(e, chi):
    # n = 1, l = 0: the series is 1 and the radial function is e^{-e chi}
    got = radial_spherical(H3, e, 1, 0, chi)
    assert abs(got - math.exp(-e * chi)) < 1e-14


def test_radial_circular_state_closed_form():
    # l = n-1 terminates the series at one term: sin^l e^{(i(n-l-1)-e/n) chi}
    e, n, chi = 2.0, 3, 1.1
    l = n - 1
    got = radial_spherical(S3, e, n, l, chi)
    want = (math.sin(chi) ** l) * cmath.exp((1j * (n - l - 1) - e / n) * chi)
    assert abs(got - want) < 1e-13 * max(1.0, abs(want))


def test_radial_at_origin():
    assert radial_spherical(H3, 2.0, 3, 0, 0.0) == 1.0
    assert type(radial_spherical(S3, 2.0, 3, 1, 0.4)) is complex
    assert radial_spherical(H3, 2.0, 3, 1, 0.0) == 0.0
    assert radial_spherical(S3, 2.0, 2, 1, 0.0) == 0.0


def test_radial_validation():
    with pytest.raises(DomainError):
        radial_spherical(H3, 2.0, 2, 2, 0.5)
    with pytest.raises(DomainError):
        radial_spherical(H3, 2.0, 0, 0, 0.5)
    with pytest.raises(DomainError):
        radial_spherical(H3, 2.0, 2, 0, -0.1)
    with pytest.raises(DomainError):
        radial_spherical(S3, 2.0, 2, 0, 3.5)
    with pytest.raises(DomainError):
        radial_spherical(H3, 2.0, 2, 0, 400.0)


@pytest.mark.parametrize("space", [H3, S3], ids=["h3", "s3"])
@pytest.mark.parametrize("e, chi", [(2.0, math.nan), (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5)])
def test_radial_refuses_a_nan_chi_and_a_non_finite_e(space, e, chi):
    with pytest.raises(DomainError):
        radial_spherical(space, e, 2, 0, chi)


@pytest.mark.parametrize(
    "e, n, l, chi",
    [(5.0, 2, 0, 0.7), (5.0, 2, 1, 0.7), (3.0, 3, 2, 1.3), (3.0, 4, 1, 0.4), (7.0, 1, 0, 2.0)],
)
def test_radial_substitution_symmetry(e, n, l, chi):
    """The S3 radial function at (i chi, -i e) equals i^l times the H3 one."""
    h3_val = radial_spherical(H3, e, n, l, chi)
    s3_val = radial_spherical(S3, complex(0.0, -e), n, l, complex(0.0, chi))
    assert abs(s3_val - (1j**l) * h3_val) < SUBSTITUTION_TOL * max(1.0, abs(h3_val))


def test_normalize_s3_flat_limit_constant():
    """As e -> 0 the S3 ground state tends to the constant mode whose
    normalization is 1/sqrt(2 pi^2) (unit-radius three-sphere volume)."""
    st = assemble_state(S3, 1e-8, QuantumNumbers(0, 0, 0))
    res = normalize(st)
    assert abs(res.constant - 1.0 / math.sqrt(2.0 * math.pi**2)) < 1e-8
    assert res.error_estimate < 1e-10


def test_normalize_h3_frozen_and_stable():
    st = assemble_state(H3, 5.0, QuantumNumbers(0, 1, 0))
    res = normalize(st)
    assert abs(res.constant - 1.1195289977703484) < NORM_RTOL
    assert res.error_estimate < 1e-10
    finer = _normalize_oracle(st, 192, 96)[0]
    assert abs(finer - res.constant) < NORM_RTOL


@pytest.mark.parametrize("space, e, bits", [(S3, 2.0, "0x1.dc11fabada775p-1"), (H3, 100.0, "0x1.11e40ead90c43p+17")])
def test_normalize_constant_keeps_its_bits(space, e, bits):
    """The separated form reads the space tag's unit and radius: the constant of state (0, 0, -4) keeps every bit."""
    assert normalize(assemble_state(space, e, enumerate_states(5)[0])).constant.hex() == bits


def test_normalize_rejects_non_normalizable():
    st = assemble_state(H3, 5.0, QuantumNumbers(0, 1, 0))
    with pytest.raises(IntegrabilityError):
        normalize(perturbed(st, b2=5.0))


def _gauss_axes(top, n_chi, n_theta):
    """Gauss-Legendre rules on [0, top] x [0, pi], built afresh: (chi, chi weights, theta, theta weights with sin)."""
    x, wx = np.polynomial.legendre.leggauss(n_chi)
    y, wy = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * math.pi * (y + 1.0)
    return 0.5 * top * (x + 1.0), 0.5 * top * wx, theta, 0.5 * math.pi * wy * np.sin(theta)


def _fresh_integral(state, top, n_chi, n_theta):
    """The integral of the density on [0, top] x [0, pi], with the rules built afresh."""
    chi, wchi, theta, wtheta = _gauss_axes(top, n_chi, n_theta)
    return 2.0 * math.pi * float(wchi @ kepler._density(state, chi, theta) @ wtheta)


def _normalize_oracle(state, n_chi, n_theta):
    """normalize() at the given orders, with every Gauss-Legendre rule built afresh."""
    chi_max = kepler._h3_chi_cutoff(state) if state.space is H3 else None
    top = math.pi if chi_max is None else chi_max
    i1 = _fresh_integral(state, top, n_chi, n_theta)
    i2 = _fresh_integral(state, top, 2 * n_chi, 2 * n_theta)
    c = 1.0 / math.sqrt(i2)
    return c, abs(1.0 / math.sqrt(i1) - c) / c, chi_max


@pytest.mark.parametrize("orders", [(128, 64), (256, 128)])
@pytest.mark.parametrize(
    "space, e, qn", [(S3, 2.0, (1, 1, 0)), (S3, 2.0, (0, 2, -2)), (H3, 100.0, (0, 0, 0)), (H3, 100.0, (2, 1, 1))]
)
def test_normalize_with_cached_rules_is_bit_identical(space, e, qn, orders):
    """normalize(), and its integral at each of its two orders, give the bits of rules built afresh."""
    st = assemble_state(space, e, QuantumNumbers(*qn))
    res = normalize(st)
    assert (res.constant, res.error_estimate, res.chi_max) == _normalize_oracle(st, 128, 64)
    assert (res.n_chi, res.n_theta) == (128, 64)
    top = math.pi if space is S3 else res.chi_max
    assert kepler._quad_norm(st, top, *orders) == _fresh_integral(st, top, *orders)


def _mp_density(st, chi, theta):
    """|Psi|^2 times the volume weight at one node, at ORACLE_DPS digits.

    F1 and F2 are the terminating series of the state's own float
    parameters; |(t1 t2)^{|m|/2}| and the shift (1-t2)^{b1+b2} come from t1
    and t2; |((1-t1)/(1-t2))^{b1}| is ((1-t1)/(1-t2))^{Re b1} on H3 and
    e^{2 Im(b1) chi} on S3, where the closed form takes the ratio as e^{-2i chi}.
    """
    with mpmath.workdps(ORACLE_DPS):
        chi, c = mpmath.mpf(chi), mpmath.cos(mpmath.mpf(theta))
        if st.space is H3:
            rad = mpmath.sinh(chi)
            t1, t2 = (1 + c) * rad * mpmath.exp(-chi), -(1 - c) * rad * mpmath.exp(chi)
            amp = ((1 - t1) / (1 - t2)) ** mpmath.mpf(st.b1.real)
        else:
            rad = mpmath.sin(chi)
            w = rad * mpmath.expj(mpmath.pi / 2 - chi)
            t1, t2 = (1 + c) * w, (1 - c) * mpmath.conj(w)
            amp = mpmath.exp(2 * mpmath.mpf(st.b1.imag) * chi)
        amp *= abs(t1 * t2) ** (mpmath.mpf(abs(st.qn.m)) / 2) * rad
        for t, (al, be, ga) in ((t1, (st.alpha1, st.beta1, st.gamma1)), (t2, (st.alpha2, st.beta2, st.gamma2))):
            al, be, ga = (mpmath.mpc(z) for z in (al, be, ga))
            term = total = mpmath.mpf(1)
            for j in range(int(round(-be.real))):
                term *= (al + j) * (be + j) / ((ga + j) * (1 + j)) * t
                total += term
            amp *= total
        shift = st.b1 + st.b2
        if shift:
            amp *= abs(mpmath.exp(mpmath.mpc(shift) * mpmath.log(1 - t2)))
        return float(abs(amp) ** 2)


def _density_errors(state, stride=(17, 9)):
    """Largest distance of the density from _mp_density over a stride of each grid
    normalize() samples, relative to that grid's largest value: the 128 x 64
    quadrature grid and, on H3, the cutoff probe, which takes no lo parts."""
    top = kepler._h3_chi_cutoff(state) if state.space is H3 else math.pi
    chi, _, theta, _ = _gauss_axes(top, 128, 64)
    grids = [((chi, theta), stride, True)] + ([(kepler._H3_PROBE, (50, 1), False)] if state.space is H3 else [])
    for (chi, theta), (di, dj), split in grids:
        dens = kepler._density(state, chi, theta, split)
        assert dens.dtype == np.float64 and np.isfinite(dens).all()
        worst = max(
            abs(dens[i, j] - _mp_density(state, float(chi[i]), float(theta[j])))
            for i in range(0, chi.size, di)
            for j in range(0, theta.size, dj)
        )
        yield worst / dens.max()


@pytest.mark.parametrize("space, e", [(S3, 2.0), (S3, 10.0), (H3, 100.0)])
def test_density_matches_the_square_of_psi(space, e):
    """The density against a 40-digit |Psi|^2, at 1e-14 of the grid's largest value."""
    for k in (1, 2, 3, 4):
        for qn in enumerate_states(k):
            assert max(_density_errors(assemble_state(space, e, qn))) <= 1e-14, qn


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 100.0)])
def test_density_matches_the_square_of_psi_for_a_complex_shift(space, e):
    """b1 + 1e-3j makes b1 + b2 complex, so the density takes (1-t2)^{b1+b2} pointwise."""
    st = perturbed(assemble_state(space, e, QuantumNumbers(1, 0, 1)), b1=1e-3j)
    assert max(_density_errors(st, stride=(5, 3))) <= 1e-14


def test_density_matches_the_square_of_psi_for_complex_h3_coefficients():
    """alpha1 + 1e-3j makes F1's coefficients complex on H3, where t1 and t2 are real."""
    st = perturbed(assemble_state(H3, 100.0, QuantumNumbers(1, 0, 1)), alpha1=1e-3j)
    assert max(_density_errors(st, stride=(5, 3))) <= 1e-14


def test_rounding_is_the_exact_error_of_the_product():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal(200) * 10.0 ** rng.integers(-30, 30, 200), rng.standard_normal(200)
    err = kepler._rounding(a, b, a * b)
    for x, y, p, e in zip(a, b, a * b, err):
        assert Fraction(x) * Fraction(y) == Fraction(p) + Fraction(e)


def test_density_rule_sum_matches_mpmath_at_a_large_degree():
    """A 24 x 12 rule at H3 e=400, state (10,4,0), where F1 has degree 10 and its
    terms cancel to 1e-7 of their size: the sum of the density within 1e-12 of
    the 40-digit sum.  Power matrices rounded to float64 once per entry, with no
    lo parts, share that rounding along a whole row or column and read 1.5e-12."""
    st = assemble_state(H3, 400.0, QuantumNumbers(10, 4, 0))
    chi, wchi, theta, wtheta = _gauss_axes(kepler._h3_chi_cutoff(st), 24, 12)
    got = float(wchi @ kepler._density(st, chi, theta) @ wtheta)
    with mpmath.workdps(ORACLE_DPS):
        want = mpmath.fsum(
            mpmath.mpf(wc) * mpmath.mpf(wt) * _mp_density(st, ch, th)
            for ch, wc in zip(chi, wchi)
            for th, wt in zip(theta, wtheta)
        )
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-4])
def test_density_is_exact_near_the_far_axis(theta):
    """H3 e=5, state (0,1,0): |Psi|^2 sinh^2(chi) = (1 + 1.5 t2)^2 e^{-7 chi} sinh^2(chi) with
    t2 = -2 sin^2(theta/2) sinh(chi) e^{chi}, out where the chart's t1 rounds to 1, with
    lo parts and without."""
    st = assemble_state(H3, 5.0, QuantumNumbers(0, 1, 0))
    chis = np.array([5.0, 10.0, 15.0, 18.0, 25.0])
    for split in (True, False):
        got = kepler._density(st, chis, np.array([theta]), split)[:, 0]
        with mpmath.workdps(ORACLE_DPS):
            for g, chi in zip(got, chis):
                chi = mpmath.mpf(chi)
                t2 = -2 * mpmath.sin(mpmath.mpf(theta) / 2) ** 2 * mpmath.sinh(chi) * mpmath.exp(chi)
                want = (1 + 1.5 * t2) ** 2 * mpmath.exp(-7 * chi) * mpmath.sinh(chi) ** 2
                assert abs(g - want) <= 1e-13 * want, (split, theta, chi)


@pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-4, 1e-2, 0.15, 0.3, 1.0, math.pi - 0.15, math.pi])
def test_chart_psi_is_accurate_over_the_samplers_h3_range(theta):
    """wavefunction_values at the chart's points, H3 e=5 state (0,1,0), chi in [0.05, 2.5] (chart_points draws
    chi <= 2.5 and theta >= 0.15): within 1e-13 of Psi = (1 + 1.5 t2) e^{-3.5 chi}, theta = 0 included, measured
    against the size of its terms, (1 + 1.5 |t2|) e^{-3.5 chi}, as Psi has a node near chi = 2.4 at theta = 0.15.
    Past chi = 2.5 the chart's t1 loses 1 - t1 near the axis (4.5e-12 at chi = 5, theta = 0)."""
    st = assemble_state(H3, 5.0, QuantumNumbers(0, 1, 0))
    chis = np.linspace(0.05, 2.5, 50)
    pts = spherical_to_parabolic(H3, SphericalPoint(chis, np.full_like(chis, theta), 0.0))
    got = wavefunction_values(st, pts.t1, pts.t2, pts.phi)
    with mpmath.workdps(ORACLE_DPS):
        for g, chi in zip(got, chis):
            chi = mpmath.mpf(chi)
            t2 = -2 * mpmath.sin(mpmath.mpf(theta) / 2) ** 2 * mpmath.sinh(chi) * mpmath.exp(chi)
            want, size = ((1 + 1.5 * t) * mpmath.exp(-3.5 * chi) for t in (t2, abs(t2)))
            assert abs(g - complex(want)) <= 1e-13 * size, (theta, chi)


@pytest.mark.parametrize("space, e", [(S3, 2.0), (H3, 100.0)])
def test_density_takes_no_complex_exponential(monkeypatch, space, e):
    st = assemble_state(space, e, QuantumNumbers(2, 1, 1))
    chi, _, theta, _ = _gauss_axes(math.pi if space is S3 else kepler._h3_chi_cutoff(st), 128, 64)
    seen = []
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x, *a, **kw: seen.append(np.asarray(x).dtype) or exp(x, *a, **kw))
    for split in (True, False):
        assert kepler._density(st, chi, theta, split).dtype == np.float64
    assert seen and all(dtype.kind == "f" for dtype in seen)


def test_normalize_charts_nothing(monkeypatch):
    """normalize() runs on the separated form: no chart map, no scaled_series
    and no _psi_exponent, for a plain state or a shifted one on either space."""
    calls = []
    for module, name in [
        (geometry, "spherical_to_parabolic"),
        (specfun, "scaled_series"),
        (kepler, "scaled_series"),
        (kepler, "_psi_exponent"),
    ]:
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    for space, e in [(S3, 2.0), (H3, 100.0)]:
        st = assemble_state(space, e, QuantumNumbers(1, 0, 1))
        normalize(st)
        normalize(perturbed(st, b1=1e-3j))
    assert calls == []


def test_normalize_builds_each_rule_once(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: built.append(n) or leggauss(n))
    for _ in range(3):
        for qn in [(0, 0, 0), (1, 1, 0)]:
            normalize(assemble_state(S3, 2.0, QuantumNumbers(*qn)))
            normalize(assemble_state(H3, 100.0, QuantumNumbers(*qn)))
    assert built == []
    assert sorted(kepler._GAUSS_LEGENDRE) == [64, 128, 256]


_FRESH_PROCESS = """
import numpy as np
leggauss = np.polynomial.legendre.leggauss
built = []
np.polynomial.legendre.leggauss = lambda n: built.append(n) or leggauss(n)
from curvedkepler import H3, S3, QuantumNumbers, assemble_state, geometry, kepler, normalize
print(built, sorted({a.ndim for a in (*kepler._H3_PROBE, *(a for r in kepler._GAUSS_LEGENDRE.values() for a in r))}))
charts = []
to_parabolic = geometry.spherical_to_parabolic
geometry.spherical_to_parabolic = lambda space, p: charts.append(space.name) or to_parabolic(space, p)
for _ in range(2):
    normalize(assemble_state(S3, 2.0, QuantumNumbers(0, 0, 0)))
    normalize(assemble_state(H3, 100.0, QuantumNumbers(1, 1, 0)))
    print(built, charts)
"""


def _run_fresh(script, threads=None):
    src = str(Path(kepler.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    if threads is not None:
        env.update(OMP_NUM_THREADS=str(threads), OPENBLAS_NUM_THREADS=str(threads))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout


def test_import_builds_the_default_rules():
    """In a fresh process the rules and the probe axes exist before the first
    normalize(), all of them 1-D, so the first calls make no eigen-solve and,
    like later calls, chart nothing."""
    lines = _run_fresh(_FRESH_PROCESS).splitlines()
    assert lines[0] == "[64, 128, 256] [1]"
    assert lines[1] == lines[2] == "[64, 128, 256] []"


_ORDERED_PROCESS = """
from curvedkepler import H3, S3, QuantumNumbers, assemble_state, normalize
states = {{"A": assemble_state(S3, 2.0, QuantumNumbers(1, 1, 0)),
           "B": assemble_state(H3, 100.0, QuantumNumbers(0, 2, -2))}}
results = {{name: normalize(states[name]) for name in {order!r}}}
print([(results[n].constant.hex(), results[n].error_estimate.hex()) for n in "AB"])
"""


def test_normalize_bits_do_not_depend_on_the_call_order():
    """Every call reads the same shared rules: an S3 and an H3 state give the
    same bits whichever is normalized first, and with one BLAS thread or two."""
    outs = [_run_fresh(_ORDERED_PROCESS.format(order=order)) for order in ("AB", "BA")]
    outs += [_run_fresh(_ORDERED_PROCESS.format(order="AB"), threads=n) for n in (1, 2)]
    assert len(set(outs)) == 1 and outs[0].startswith("[('0x")


def test_cached_rules_are_read_only():
    """The Gauss-Legendre rules and the probe axes are shared, so none can be written; each is 1-D."""
    for arrays in (*kepler._GAUSS_LEGENDRE.values(), kepler._H3_PROBE):
        for a in arrays:
            assert a.ndim == 1 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
            with pytest.raises(ValueError):
                a *= 2.0


def test_the_h3_probe_holds_the_bits_of_a_fresh_build():
    """The oracle above takes chi_max from the shared probe, so the probe itself is checked here."""
    fresh = (np.linspace(0.05, 300.0, 1501), np.array([0.3, math.pi / 2.0, math.pi - 0.3]))
    assert [a.tobytes() for a in kepler._H3_PROBE] == [a.tobytes() for a in fresh]


@pytest.mark.parametrize("qn", [(0, 0, 0), (1, 1, 0)])
def test_normalize_s3_converges_spectrally(qn):
    res = normalize(assemble_state(S3, 2.0, QuantumNumbers(*qn)))
    assert res.error_estimate <= 1e-12


@pytest.mark.parametrize("e", [2.0, 10.0])
def test_normalize_s3_converges_spectrally_over_levels(e):
    for k in (1, 2, 3, 4):
        for qn in enumerate_states(k):
            res = normalize(assemble_state(S3, e, qn))
            assert res.error_estimate <= 1e-12, qn


@pytest.mark.parametrize("qn", [(0, 0, 0), (1, 1, 0)])
def test_normalize_h3_converges_spectrally(qn):
    res = normalize(assemble_state(H3, 100.0, QuantumNumbers(*qn)))
    assert res.error_estimate <= 1e-12


def test_perturbed_changes_only_named_fields():
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))
    q = perturbed(st, b1=1e-3, k1=-2e-3)
    assert q.b1 == st.b1 + 1e-3
    assert q.k1 == st.k1 - 2e-3
    assert q.alpha1 == st.alpha1 and q.epsilon == st.epsilon
    assert st.b1 == -0.5j  # original untouched


def test_state_json_roundtrip():
    """The JSON text of a state rebuilds it field for field: complex fields as [re, im], nothing rounded."""
    names = {f.name for f in dataclasses.fields(StateParams)} - {"space", "qn"}
    for space, e, qn in [(H3, 5.0, QuantumNumbers(0, 1, 0)), (S3, 2.0, QuantumNumbers(1, 0, -1))]:
        st = assemble_state(space, e, qn)
        d = json.loads(json.dumps(st.to_json_dict()))
        assert d["space"] == space.name and d["k"] == qn.k
        values = {n: complex(*d[n]) if isinstance(d[n], list) else d[n] for n in names}
        back = dataclasses.replace(st, qn=QuantumNumbers(d["n1"], d["n2"], d["m"]), **values)
        assert back == st
