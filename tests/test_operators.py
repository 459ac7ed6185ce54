"""Operator-level verification tests: separated ODEs, the Hamiltonian,
the extra separation operator and its coupling identity, the quantum
Runge-Lenz component via finite differences, and the exact polynomial
commutator algebra.

Each closed-form construction is driven through an operator it must
satisfy, and perturbed controls confirm the residuals are sensitive
enough to reject wrong parameters.
"""

import json
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest

from curvedkepler import kepler, operators, verify
from curvedkepler.kepler import wavefunction_values
from curvedkepler.report import build_report
from curvedkepler import (
    DomainError,
    H3,
    IntegrabilityError,
    Level,
    ParabolicPoints,
    ParameterError,
    QPolynomial,
    QuantumNumbers,
    S3,
    SphericalPoint,
    apply_b_operator,
    apply_hamiltonian,
    assemble_state,
    b_operator_residual,
    chart_points,
    coupling_identity_residual,
    enumerate_states,
    factor,
    factor_derivatives,
    factor_samples,
    hamiltonian_residual,
    make_rng,
    momentum_commutators,
    ode_residual,
    perturbed,
    quasi_points,
    runge_lenz_check,
    spherical_to_parabolic,
)

ODE_PASS_TOL = 1e-12
HAM_PASS_TOL = 1e-12
B_PASS_TOL = 5e-13
SENSITIVITY_FLOOR = 1e-5
COUPLING_TOL = 1e-12
RL_TOL = 1e-4
COMM_TOL = 1e-12
FD_ORDER_RE = re.compile(r"order (\d+\.\d+)")

STATE_SET = [
    (H3, 5.0, QuantumNumbers(0, 0, 0)),
    (H3, 5.0, QuantumNumbers(0, 1, 0)),
    (H3, 10.0, QuantumNumbers(1, 0, 1)),
    (H3, 20.0, QuantumNumbers(0, 1, -2)),
    (S3, 2.0, QuantumNumbers(0, 0, 0)),
    (S3, 2.0, QuantumNumbers(0, 0, 1)),
    (S3, 5.0, QuantumNumbers(1, 2, -1)),
    (S3, 0.7, QuantumNumbers(2, 0, 2)),
]


def _state(space, e, qn):
    return assemble_state(space, e, qn)


@pytest.mark.parametrize("space, e, qn", STATE_SET)
@pytest.mark.parametrize("which", [1, 2])
def test_ode_residual_vanishes(space, e, qn, which):
    st = _state(space, e, qn)
    sample = factor_samples(space, make_rng(300 + which), which, n=100)
    report = ode_residual(st, which, sample)
    assert report.passed, report
    assert report.max_rel < ODE_PASS_TOL
    assert report.n_points == 100


def test_ode_residual_is_analytically_zero_for_pure_power():
    # n1 = n2 = m = 0: the factor is (1-t)^b with no series part, and the
    # residual cancels term by term
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 0))
    sample = factor_samples(S3, make_rng(301), 1, n=100)
    report = ode_residual(st, 1, sample)
    assert report.max_abs < 1e-14


@pytest.mark.parametrize(
    "field, delta",
    [("epsilon", 1e-3), ("k1", 1e-3), ("b1", 1e-3)],
)
def test_ode_residual_detects_perturbations(field, delta):
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    sample = factor_samples(S3, make_rng(302), 1, n=100)
    report = ode_residual(perturbed(st, **{field: delta}), 1, sample)
    assert not report.passed
    assert report.max_rel > SENSITIVITY_FLOOR, (field, report.max_rel)


def test_ode_residual_detects_perturbations_h3():
    st = _state(H3, 5.0, QuantumNumbers(0, 1, 0))
    sample = factor_samples(H3, make_rng(303), 2, n=100)
    for field in ("epsilon", "k2", "b2"):
        report = ode_residual(perturbed(st, **{field: 1e-3}), 2, sample)
        assert report.max_rel > SENSITIVITY_FLOOR, field


def test_factor_derivatives_match_finite_differences():
    rng = make_rng(304)
    h = 1e-6
    for space, e, qn in STATE_SET[:4]:
        st = _state(space, e, qn)
        for which in (1, 2):
            fac = factor(st, which)
            ts = factor_samples(space, rng, which, n=20)
            f, d1, d2 = factor_derivatives(fac, ts)
            up = factor_derivatives(fac, ts + h)[0]
            dn = factor_derivatives(fac, ts - h)[0]
            fd1 = (up - dn) / (2.0 * h)
            fd2 = (up - 2.0 * f + dn) / (h * h)
            scale1 = np.maximum(1.0, np.abs(fd1))
            assert np.max(np.abs(d1 - fd1) / scale1) < 1e-5
            scale2 = np.maximum(1e3, np.abs(fd2))
            assert np.max(np.abs(d2 - fd2) / scale2) < 1e-2


@pytest.mark.parametrize("space, e, qn", STATE_SET)
def test_hamiltonian_residual_vanishes(space, e, qn):
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(305), n=200)
    report = hamiltonian_residual(st, pts)
    assert report.passed, report
    assert report.max_rel < HAM_PASS_TOL


def test_hamiltonian_wrong_space_is_order_one():
    """The H3 Hamiltonian applied to an S3 state: a mismatch the residual must catch."""
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = chart_points(S3, make_rng(306), n=50)

    def h3_core(space, parts):  # the level's own space swapped for H3: its sign and its coupling
        return operators._hamiltonian_core(H3, parts[:5] + (H3.coupling(st.e),) + parts[6:])

    level = Level([st])
    (report,) = operators._eigen_reports(
        level, operators._evaluate(level, [pts]), h3_core, lambda s: s.epsilon, operators.HAMILTONIAN_TOL
    )
    assert not report.passed
    assert report.max_rel > 0.1


def test_hamiltonian_detects_energy_perturbation():
    st = _state(H3, 5.0, QuantumNumbers(0, 1, 0))
    pts = chart_points(H3, make_rng(307), n=50)
    report = hamiltonian_residual(perturbed(st, epsilon=1e-3), pts)
    assert not report.passed
    assert report.max_rel > SENSITIVITY_FLOOR


def test_hamiltonian_skips_singular_points():
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = chart_points(S3, make_rng(308), n=30)
    report = hamiltonian_residual(st, _appended(pts, 0.3j, 0.3j, 0.1))
    assert report.n_points == 30
    assert "skipped 1" in report.note
    # H3 flavour: |t2| below the guard
    st_h = _state(H3, 5.0, QuantumNumbers(0, 1, 0))
    pts_h = chart_points(H3, make_rng(309), n=30)
    report_h = hamiltonian_residual(st_h, _appended(pts_h, 0.3, 0.0, 0.1))
    assert report_h.n_points == 30
    assert "skipped 1" in report_h.note


@pytest.mark.parametrize("space", [S3, H3])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_residuals_refuse_a_chart_point_that_is_not_finite(space, value):
    """A nan t1 would be skipped as a singular point, and an inf t1 clears
    every singular locus and turns the report into nan."""
    st = _state(space, 2.0 if space is S3 else 10.0, QuantumNumbers(0, 0, 1))
    pts = chart_points(space, make_rng(308), n=30)
    assert hamiltonian_residual(st, pts).passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            hamiltonian_residual(st, _appended(pts, value, pts.t2[0], 0.1))


def _appended(pts, t1, t2, phi):
    """The batch with the point (t1, t2, phi) appended."""
    return ParabolicPoints(np.append(pts.t1, t1), np.append(pts.t2, t2), np.append(pts.phi, phi))


@pytest.mark.parametrize("residual", [hamiltonian_residual, b_operator_residual])
def test_residuals_take_only_a_batch(residual):
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = chart_points(S3, make_rng(308), n=5)
    with pytest.raises(ParameterError):
        residual(st, list(pts))
    with pytest.raises(ParameterError):
        coupling_identity_residual(S3, list(pts))
    # one point is a batch of 0-d arrays, and reads as the batch of its first point
    one = residual(st, next(iter(pts)))
    first = residual(st, ParabolicPoints(pts.t1[:1], pts.t2[:1], pts.phi[:1]))
    assert one.to_json_dict() == first.to_json_dict()


@pytest.mark.parametrize("space, e, qn", STATE_SET)
def test_b_operator_eigenvalue(space, e, qn):
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(310), n=200)
    report = b_operator_residual(st, pts)
    assert report.passed, report
    assert report.max_rel < B_PASS_TOL


def test_b_operator_detects_separation_constant_shift():
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = chart_points(S3, make_rng(311), n=50)
    report = b_operator_residual(perturbed(st, k1=1e-3), pts)
    assert not report.passed
    assert report.max_rel > SENSITIVITY_FLOOR


@pytest.mark.parametrize("space, seed", [(H3, 312), (S3, 313)])
def test_coupling_identity(space, seed):
    pts = chart_points(space, make_rng(seed), n=200)
    assert coupling_identity_residual(space, pts).max_abs < COUPLING_TOL


@pytest.mark.parametrize("residual", [hamiltonian_residual, b_operator_residual])
@pytest.mark.parametrize("space, e, qn", [STATE_SET[2], STATE_SET[6]])
def test_residuals_evaluate_each_factor_once(monkeypatch, residual, space, e, qn):
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(331), n=50)
    calls = {"_factor_jet": 0, "factor_derivatives": 0, "wavefunction_values": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(operators, name, counted(name, getattr(operators, name)))
    assert residual(st, pts).passed
    assert calls == {"_factor_jet": 2, "factor_derivatives": 0, "wavefunction_values": 0}


def _spread_points(space, seed, chi_lo, chi_hi, n=300):
    rng = make_rng(seed)
    pts = spherical_to_parabolic(
        space,
        SphericalPoint(
            rng.uniform(chi_lo, chi_hi, n),
            rng.uniform(0.15, np.pi - 0.15, n),
            rng.uniform(0.0, 2.0 * np.pi, n),
        ),
    )
    keep = pts.clearance() >= 1e-3
    return pts.t1[keep], pts.t2[keep], pts.phi[keep]


def _closed_form_oracle(state, t1, t2, phi):
    """Psi as the product of principal-branch factor values f1 f2 e^(i m phi),
    times (-1)^(n2-n1) e^(-pi e/k) where Im t1 < 0 on S3 (past the equator)."""
    f1 = factor_derivatives(factor(state, 1), t1)[0]
    f2 = factor_derivatives(factor(state, 2), t2)[0]
    psi = f1 * f2 * np.exp(1j * state.qn.m * phi)
    if state.space is S3:
        qn = state.qn
        far = (-1) ** (qn.n2 - qn.n1) * np.exp(-np.pi * state.e / qn.k)
        psi = np.where(t1.imag < 0, far * psi, psi)
    return psi


@pytest.mark.parametrize(
    "space, e, ks, chi_lo, chi_hi",
    [
        # both S3 hemispheres: Im t1 < 0 past the equator
        (S3, 2.0, (1, 3, 6), 0.15, np.pi - 0.15),
        (S3, 5.0, (2, 4), 0.15, np.pi - 0.15),
        # deep H3 tail, where F2 is summed in 1/t2
        (H3, 5.0, (1, 2), 2.5, 3.5),
        (H3, 100.0, (1, 3, 6), 2.5, 3.5),
    ],
)
def test_residual_psi_from_the_jets_matches_wavefunction_values(
    monkeypatch, space, e, ks, chi_lo, chi_hi
):
    t1, t2, phi = _spread_points(space, 332, chi_lo, chi_hi)
    if space is S3:
        assert np.any(t1.imag < 0) and np.any(t1.imag > 0)
    else:
        assert np.count_nonzero(t2.real < -1e2) > 100
    scales = []

    def recorded(residual, scale, *args, **kwargs):
        (row,) = scale  # a state runs as a level of one, a report set of one row
        scales.append(row)
        return build_report(residual, scale, *args, **kwargs)

    monkeypatch.setattr(operators, "build_report", recorded)
    for k in ks:
        for qn in enumerate_states(k):
            st = _state(space, e, qn)
            (_, _, f1, f2, *_), p = operators._staeckel(Level([st]), t1, t2, phi)
            psi = f1 * f2 * p
            want = wavefunction_values(st, t1, t2, phi)
            assert np.all(want != 0), (k, qn)
            assert np.max(np.abs(psi - want) / np.abs(want)) < 1e-12, (k, qn)
            oracle = _closed_form_oracle(st, t1, t2, phi)
            assert np.max(np.abs(want - oracle) / np.abs(oracle)) < 1e-12, (k, qn)
            # the |Psi| each residual scales by is that same Psi
            scales.clear()
            hamiltonian_residual(st, ParabolicPoints(t1, t2, phi))
            b_operator_residual(st, ParabolicPoints(t1, t2, phi))
            ham_scale, b_scale = scales
            assert ham_scale.tobytes() == ((1.0 + abs(st.epsilon)) * np.abs(psi)).tobytes()
            assert b_scale.tobytes() == ((1.0 + abs(st.k1 + st.k2)) * np.abs(psi)).tobytes()


def _closed_form_jets(state, t1, t2, phi):
    """Polynomial jets (q, q', q'') of both factors and the one prefactor
    P1 P2 e^(i m phi) = (t1 t2)^(|m|/2-2) ((1-t1)(1-t2))^-2 ((1-t1)/(1-t2))^b1 e^(i m phi).
    The H3 chart gives float64 values, so there the jets run in float64."""
    q1, s1 = operators._factor_jet([factor(state, 1)], t1)
    q2, s2 = operators._factor_jet([factor(state, 2)], t2)
    p = kepler.psi_prefactor(Level([state]), t1, t2, s1 + s2, phi) / (t1 * t2 * (1.0 - t1) * (1.0 - t2)) ** 2
    return t1, t2, q1, q2, p


def _closed_form_ell(t, jet, m2):
    """The separated operator l q = (1-t)[(1-2t) q' + t(1-t) q''] - m^2/(4t) q, written out."""
    q, q1, q2 = jet
    w = 1.0 - t
    return ((1.0 - 2.0 * t) * q1 + t * w * q2) * w - m2 / (4.0 * t) * q


def _closed_form_staeckel(state, t1, t2, phi, jets):
    """l1, l2, f1, f2, the prefactor, kappa (e on H3, -ie on S3), sigma and 2/(t1-t2), written out."""
    t1, t2, jet1, jet2, p = jets(state, t1, t2, phi)
    m2 = float(state.qn.m * state.qn.m)
    h3 = state.space.model is H3.model
    kappa, sigma = (state.e, 1) if h3 else (-1j * state.e, -1)
    l1, l2 = _closed_form_ell(t1, jet1, m2), _closed_form_ell(t2, jet2, m2)
    return t1, t2, l1, l2, jet1[0], jet2[0], p, kappa, sigma, 2.0 / (t1 - t2)


def _closed_form_apply_hamiltonian(state, t1, t2, phi, jets=_closed_form_jets):
    """The Hamiltonian in Staeckel form, -sigma [2/(t1-t2) (l1 f2 - f1 l2) + kappa (2-t1-t2)/(t1-t2) f1 f2],
    times the shared prefactor, written out as an oracle."""
    t1, t2, l1, l2, f1, f2, p, kappa, sigma, scale = _closed_form_staeckel(state, t1, t2, phi, jets)
    out = (l1 * f2 - f1 * l2) * scale + kappa * (2.0 - t1 - t2) / (t1 - t2) * (f1 * f2)
    return out * -sigma * p


def _closed_form_apply_b_operator(state, t1, t2, phi, jets=_closed_form_jets):
    """B in Staeckel form, 2/(t1-t2) (t2 l1 f2 - t1 f1 l2) + kappa (t1+t2-2 t1 t2)/(t1-t2) f1 f2,
    times the prefactor."""
    t1, t2, l1, l2, f1, f2, p, kappa, _, scale = _closed_form_staeckel(state, t1, t2, phi, jets)
    out = (t2 * l1 * f2 - t1 * f1 * l2) * scale + kappa * (t1 + t2 - 2.0 * t1 * t2) / (t1 - t2) * (f1 * f2)
    return out * p


def _six_term_apply_hamiltonian(state, t1, t2, phi, jets=_closed_form_jets):
    """The Hamiltonian as the expanded bilinear form of the two polynomial jets
    times the shared prefactor: the second oracle, for the Staeckel algebra."""
    t1, t2, (f1, d1, dd1), (f2, d2, dd2), p = jets(state, t1, t2, phi)
    m2 = float(state.qn.m * state.qn.m)
    e = state.e
    big1 = (1.0 - 2.0 * t1) * d1 + t1 * (1.0 - t1) * dd1
    big2 = (1.0 - 2.0 * t2) * d2 + t2 * (1.0 - t2) * dd2
    pair = f1 * f2
    core = (
        2.0 * (1.0 - t1) / (t1 - t2) * big1 * f2
        + 2.0 * (1.0 - t2) / (t2 - t1) * f1 * big2
        + m2 / (2.0 * t1 * t2) * pair
    )
    if state.space.model is S3.model:
        out = core - 1j * e * (2.0 - t1 - t2) / (t1 - t2) * pair
    else:
        out = -core - e * (2.0 - t1 - t2) / (t1 - t2) * pair
    return out * p


def _six_term_apply_b_operator(state, t1, t2, phi, jets=_closed_form_jets):
    t1, t2, (f1, d1, dd1), (f2, d2, dd2), p = jets(state, t1, t2, phi)
    m2 = float(state.qn.m * state.qn.m)
    w = state.e if state.space.model is H3.model else -1j * state.e
    diff = t1 - t2
    pair = f1 * f2
    c = (t1 + t2 - 2.0 * t1 * t2) / diff
    out = (
        w * c * pair
        + 2.0 * t2 * (1.0 - t1) * (1.0 - 2.0 * t1) / diff * d1 * f2
        - 2.0 * t1 * (1.0 - t2) * (1.0 - 2.0 * t2) / diff * f1 * d2
        + 2.0 * t1 * t2 * (1.0 - t1) ** 2 / diff * dd1 * f2
        - 2.0 * t1 * t2 * (1.0 - t2) ** 2 / diff * f1 * dd2
        + m2 * (t1 + t2) / (2.0 * t1 * t2) * pair
    )
    return out * p


@pytest.mark.parametrize("space, e, qn", STATE_SET)
def test_apply_operators_keep_their_bits(space, e, qn):
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(333), n=100)
    got = apply_hamiltonian(st, pts.t1, pts.t2, pts.phi)
    assert got.tobytes() == _closed_form_apply_hamiltonian(st, pts.t1, pts.t2, pts.phi).tobytes()
    got = apply_b_operator(st, pts.t1, pts.t2, pts.phi)
    assert got.tobytes() == _closed_form_apply_b_operator(st, pts.t1, pts.t2, pts.phi).tobytes()


@pytest.mark.parametrize("space, e, qn", STATE_SET)
def test_staeckel_form_matches_the_six_term_operators(space, e, qn):
    """H and B through the separated operator agree with the expanded six-term forms on the same points,
    within 1e-12 of the scale (1 + |eigenvalue|) |Psi| their residuals take, on both jet paths on S3."""
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(333), n=100)
    psi = np.abs(wavefunction_values(st, pts.t1, pts.t2, pts.phi))
    paths = [_closed_form_jets] + ([_complex_s3_jets] if space is S3 else [])
    for staeckel, expanded, eig in (
        (_closed_form_apply_hamiltonian, _six_term_apply_hamiltonian, st.epsilon),
        (_closed_form_apply_b_operator, _six_term_apply_b_operator, st.k1 + st.k2),
    ):
        for jets in paths:
            got = staeckel(st, pts.t1, pts.t2, pts.phi, jets=jets)
            want = expanded(st, pts.t1, pts.t2, pts.phi, jets=jets)
            assert np.max(np.abs(got - want) / ((1.0 + abs(eig)) * psi)) < 1e-12, (staeckel.__name__, jets.__name__)


def _complex_series(params, t, order):
    """The scaled Horner sum of a terminating 2F1 in complex128 throughout,
    as every state evaluated it before H3 moved to float64."""
    n = params.polynomial_degree
    tt = np.asarray(t, dtype=complex)
    a, b, g = params.alpha, params.beta, params.gamma
    table = np.zeros((order + 1, n + 1), dtype=complex)
    table[0, 0] = 1.0
    for j in range(n):
        table[0, j + 1] = table[0, j] * ((a + j) * (b + j) / ((g + j) * (1 + j)))
    for j in range(1, order + 1):
        table[j, : n + 1 - j] = table[j - 1, 1 : n + 2 - j] * np.arange(1, n + 2 - j)
    cols = table.T.reshape((n + 1, order + 1) + (1,) * tt.ndim)
    size = np.maximum(np.abs(tt), 1.0)
    big = size > 1.0
    x = np.divide(1.0, tt, out=tt.copy(), where=big)
    rows = np.where(big, cols[0], cols[n])
    for k in range(1, n + 1):
        rows *= x
        rows += np.where(big, cols[k], cols[n - k])
    if n:
        rows *= np.where(big, np.divide(tt, size, out=x), 1.0) ** n
    return rows, n * np.log(size)


def _complex_s3_powers(state, t1, t2, log_scale, phi):
    """(t1 t2)^(|m|/2) ((1-t1)/(1-t2))^b1 e^(log_scale + i m phi) on S3 as one
    complex exponential, with ((1-t1)/(1-t2))^b1 = e^(-2i b1 chi)."""
    am = abs(state.qn.m)
    expo = -2j * state.b1 * np.arctan2(t1.real + t2.real, t1.imag - t2.imag)
    expo = expo + log_scale + 1j * state.qn.m * np.asarray(phi, dtype=float)
    if am:
        expo += 0.5 * am * np.log(np.abs(t1 * t2))
    return 1.0 * np.exp(expo)


def _complex_s3_jets(state, t1, t2, phi):
    """Jets and prefactor of an S3 state in the complex closed form, with F
    from _complex_series."""
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    jets, log_scale = [], 0.0
    for which, t in ((1, t1), (2, t2)):
        fac = factor(state, which)
        (F, F1, F2), s = _complex_series(fac.params, t, 2)
        a, b = fac.a, fac.b
        w = 1.0 - t
        u, u1, u2 = t * t, a * t, a * (a - 1.0)
        v, v1, v2 = w * w, -b * w, b * (b - 1.0)
        q = u * v * F
        q1 = u1 * v * F + u * v1 * F + u * v * F1
        q2 = u2 * v * F + u * v2 * F + u * v * F2 + 2.0 * (u1 * v1 * F + u1 * v * F1 + u * v1 * F1)
        jets.append((q, q1, q2))
        log_scale = log_scale + s
    p = _complex_s3_powers(state, t1, t2, log_scale, phi) / (t1 * t2 * (1.0 - t1) * (1.0 - t2)) ** 2
    return t1, t2, jets[0], jets[1], p


@pytest.mark.parametrize("e", [0.7, 2.0, 5.0])
def test_s3_keeps_the_complex_closed_form_bit_for_bit(monkeypatch, e):
    """S3 Psi and both residual arrays equal the complex closed form exactly."""
    pts = chart_points(S3, make_rng(334), n=150)
    recorded = []

    def record(residual, scale, *args, **kwargs):
        recorded.append((*residual, *scale))  # a state runs as a level of one, a report set of one row
        return build_report(residual, scale, *args, **kwargs)

    monkeypatch.setattr(operators, "build_report", record)
    for k in (1, 2, 3):
        for qn in enumerate_states(k):
            st = _state(S3, e, qn)
            t1, t2, (f1, _, _), (f2, _, _), p = _complex_s3_jets(st, pts.t1, pts.t2, pts.phi)
            psi = f1 * f2 * p
            (g1,), s1 = _complex_series(factor(st, 1).params, t1, 0)
            (g2,), s2 = _complex_series(factor(st, 2).params, t2, 0)
            want = g1 * g2 * _complex_s3_powers(st, t1, t2, s1 + s2, pts.phi)
            assert wavefunction_values(st, pts.t1, pts.t2, pts.phi).tobytes() == want.tobytes(), qn
            hpsi = _closed_form_apply_hamiltonian(st, pts.t1, pts.t2, pts.phi, jets=_complex_s3_jets)
            bpsi = _closed_form_apply_b_operator(st, pts.t1, pts.t2, pts.phi, jets=_complex_s3_jets)
            eig = st.k1 + st.k2
            recorded.clear()
            hamiltonian_residual(st, pts)
            b_operator_residual(st, pts)
            (h_res, h_scale), (b_res, b_scale) = recorded
            assert h_res.tobytes() == (hpsi - st.epsilon * psi).tobytes(), qn
            assert h_scale.tobytes() == ((1.0 + abs(st.epsilon)) * np.abs(psi)).tobytes(), qn
            assert b_res.tobytes() == (bpsi - eig * psi).tobytes(), qn
            assert b_scale.tobytes() == ((1.0 + abs(eig)) * np.abs(psi)).tobytes(), qn


@pytest.mark.parametrize("e, max_k", [(10.0, 3), (50.0, 4)])
def test_complex_h3_input_agrees_with_the_float64_path(monkeypatch, e, max_k):
    """H3 chart values given as complex, with zero imaginary parts, run in
    complex arithmetic; Psi and the Hamiltonian residual agree with the
    float64 path to 1e-15 of their scale."""
    pts = chart_points(H3, make_rng(336), n=200)
    cplx = ParabolicPoints(pts.t1.astype(complex), pts.t2.astype(complex), pts.phi)
    recorded = []

    def record(residual, scale, *args, **kwargs):
        recorded.append((*residual, *scale))  # a state runs as a level of one, a report set of one row
        return build_report(residual, scale, *args, **kwargs)

    monkeypatch.setattr(operators, "build_report", record)
    for k in range(1, max_k + 1):
        for qn in enumerate_states(k):
            st = _state(H3, e, qn)
            want = wavefunction_values(st, pts.t1, pts.t2, pts.phi)
            got = wavefunction_values(st, cplx.t1, cplx.t2, cplx.phi)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), qn
            recorded.clear()
            hamiltonian_residual(st, pts)
            hamiltonian_residual(st, cplx)
            (res, scale), (cres, cscale) = recorded
            assert res.dtype == np.complex128 and cres.dtype == np.complex128
            assert np.all(np.abs(cres - res) <= 1e-15 * (1.0 + scale)), qn
            assert np.all(np.abs(cscale - scale) <= 1e-15 * scale), qn


# H3 negative controls: a real delta keeps the float64 jets; a complex one makes
# the jet that carries it complex (the first derivative holds b, every row alpha).
H3_CONTROLS = [
    ({"b2": 5.0}, (np.float64, np.float64), True),
    ({"b2": 5.0 + 0.5j}, (np.float64, np.complex128), True),
    ({"b2": 1e-3j}, (np.float64, np.complex128), False),
    ({"b1": 1e-3j}, (np.complex128, np.float64), False),
    ({"alpha2": 1e-3j}, (np.float64, np.complex128), False),
]


@pytest.mark.parametrize("deltas, jet_dtypes, grows", H3_CONTROLS)
def test_h3_negative_controls_still_fail(deltas, jet_dtypes, grows):
    st = perturbed(_state(H3, 5.0, QuantumNumbers(0, 1, 0)), **deltas)
    pts = chart_points(H3, make_rng(335), n=50)
    jets = [operators._factor_jet([factor(st, which)], t)[0] for which, t in ((1, pts.t1), (2, pts.t2))]
    assert tuple(q[1].dtype for q in jets) == jet_dtypes
    for residual in (hamiltonian_residual, b_operator_residual):
        report = residual(st, pts)
        assert not report.passed, (residual.__name__, deltas)
        assert report.max_rel > SENSITIVITY_FLOOR, (residual.__name__, deltas)
    if grows:
        with pytest.raises(IntegrabilityError):
            kepler.normalize(st)


@pytest.mark.parametrize(
    "space, e, qn, seed",
    [
        (H3, 5.0, QuantumNumbers(0, 0, 0), 314),
        (H3, 5.0, QuantumNumbers(0, 1, 0), 315),
        (S3, 2.0, QuantumNumbers(0, 0, 1), 316),
        (S3, 2.0, QuantumNumbers(1, 0, 0), 317),
    ],
)
def test_runge_lenz_component(space, e, qn, seed):
    st = _state(space, e, qn)
    pts = quasi_points(space, make_rng(seed), n=25)
    report = runge_lenz_check(st, pts)
    assert report.passed, report
    assert report.max_rel < RL_TOL
    m = FD_ORDER_RE.search(report.note)
    assert m, report.note
    assert 1.7 <= float(m.group(1)) <= 2.3


def test_runge_lenz_refuses_rows_of_points():
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = quasi_points(S3, make_rng(318), n=15)
    assert runge_lenz_check(st, pts).n_points > 0
    with pytest.raises(ParameterError, match="3 x n"):
        runge_lenz_check(st, pts.T)


@pytest.mark.parametrize("space", [S3, H3])
def test_runge_lenz_refuses_a_sample_with_no_usable_point_as_out_of_domain(space):
    """Points that all sit too near the axis or the origin are the stencil's domain, not a
    caller's error: DomainError, where an empty sample raises ParameterError."""
    st = _state(space, 2.0 if space is S3 else 10.0, QuantumNumbers(0, 0, 1))
    with pytest.raises(DomainError, match="no usable sample points"):
        runge_lenz_check(st, np.array([[0.01, 0.0], [0.0, 0.0], [0.0, 0.3]]))


@pytest.mark.parametrize("space", [S3, H3])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_runge_lenz_refuses_a_coordinate_that_is_not_finite(space, value):
    """A nan point would be counted as skipped near a chart boundary, and an
    inf point passes the clearance rules and turns the report into nan."""
    st = _state(space, 2.0 if space is S3 else 10.0, QuantumNumbers(0, 0, 1))
    pts = quasi_points(space, make_rng(318), n=15)
    assert runge_lenz_check(st, pts).passed
    pts[1, 4] = value
    with pytest.raises(ParameterError, match="coordinates must be finite"):
        runge_lenz_check(st, pts)


def test_runge_lenz_is_a_genuine_numerical_comparison(monkeypatch):
    """The check pits finite-difference composites against the closed-form
    operator, so the residual must sit at a nonzero extrapolation floor
    and respond to the step size (a short-circuited identity would give
    exact zeros independent of h)."""
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = quasi_points(S3, make_rng(319), n=15)
    coarse = runge_lenz_check(st, pts)
    assert "h=0.0005" in coarse.note
    monkeypatch.setattr(operators, "_DEFAULT_FD_STEP", 2.5e-4)
    fine = runge_lenz_check(st, pts)
    assert coarse.max_abs > 1e-13
    assert fine.max_abs > 1e-13
    assert coarse.max_abs != fine.max_abs
    assert coarse.passed and fine.passed


def _poly(coeffs) -> np.ndarray:
    return QPolynomial(coeffs)._row


def _coeffs(row: np.ndarray) -> dict:
    return dict(QPolynomial._of(row).coeffs)


def _P(space, axis, row):
    return operators._momentum(space.sigma, axis, partial(operators._diff, row), operators._times)


def _L(axis, row):
    return operators._angular(axis, partial(operators._diff, row), operators._times)


Q_AXES = ({(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0})


def test_angular_generator_on_coordinates():
    # L3 q1 = i q2, L3 q2 = -i q1, L3 q3 = 0 (axes 0-indexed)
    q0, q1, q2 = (_poly(c) for c in Q_AXES)
    assert _coeffs(_L(2, q0)) == {(0, 1, 0): 1j}
    assert _coeffs(_L(2, q1)) == {(1, 0, 0): -1j}
    assert _coeffs(_L(2, q2)) == {}


@pytest.mark.parametrize("space, corr", [(H3, 1j), (S3, -1j)])
def test_momentum_generator_on_distinguished_axis(space, corr):
    # P3 q3 = -i (1 - sigma q3^2): the curvature correction flips sign
    got = _P(space, 2, _poly(Q_AXES[2]))
    assert _coeffs(got) == {(0, 0, 0): -1j, (0, 0, 2): corr}


def test_momentum_on_constant_vanishes():
    one = _poly({(0, 0, 0): 1.0})
    for space in (H3, S3):
        for axis in range(3):
            assert _coeffs(_P(space, axis, one)) == {}


@pytest.mark.parametrize("space, want", [(H3, 1.0 + 0j), (S3, -1.0 + 0j)])
def test_pp_commutator_hand_oracle(space, want):
    """[P1, P2] q1 = -sigma i L3 q1 = sigma q2, exact in coefficients."""
    q0 = _poly(Q_AXES[0])
    c = _P(space, 0, _P(space, 1, q0)) - _P(space, 1, _P(space, 0, q0))
    assert _coeffs(c) == {(0, 1, 0): want}


@pytest.mark.parametrize("space, algebra", [(H3, "so(3,1)"), (S3, "so(4)")])
def test_commutator_identities_random_polynomials(space, algebra):
    rng = make_rng(320 if space is H3 else 321)
    for _ in range(5):
        p = QPolynomial.random(rng)
        report = momentum_commutators(space, p)
        assert report.passed, report
        assert report.max_abs < COMM_TOL
        assert algebra in report.note


def test_commutator_on_constant_is_exactly_zero():
    one = QPolynomial({(0, 0, 0): 2.5})
    report = momentum_commutators(H3, one)
    assert report.max_abs == 0.0


def test_commutator_degree_cap():
    """Two below the layout's degree 12: a relation raises the degree of its input by two."""
    assert momentum_commutators(H3, QPolynomial({(4, 3, 3): 1.0})).passed
    high = QPolynomial({(4, 4, 3): 1.0})
    with pytest.raises(ParameterError, match=r"^commutator check is limited to degree <= 10 inputs$"):
        momentum_commutators(H3, high)


def _convolution(p, q) -> dict:
    want = {}
    for (a, b, c), x in p.coeffs.items():
        for (i, j, k), y in q.coeffs.items():
            key = (a + i, b + j, c + k)
            want[key] = want.get(key, 0j) + x * y
    return {key: c for key, c in want.items() if c != 0}


def test_qpolynomial_arithmetic_evaluates_consistently():
    """Products, by a polynomial or a scalar on either side, are the coefficient convolution."""
    rng = make_rng(322)
    for _ in range(5):
        p = QPolynomial.random(rng, degree=4, terms=6)
        q = QPolynomial.random(rng, degree=4, terms=6)
        got, want = (p * q).coeffs, _convolution(p, q)
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 * (1.0 + abs(want[k])) for k in want)
        assert (2.5 * p).coeffs == {k: 2.5 * c for k, c in p.coeffs.items()}
        assert (p * 2.5).coeffs == (2.5 * p).coeffs


def test_qpolynomial_diff_product_rule():
    rng = make_rng(323)
    p = QPolynomial.random(rng, degree=3, terms=5)
    q = QPolynomial.random(rng, degree=3, terms=5)
    for axis in range(3):
        lhs = operators._diff((p * q)._row, axis)
        rhs = (QPolynomial._of(operators._diff(p._row, axis)) * q)._row + (
            p * QPolynomial._of(operators._diff(q._row, axis))
        )._row
        assert np.abs(lhs - rhs).max() < 1e-12


def test_qpolynomial_validation():
    with pytest.raises(ParameterError):
        QPolynomial({(1, 1): 1.0})
    with pytest.raises(ParameterError):
        QPolynomial({(-1, 0, 0): 1.0})
    with pytest.raises(ParameterError):
        QPolynomial({(7, 7, 0): 1.0})  # degree 14 > cap
    # zero coefficients are dropped on construction
    assert QPolynomial({(1, 0, 0): 0.0}).coeffs == {}


def test_qpolynomial_multiplication_degree_cap():
    a = QPolynomial({(4, 3, 0): 1.0})
    with pytest.raises(ParameterError):
        _ = a * a


@pytest.mark.parametrize("key", [(1.5, 0, 0), (True, 0, 0), (0, 0, np.True_), (1, 0, 2.0), "abc", "123", 5, (1, 0)])
def test_qpolynomial_refuses_a_key_that_is_not_three_integers(key):
    with pytest.raises(ParameterError, match="bad monomial key"):
        QPolynomial({key: 1.0})


def test_qpolynomial_takes_numpy_integer_exponents():
    key = (np.int64(2), np.int32(0), np.uint8(1))
    assert QPolynomial({key: 1.0}).coeffs == {(2, 0, 1): 1.0}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(math.inf, 0.0)])
def test_qpolynomial_refuses_a_non_finite_coefficient(value):
    with pytest.raises(ParameterError, match="must be finite"):
        QPolynomial({(1, 0, 0): value})
    p = QPolynomial({(1, 0, 0): 1.0})
    with pytest.raises(ParameterError, match="must be finite"):
        _ = value * p
    with pytest.raises(ParameterError, match="must be finite"):
        _ = p * value


@pytest.mark.parametrize("degree, terms", [(-1, 8), (13, 8), (6, -1), (2.5, 8), (6, 1.0), (True, 3)])
def test_random_polynomial_refuses_bad_bounds_before_any_draw(degree, terms):
    rng, ref = make_rng(342), make_rng(342)
    with pytest.raises(ParameterError):
        QPolynomial.random(rng, degree=degree, terms=terms)
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def test_random_polynomial_takes_the_whole_degree_range():
    rng = make_rng(343)
    assert QPolynomial.random(rng, degree=0, terms=0).coeffs == {}
    assert QPolynomial.random(rng, degree=12, terms=30).degree() <= 12


def _per_evaluation_a3_and_l2(level, nodes, h, psi):
    """Oracle for the stencil of a level of one: the nested differences with
    Psi evaluated afresh at the coordinates of every nested call, no table
    (``psi`` is not read)."""
    (state,) = level
    Q, sigma = nodes[0], state.space.sigma

    def psi(X):
        return wavefunction_values(state, *operators._quasi_to_chart(state.space, X))

    def shifted(X, axis, delta):
        out = X.copy()
        out[axis] = out[axis] + delta
        return out

    def gradient(fn, X):
        return np.stack(
            [(fn(shifted(X, a, h)) - fn(shifted(X, a, -h))) / (2.0 * h) for a in range(3)]
        )

    def momentum(fn, axis):
        def apply(X):
            g = gradient(fn, X)
            return -1j * (g[axis] - sigma * X[axis] * (X * g).sum(axis=0))

        return apply

    def angular(fn, axis):
        b, c = (axis + 1) % 3, (axis + 2) % 3

        def apply(X):
            g = gradient(fn, X)
            return -1j * (X[b] * g[c] - X[c] * g[b])

        return apply

    l1p2 = angular(momentum(psi, 1), 0)(Q)
    l2p1 = angular(momentum(psi, 0), 1)(Q)
    p1l2 = momentum(angular(psi, 1), 0)(Q)
    p2l1 = momentum(angular(psi, 0), 1)(Q)
    q = np.sqrt((Q * Q).sum(axis=0))
    a3 = state.e * Q[2] / q * psi(Q) + 0.5 * (l1p2 - l2p1 - p1l2 + p2l1)
    lsq = sum(angular(angular(psi, a), a)(Q) for a in range(3))
    return a3, lsq


@pytest.mark.parametrize(
    "space, e, qn, seed",
    [(S3, 2.0, QuantumNumbers(1, 0, 1), 327), (H3, 10.0, QuantumNumbers(0, 1, -1), 324)],
)
def test_runge_lenz_stencil_is_one_batch_with_per_evaluation_bits(monkeypatch, space, e, qn, seed):
    st = _state(space, e, qn)
    Q = quasi_points(space, make_rng(seed), n=200)
    h = 5e-4 * np.maximum(1.0, np.sqrt((Q * Q).sum(axis=0)))
    # the sample holds coordinates where two shifts along one axis do not commute
    assert np.any((Q + h) - h != (Q - h) + h) and np.any((Q + h) - h != Q)
    stencils, centre = operators._stencils(Level([st]), Q, (h, h / 2.0))
    assert [c.tobytes() for c in centre] == [c.tobytes() for c in operators._quasi_to_chart(space, Q)]
    for stencil in stencils:
        table = operators._a3_and_l2(Level([st]), *stencil)
        oracle = _per_evaluation_a3_and_l2(Level([st]), *stencil)
        assert [x.tobytes() for x in table] == [x.tobytes() for x in oracle]

    sizes = []

    def counted(state, t1, t2, phi):
        sizes.append(np.size(t1))
        return wavefunction_values(state, t1, t2, phi)

    monkeypatch.setattr(operators, "wavefunction_values", counted)
    got = runge_lenz_check(st, Q).to_json_dict()
    # one call: the centre once and 24 two-shift nodes per kept point at each of h and h/2
    assert sizes == [49 * got["n_points"]] and got["n_points"] > 100
    monkeypatch.setattr(operators, "_a3_and_l2", _per_evaluation_a3_and_l2)
    want = runge_lenz_check(st, Q).to_json_dict()
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize(
    "space, e, qn", [(S3, 2.0, QuantumNumbers(1, 0, 1)), (H3, 10.0, QuantumNumbers(0, 1, -1))]
)
def test_runge_lenz_maps_and_reads_its_centre_once(monkeypatch, space, e, qn):
    """One check maps its nodes through the chart in one call and reads Psi
    in one call, both on 49 columns per kept point: the centre once and the
    24 two-shift nodes of each step; the exact B operator reads the centre's
    chart columns from that call."""
    st = _state(space, e, qn)
    Q = quasi_points(space, make_rng(331), n=40)
    charts, reads = [], []
    chart, values = operators._quasi_to_chart, operators.wavefunction_values
    monkeypatch.setattr(operators, "_quasi_to_chart", lambda sp, X: charts.append(X.shape) or chart(sp, X))
    monkeypatch.setattr(operators, "wavefunction_values", lambda s, *t: reads.append(np.size(t[0])) or values(s, *t))
    n = runge_lenz_check(st, Q).n_points
    assert charts == [(3, 49 * n)] and reads == [49 * n] and n > 30


@pytest.mark.parametrize(
    "space, e, qn", [(S3, 2.0, QuantumNumbers(1, 0, 1)), (H3, 10.0, QuantumNumbers(0, 1, -1))]
)
def test_runge_lenz_takes_each_psi_gradient_once(monkeypatch, space, e, qn):
    """Per step, Psi's gradient at all six one-shift nodes is one central
    difference, and each of the seven composed terms adds one outer
    difference; the counted differences keep the oracle's bits."""
    st = _state(space, e, qn)
    Q = quasi_points(space, make_rng(330), n=40)
    h = 5e-4 * np.maximum(1.0, np.sqrt((Q * Q).sum(axis=0)))
    shapes = []

    def counted(values, step):
        shapes.append(values.shape)
        return central(values, step)

    central = operators._central
    monkeypatch.setattr(operators, "_central", counted)
    n = Q.shape[1]
    for stencil in operators._stencils(Level([st]), Q, (h, h / 2.0))[0]:
        shapes.clear()
        got = operators._a3_and_l2(Level([st]), *stencil)
        assert shapes == [(6, 6, n)] + [(6, n)] * 7
        want = _per_evaluation_a3_and_l2(Level([st]), *stencil)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


def _per_key_random(rng, degree, terms):
    """QPolynomial.random's coefficients, each key drawn as one size-3 integers call."""
    coeffs = {}
    for _ in range(terms):
        while True:
            key = tuple(int(x) for x in rng.integers(0, degree + 1, size=3))
            if sum(key) <= degree:
                break
        coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
    return coeffs


@pytest.mark.parametrize("degree, terms", [(0, 3), (1, 4), (3, 5), (6, 8), (10, 12)])
def test_random_polynomial_keeps_the_per_key_stream(degree, terms):
    for seed in range(331, 341):
        rng, ref = make_rng(seed), make_rng(seed)
        for _ in range(3):
            got = QPolynomial.random(rng, degree=degree, terms=terms)
            assert got.coeffs == QPolynomial(_per_key_random(ref, degree, terms)).coeffs
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def test_shift_and_diff_match_the_coefficient_rules():
    rng = make_rng(327)
    p = QPolynomial.random(rng, degree=6, terms=10)
    for axis in range(3):
        shifted = {tuple(k + (i == axis) for i, k in enumerate(key)): c for key, c in p.coeffs.items()}
        assert _coeffs(operators._times(p._row, axis)) == shifted
        want = {}
        for key, c in p.coeffs.items():
            if key[axis]:
                lower = tuple(k - (i == axis) for i, k in enumerate(key))
                want[lower] = c * key[axis]
        assert _coeffs(operators._diff(p._row, axis)) == want


def test_shift_never_drops_the_top_slab():
    top = _poly({(0, 0, 12): 1.0})
    with pytest.raises(ParameterError):
        _P(H3, 0, top)
    for axis in range(3):
        with pytest.raises(ParameterError, match="exceeds cap 12"):
            operators._times(top, axis)
    assert _coeffs(operators._times(_poly({(0, 0, 11): 1.0}), 0)) == {(1, 0, 11): 1.0}


def test_packed_layout_is_graded():
    """The monomials of degree <= d are the first C(d + 3, 3) slots, and coeffs iterate in that order."""
    assert list(operators._KEYS) == sorted(operators._KEYS, key=lambda key: (sum(key), key))
    assert len(operators._PREFIX) == 13
    for d, width in enumerate(operators._PREFIX):
        assert width == math.comb(d + 3, 3)
        assert {sum(key) for key in operators._KEYS[:width]} == set(range(d + 1))
    p = QPolynomial({(2, 0, 0): 1.0, (0, 0, 1): 2.0, (0, 1, 1): 3.0, (1, 0, 0): 4.0})
    assert list(p.coeffs) == [(0, 0, 1), (1, 0, 0), (0, 1, 1), (2, 0, 0)]


@pytest.mark.parametrize("degree, width", [(0, 11), (6, 166), (8, 287), (10, 456)])
def test_commutators_run_on_the_degree_prefix(monkeypatch, degree, width):
    """Every gather of the nine identities runs on the prefix of input degree + 2 and its pad."""
    assert width == operators._PREFIX[min(degree + 2, 12)] + 1
    widths = set()

    def counted(fn):
        def run(rows, axis):
            widths.add(rows.shape[-1])
            return fn(rows, axis)

        return run

    monkeypatch.setattr(operators, "_times", counted(operators._times))
    monkeypatch.setattr(operators, "_diff", counted(operators._diff))
    rng = make_rng(344)
    polys = [QPolynomial.random(rng, degree=degree, terms=12) for _ in range(4)] + [QPolynomial({(0,) * 3: 1.0})]
    polys[0] = QPolynomial({**polys[0].coeffs, (0, degree, 0): 1.0})  # the stack's top degree is `degree`
    for space in (H3, S3):
        widths.clear()
        rows, _ = operators._commutator_residuals(space, np.stack([p._row for p in polys]))
        assert widths == {width}
        assert (rows <= operators.COMMUTATOR_TOL).all()


def test_prefix_gathers_keep_their_cap():
    """A row cut to the prefix of degree d refuses a q_a shift of a degree-d term, and its tables are read-only."""
    width = operators._PREFIX[3] + 1
    with pytest.raises(ParameterError, match="exceeds cap 3"):
        operators._times(_poly({(1, 1, 1): 1.0})[:width], 0)
    low = _poly({(1, 1, 0): 2.0})
    assert operators._times(low[:width], 2).tobytes() == operators._times(low, 2)[:width].tobytes()
    assert operators._diff(low[:width], 0).tobytes() == operators._diff(low, 0)[:width].tobytes()
    _, _, up, down, exponent = operators._LAYOUT[width]
    for table in (*up, *down, *exponent):
        with pytest.raises(ValueError):
            table[0] = 0


def test_coeffs_is_a_read_only_view():
    p = QPolynomial(Q_AXES[1])
    with pytest.raises(TypeError):
        p.coeffs[(0, 0, 0)] = 1.0
    assert p.coeffs == {(0, 1, 0): 1.0}


# Oracle for the packed rows: the dense (13, 13, 13) coefficient cube,
# cube[i, j, k] the coefficient of q1^i q2^j q3^k.  q_a shifts the cube one
# layer along axis a, d/dq_a multiplies by the exponent and shifts back.
_LOWER = tuple((slice(None),) * axis + (slice(None, -1),) for axis in range(3))
_UPPER = tuple((slice(None),) * axis + (slice(1, None),) for axis in range(3))
_CUBE_EXPONENTS = (
    np.arange(1.0, 13, dtype=complex)[:, None, None],
    np.arange(1.0, 13, dtype=complex)[:, None],
    np.arange(1.0, 13, dtype=complex),
)


def _cube_times(cube, axis):
    out = np.zeros_like(cube)
    out[_UPPER[axis]] = cube[_LOWER[axis]]
    return out


def _cube_diff(cube, axis):
    out = np.zeros_like(cube)
    np.multiply(cube[_UPPER[axis]], _CUBE_EXPONENTS[axis], out=out[_LOWER[axis]])
    return out


def _cube_max_abs(cube):
    return float(np.hypot(cube.real, cube.imag).max())


def _cube_commutators(space, p):
    """The nine residuals and the report of one polynomial, computed on its cube."""
    cube = np.zeros((13, 13, 13), dtype=complex)
    for key, c in p.coeffs.items():
        cube[key] = c

    def P(a, x):
        grads = [_cube_diff(x, j) for j in range(3)]
        radial = np.zeros_like(x)
        for j in range(3):
            radial = radial + _cube_times(grads[j], j)
        return -1j * (grads[a] - complex(space.sigma) * _cube_times(radial, a))

    def L(a, x):
        b, c = (a + 1) % 3, (a + 2) % 3
        return -1j * (_cube_times(_cube_diff(x, c), b) - _cube_times(_cube_diff(x, b), c))

    lp = [L(a, cube) for a in range(3)]
    pp = [P(a, cube) for a in range(3)]
    rhs = "+ iL" if space is H3 else "- iL"
    residuals, labels = [], []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        residuals.append(_cube_max_abs(L(a, lp[b]) - L(b, lp[a]) - 1j * lp[c]))
        labels.append(f"[L{a+1},L{b+1}] - iL{c+1}")
        residuals.append(_cube_max_abs(L(a, pp[b]) - P(b, lp[a]) - 1j * pp[c]))
        labels.append(f"[L{a+1},P{b+1}] - iP{c+1}")
        residuals.append(_cube_max_abs(P(a, pp[b]) - P(b, pp[a]) - (-1j * space.sigma) * lp[c]))
        labels.append(f"[P{a+1},P{b+1}] {rhs}{c+1}")
    vals = np.asarray(residuals)
    algebra = "so(3,1)" if space is H3 else "so(4)"
    note = (
        f"{algebra} relations on degree-{p.degree()} input; "
        f"worst identity: {labels[int(np.argmax(vals))]}"
    )
    return vals, build_report(vals, np.zeros_like(vals), operators.COMMUTATOR_TOL, note=note)


@pytest.mark.parametrize("space, e, seed", [(H3, 10.0, 328), (S3, 2.0, 329)])
def test_commutator_stack_matches_the_dense_cube_oracle(monkeypatch, space, e, seed):
    rng = make_rng(seed)
    polys = [QPolynomial.random(rng, degree=6) for _ in range(20)]
    rows, _ = operators._commutator_residuals(space, np.stack([p._row for p in polys]))
    assert rows.shape == (20, 9)
    for p, row in zip(polys, rows):
        vals, want = _cube_commutators(space, p)
        assert row.tobytes() == vals.tobytes()
        assert json.dumps(momentum_commutators(space, p).to_json_dict()) == json.dumps(want.to_json_dict())

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return operators.momentum_commutators(*args, **kwargs)

    monkeypatch.setattr(verify, "momentum_commutators", counted)
    verify.run_suite("commutators", space, e, 3, seed)
    assert len(calls) == 1


@pytest.mark.parametrize("space, e", [(H3, 10.0), (S3, 2.0)])
def test_the_commutators_suite_row_is_dense_and_matches_the_dense_cube_oracle(space, e):
    """The suite's one input holds the 84 monomials of degree <= 6, in slots 1..84, each with a unit coefficient of
    its own phase, and the suite reports what the cube oracle reports on it, bit for bit."""
    p = verify.COMMUTATOR_POLY
    assert operators._PREFIX[6] == 84 and p.degree() == 6
    assert np.flatnonzero(p._row).tolist() == list(range(1, 85))
    coeffs = np.array(list(p.coeffs.values()))
    assert len(coeffs) == 84 and np.abs(np.abs(coeffs) - 1.0).max() <= 4 * np.finfo(float).eps
    phases = np.sort(np.angle(coeffs))
    assert np.diff(np.append(phases, phases[0] + 2 * math.pi)).min() > 1e-3  # no two slots share a phase
    rows, _ = operators._commutator_residuals(space, p._row[None])
    vals, want = _cube_commutators(space, p)
    assert rows.shape == (1, 9) and rows[0].tobytes() == vals.tobytes()
    (result,) = verify.run_suite("commutators", space, e, 3, 7)
    assert json.dumps(result.report.to_json_dict()) == json.dumps(want.to_json_dict())
    assert result.report.n_points == 9 and result.report.max_rel <= 1e-13
