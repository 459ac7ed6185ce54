"""Operator-level verification tests: separated ODEs, the Hamiltonian,
the extra separation operator and its coupling identity, the quantum
Runge-Lenz component via finite differences, and the exact polynomial
commutator algebra.

Each closed-form construction is driven through an operator it must
satisfy, and perturbed controls confirm the residuals are sensitive
enough to reject wrong parameters.
"""

import json
import re

import numpy as np
import pytest

from curvedkepler import operators, verify
from curvedkepler.kepler import wavefunction_values
from curvedkepler.report import build_report
from curvedkepler import (
    H3,
    ParabolicPoint,
    ParabolicPoints,
    ParameterError,
    QPolynomial,
    QuantumNumbers,
    S3,
    angular_polynomial,
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
    momentum_polynomial,
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
            up = fac.value(ts + h)
            dn = fac.value(ts - h)
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
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = chart_points(S3, make_rng(306), n=50)
    report = hamiltonian_residual(st, pts, operator_space=H3)
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
    report = hamiltonian_residual(st, list(pts) + [ParabolicPoint(0.3j, 0.3j, 0.1)])
    assert report.n_points == 30
    assert "skipped 1" in report.note
    # H3 flavour: |t2| below the guard
    st_h = _state(H3, 5.0, QuantumNumbers(0, 1, 0))
    pts_h = chart_points(H3, make_rng(309), n=30)
    report_h = hamiltonian_residual(st_h, list(pts_h) + [ParabolicPoint(0.3, 0.0, 0.1)])
    assert report_h.n_points == 30
    assert "skipped 1" in report_h.note


@pytest.mark.parametrize("space, e, qn", STATE_SET)
def test_b_operator_eigenvalue(space, e, qn):
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(310), n=200)
    report = b_operator_residual(st, pts)
    assert report.passed, report
    assert report.max_rel < B_PASS_TOL
    assert "coupling/cos(theta) identity" in report.note


def test_b_operator_detects_separation_constant_shift():
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = chart_points(S3, make_rng(311), n=50)
    report = b_operator_residual(perturbed(st, k1=1e-3), pts)
    assert not report.passed
    assert report.max_rel > SENSITIVITY_FLOOR


@pytest.mark.parametrize("space, seed", [(H3, 312), (S3, 313)])
def test_coupling_identity(space, seed):
    pts = chart_points(space, make_rng(seed), n=200)
    assert coupling_identity_residual(space, pts) < COUPLING_TOL


@pytest.mark.parametrize("residual", [hamiltonian_residual, b_operator_residual])
@pytest.mark.parametrize("space, e, qn", [STATE_SET[2], STATE_SET[6]])
def test_residuals_evaluate_each_factor_once(monkeypatch, residual, space, e, qn):
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(331), n=50)
    calls = {"factor_derivatives": 0, "wavefunction_values": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        operators, "factor_derivatives", counted("factor_derivatives", factor_derivatives)
    )
    monkeypatch.setattr(
        operators, "wavefunction_values", counted("wavefunction_values", wavefunction_values)
    )
    assert residual(st, pts).passed
    assert calls == {"factor_derivatives": 2, "wavefunction_values": 0}


def _spread_points(space, seed, chi_lo, chi_hi, n=300):
    rng = make_rng(seed)
    pts = spherical_to_parabolic(
        space,
        (
            rng.uniform(chi_lo, chi_hi, n),
            rng.uniform(0.15, np.pi - 0.15, n),
            rng.uniform(0.0, 2.0 * np.pi, n),
        ),
    )
    keep = pts.clearance() >= 1e-3
    return pts.t1[keep], pts.t2[keep], pts.phi[keep]


@pytest.mark.parametrize(
    "space, e, ks, chi_lo, chi_hi",
    [
        # both S3 hemispheres: Im t1 < 0 past the equator
        (S3, 2.0, (1, 3, 6), 0.15, np.pi - 0.15),
        (S3, 5.0, (2, 4), 0.15, np.pi - 0.15),
        # deep H3 tail, where SeparatedFactor.value sums the series termwise
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
        scales.append(scale)
        return build_report(residual, scale, *args, **kwargs)

    monkeypatch.setattr(operators, "build_report", recorded)
    for k in ks:
        for qn in enumerate_states(k):
            st = _state(space, e, qn)
            (f1, _, _), (f2, _, _) = operators._separated_derivatives(st, t1, t2)
            psi = f1 * f2 * operators._phase(st, phi)
            want = wavefunction_values(st, t1, t2, phi)
            assert np.all(want != 0), (k, qn)
            assert np.max(np.abs(psi - want) / np.abs(want)) < 1e-12, (k, qn)
            # the |Psi| each residual scales by is that same Psi
            scales.clear()
            hamiltonian_residual(st, ParabolicPoints(t1, t2, phi))
            b_operator_residual(st, ParabolicPoints(t1, t2, phi))
            ham_scale, b_scale = scales
            assert ham_scale.tobytes() == ((1.0 + abs(st.epsilon)) * np.abs(psi)).tobytes()
            assert b_scale.tobytes() == ((1.0 + abs(st.k1 + st.k2)) * np.abs(psi)).tobytes()


def _parent_apply_hamiltonian(state, t1, t2, phi, operator_space=None):
    """The Hamiltonian as written before the jets were shared, as an oracle."""
    space = operator_space if operator_space is not None else state.space
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    f1, d1, dd1 = factor_derivatives(factor(state, 1), t1)
    f2, d2, dd2 = factor_derivatives(factor(state, 2), t2)
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
    if space.model is S3.model:
        out = core - 1j * e * (2.0 - t1 - t2) / (t1 - t2) * pair
    else:
        out = -core - e * (2.0 - t1 - t2) / (t1 - t2) * pair
    return out * np.exp(1j * state.qn.m * np.asarray(phi, dtype=float))


def _parent_apply_b_operator(state, t1, t2, phi):
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    f1, d1, dd1 = factor_derivatives(factor(state, 1), t1)
    f2, d2, dd2 = factor_derivatives(factor(state, 2), t2)
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
    return out * np.exp(1j * state.qn.m * np.asarray(phi, dtype=float))


@pytest.mark.parametrize("space, e, qn", STATE_SET)
def test_apply_operators_keep_their_bits(space, e, qn):
    st = _state(space, e, qn)
    pts = chart_points(space, make_rng(333), n=100)
    other = H3 if space is S3 else S3
    for op_space in (None, other):
        got = apply_hamiltonian(st, pts.t1, pts.t2, pts.phi, operator_space=op_space)
        want = _parent_apply_hamiltonian(st, pts.t1, pts.t2, pts.phi, operator_space=op_space)
        assert got.tobytes() == want.tobytes(), op_space
    got = apply_b_operator(st, pts.t1, pts.t2, pts.phi)
    assert got.tobytes() == _parent_apply_b_operator(st, pts.t1, pts.t2, pts.phi).tobytes()


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


def test_runge_lenz_accepts_both_orientations():
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = quasi_points(S3, make_rng(318), n=15)
    a = runge_lenz_check(st, pts)
    b = runge_lenz_check(st, pts.T)
    assert a.max_rel == b.max_rel and a.n_points == b.n_points


def test_runge_lenz_is_a_genuine_numerical_comparison():
    """The check pits finite-difference composites against the closed-form
    operator, so the residual must sit at a nonzero extrapolation floor
    and respond to the step size (a short-circuited identity would give
    exact zeros independent of h)."""
    st = _state(S3, 2.0, QuantumNumbers(0, 0, 1))
    pts = quasi_points(S3, make_rng(319), n=15)
    coarse = runge_lenz_check(st, pts, h=5e-4)
    fine = runge_lenz_check(st, pts, h=2.5e-4)
    assert coarse.max_abs > 1e-13
    assert fine.max_abs > 1e-13
    assert coarse.max_abs != fine.max_abs
    assert coarse.passed and fine.passed


def test_angular_generator_on_coordinates():
    # L2 q0 = i q1, L2 q1 = -i q0, L2 q2 = 0 (axes 0-indexed)
    q0, q1, q2 = (QPolynomial.variable(i) for i in range(3))
    assert angular_polynomial(2, q0).coeffs == {(0, 1, 0): 1j}
    assert angular_polynomial(2, q1).coeffs == {(1, 0, 0): -1j}
    assert angular_polynomial(2, q2).coeffs == {}


@pytest.mark.parametrize("space, corr", [(H3, 1j), (S3, -1j)])
def test_momentum_generator_on_distinguished_axis(space, corr):
    # P2 q2 = -i (1 - sigma q2^2): the curvature correction flips sign
    got = momentum_polynomial(space, 2, QPolynomial.variable(2))
    assert got.coeffs == {(0, 0, 0): -1j, (0, 0, 2): corr}


def test_momentum_on_constant_vanishes():
    one = QPolynomial({(0, 0, 0): 1.0})
    for space in (H3, S3):
        for axis in range(3):
            assert momentum_polynomial(space, axis, one).coeffs == {}


@pytest.mark.parametrize("space, want", [(H3, 1.0 + 0j), (S3, -1.0 + 0j)])
def test_pp_commutator_hand_oracle(space, want):
    """[P0, P1] q0 = -sigma i L2 q0 = sigma q1, exact in coefficients."""
    q0 = QPolynomial.variable(0)
    c = momentum_polynomial(space, 0, momentum_polynomial(space, 1, q0)) - momentum_polynomial(
        space, 1, momentum_polynomial(space, 0, q0)
    )
    assert c.coeffs == {(0, 1, 0): want}


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
    high = QPolynomial({(4, 4, 3): 1.0})
    with pytest.raises(ParameterError):
        momentum_commutators(H3, high)


def test_qpolynomial_arithmetic_evaluates_consistently():
    rng = make_rng(322)
    p = QPolynomial.random(rng, degree=4, terms=6)
    q = QPolynomial.random(rng, degree=4, terms=6)
    pts = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    for x, y, z in pts:
        assert abs((p + q)(x, y, z) - (p(x, y, z) + q(x, y, z))) < 1e-12
        assert abs((p - q)(x, y, z) - (p(x, y, z) - q(x, y, z))) < 1e-12
        prod = p * q
        assert abs(prod(x, y, z) - p(x, y, z) * q(x, y, z)) < 1e-9 * max(
            1.0, abs(p(x, y, z) * q(x, y, z))
        )
        assert abs((2.5 * p)(x, y, z) - 2.5 * p(x, y, z)) < 1e-12


def test_qpolynomial_diff_product_rule():
    rng = make_rng(323)
    p = QPolynomial.random(rng, degree=3, terms=5)
    q = QPolynomial.random(rng, degree=3, terms=5)
    for axis in range(3):
        lhs = (p * q).diff(axis)
        rhs = p.diff(axis) * q + p * q.diff(axis)
        assert (lhs - rhs).max_abs_coeff() < 1e-12


def test_qpolynomial_validation():
    with pytest.raises(ParameterError):
        QPolynomial({(1, 1): 1.0})
    with pytest.raises(ParameterError):
        QPolynomial({(-1, 0, 0): 1.0})
    with pytest.raises(ParameterError):
        QPolynomial({(7, 7, 0): 1.0})  # degree 14 > cap
    with pytest.raises(ParameterError):
        QPolynomial.variable(3)
    with pytest.raises(ParameterError):
        QPolynomial.variable(0).diff(-1)
    # zero coefficients are dropped on construction
    assert QPolynomial({(1, 0, 0): 0.0}).coeffs == {}


def test_qpolynomial_multiplication_degree_cap():
    a = QPolynomial({(4, 3, 0): 1.0})
    with pytest.raises(ParameterError):
        _ = a * a


def _per_evaluation_a3_and_l2(state, st):
    """Oracle for the stencil: the nested differences with Psi evaluated
    afresh at the coordinates of every nested call, no table."""
    Q, h, sigma = st.nodes[()], st.h, state.space.sigma

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
    for stencil in operators._stencils(st, Q, (h, h / 2.0)):
        table = operators._a3_and_l2(st, stencil)
        oracle = _per_evaluation_a3_and_l2(st, stencil)
        assert [x.tobytes() for x in table] == [x.tobytes() for x in oracle]

    calls = []

    def counted(*args):
        calls.append(args)
        return wavefunction_values(*args)

    monkeypatch.setattr(operators, "wavefunction_values", counted)
    got = runge_lenz_check(st, Q).to_json_dict()
    assert len(calls) == 1
    monkeypatch.setattr(operators, "_a3_and_l2", _per_evaluation_a3_and_l2)
    want = runge_lenz_check(st, Q).to_json_dict()
    assert json.dumps(got) == json.dumps(want)


def test_max_abs_coeff_rounds_like_python_abs():
    rng = make_rng(326)
    for _ in range(20):
        p = QPolynomial.random(rng, degree=5, terms=8) * QPolynomial.random(rng, degree=5, terms=8)
        assert p.max_abs_coeff() == max(abs(c) for c in p.coeffs.values())


def test_shift_and_diff_match_the_coefficient_rules():
    rng = make_rng(327)
    p = QPolynomial.random(rng, degree=6, terms=10)
    for axis in range(3):
        assert p.times_variable(axis).coeffs == (QPolynomial.variable(axis) * p).coeffs
        want = {}
        for key, c in p.coeffs.items():
            if key[axis]:
                lower = tuple(k - (i == axis) for i, k in enumerate(key))
                want[lower] = c * key[axis]
        assert p.diff(axis).coeffs == want


def test_shift_never_drops_the_top_slab():
    top = QPolynomial({(0, 0, 12): 1.0})
    with pytest.raises(ParameterError):
        momentum_polynomial(H3, 0, top)
    with pytest.raises(ParameterError):
        top.times_variable(2)
    with pytest.raises(ParameterError):
        top.times_variable(0)


def test_coeffs_is_a_read_only_view():
    p = QPolynomial.variable(1)
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
    reports = momentum_commutators(space, polys)
    assert rows.shape == (20, 9) and len(reports) == 20
    for p, row, report in zip(polys, rows, reports):
        vals, want = _cube_commutators(space, p)
        assert row.tobytes() == vals.tobytes()
        assert json.dumps(report.to_json_dict()) == json.dumps(want.to_json_dict())
        assert momentum_commutators(space, p) == report

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return operators.momentum_commutators(*args, **kwargs)

    monkeypatch.setattr(verify, "momentum_commutators", counted)
    verify.run_suite("commutators", space, e, 3, seed)
    assert len(calls) == 1
