"""Bound-state construction tests: spectra, admissibility, parameter
assembly, separated factors, radial functions, and normalization.

The closed-form parameter bundles are pinned both by hand-computed
frozen examples and by the algebraic relations the assembly must
satisfy for every admissible state.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curvedkepler import kepler
from curvedkepler import (
    BoundStateError,
    DomainError,
    H3,
    IntegrabilityError,
    ParameterError,
    QuantumNumbers,
    S3,
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


def test_h3_energies_lie_in_bound_interval():
    for e in (5.0, 10.0, 20.0):
        lo, hi = bound_interval_h3(e)
        for k in range(1, bound_count_h3(e) + 1):
            eps = energy(H3, e, k)
            assert lo <= eps < hi, (e, k, eps)


def test_inadmissible_energy_needs_force():
    with pytest.raises(BoundStateError):
        energy(H3, 5.0, 3)
    val = energy(H3, 5.0, 3, force=True)
    assert val == -25.0 / 18.0 - 4.0


def test_s3_always_admissible():
    for k in range(1, 10):
        assert is_admissible(S3, 0.1, k)
        assert is_admissible(S3, 100.0, k)


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


def test_factor_value_closed_form_powers():
    """With n1 = n2 = 0 the series terminates at one term, so each factor
    is exactly t^a (1-t)^b; compare against cmath arithmetic."""
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))
    for t in (0.7, 0.3 + 0.4j, -0.2 + 0.1j):
        got = factor(st, 1).value(t)
        want = cmath.exp(st.a1 * cmath.log(t)) * cmath.exp(st.b1 * cmath.log(1.0 - t))
        assert abs(got - want) < 1e-14 * max(1.0, abs(want)), t


def test_factor_value_frozen():
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 1))
    got = factor(st, 1).value(0.7)
    assert abs(got - (0.6895855519843869 + 0.47378451483178363j)) < 5e-15


def _psi_oracle(st, p):
    """Psi at one chart point as the product of the per-point factor values."""
    return factor(st, 1).value(p.t1) * factor(st, 2).value(p.t2) * cmath.exp(1j * st.qn.m * p.phi)


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
        H3, (np.linspace(0.0, 3.0, 40), np.linspace(0.0, math.pi, 40)[:, None], 0.0)
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
    f1 = factor(st, 1).value(0.4)
    series = 1.0 + st.alpha2 * st.beta2 / st.gamma2 * -3.0  # n2 = 1: degree one
    want = f1 * 1j * math.sqrt(3.0) * 4.0**st.b2 * series
    assert abs(plus - want) < 1e-13 * abs(want)


def test_h3_factor_far_tail_consistency():
    """The far-tail evaluation (|t| > 1e2) must continue the plain product
    smoothly; compare both routes near the switchover via log-extrapolation
    of the decaying power law."""
    st = assemble_state(H3, 5.0, QuantumNumbers(0, 1, 0))
    fac = factor(st, 2)
    # the closed form is t^a (1-t)^b P(t) with a+b+deg < 0: the ratio of
    # values at -99 (plain) and -101 (far tail) must match the local
    # power-law exponent to high accuracy
    v_plain = fac.value(-99.0)
    v_far = fac.value(-101.0)
    exponent = st.a2 + st.b2 + (-st.beta2.real)
    want_ratio = abs(complex(v_far / v_plain))
    model_ratio = (101.0 / 99.0) ** exponent.real
    assert abs(want_ratio / model_ratio - 1.0) < 1e-3


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
    finer = normalize(st, n_chi=192, n_theta=96)
    assert abs(finer.constant - res.constant) < NORM_RTOL


def test_normalize_rejects_non_normalizable():
    st = assemble_state(H3, 5.0, QuantumNumbers(0, 1, 0))
    with pytest.raises(IntegrabilityError):
        normalize(perturbed(st, b2=5.0))


@pytest.mark.parametrize("name", ["n_chi", "n_theta"])
@pytest.mark.parametrize("order", [0, -1, 128.0, True])
def test_normalize_rejects_bad_quadrature_orders(name, order):
    st = assemble_state(S3, 2.0, QuantumNumbers(0, 0, 0))
    with pytest.raises(ParameterError):
        normalize(st, **{name: order})


def _normalize_oracle(state, n_chi, n_theta):
    """normalize() with every Gauss-Legendre rule built afresh by numpy."""

    def quad(top, nc, nt):
        x, wx = np.polynomial.legendre.leggauss(nc)
        y, wy = np.polynomial.legendre.leggauss(nt)
        chi = 0.5 * top * (x + 1.0)
        theta = 0.5 * math.pi * (y + 1.0)
        dens = kepler._density_on_grid(state, chi, theta)
        wtheta = 0.5 * math.pi * wy * np.sin(theta)
        return 2.0 * math.pi * float((0.5 * top * wx) @ dens @ wtheta)

    chi_max = kepler._h3_chi_cutoff(state) if state.space is H3 else None
    top = math.pi if chi_max is None else chi_max
    i1 = quad(top, n_chi, n_theta)
    i2 = quad(top, 2 * n_chi, 2 * n_theta)
    c = 1.0 / math.sqrt(i2)
    return c, abs(1.0 / math.sqrt(i1) - c) / c, chi_max


@pytest.mark.parametrize("orders", [(128, 64), (192, 96)])
@pytest.mark.parametrize(
    "space, e, qn", [(S3, 2.0, (1, 1, 0)), (S3, 2.0, (0, 2, -2)), (H3, 100.0, (0, 0, 0)), (H3, 100.0, (2, 1, 1))]
)
def test_normalize_with_cached_rules_is_bit_identical(space, e, qn, orders):
    st = assemble_state(space, e, QuantumNumbers(*qn))
    for _ in range(2):  # the second call reads the cached rules
        res = normalize(st, *orders)
        assert (res.constant, res.error_estimate, res.chi_max) == _normalize_oracle(st, *orders)
        assert (res.n_chi, res.n_theta) == orders


def test_normalize_builds_each_rule_once(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    kepler._gauss_legendre.cache_clear()
    for _ in range(3):
        for qn in [(0, 0, 0), (1, 1, 0)]:
            normalize(assemble_state(S3, 2.0, QuantumNumbers(*qn)))
            normalize(assemble_state(H3, 100.0, QuantumNumbers(*qn)))
    assert sorted(built) == [64, 128, 256]
    normalize(assemble_state(S3, 2.0, QuantumNumbers(0, 0, 0)), n_chi=96, n_theta=64)
    assert sorted(built) == [64, 96, 128, 192, 256]


_FRESH_PROCESS = """
import numpy as np
leggauss = np.polynomial.legendre.leggauss
built = []
np.polynomial.legendre.leggauss = lambda n: built.append(n) or leggauss(n)
from curvedkepler import H3, S3, QuantumNumbers, assemble_state, normalize
on_import = list(built)
normalize(assemble_state(S3, 2.0, QuantumNumbers(0, 0, 0)))
normalize(assemble_state(H3, 100.0, QuantumNumbers(1, 1, 0)))
print(on_import, built)
"""


def test_import_builds_the_default_rules():
    """In a fresh process the default rules exist before the first normalize()."""
    src = str(Path(kepler.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split("\n")[0] == "[64, 128, 256] [64, 128, 256]"


def test_cached_rules_are_read_only():
    x, w = kepler._gauss_legendre(16)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


@pytest.mark.xfail(
    strict=True,
    reason="S3 states jump across the equator chi = pi/2 (principal branch of "
    "(1-t)^b), so the quadrature converges only algebraically",
)
@pytest.mark.parametrize("qn", [(0, 0, 0), (1, 1, 0)])
def test_normalize_s3_converges_spectrally(qn):
    res = normalize(assemble_state(S3, 2.0, QuantumNumbers(*qn)))
    assert res.error_estimate <= 1e-12


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
    for space, e, qn in [(H3, 5.0, QuantumNumbers(0, 1, 0)), (S3, 2.0, QuantumNumbers(1, 0, -1))]:
        st = assemble_state(space, e, qn)
        blob = json.dumps(st.to_json_dict())
        back = StateParams.from_json_dict(json.loads(blob))
        assert back == st
