"""Acceptance gate: twelve end-to-end criteria covering spectra,
separation closed forms, operator residuals, the symmetry algebra,
geometry, limits, and CLI determinism.

Each test prints exactly one [PASS]/[FAIL] line (with its runtime) so a
plain `pytest -v` run doubles as the acceptance report.
"""

import contextlib
import io
import json
import math
import re
import time

import numpy as np

from curvedkepler import (
    H3,
    QuantumNumbers,
    S3,
    assemble_state,
    b_operator_residual,
    bound_count_h3,
    bound_interval_h3,
    chart_points,
    constraint_check,
    coupling_identity_residual,
    energy,
    enumerate_states,
    flat_limit_coords,
    hamiltonian_residual,
    is_admissible,
    make_rng,
    metric_pullback_check,
    momentum_commutators,
    ode_residual,
    parabolic_to_ambient,
    ambient_to_parabolic,
    antipodal,
    parabolic_to_spherical,
    spherical_to_parabolic,
    SphericalPoint,
    QPolynomial,
    factor_samples,
    perturbed,
    quasi_points,
    radial_spherical,
    runge_lenz_check,
)
from curvedkepler.cli import main as cli_main

STATE_GRID_E = (0.5, 1.0, 2.0, 5.0, 10.0)
MAX_K = 6
FD_ORDER_RE = re.compile(r"order (\d+\.\d+)")

_STATE_CACHE = {}
_POINT_CACHE = {}


def _state_grid(space):
    if space not in _STATE_CACHE:
        states = []
        for e in STATE_GRID_E:
            for k in range(1, MAX_K + 1):
                if not is_admissible(space, e, k):
                    continue
                states.extend(assemble_state(space, e, qn) for qn in enumerate_states(k))
        _STATE_CACHE[space] = states
    return _STATE_CACHE[space]


def _shared_points(space, n=200):
    key = (space, n)
    if key not in _POINT_CACHE:
        _POINT_CACHE[key] = chart_points(space, make_rng(9001 if space is H3 else 9002), n=n)
    return _POINT_CACHE[key]


@contextlib.contextmanager
def criterion(capsys, num, desc, runtime_limit):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] criterion {num:2d}: {desc}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < runtime_limit, f"criterion {num} took {elapsed:.1f} s"
    with capsys.disabled():
        print(f"[PASS] criterion {num:2d}: {desc} ({elapsed:.2f} s)")


def test_criterion_01_h3_spectrum(capsys):
    with criterion(capsys, 1, "H3 spectrum closed form, interval, bound counts", 1.0):
        for e, want_count in [(5.0, 2), (10.0, 3), (20.0, 4)]:
            assert bound_count_h3(e) == want_count
            lo, hi = bound_interval_h3(e)
            assert lo == -e * e / 2.0 and hi == 0.5 - e
            ks = [k for k in range(1, 30) if k * k < e]
            assert len(ks) == want_count
            for k in ks:
                eps = energy(H3, e, k)
                assert eps == -e * e / (2.0 * k * k) - (k * k - 1.0) / 2.0
                assert lo <= eps < hi


def test_criterion_02_s3_spectrum_and_degeneracy(capsys):
    with criterion(capsys, 2, "S3 spectrum closed form and k^2 degeneracy", 1.0):
        for e in (2.0, 5.0):
            for k in range(1, 7):
                assert energy(S3, e, k) == -e * e / (2.0 * k * k) + (k * k - 1.0) / 2.0
                assert len(enumerate_states(k)) == k * k


def test_criterion_03_separation_identities(capsys):
    with criterion(capsys, 3, "separation closed-form identities on the state grid", 1.0):
        for space in (H3, S3):
            states = _state_grid(space)
            assert states
            for st in states:
                qn = st.qn
                assert abs(st.b1 + st.b2) < 1e-12
                assert st.beta1 == -qn.n1 and st.beta2 == -qn.n2
                assert st.gamma1 == abs(qn.m) + 1 == st.gamma2
                want = st.e if space is H3 else -1j * st.e
                assert abs((st.k1 - st.k2) - want) < 1e-12


def test_criterion_04_ode_residuals_and_sensitivity(capsys):
    with criterion(capsys, 4, "ODE residuals < 1e-10; eps-perturbation > 1e-5", 10.0):
        for space in (H3, S3):
            rng = make_rng(41 if space is H3 else 42)
            for st in _state_grid(space):
                for which in (1, 2):
                    sample = factor_samples(space, rng, which, n=100)
                    report = ode_residual(st, which, sample)
                    assert report.passed and report.max_rel < 1e-10, (st.qn, which, report)
                    bad = ode_residual(perturbed(st, epsilon=1e-3), which, sample)
                    assert bad.max_rel > 1e-5, (st.qn, which, bad.max_rel)


def test_criterion_05_hamiltonian_residual(capsys):
    with criterion(capsys, 5, "Hamiltonian eigen-residual < 1e-9 on 200 points/state", 30.0):
        for space in (H3, S3):
            pts = _shared_points(space)
            for st in _state_grid(space):
                report = hamiltonian_residual(st, pts)
                assert report.passed and report.max_rel < 1e-9, (space, st.qn, report)


def test_criterion_06_b_operator(capsys):
    with criterion(capsys, 6, "B-operator eigenvalue < 1e-9; coupling identity 1e-12", 30.0):
        for space in (H3, S3):
            pts = _shared_points(space)
            assert coupling_identity_residual(space, pts).max_abs < 1e-12
            for st in _state_grid(space):
                report = b_operator_residual(st, pts)
                assert report.passed and report.max_rel < 1e-9, (space, st.qn, report)


def test_criterion_07_runge_lenz(capsys):
    with criterion(capsys, 7, "Runge-Lenz FD identity < 1e-4, order 2.0 +/- 0.2", 120.0):
        cases = {
            H3: (5.0, [QuantumNumbers(0, 0, 0), QuantumNumbers(0, 1, 0), QuantumNumbers(0, 0, 1)]),
            S3: (2.0, [QuantumNumbers(0, 0, 0), QuantumNumbers(0, 1, 0), QuantumNumbers(0, 0, 1)]),
        }
        for space, (e, qns) in cases.items():
            pts = quasi_points(space, make_rng(71 if space is H3 else 72), n=50)
            for qn in qns:
                report = runge_lenz_check(assemble_state(space, e, qn), pts)
                assert report.passed and report.max_rel < 1e-4, (space, qn, report)
                order = float(FD_ORDER_RE.search(report.note).group(1))
                assert 1.8 <= order <= 2.2, (space, qn, order)


def test_criterion_08_commutator_algebra(capsys):
    with criterion(capsys, 8, "so(3,1)/so(4) commutators exact on 20 random polys", 5.0):
        for space in (H3, S3):
            rng = make_rng(81 if space is H3 else 82)
            for _ in range(20):
                report = momentum_commutators(space, QPolynomial.random(rng, degree=6))
                assert report.passed and report.max_abs < 1e-12, (space, report)


def test_criterion_09_geometry(capsys):
    with criterion(capsys, 9, "chart round-trips, constraint, pullback, antipodal", 10.0):
        for space in (H3, S3):
            pts = chart_points(space, make_rng(91 if space is H3 else 92), n=10_000)
            for p in pts:
                s = parabolic_to_spherical(space, p)
                back = spherical_to_parabolic(space, s)
                assert abs(back.t1 - p.t1) < 1e-10 and abs(back.t2 - p.t2) < 1e-10
                if space is S3:
                    assert constraint_check(p).max_abs < 1e-12
            rng = make_rng(93)
            for _ in range(25):
                s = SphericalPoint(
                    float(rng.uniform(0.3, 1.4)),
                    float(rng.uniform(0.3, math.pi - 0.3)),
                    float(rng.uniform(0.0, 2.0 * math.pi)),
                )
                assert metric_pullback_check(space, s).max_rel < 1e-6
        for p in _shared_points(S3, n=500):
            amb = parabolic_to_ambient(S3, p)
            q = ambient_to_parabolic(S3, antipodal(amb))
            assert abs(q.t1 - p.t2) < 1e-12 and abs(q.t2 - p.t1) < 1e-12


def test_criterion_10_flat_limit(capsys):
    with criterion(capsys, 10, "flat-limit errors decay with slope -1 +/- 0.1", 1.0):
        rhos = [1e2, 1e3, 1e4]
        for space in (H3, S3):
            table = flat_limit_coords(space, rhos, (0.3, 0.2, 0.4))
            for errs in (table.err_t1, table.err_t2):
                slope = np.polyfit(np.log(rhos), np.log(errs), 1)[0]
                assert abs(slope + 1.0) < 0.1, (space, slope)


def test_criterion_11_substitution_symmetry(capsys):
    with criterion(capsys, 11, "radial substitution symmetry to 1e-10, n <= 4", 1.0):
        rng = make_rng(111)
        chis = rng.uniform(0.05, 3.0, 50)
        for e in (1.5, 5.0):
            for n in range(1, 5):
                for l in range(n):
                    for chi in chis:
                        h3_val = radial_spherical(H3, e, n, l, float(chi))
                        s3_val = radial_spherical(
                            S3, complex(0.0, -e), n, l, complex(0.0, float(chi))
                        )
                        diff = abs(s3_val - (1j**l) * h3_val)
                        assert diff < 1e-10 * max(1.0, abs(h3_val)), (e, n, l, chi)


def test_criterion_12_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 12, "verify all: exit 0 and byte-identical reruns", 60.0):
        blobs = []
        for name in ("a.json", "b.json"):
            out = io.StringIO()
            path = tmp_path / name
            with contextlib.redirect_stdout(out):
                rc = cli_main(["verify", "all", "--out", str(path)])
            assert rc == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
        payload = json.loads(blobs[0])
        assert payload["passed"] is True and payload["seed"] == 7
