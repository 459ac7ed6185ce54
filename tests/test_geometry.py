"""Chart and embedding tests: parabolic / spherical / ambient coordinate
maps, the quasi-Cartesian map of the Runge-Lenz stencil, metric
components and their pullback, constraint closure, the antipodal map and
the flat limit.

Frozen oracle points were derived by hand from the defining chart
relations (see the exact values noted next to each).
"""

import cmath
import math
import warnings

import numpy as np
import pytest

from curvedkepler import (
    ConstraintError,
    DomainError,
    H3,
    IndeterminateCoordinateWarning,
    ParabolicPoints,
    ParameterError,
    QuantumNumbers,
    S3,
    SingularLocusError,
    SphericalPoint,
    ambient_to_parabolic,
    antipodal,
    assemble_state,
    chart_points,
    constraint_check,
    factor_samples,
    flat_limit_coords,
    make_rng,
    metric_parabolic,
    metric_pullback_check,
    normalize,
    parabolic_to_ambient,
    parabolic_to_spherical,
    pullback_accepts,
    pullback_points,
    quasi_points,
    spherical_to_parabolic,
)
from curvedkepler import geometry, kepler, verify
from curvedkepler.operators import _quasi_to_chart

ROUNDTRIP_TOL = 1e-10
CONSTRAINT_TOL = 1e-12
METRIC_FORMULA_TOL = 1e-14
PULLBACK_TOL = 1e-6
PULLBACK_EXACT_TOL = 1e-12
JACOBIAN_FD_TOL = 1e-8
ANTIPODAL_TOL = 1e-12
N_ROUNDTRIP = 2000

# (0.5, -1, phi) <-> (ln 2, arccos(1/3), phi): with chi = ln 2 one has
# sinh(chi) = 3/4, e^{-chi} = 1/2, e^{chi} = 2, so t1 = (4/3)(3/4)(1/2) = 1/2
# and t2 = -(2/3)(3/4)(2) = -1.
H3_EXACT_PARABOLIC = (0.5, -1.0)
H3_EXACT_SPHERICAL = (math.log(2.0), math.acos(1.0 / 3.0))

# chi = pi/4, theta = pi/3: w = sin(chi) e^{i(pi/2-chi)} = (1+i)/2, so
# t1 = (3/2) w = 0.75 + 0.75i and t2 = (1/2) conj(w) = 0.25 - 0.25i.
S3_EXACT_T1 = 0.75 + 0.75j
S3_EXACT_T2 = 0.25 - 0.25j


def test_h3_exact_chart_point_forward():
    chi, theta = H3_EXACT_SPHERICAL
    p = spherical_to_parabolic(H3, SphericalPoint(chi, theta, 0.3))
    assert abs(p.t1 - H3_EXACT_PARABOLIC[0]) < 1e-15
    assert abs(p.t2 - H3_EXACT_PARABOLIC[1]) < 2e-15
    assert p.phi == 0.3


def test_h3_exact_chart_point_inverse():
    s = parabolic_to_spherical(H3, ParabolicPoints(0.5, -1.0, 0.3))
    assert abs(s.chi - H3_EXACT_SPHERICAL[0]) < 1e-15
    assert abs(s.theta - H3_EXACT_SPHERICAL[1]) < 1e-15
    assert s.phi == 0.3


def test_s3_exact_chart_point():
    p = spherical_to_parabolic(S3, SphericalPoint(math.pi / 4.0, math.pi / 3.0, 0.7))
    assert abs(p.t1 - S3_EXACT_T1) < 2e-15
    assert abs(p.t2 - S3_EXACT_T2) < 2e-15


def test_h3_ambient_oracle():
    # (1.25, sqrt(1/2), 0, 0.25): r = sqrt(1/2 + 1/16) = 3/4, so
    # t1 = (1/4 + 3/4)/(5/4 + 3/4) = 1/2, t2 = (1/4 - 3/4)/(5/4 - 3/4) = -1.
    amb = np.array([1.25, math.sqrt(0.5), 0.0, 0.25])
    assert abs(geometry._quadric(H3, amb) - 1.0) < 1e-15
    q = ambient_to_parabolic(H3, amb)
    assert abs(q.t1 - 0.5) < 1e-15
    assert abs(q.t2 + 1.0) < 1e-12
    assert abs(q.phi) == 0.0


def test_h3_ambient_axis_point_warns():
    # c1 = c2 = 0 leaves phi indeterminate; t1 = 2/(sqrt(2)+1) = 2(sqrt(2)-1)
    with pytest.warns(IndeterminateCoordinateWarning):
        q = ambient_to_parabolic(H3, np.array([math.sqrt(2.0), 0.0, 0.0, 1.0]))
    assert abs(q.t1 - (2.0 * math.sqrt(2.0) - 2.0)) < 4e-15
    assert q.t2 == 0.0


@pytest.mark.parametrize("space, seed", [(H3, 101), (S3, 102)])
def test_parabolic_spherical_roundtrip(space, seed):
    rng = make_rng(seed)
    pts = chart_points(space, rng, n=N_ROUNDTRIP)
    worst = 0.0
    for p in pts:
        s = parabolic_to_spherical(space, p)
        back = spherical_to_parabolic(space, s)
        worst = max(worst, abs(back.t1 - p.t1), abs(back.t2 - p.t2))
        assert abs(cmath.exp(1j * (back.phi - p.phi)) - 1.0) < ROUNDTRIP_TOL
    assert worst < ROUNDTRIP_TOL, worst


@pytest.mark.parametrize("space, chi_max, chi_tol", [(S3, math.pi, 1e-15), (H3, 5.0, 5e-12)])
def test_spherical_roundtrip_is_accurate_on_a_grid_with_the_axis(space, chi_max, chi_tol):
    """400 chi in (0, chi_max] by 300 theta in [0, pi], ends included: theta = 0
    and pi come back exactly on the axis, and every point within the bounds."""
    chi = np.linspace(0.0, chi_max, 401)[1:, None]
    theta = np.linspace(0.0, math.pi, 300)[None, :]
    back = parabolic_to_spherical(space, spherical_to_parabolic(space, SphericalPoint(chi, theta, 0.3)))
    assert (back.theta[:, 0] == 0.0).all() and (back.theta[:, -1] == math.pi).all()
    assert np.abs(back.theta - theta).max() <= 1e-13
    assert np.abs(back.chi - chi).max() <= chi_tol


@pytest.mark.parametrize("space, seed", [(H3, 103), (S3, 104)])
def test_parabolic_ambient_roundtrip(space, seed):
    rng = make_rng(seed)
    pts = chart_points(space, rng, n=N_ROUNDTRIP // 4)
    for p in pts:
        amb = parabolic_to_ambient(space, p)
        assert abs(geometry._quadric(space, amb) - 1.0) < CONSTRAINT_TOL
        back = ambient_to_parabolic(space, amb)
        assert abs(back.t1 - p.t1) < ROUNDTRIP_TOL
        assert abs(back.t2 - p.t2) < ROUNDTRIP_TOL
        assert abs(cmath.exp(1j * (back.phi - p.phi)) - 1.0) < ROUNDTRIP_TOL


@pytest.mark.parametrize("space, seed", [(H3, 105), (S3, 106)])
def test_quasi_roundtrip(space, seed):
    """The Runge-Lenz stencil's map Q -> (t1, t2, phi) lands on the quadric
    point whose ratios c_l/c0 give Q back."""
    Q = quasi_points(space, make_rng(seed), n=200)
    assert Q.shape == (3, 200)
    c = parabolic_to_ambient(space, ParabolicPoints(*_quasi_to_chart(space, Q)))
    assert np.max(np.abs(geometry._quadric(space, c) - 1.0)) < CONSTRAINT_TOL
    assert np.max(np.abs(c[1:] / c[0] - Q)) < ROUNDTRIP_TOL


def test_h3_lower_sheet_rejected():
    amb = parabolic_to_ambient(H3, ParabolicPoints(0.25, -0.5, 0.0))
    with pytest.raises(DomainError):
        ambient_to_parabolic(H3, antipodal(amb))


def test_off_quadric_rejected():
    with pytest.raises(DomainError):
        ambient_to_parabolic(H3, np.array([1.0, 1.0, 1.0, 1.0]))


def test_antipodal_swaps_s3_factors():
    rng = make_rng(107)
    for p in chart_points(S3, rng, n=300):
        amb = parabolic_to_ambient(S3, p)
        q = ambient_to_parabolic(S3, antipodal(amb))
        assert abs(q.t1 - p.t2) < ANTIPODAL_TOL
        assert abs(q.t2 - p.t1) < ANTIPODAL_TOL
        assert abs(cmath.exp(1j * (q.phi - p.phi - math.pi)) - 1.0) < ANTIPODAL_TOL


def test_metric_frozen_values():
    g = metric_parabolic(H3, ParabolicPoints(0.5, -1.0, 0.3))
    assert np.allclose(np.diag(g), [3.0, 0.09375, 0.5], rtol=0, atol=1e-15)
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) == 0.0


def _inserted(pts, i, p):
    """The batch, as complex values, with the point p inserted before index i."""
    t1 = np.insert(pts.t1.astype(complex), i, p.t1)
    t2 = np.insert(pts.t2.astype(complex), i, p.t2)
    return ParabolicPoints(t1, t2, np.insert(pts.phi, i, p.phi))


@pytest.mark.parametrize("space, seed", [(H3, 129), (S3, 130)])
def test_metric_stack_matches_single_points_and_refuses_singular_ones(space, seed):
    pts = chart_points(space, make_rng(seed), n=50)
    stack = metric_parabolic(space, pts)
    assert stack.shape == (50, 3, 3)
    for p, g in zip(pts, stack):
        assert metric_parabolic(space, p).tobytes() == g.tobytes()
    bad = ParabolicPoints(0.0, -0.5, 0.0)
    with pytest.raises(SingularLocusError) as scalar:
        metric_parabolic(space, bad)
    with pytest.raises(SingularLocusError) as batched:
        metric_parabolic(space, _inserted(pts, 9, bad))
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize(
    "space, sign, seed",
    [(H3, 1.0, 108), (S3, -1.0, 109)],
)
def test_metric_component_formulas(space, sign, seed):
    """Diagonal components against the hand-derived closed forms.

    H3: g11 = (t1-t2)/(4 t1 (1-t1)^2), g22 = -(t1-t2)/(4 t2 (1-t2)^2),
        gpp = -t1 t2; the S3 chart carries the opposite overall sign.
    """
    rng = make_rng(seed)
    for p in chart_points(space, rng, n=100):
        g = metric_parabolic(space, p)
        d = p.t1 - p.t2
        want = np.array(
            [
                sign * d / (4.0 * p.t1 * (1.0 - p.t1) ** 2),
                -sign * d / (4.0 * p.t2 * (1.0 - p.t2) ** 2),
                -sign * p.t1 * p.t2,
            ]
        )
        scale = np.maximum(1.0, np.abs(want))
        assert np.max(np.abs(np.diag(g) - want) / scale) < METRIC_FORMULA_TOL


@pytest.mark.parametrize("space, seed", [(H3, 110), (S3, 111)])
def test_metric_pullback_against_embedding(space, seed):
    rng = make_rng(seed)
    for _ in range(10):
        s = SphericalPoint(
            float(rng.uniform(0.3, 1.4)),
            float(rng.uniform(0.3, math.pi - 0.3)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        report = metric_pullback_check(space, s)
        assert report.passed, report
        assert report.max_rel < PULLBACK_TOL


def _pullback_points(space, seed, n):
    """Random spherical points inside the metric suite's sampling box."""
    rng = make_rng(seed)
    chi_hi = 2.5 if space is H3 else math.pi - 0.15
    return [
        SphericalPoint(
            float(rng.uniform(0.15, chi_hi)),
            float(rng.uniform(0.15, math.pi - 0.15)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        for _ in range(n)
    ]


def _fd_chart_jacobian(space, p, h):
    """Central-difference Jacobian of (chi, theta, phi) -> (t1, t2, phi)."""
    jac = np.zeros((3, 3), dtype=complex)
    for col, (dchi, dth) in enumerate(((h, 0.0), (0.0, h))):
        plus = spherical_to_parabolic(space, SphericalPoint(p.chi + dchi, p.theta + dth, p.phi))
        minus = spherical_to_parabolic(space, SphericalPoint(p.chi - dchi, p.theta - dth, p.phi))
        jac[0, col] = (plus.t1 - minus.t1) / (2.0 * h)
        jac[1, col] = (plus.t2 - minus.t2) / (2.0 * h)
    jac[2, 2] = 1.0
    return jac


@pytest.mark.parametrize("space, seed", [(H3, 118), (S3, 119)])
def test_metric_pullback_is_exact(space, seed):
    checked = 0
    for s in _pullback_points(space, seed, 200):
        try:
            report = metric_pullback_check(space, s)
        except (DomainError, SingularLocusError):
            continue
        checked += 1
        assert report.passed, report
        assert report.max_rel <= PULLBACK_EXACT_TOL, (s, report.max_rel)
    assert checked > 150


@pytest.mark.parametrize("space, seed", [(H3, 120), (S3, 121)])
def test_chart_jacobian_matches_central_differences(space, seed):
    h = 1e-5
    points = _pullback_points(space, seed, 50)
    chi = np.array([s.chi for s in points])
    theta = np.array([s.theta for s in points])
    jacs = geometry._chart_jacobian(space, chi, theta)
    assert jacs.shape == (50, 3, 3)
    for s, jac in zip(points, jacs):
        oracle = (4.0 * _fd_chart_jacobian(space, s, h / 2.0) - _fd_chart_jacobian(space, s, h)) / 3.0
        assert np.max(np.abs(jac - oracle) / (1.0 + np.abs(oracle))) < JACOBIAN_FD_TOL, s


@pytest.mark.parametrize("space", [H3, S3])
@pytest.mark.parametrize(
    "corrupt",
    [lambda g: -g, lambda g: g * np.array([1.0 + 1e-4, 1.0, 1.0])],
    ids=["negated", "perturbed"],
)
def test_metric_pullback_detects_a_wrong_metric(space, corrupt, monkeypatch):
    exact = geometry.metric_parabolic
    monkeypatch.setattr(geometry, "metric_parabolic", lambda sp, p: corrupt(exact(sp, p)))
    for s in _pullback_points(space, 122, 10):
        assert not metric_pullback_check(space, s).passed, s


@pytest.mark.parametrize("space", [H3, S3])
def test_metric_pullback_maps_each_point_once(space, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return spherical_to_parabolic(*args)

    monkeypatch.setattr(geometry, "spherical_to_parabolic", counted)
    points = _pullback_points(space, 123, 10)
    for s in points:
        metric_pullback_check(space, s)
    assert len(calls) == len(points)
    chi = np.array([s.chi for s in points])
    theta = np.array([s.theta for s in points])
    metric_pullback_check(space, SphericalPoint(chi, theta, 0.0))
    assert len(calls) == len(points) + 1


def _scalar_metric_suite_points(space, seed):
    """The metric suite's points as its per-point rejection loop drew them."""
    rng = verify._suite_rng(seed, "metric")
    chi_hi = 2.5 if space is H3 else math.pi - 0.15
    out = []
    while len(out) < verify.METRIC_POINTS:
        s = SphericalPoint(
            rng.uniform(0.15, chi_hi),
            rng.uniform(0.15, math.pi - 0.15),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        try:
            metric_pullback_check(space, s)
        except (DomainError, SingularLocusError):
            continue
        out.append((float(s.chi), float(s.theta)))
    return out


@pytest.mark.parametrize("space", [H3, S3])
def test_metric_suite_draws_the_points_of_the_scalar_loop(space, monkeypatch):
    seen = []

    def recorded(sp, p, **kw):
        seen.append(p)
        return metric_pullback_check(sp, p, **kw)

    monkeypatch.setattr(verify, "metric_pullback_check", recorded)
    for seed in range(24):
        seen.clear()
        (result,) = verify.run_suite("metric", space, 2.0 if space is S3 else 10.0, 1, seed)
        [p] = seen
        drawn = list(zip(p.chi.tolist(), p.theta.tolist()))
        assert drawn == _scalar_metric_suite_points(space, seed), seed
        assert result.report.passed and result.report.n_points == 9 * verify.METRIC_POINTS


@pytest.mark.parametrize(
    "space, centre",
    [(S3, (math.pi / 2.0, math.pi / 2.0)), (H3, (0.05, 0.5)), (S3, (0.05, 1.0))],
)
def test_pullback_accepts_exactly_the_points_the_check_accepts(space, centre):
    """Near a refusal boundary the mask and the single-point check agree."""
    rng = make_rng(124)
    chi = centre[0] + rng.uniform(-2e-3, 2e-3, 400)
    theta = centre[1] + rng.uniform(-2e-3, 2e-3, 400)
    mask = pullback_accepts(space, SphericalPoint(chi, theta, 0.0))
    for c, t, ok in zip(chi, theta, mask):
        try:
            metric_pullback_check(space, SphericalPoint(c, t, 0.0))
        except (DomainError, SingularLocusError):
            assert not ok, (c, t)
        else:
            assert ok, (c, t)
    assert 0 < mask.sum() < mask.size
    with pytest.raises((DomainError, SingularLocusError)):
        metric_pullback_check(space, SphericalPoint(chi, theta, 0.0))
    assert metric_pullback_check(space, SphericalPoint(chi[mask], theta[mask], 0.0)).passed


def _scalar_pullback(space, chi, theta):
    """J^T G J at one point from math/cmath closed forms, summed in Python."""
    c, s = math.cos(theta), math.sin(theta)
    if space is H3:
        u1, u2 = math.sinh(chi) * math.exp(-chi), -math.sinh(chi) * math.exp(chi)
        du1, du2 = math.exp(-2.0 * chi), -math.exp(2.0 * chi)
    else:
        u1 = math.sin(chi) * cmath.exp(1j * (math.pi / 2.0 - chi))
        du1 = 1j * cmath.exp(-2j * chi)
        u2, du2 = u1.conjugate(), du1.conjugate()
    t1, t2 = (1.0 + c) * u1, (1.0 - c) * u2
    sign = 1.0 if space is H3 else -1.0
    g = [
        sign * (t1 - t2) / (4.0 * t1 * (1.0 - t1) ** 2),
        sign * (t2 - t1) / (4.0 * t2 * (1.0 - t2) ** 2),
        -sign * t1 * t2,
    ]
    jac = [[(1.0 + c) * du1, -s * u1, 0.0], [(1.0 - c) * du2, s * u2, 0.0], [0.0, 0.0, 1.0]]
    return [
        [sum(jac[k][i] * g[k] * jac[k][j] for k in range(3)) for j in range(3)] for i in range(3)
    ]


@pytest.mark.parametrize("space, seed", [(H3, 125), (S3, 126)])
def test_pullback_entries_match_a_math_oracle(space, seed):
    points = [
        s for s in _pullback_points(space, seed, 200) if pullback_accepts(space, s)
    ]
    chi = np.array([s.chi for s in points])
    theta = np.array([s.theta for s in points])
    jac = geometry._chart_jacobian(space, chi, theta)
    center = spherical_to_parabolic(space, SphericalPoint(chi, theta, 0.0))
    pull = np.swapaxes(jac, -1, -2) @ metric_parabolic(space, center) @ jac
    assert pull.shape == (len(points), 3, 3) and len(points) > 150
    for got, c, t in zip(pull, chi, theta):
        want = np.array(_scalar_pullback(space, c, t))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), (c, t)


def test_constraint_closure_on_s3_samples():
    pts = chart_points(S3, make_rng(112), n=400)
    singles = [constraint_check(p) for p in pts]
    for report in singles:
        assert report.passed
        assert report.max_abs < CONSTRAINT_TOL
    # the batch is one report of the same residuals
    batch = constraint_check(pts)
    assert batch.passed and batch.n_points == 800
    assert batch.max_abs == max(r.max_abs for r in singles)
    worst = max(singles, key=lambda r: r.max_rel)
    assert batch.worst_point == worst.worst_point
    t1, t2, phi = batch.to_json_dict()["worst_point"]
    assert len(t1) == len(t2) == 2 and isinstance(phi, float)


def test_constraint_batch_flags_a_corrupted_point():
    pts = chart_points(S3, make_rng(127), n=200)
    t2 = pts.t2.copy()
    t2[137] += 0.01
    report = constraint_check(ParabolicPoints(pts.t1, t2, pts.phi))
    assert not report.passed
    assert report.worst_point == (pts.t1[137], t2[137], pts.phi[137])
    assert isinstance(report.worst_point[2], float)


def test_constraint_detects_corruption():
    p = ParabolicPoints(S3_EXACT_T1, S3_EXACT_T2 + 0.01, 0.0)
    assert not constraint_check(p).passed
    # H3 points genuinely do not satisfy the S3 closure
    assert not constraint_check(ParabolicPoints(0.25, -0.5, 0.0)).passed


def test_origin_is_flagged_indeterminate():
    with pytest.warns(IndeterminateCoordinateWarning):
        s = parabolic_to_spherical(S3, ParabolicPoints(0j, 0j, 0.7))
    assert s.chi == 0.0 and s.theta == 0.0 and s.phi == 0.7


def test_origin_with_negative_zeros_maps_to_theta_zero():
    # on H3 t1 = t2 = -0 gives c3 = -0, where atan2(0, -0) would read pi
    with pytest.warns(IndeterminateCoordinateWarning):
        s = parabolic_to_spherical(H3, ParabolicPoints(-0.0, -0.0, 0.7))
    assert s.chi == 0.0 and s.theta == 0.0


@pytest.mark.parametrize("space", [H3, S3])
def test_theta_round_trips_near_the_axis(space):
    """2 sin^2(theta/2) keeps t2 where 1 - cos(theta) cancels, and atan2 reads theta back: within
    4 ulp of pi, and within 1e-14 relative (t1 near 1 holds chi to a few ulp at chi = 2 on H3)."""
    for chi in (1.0, 2.0):
        for theta in (1e-8, 1e-6, math.pi - 1e-8):
            back = parabolic_to_spherical(space, spherical_to_parabolic(space, SphericalPoint(chi, theta, 0.3)))
            err = abs(float(back.theta) - theta)
            assert err <= 4.0 * np.spacing(math.pi) and err <= 1e-14 * theta, (chi, theta, err)


@pytest.mark.parametrize("space, e", [(H3, 10.0), (S3, 2.0)])
def test_the_chart_and_the_separated_grids_share_one_product(monkeypatch, space, e):
    """On a (chi column, theta row) grid t_i is a_i(theta) u_i(chi) bit for bit, in half-angle and
    expm1 forms, and eval's and normalize's separated grids read a and u from the same function."""
    chi = np.linspace(0.0, 5.0 if space is H3 else math.pi, 41)
    theta = np.linspace(0.0, math.pi, 23)
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    a = (2.0 * c * c, 2.0 * s * s)
    if space is H3:
        u = (-0.5 * np.expm1(-2.0 * chi), -0.5 * np.expm1(2.0 * chi))
    else:
        u = (np.sin(chi) * (np.sin(chi) + 1j * np.cos(chi)), np.sin(chi) * (np.sin(chi) - 1j * np.cos(chi)))
    t = spherical_to_parabolic(space, SphericalPoint(chi[:, None], theta[None, :], 0.0))
    for got, ai, ui in zip((t.t1, t.t2), a, u):
        assert got.tobytes() == np.multiply.outer(ui, ai).tobytes()
    calls = []

    def spy(*args):
        calls.append(args[1:])
        return geometry._chart_factors(*args)

    monkeypatch.setattr(kepler, "_chart_factors", spy)
    state = assemble_state(space, e, QuantumNumbers(1, 0, 1))
    kepler._psi_grid(state, chi, theta, np.zeros(1))
    assert len(calls) == 1 and calls[0][0] is chi and calls[0][1] is theta
    normalize(state)
    assert len(calls) > 1


def test_chart_axis_is_singular():
    # (iy, iy) satisfies the algebraic constraint but sits on the t1 = t2 axis
    with pytest.raises(SingularLocusError):
        parabolic_to_spherical(S3, ParabolicPoints(0.3j, 0.3j, 0.0))


def test_spherical_range_validation():
    with pytest.raises(DomainError):
        spherical_to_parabolic(S3, SphericalPoint(math.pi + 0.2, 1.0, 0.0))
    with pytest.raises(DomainError):
        spherical_to_parabolic(H3, SphericalPoint(400.0, 1.0, 0.0))


def _same_bits(one, batch, i):
    """One point's 0-d arrays hold the bits of point i of the batch."""
    for a, b in zip(one, batch):
        assert np.shape(a) == () and np.asarray(a).tobytes() == b[i].tobytes(), i


@pytest.mark.parametrize("space, seed", [(H3, 115), (S3, 116)])
def test_batched_chart_maps_match_the_per_point_wrapper(space, seed):
    pts = chart_points(space, make_rng(seed), n=300)
    amb = parabolic_to_ambient(space, pts)
    assert amb.shape == (4, 300)
    sph = parabolic_to_spherical(space, pts)
    back = spherical_to_parabolic(space, sph)
    assert isinstance(back, ParabolicPoints) and len(back) == 300
    for i, p in enumerate(pts):
        _same_bits(parabolic_to_ambient(space, p), amb, i)
        q = spherical_to_parabolic(space, SphericalPoint(sph.chi[i], sph.theta[i], sph.phi[i]))
        _same_bits((q.t1, q.t2, q.phi), (back.t1, back.t2, back.phi), i)


@pytest.mark.parametrize("space, seed", [(H3, 134), (S3, 135)])
def test_inverse_chart_maps_give_the_bits_of_their_points_one_by_one(space, seed):
    pts = chart_points(space, make_rng(seed), n=300)
    sph = parabolic_to_spherical(space, pts)
    amb = parabolic_to_ambient(space, pts)
    back = ambient_to_parabolic(space, amb)
    assert sph.chi.shape == back.t1.shape == (300,) and back.t1.dtype == pts.t1.dtype
    for i, p in enumerate(pts):
        s = parabolic_to_spherical(space, p)
        _same_bits((s.chi, s.theta, s.phi), (sph.chi, sph.theta, sph.phi), i)
        q = ambient_to_parabolic(space, amb[:, i])
        _same_bits((q.t1, q.t2, q.phi), (back.t1, back.t2, back.phi), i)


@pytest.mark.parametrize(
    "space, invert, bad, error",
    [
        (S3, parabolic_to_spherical, (S3_EXACT_T1, S3_EXACT_T2 + 0.01), ConstraintError),
        (S3, parabolic_to_spherical, (0.3j, 0.3j), SingularLocusError),
        (H3, parabolic_to_spherical, (0.25 + 0.1j, -0.5), DomainError),
        (H3, ambient_to_parabolic, (1.0, 1.0, 1.0, 1.0), DomainError),
        (H3, ambient_to_parabolic, (-1.25, -math.sqrt(0.5), 0.0, -0.25), DomainError),
        (S3, ambient_to_parabolic, (0.5, 0.5, 0.5, 0.6), DomainError),
        # t1 = 0 zeroes both constraint residuals, yet (0, 5) is no real S3 point
        (S3, parabolic_to_spherical, (0j, 5 + 0j), ConstraintError),
        (H3, ambient_to_parabolic, (math.nan, 0.0, 0.0, 0.0), DomainError),
        (S3, ambient_to_parabolic, (math.inf, 0.0, 0.0, 0.0), DomainError),
    ],
)
def test_inverse_chart_maps_raise_the_error_of_one_bad_point_in_a_batch(space, invert, bad, error):
    pts = chart_points(space, make_rng(136), n=20)
    if invert is parabolic_to_spherical:
        alone, batch = ParabolicPoints(*bad, 0.0), _inserted(pts, 7, ParabolicPoints(*bad, 0.0))
    else:
        alone = np.array(bad)
        batch = np.insert(parabolic_to_ambient(space, pts), 7, alone, axis=1)
    with pytest.raises(error) as single:
        invert(space, alone)
    with pytest.raises(error) as batched:
        invert(space, batch)
    assert type(batched.value) is type(single.value)
    assert str(batched.value) == str(single.value)


def test_spherical_points_are_checked_but_not_broadcast():
    chi, theta = np.linspace(0.1, 1.0, 5)[:, None], np.linspace(0.0, math.pi, 7)[None, :]
    s = SphericalPoint(chi, theta, 0.0)
    assert s.chi.shape == (5, 1) and s.theta.shape == (1, 7) and s.phi.shape == ()
    assert spherical_to_parabolic(S3, s).t1.shape == (5, 7)
    with pytest.raises(DomainError, match="theta must lie in"):
        SphericalPoint(chi, np.append(theta, 3.5)[None, :], 0.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: SphericalPoint(1.0, 1.0, math.nan),
        lambda: SphericalPoint(1.0, 1.0, math.inf),
        lambda: ParabolicPoints(np.array([0.25, math.nan]), -0.5, 0.0),
        lambda: ParabolicPoints(0.25, complex(-0.5, math.inf), 0.0),
        lambda: ParabolicPoints(0.25, -0.5, np.array([0.0, math.inf])),
    ],
    ids=["spherical-phi-nan", "spherical-phi-inf", "parabolic-t1-nan", "parabolic-t2-inf", "parabolic-phi-inf"],
)
def test_chart_points_refuse_non_finite_coordinates(make):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            make()


@pytest.mark.parametrize(
    "space, bad, error",
    [
        (S3, ParabolicPoints(S3_EXACT_T1, S3_EXACT_T2 + 0.01, 0.0), ConstraintError),
        (H3, ParabolicPoints(1.0, -0.5, 0.0), SingularLocusError),
        (H3, ParabolicPoints(0.25 + 0.1j, -0.5, 0.0), DomainError),
        (S3, ParabolicPoints(0j, 5 + 0j, 0.0), ConstraintError),
    ],
)
def test_batch_with_one_bad_point_raises_the_scalar_error(space, bad, error):
    with pytest.raises(error) as scalar:
        parabolic_to_ambient(space, bad)
    pts = chart_points(space, make_rng(117), n=20)
    with pytest.raises(error) as batched:
        parabolic_to_ambient(space, _inserted(pts, 7, bad))
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)


def _list_factor_samples(space, rng, which, n):
    """S3 factor abscissas drawn by extending a list point by point."""
    out = []
    want_physical = n - n // 2
    while len(out) < want_physical:
        chi = rng.uniform(0.1, math.pi - 0.1, 2 * n)
        theta = rng.uniform(0.1, math.pi - 0.1, 2 * n)
        pts = spherical_to_parabolic(space, SphericalPoint(chi, theta, 0.0))
        t = pts.t1 if which == 1 else pts.t2
        good = t[(np.abs(t) >= 1e-3) & (np.abs(1.0 - t) >= 1e-3)]
        out.extend(good[: want_physical - len(out)])
    while len(out) < n:
        radius = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 2 * n))
        angle = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
        t = radius * np.exp(1j * angle)
        good = t[(np.abs(t) >= 1e-3) & (np.abs(1.0 - t) >= 1e-3)]
        out.extend(good[: n - len(out)])
    return np.asarray(out, dtype=complex)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("n", [0, 1, 7, 100])
def test_s3_factor_samples_keep_their_values_and_stream(which, n):
    rng, ref = make_rng(128 + n), make_rng(128 + n)
    got = factor_samples(S3, rng, which, n)
    want = _list_factor_samples(S3, ref, which, n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.integers(0, 2**62) == ref.integers(0, 2**62)


def _list_chart_points(space, rng, n):
    """Chart points (t1, t2, phi) drawn by extending a list point by point."""
    chi_hi = 2.5 if space is H3 else math.pi - 0.15
    out = []
    while len(out) < n:
        chi = rng.uniform(0.15, chi_hi, 2 * n)
        theta = rng.uniform(0.15, math.pi - 0.15, 2 * n)
        phi = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
        for p in spherical_to_parabolic(space, SphericalPoint(chi, theta, phi)):
            gaps = (p.t1, 1.0 - p.t1, p.t2, 1.0 - p.t2, p.t1 - p.t2)
            if len(out) < n and min(abs(g) for g in gaps) >= 1e-3:
                out.append((p.t1, p.t2, p.phi))
    return np.array(out).T


def _list_quasi_points(space, rng, n):
    """Quasi-Cartesian columns drawn by extending a list column by column."""
    lo, hi = (0.2, 0.8) if space is H3 else (0.2, 1.5)
    cols = []
    while len(cols) < n:
        vec = rng.standard_normal((3, 2 * n))
        vec /= np.sqrt((vec * vec).sum(axis=0))
        Q = vec * rng.uniform(lo, hi, 2 * n)
        cols += [c for c in Q.T if np.sqrt(c[0] ** 2 + c[1] ** 2) >= 0.15][: n - len(cols)]
    return np.array(cols).T


@pytest.mark.parametrize("space", [H3, S3])
@pytest.mark.parametrize("n", [1, 7, 100])
def test_chart_and_quasi_samplers_keep_their_values_and_stream(space, n):
    for sampler, oracle in ((chart_points, _list_chart_points), (quasi_points, _list_quasi_points)):
        rng, ref = make_rng(140 + n), make_rng(140 + n)
        got, want = sampler(space, rng, n), oracle(space, ref, n)
        if sampler is chart_points:
            got = np.array([got.t1, got.t2, got.phi])
        assert got.shape == want.shape == (3, n) and np.array_equal(got, want), sampler
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62), sampler


def test_chart_point_sampler_respects_guards():
    rng = make_rng(113)
    for space in (H3, S3):
        for p in chart_points(space, rng, n=500):
            for t in (p.t1, p.t2):
                assert abs(t) > 1e-4
                assert abs(1.0 - t) > 1e-4
            assert abs(p.t1 - p.t2) > 1e-4
            p.validate_for(space)


def test_flat_limit_slope_is_minus_one():
    rhos = [1e2, 1e3, 1e4]
    for space in (H3, S3):
        table = flat_limit_coords(space, rhos, (0.3, 0.2, 0.4))
        assert not table.degenerate
        for errs in (table.err_t1, table.err_t2):
            slope = np.polyfit(np.log(rhos), np.log(errs), 1)[0]
            assert abs(slope + 1.0) < 0.1, (space, slope)


def test_flat_limit_validation():
    table = flat_limit_coords(H3, [100.0, 1000.0], (0.0, 0.0, 0.0))
    assert table.degenerate
    with pytest.raises(DomainError):
        flat_limit_coords(H3, [1000.0, 100.0], (0.3, 0.2, 0.4))
    with pytest.raises(DomainError):
        flat_limit_coords(H3, [1.0, 10.0], (0.3, 0.2, 0.4))


@pytest.mark.parametrize("phi", [0.0, -0.0, 7.5, -7.5, 2.0 * math.pi, -2.0 * math.pi, 1e17])
def test_parabolic_points_reduce_a_scalar_phi_like_a_broadcast_one(phi):
    t1 = np.full((4, 3), 0.3 + 0.1j)
    pts = ParabolicPoints(t1, t1 - 1.0, phi)
    want = geometry._norm_phi(np.broadcast_to(np.asarray(phi), t1.shape))
    assert pts.phi.shape == t1.shape
    assert np.ascontiguousarray(pts.phi).tobytes() == want.tobytes()
    one = ParabolicPoints(0.3 + 0.1j, -0.7 + 0.1j, phi)
    assert one.phi.shape == () and pts.phi[0, 0] == one.phi


def test_a_phi_just_below_zero_reduces_to_zero_not_two_pi():
    """phi + 2 pi rounds up to 2 pi for a phi in about (-4.4e-16, 0); 0 is the nearer point in [0, 2 pi)."""
    assert ParabolicPoints(0.1, -0.2, -1e-300).phi == 0.0
    assert SphericalPoint(1.0, 1.0, -1e-300).phi == 0.0
    for space, c in [(H3, [math.sqrt(2.0), 1.0, -1e-300, 0.0]), (S3, [0.6, 0.8, -1e-300, 0.0])]:
        assert ambient_to_parabolic(space, c).phi == 0.0
    phi = geometry._norm_phi(np.array([-1e-300, -1e-17, -4e-16, -5e-16, -1e-15, -1.0]))
    assert ((0.0 <= phi) & (phi < 2.0 * math.pi)).all()
    assert phi[:3].tolist() == [0.0, 0.0, 0.0] and phi[3] == math.nextafter(2.0 * math.pi, 0.0)


@pytest.mark.parametrize("space, dtype", [(H3, np.float64), (S3, np.complex128)])
def test_chart_values_are_float64_on_h3_and_complex128_on_s3(space, dtype):
    pts = spherical_to_parabolic(space, SphericalPoint([0.3, 1.2], [0.4, 2.0], 0.0))
    assert pts.t1.dtype == pts.t2.dtype == dtype
    sampled = chart_points(space, make_rng(131), n=20)
    assert sampled.t1.dtype == sampled.t2.dtype == dtype
    t1, t2, _ = _quasi_to_chart(space, quasi_points(space, make_rng(132), n=10))
    assert t1.dtype == t2.dtype == dtype
    for which in (1, 2):
        assert factor_samples(space, make_rng(133), which, 10).dtype == dtype
    # one point follows the same rule, as a batch of 0-d arrays
    one = spherical_to_parabolic(space, SphericalPoint(0.3, 0.4, 0.0))
    assert one.t1.shape == one.t2.shape == () and one.t1.dtype == one.t2.dtype == dtype
    for p in sampled:
        assert p.t1.shape == () and p.t1.dtype == p.t2.dtype == dtype


@pytest.mark.parametrize(
    "t1, t2, dtype",
    [
        (np.array([0.25]), np.array([-0.5]), np.float64),
        ([0.25], -0.5, np.float64),
        (np.array([0.25], dtype=np.float32), np.array([-0.5]), np.float64),
        (np.array([0.25]), np.array([-0.5 + 0j]), np.complex128),
        (np.array([0.25 + 0j]), -0.5, np.complex128),
    ],
)
def test_parabolic_points_store_one_common_dtype(t1, t2, dtype):
    pts = ParabolicPoints(t1, t2, 0.0)
    assert pts.t1.dtype == pts.t2.dtype == dtype
    assert (pts.t1[0], pts.t2[0]) == (0.25, -0.5)


@pytest.mark.parametrize("scalar", ["t1", "t2", "phi"])
def test_a_broadcast_batch_holds_each_point_once(scalar):
    """An array the batch expands by broadcasting is stored as a copy: writing one element changes one point."""
    given = {"t1": np.array([0.1, 0.2, 0.3]), "t2": np.array([-1.0, -2.0, -3.0]), "phi": np.array([0.5, 0.5, 0.5])}
    given[scalar] = given[scalar][0]
    pts = ParabolicPoints(**given)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on a write through a stride-0 view
        getattr(pts, scalar)[0] = 0.75
    assert getattr(pts, scalar).tolist() == [0.75] + [float(given[scalar])] * 2


def test_an_s3_batch_given_real_values_maps_like_the_complex_one():
    # chi = pi/2 and theta = pi give t1 = 0 and t2 = 2 conj(w) = 2, both real
    real = ParabolicPoints(np.array([0.0]), np.array([2.0]), 0.5)
    assert real.t1.dtype == np.float64
    want = parabolic_to_ambient(S3, ParabolicPoints(np.array([0j]), np.array([2 + 0j]), 0.5))
    assert parabolic_to_ambient(S3, real).tobytes() == want.tobytes()


@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (0.3, 0.2, 0.4)])
@pytest.mark.parametrize(
    "rhos", [[-5.0, 0.0], [0.0, 100.0], [-1.0], [100.0, math.inf], [math.nan], [-math.inf, 1e3]]
)
def test_flat_limit_refuses_radii_that_are_not_positive_and_finite(point, rhos):
    with pytest.raises(DomainError, match="positive and finite"):
        flat_limit_coords(H3, rhos, point)


@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (0.3, 0.2, 0.4)])
def test_flat_limit_refuses_an_empty_rho_list(point):
    for space in (H3, S3):
        with pytest.raises(DomainError, match="one or more rho values"):
            flat_limit_coords(space, [], point)


@pytest.mark.parametrize(
    "rhos, point", [([1000.0], (0.3, 0.2, 0.4)), ([100.0, 1000.0], (0.0, 0.0, 0.0))]
)
def test_flat_limit_slope_is_nan_without_two_nonzero_errors(rhos, point):
    for space in (H3, S3):
        assert math.isnan(flat_limit_coords(space, rhos, point).slope())


@pytest.mark.parametrize(
    "point", [(0.3, 0.2, 0.4), (0.0, 0.0, 0.4), (1e-3, 0.0, 0.4), (5.0, 3.0, -2.0)]
)
@pytest.mark.parametrize("rhos", [[1e300, 1e301], [1e100, 1e101], [1e17, 1e18]])
def test_flat_limit_slope_is_nan_at_the_rounding_floor(rhos, point):
    for space in (H3, S3):
        table = flat_limit_coords(space, rhos, point)
        assert max(table.err_t1 + table.err_t2) < 1e-14
        assert math.isnan(table.slope()), (space, table)


@pytest.mark.parametrize("point", [(0.3, 0.2, 0.4), (0.0, 0.0, -0.4), (5.0, 3.0, -2.0)])
def test_flat_limit_slope_fits_every_measurable_radius(point):
    rhos = [1e2, 1e3, 1e4, 1e5]
    for space in (H3, S3):
        table = flat_limit_coords(space, rhos, point)
        errs = np.maximum(table.err_t1, table.err_t2)
        want = np.polyfit(np.log10(rhos), np.log10(errs), 1)[0]
        assert table.slope() == want


@pytest.mark.parametrize("space", [H3, S3])
@pytest.mark.parametrize(
    "sample",
    [
        chart_points,
        pullback_points,
        quasi_points,
        lambda space, rng, n: factor_samples(space, rng, 1, n),
        lambda space, rng, n: factor_samples(space, rng, 2, n),
    ],
    ids=["chart", "pullback", "quasi", "factor1", "factor2"],
)
@pytest.mark.parametrize("n", [-1, -200, 2.5, 3.0, np.float64(4.0), None, "5", True, False, np.True_])
def test_samplers_refuse_a_count_that_is_not_a_non_negative_integer(space, sample, n):
    with pytest.raises(ParameterError, match="non-negative integer"):
        sample(space, make_rng(1), n)


@pytest.mark.parametrize("space", [H3, S3])
def test_chart_points_checks_one_batch(space, monkeypatch):
    """The draws take the chart factors unchecked; one ParabolicPoints checks the points kept, once."""
    built, check = [], geometry.ParabolicPoints.__post_init__
    monkeypatch.setattr(geometry.ParabolicPoints, "__post_init__", lambda self: (built.append(self), check(self))[1])
    points = chart_points(space, make_rng(1), 200)
    assert built == [points]
    assert np.array_equal(points.clearance(), geometry._clearance(points.t1, points.t2))


@pytest.mark.parametrize("space", [H3, S3])
def test_samplers_take_a_numpy_integer_count(space):
    assert chart_points(space, make_rng(1), np.int64(3)).t1.tolist() == chart_points(space, make_rng(1), 3).t1.tolist()
    assert factor_samples(space, make_rng(1), 2, np.int64(0)).size == 0
