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
    AmbientPoint,
    ConstraintError,
    DomainError,
    H3,
    IndeterminateCoordinateWarning,
    ParabolicPoint,
    ParabolicPoints,
    S3,
    SingularLocusError,
    SphericalPoint,
    ambient_to_parabolic,
    antipodal,
    chart_points,
    constraint_check,
    flat_limit_coords,
    make_rng,
    metric_parabolic,
    metric_pullback_check,
    parabolic_to_ambient,
    parabolic_to_spherical,
    quasi_points,
    spherical_to_parabolic,
)
from curvedkepler import geometry
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
    s = parabolic_to_spherical(H3, ParabolicPoint(0.5, -1.0, 0.3))
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
    amb = AmbientPoint(1.25, math.sqrt(0.5), 0.0, 0.25)
    assert abs(amb.quadric(H3) - 1.0) < 1e-15
    q = ambient_to_parabolic(H3, amb)
    assert abs(q.t1 - 0.5) < 1e-15
    assert abs(q.t2 + 1.0) < 1e-12
    assert abs(q.phi) == 0.0


def test_h3_ambient_axis_point_warns():
    # c1 = c2 = 0 leaves phi indeterminate; t1 = 2/(sqrt(2)+1) = 2(sqrt(2)-1)
    with pytest.warns(IndeterminateCoordinateWarning):
        q = ambient_to_parabolic(H3, AmbientPoint(math.sqrt(2.0), 0.0, 0.0, 1.0))
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


@pytest.mark.parametrize("space, seed", [(H3, 103), (S3, 104)])
def test_parabolic_ambient_roundtrip(space, seed):
    rng = make_rng(seed)
    pts = chart_points(space, rng, n=N_ROUNDTRIP // 4)
    for p in pts:
        amb = parabolic_to_ambient(space, p)
        assert abs(amb.quadric(space) - 1.0) < CONSTRAINT_TOL
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
    for i in range(Q.shape[1]):
        assert abs(AmbientPoint(*c[:, i]).quadric(space) - 1.0) < CONSTRAINT_TOL
    assert np.max(np.abs(c[1:] / c[0] - Q)) < ROUNDTRIP_TOL


def test_h3_lower_sheet_rejected():
    amb = parabolic_to_ambient(H3, ParabolicPoint(0.25, -0.5, 0.0))
    with pytest.raises(DomainError):
        ambient_to_parabolic(H3, antipodal(amb))


def test_off_quadric_rejected():
    with pytest.raises(DomainError):
        ambient_to_parabolic(H3, AmbientPoint(1.0, 1.0, 1.0, 1.0))


def test_antipodal_swaps_s3_factors():
    rng = make_rng(107)
    for p in chart_points(S3, rng, n=300):
        amb = parabolic_to_ambient(S3, p)
        q = ambient_to_parabolic(S3, antipodal(amb))
        assert abs(q.t1 - p.t2) < ANTIPODAL_TOL
        assert abs(q.t2 - p.t1) < ANTIPODAL_TOL
        assert abs(cmath.exp(1j * (q.phi - p.phi - math.pi)) - 1.0) < ANTIPODAL_TOL


def test_metric_frozen_values():
    g = metric_parabolic(H3, ParabolicPoint(0.5, -1.0, 0.3))
    assert np.allclose(np.diag(g), [3.0, 0.09375, 0.5], rtol=0, atol=1e-15)
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) == 0.0


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
    for s in _pullback_points(space, seed, 50):
        jac = geometry._chart_jacobian(space, s)
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


def test_constraint_closure_on_s3_samples():
    rng = make_rng(112)
    for p in chart_points(S3, rng, n=400):
        report = constraint_check(p)
        assert report.passed
        assert report.max_abs < CONSTRAINT_TOL


def test_constraint_detects_corruption():
    p = ParabolicPoint(S3_EXACT_T1, S3_EXACT_T2 + 0.01, 0.0)
    assert not constraint_check(p).passed
    # H3 points genuinely do not satisfy the S3 closure
    assert not constraint_check(ParabolicPoint(0.25, -0.5, 0.0)).passed


def test_origin_is_flagged_indeterminate():
    with pytest.warns(IndeterminateCoordinateWarning):
        s = parabolic_to_spherical(S3, ParabolicPoint(0.0, 0.0, 0.7))
    assert s.chi == 0.0 and s.theta == 0.0 and s.phi == 0.7


def test_chart_axis_is_singular():
    # (iy, iy) satisfies the algebraic constraint but sits on the t1 = t2 axis
    with pytest.raises(SingularLocusError):
        parabolic_to_spherical(S3, ParabolicPoint(0.3j, 0.3j, 0.0))


def test_spherical_range_validation():
    with pytest.raises(DomainError):
        spherical_to_parabolic(S3, SphericalPoint(math.pi + 0.2, 1.0, 0.0))
    with pytest.raises(DomainError):
        spherical_to_parabolic(H3, SphericalPoint(400.0, 1.0, 0.0))


@pytest.mark.parametrize("space, seed", [(H3, 115), (S3, 116)])
def test_batched_chart_maps_match_the_per_point_wrapper(space, seed):
    pts = chart_points(space, make_rng(seed), n=300)
    amb = parabolic_to_ambient(space, pts)
    assert amb.shape == (4, 300)
    spherical = [parabolic_to_spherical(space, p) for p in pts]
    chi = np.array([s.chi for s in spherical])
    theta = np.array([s.theta for s in spherical])
    phi = np.array([s.phi for s in spherical])
    back = spherical_to_parabolic(space, (chi, theta, phi))
    assert isinstance(back, ParabolicPoints) and len(back) == 300
    for i, (p, q, s) in enumerate(zip(pts, back, spherical)):
        one = parabolic_to_ambient(space, p)
        assert (one.c0, one.c1, one.c2, one.c3) == tuple(amb[:, i])
        assert spherical_to_parabolic(space, s) == q


@pytest.mark.parametrize(
    "space, bad, error",
    [
        (S3, ParabolicPoint(S3_EXACT_T1, S3_EXACT_T2 + 0.01, 0.0), ConstraintError),
        (H3, ParabolicPoint(1.0, -0.5, 0.0), SingularLocusError),
        (H3, ParabolicPoint(0.25 + 0.1j, -0.5, 0.0), DomainError),
    ],
)
def test_batch_with_one_bad_point_raises_the_scalar_error(space, bad, error):
    with pytest.raises(error) as scalar:
        parabolic_to_ambient(space, bad)
    pts = list(chart_points(space, make_rng(117), n=20))
    with pytest.raises(error) as batched:
        parabolic_to_ambient(space, ParabolicPoints.of(pts[:7] + [bad] + pts[7:]))
    assert type(batched.value) is type(scalar.value)
    assert str(batched.value) == str(scalar.value)


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
    assert pts.phi[0, 0] == ParabolicPoint(0.3 + 0.1j, -0.7 + 0.1j, phi).phi


@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (0.3, 0.2, 0.4)])
@pytest.mark.parametrize(
    "rhos", [[-5.0, 0.0], [0.0, 100.0], [-1.0], [100.0, math.inf], [math.nan], [-math.inf, 1e3]]
)
def test_flat_limit_refuses_radii_that_are_not_positive_and_finite(point, rhos):
    with pytest.raises(DomainError, match="positive and finite"):
        flat_limit_coords(H3, rhos, point)


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
