"""Coordinate charts and metrics on H3 and S3.

Three charts are connected here:

* ambient quadric coordinates (x0..x3 on H3, y0..y3 on S3),
* geodesic spherical coordinates (chi, theta, phi),
* generalized parabolic coordinates (t1, t2, phi).

The parabolic pair is the separated product t_i = a_i(th) u_i(chi), with
a1 = 1 + cos th = 2 cos^2(th/2) and a2 = 1 - cos th = 2 sin^2(th/2) taken
in half-angle form, where 1 - cos th would cancel near the axis th = 0.
It is real on H3, with 0 <= t1 < 1 and t2 <= 0, and complex on S3:

    H3:  u1 = sinh(chi) e^{-chi} = -expm1(-2 chi)/2,   u2 = -sinh(chi) e^{chi} = -expm1(2 chi)/2,
    S3:  u1 = conj(u2) = sin(chi) e^{i(pi/2 - chi)} = sin(chi) (sin(chi) + i cos(chi)),

the S3 pair being the H3 pair at chi -> i chi, -expm1(-+2i chi)/2.  The
metrics, the Jacobian and the range checks read each S3 formula as the H3
one through the space tag (``unit``, ``sigma``, ``radius``, ``chi_max``),
but the chart keeps two forms: numpy's complex expm1 at i chi is off the
product form by up to 1 ulp of |u| at a third of the points, and every
chart point and pinned output reads these bits.  The S3 pair is tied to
the real sphere by the conjugation constraint t1* = -t1 (1 - t2)/(1 - t1)
(equivalently t2* = -t2 (1 - t1)/(1 - t2), and t1 t2 real).  With
D = cos(chi) - i cos(th) sin(chi) the S3 pair obeys

    t1 - t2 = 2i sin(chi) D,   (1 - t1)(1 - t2) = D^2.

The closed-form parabolic metrics are diagonal,

    H3:  diag( (t1-t2)/(4 t1 (1-t1)^2),  (t2-t1)/(4 t2 (1-t2)^2),  -t1 t2 ),
    S3:  the negated first two entries and +t1 t2,

and each pulls back, through the closed-form chart Jacobian, to the
space's own spherical metric diag(1, f^2, f^2 sin^2 th) with
f = sinh(chi) (H3) or sin(chi) (S3).  The inverse reads theta as
atan2(hypot(c1, c2), c3) of the ambient point, exact near the axis too.
All maps are pure functions of double-precision values; singular loci and
non-finite coordinates raise typed errors instead of producing NaNs.

Each chart has one point type, and it holds arrays: a
:class:`SphericalPoint` holds (chi, theta, phi), a :class:`ParabolicPoints`
batch holds parallel (t1, t2, phi), and ambient points are arrays of
shape ``(4, ...)`` holding (c0, c1, c2, c3).  One point is a batch of 0-d
arrays.  Every map, the metric, its pullback check and the constraint
check take these batches, and a batch raises the typed error of its
first point that fails a check.  The H3 chart gives t1, t2 as float64
and the S3 chart as complex128, for one point as for many.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintError,
    DomainError,
    IndeterminateCoordinateWarning,
    SingularLocusError,
)
from .report import ResidualReport, build_report
from .spaces import Model, SpaceTag

__all__ = [
    "SphericalPoint",
    "ParabolicPoints",
    "FlatLimitTable",
    "spherical_to_parabolic",
    "parabolic_to_spherical",
    "parabolic_to_ambient",
    "ambient_to_parabolic",
    "antipodal",
    "metric_parabolic",
    "metric_pullback_check",
    "pullback_accepts",
    "constraint_check",
    "flat_limit_coords",
]

# Minimum distance kept from chart singular loci when validating inputs.
SINGULAR_GUARD = 1e-3
# Tolerance of the S3 conjugation constraint on stored points.
CONSTRAINT_TOL = 1e-10
# Quadric residual allowance, scaled by max(1, c0^2) since the ambient
# components grow like e^chi on H3 and the cancellation error with them.
QUADRIC_TOL = 1e-12
# Tolerances of the two checks here: the pulled-back metric entries, and the
# conjugation-constraint residuals of a batch, which the S3 chart holds to rounding.
METRIC_PULLBACK_TOL = 1e-6
CONSTRAINT_CHECK_TOL = 1e-12

_TWO_PI = 2.0 * math.pi


def _norm_phi(phi):
    """phi reduced into [0, 2 pi), elementwise: C fmod, then one shift up.

    A phi in about (-4.4e-16, 0) rounds up to 2 pi on the shift and reads 0,
    the nearer in-range point on the circle.
    """
    phi = np.fmod(phi, _TWO_PI)
    phi = np.where(phi < 0.0, phi + _TWO_PI, phi)
    return np.where(phi < _TWO_PI, phi, 0.0)


def _raise_first(bad: np.ndarray, error: type, message: str, *values) -> None:
    """Raise ``error`` for the first flagged point, formatting its values in."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(message.format(*(np.ravel(v)[i] for v in values)))


def _quadric(space: SpaceTag, c):
    """c0^2 - sigma |c|^2, elementwise over (c0, c1, c2, c3)."""
    return c[0] * c[0] - space.sigma * (c[1] * c[1] + c[2] * c[2] + c[3] * c[3])


def _validate_ambient(space: SpaceTag, c: np.ndarray) -> None:
    """Raise DomainError for the first column of c = (c0, c1, c2, c3) off the quadric, or not finite."""
    scale = np.maximum(1.0, c[0] * c[0])
    off = ~((np.abs(_quadric(space, c) - 1.0) <= QUADRIC_TOL * scale) & (scale < np.inf))
    _raise_first(off, DomainError, f"point not on the {space.name} quadric: ({{}}, {{}}, {{}}, {{}})", *c)
    if space.model is Model.H3:  # the hyperboloid has two sheets, the sphere one piece
        _raise_first(~(c[0] >= 1.0 - QUADRIC_TOL), DomainError, "H3 points live on the upper sheet (x0 >= 1)")


@dataclass(frozen=True, eq=False)
class SphericalPoint:
    """Geodesic polar coordinates: chi, theta and phi arrays, 0-d for one point.

    chi lies in [0, inf) on H3 and [0, pi] on S3, theta in [0, pi]; phi
    is finite and reduced into [0, 2 pi).  The arrays are checked but not
    broadcast, so a column of chi and a row of theta stand for their outer
    product while each holds its own values once.
    """

    chi: np.ndarray
    theta: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        chi, theta, phi = (np.asarray(v, dtype=float) for v in (self.chi, self.theta, self.phi))
        ok_chi, ok_theta = (chi >= 0.0) & np.isfinite(chi), (0.0 <= theta) & (theta <= math.pi)
        _raise_first(~ok_chi, DomainError, "chi must be finite and >= 0, got {}", chi)
        _raise_first(~ok_theta, DomainError, "theta must lie in [0, pi], got {}", theta)
        _raise_first(~np.isfinite(phi), DomainError, "phi must be finite, got {}", phi)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", _norm_phi(phi))


@dataclass(frozen=True, eq=False)
class ParabolicPoints:
    """Parabolic chart points (t1, t2, phi): parallel arrays, 0-d for one point.

    The three arrays are broadcast to one shape (an expanded one is
    copied, so each point holds its own values); t1 and t2 share one
    dtype, float64 when both are given real (as the H3 chart makes them)
    and complex128 otherwise, and phi is reduced into [0, 2 pi) before
    the broadcast; all three must be finite.  Iterating yields the points
    one by one, in flat order, each as a batch of 0-d arrays.
    """

    t1: np.ndarray
    t2: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        dtype = complex if np.iscomplexobj(self.t1) or np.iscomplexobj(self.t2) else float
        t1, t2, phi = np.asarray(self.t1, dtype), np.asarray(self.t2, dtype), np.asarray(self.phi, float)
        _raise_first(~(np.isfinite(t1) & np.isfinite(t2) & np.isfinite(phi)), DomainError, "non-finite coordinate")
        given = [t1, t2, _norm_phi(phi)]
        # a copy where the broadcast expanded an array: its stride-0 view would write one value to every point
        for name, a, b in zip(("t1", "t2", "phi"), given, np.broadcast_arrays(*given)):
            object.__setattr__(self, name, b if b.shape == a.shape else b.copy())

    def __len__(self) -> int:
        return self.t1.size

    def __iter__(self):
        for t1, t2, phi in zip(self.t1.flat, self.t2.flat, self.phi.flat):
            yield ParabolicPoints(t1, t2, phi)

    def validate_for(self, space: SpaceTag) -> None:
        """Raise the space's typed error for the first point off its parabolic chart by more than CONSTRAINT_TOL."""
        t1, t2, tol = self.t1, self.t2, CONSTRAINT_TOL
        if space.model is Model.H3:  # real ranges on H3; on S3 the conjugation constraint ties complex values
            _raise_first(
                (np.abs(t1.imag) > tol) | (np.abs(t2.imag) > tol),
                DomainError,
                "H3 parabolic coordinates must be real",
            )
            _raise_first(
                ~((-tol <= t1.real) & (t1.real < 1.0 + tol)),
                DomainError,
                "H3 requires 0 <= t1 < 1, got {}",
                t1.real,
            )
            _raise_first(t2.real > tol, DomainError, "H3 requires t2 <= 0, got {}", t2.real)
            return
        r1, r2 = _constraint_residuals(t1, t2)
        _raise_first(
            (r1 > tol) | (r2 > tol),
            ConstraintError,
            "conjugation constraint violated by ({}, {}): residuals {:.2e}, {:.2e}",
            t1,
            t2,
            r1,
            r2,
        )

    def clearance(self) -> np.ndarray:
        """Distance of each point from the singular loci t = 0, t = 1 and t1 = t2."""
        return _clearance(self.t1, self.t2)


def _clearance(t1, t2) -> np.ndarray:
    """:meth:`ParabolicPoints.clearance` of the chart values t1, t2, elementwise."""
    return np.minimum.reduce([np.abs(t1), np.abs(1.0 - t1), np.abs(t2), np.abs(1.0 - t2), np.abs(t1 - t2)])


def _columns(p: ParabolicPoints):
    """(t1, t2, phi) of a batch as 1-d arrays, for the maps to compute on.

    numpy multiplies the complex scalars that 0-d arrays decay to with
    other rounding than its array loops; on 1-d arrays one point keeps
    the bits it has inside a batch.
    """
    return p.t1.reshape(-1), p.t2.reshape(-1), p.phi.reshape(-1)


# ---------------------------------------------------------------------------
# chart maps


def _chart_factors(space: SpaceTag, chi: np.ndarray, theta: np.ndarray):
    """((a1, a2), (u1, u2)) of t_i = a_i(theta) u_i(chi) (module docstring), a shaped as theta and u as chi."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    # S3's u is H3's at chi -> i chi, but in its own form: H3's expm1 at i chi rounds apart (module docstring)
    if space.model is Model.H3:
        u = -0.5 * np.expm1(-2.0 * chi), -0.5 * np.expm1(2.0 * chi)
    else:
        rad, cos = np.sin(chi), np.cos(chi)
        u = rad * (rad + 1j * cos), rad * (rad - 1j * cos)
    return (2.0 * c * c, 2.0 * s * s), u


def spherical_to_parabolic(space: SpaceTag, p: SphericalPoint) -> ParabolicPoints:
    """Map geodesic polar coordinates to the parabolic chart.

    The result has the broadcast shape of ``p.chi``, ``p.theta`` and
    ``p.phi``; phi passes through, and the output satisfies the space's
    parabolic invariants by construction.
    """
    _raise_first(p.chi > space.chi_max, DomainError, f"{space.name} requires chi <= {space.chi_max:g}, got {{}}", p.chi)
    (a1, a2), (u1, u2) = _chart_factors(space, p.chi, p.theta)
    return ParabolicPoints(a1 * u1, a2 * u2, p.phi)


def parabolic_to_spherical(space: SpaceTag, p: ParabolicPoints) -> SphericalPoint:
    """Invert the parabolic chart back to (chi, theta, phi) through the ambient point.

    theta = atan2(hypot(c1, c2), c3) on both spaces; chi = arcsinh|c| on H3 and
    atan2(Re(t1 + t2), Im(t1 - t2)) on S3.  At the coordinate origin
    t1 = t2 = 0 the polar angle is genuinely indeterminate; such points
    map to chi = 0, theta = 0, under one warning per call.
    """
    t1, t2 = p.t1, p.t2
    origin = (t1 == 0) & (t2 == 0)
    _raise_first((t1 == t2) & ~origin, SingularLocusError, "t1 = t2 != 0 lies on the chart axis")
    c = parabolic_to_ambient(space, p)
    if origin.any():
        warnings.warn("theta is indeterminate at the chart origin", IndeterminateCoordinateWarning)
    theta = np.where(origin, 0.0, np.arctan2(np.hypot(c[1], c[2]), c[3]))
    if space.model is Model.H3:  # on S3 arcsin|c| cannot tell chi from pi - chi; atan2 of the t can
        chi = np.arcsinh(np.sqrt(c[1] * c[1] + c[2] * c[2] + c[3] * c[3]))
    else:
        # Re(t1 + t2) = 2 sin^2 chi: its modulus keeps a -0 or a point off by rounding in [0, pi]
        chi = np.where(origin, 0.0, np.arctan2(np.abs(t1.real + t2.real), t1.imag - t2.imag))
    return SphericalPoint(chi, theta, p.phi)


def parabolic_to_ambient(space: SpaceTag, p: ParabolicPoints) -> np.ndarray:
    """Map parabolic coordinates to the ambient quadric.

    Returns an array of shape ``(4,) + p.t1.shape`` holding (c0, c1, c2, c3).

    On S3 the root of (1-t1)(1-t2) = D^2 is the one along -i (t1 - t2) = 2 sin(chi) D
    (module docstring); -D would flip (y0, y3) to the antipode.
    """
    p.validate_for(space)
    t1, t2, phi = _columns(p)
    cos, sin = np.cos(phi), np.sin(phi)
    if space.model is Model.H3:  # real roots on H3; S3 takes complex ones and picks the root's sign
        x1, x2 = t1.real, t2.real
        _raise_first(x1 >= 1.0, SingularLocusError, "t1 = 1 is the chart boundary")
        root = np.sqrt((1.0 - x1) * (1.0 - x2))
        radial = np.sqrt(np.maximum(0.0, -(x1 * x2)))
        x3 = (x1 + x2 - 2.0 * x1 * x2) / (2.0 * root)
        x0 = (2.0 - x1 - x2) / (2.0 * root)
        out = np.stack([x0, radial * cos, radial * sin, x3])
        _validate_ambient(space, out)
        return out.reshape((4,) + p.t1.shape)
    # an S3 batch given real values (t1 = 0, t2 = 2 is a point) takes complex roots
    t1, t2 = np.asarray(t1, dtype=complex), np.asarray(t2, dtype=complex)
    prod = (1.0 - t1) * (1.0 - t2)
    _raise_first(prod == 0, SingularLocusError, "t = 1 is the chart boundary")
    root = np.sqrt(prod)
    root = np.where((np.conj(root) * (-1j * (t1 - t2))).real < 0.0, -root, root)
    # t1*t2 is nonnegative real on S3 points, so -t1*t2 would sit on the
    # sqrt branch cut and rounding noise could flip the sign of (y1, y2);
    # keep the argument on the positive axis instead.
    radial = np.sqrt(t1 * t2)
    y0 = (2.0 - t1 - t2) / (2.0 * root)
    iy3 = (t1 + t2 - 2.0 * t1 * t2) / (2.0 * root)
    y = np.stack([y0, radial * cos, radial * sin, -1j * iy3])
    non_real = ~(np.abs(y.imag).max(axis=0) <= 1e-9)
    _raise_first(non_real, ConstraintError, "({}, {}) does not correspond to a real S3 point", t1, t2)
    _validate_ambient(space, y.real)
    return y.real.reshape((4,) + p.t1.shape)


def _ambient_chart(space: SpaceTag, c: np.ndarray):
    """(t1, t2, phi) of ambient points c = (c0, c1, c2, c3), unchecked: :func:`ambient_to_parabolic` less its checks."""
    c0, c1, c2, c3 = c
    r = np.sqrt(c1 * c1 + c2 * c2 + c3 * c3)
    phi = _norm_phi(np.arctan2(c2, c1))
    if space.model is Model.H3:  # real quotients on H3, complex products on S3: each keeps its chart's dtype
        return (c3 + r) / (c0 + r), (c3 - r) / (c0 - r), phi
    return (r + c3) * (r + 1j * c0), (r - c3) * (r - 1j * c0), phi


def ambient_to_parabolic(space: SpaceTag, c) -> ParabolicPoints:
    """Invert the ambient parametrization of the parabolic chart.

    ``c`` holds (c0, c1, c2, c3) on its first axis of length 4.  Points on
    the c1 = c2 = 0 axis leave phi indeterminate: they take phi = 0 under
    one warning per call.
    """
    c = np.asarray(c, dtype=float)
    _validate_ambient(space, c)
    if ((c[1] == 0.0) & (c[2] == 0.0)).any():
        warnings.warn("phi is indeterminate on the c1 = c2 = 0 axis", IndeterminateCoordinateWarning)
    return ParabolicPoints(*_ambient_chart(space, c))


def antipodal(c) -> np.ndarray:
    """The S3 antipodal map (y0, y_k) -> (-y0, -y_k) on ambient points of shape (4, ...)."""
    return -np.asarray(c, dtype=float)


# ---------------------------------------------------------------------------
# metrics


def metric_parabolic(space: SpaceTag, p: ParabolicPoints) -> np.ndarray:
    """Closed-form diagonal metric in (t1, t2, phi) order.

    Returns a stack of complex 3 x 3 matrices of shape ``p.t1.shape + (3, 3)``,
    built from complex values on H3 too.  A batch raises for its first
    singular point.
    """
    t1, t2 = (np.asarray(t, dtype=complex) for t in _columns(p)[:2])
    _raise_first(
        (t1 == 0) | (t1 == 1) | (t2 == 0) | (t2 == 1) | (t1 == t2),
        SingularLocusError,
        "metric singular at ({}, {})",
        t1,
        t2,
    )
    g = np.zeros(t1.shape + (3, 3), dtype=complex)
    g[..., 0, 0] = space.sigma * (t1 - t2) / (4.0 * t1 * (1.0 - t1) ** 2)
    g[..., 1, 1] = space.sigma * (t2 - t1) / (4.0 * t2 * (1.0 - t2) ** 2)
    g[..., 2, 2] = -space.sigma * t1 * t2
    return g.reshape(p.t1.shape + (3, 3))


def _spherical_metric(space: SpaceTag, chi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """diag(1, f^2, f^2 sin^2 th) at each (chi, theta), a stack of 3 x 3 matrices."""
    f = space.radius(chi)
    g = np.zeros(chi.shape + (3, 3))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = f * f
    g[..., 2, 2] = f * f * np.sin(theta) ** 2
    return g


def _chart_jacobian(space: SpaceTag, chi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of (chi, theta, phi) -> (t1, t2, phi) at each (chi, theta).

    t_i = a_i(theta) u_i(chi) with the factors of :func:`_chart_factors`, where
    da1/dtheta = -da2/dtheta = -sin(theta) and du1/dchi, du2/dchi = e^{-2 chi}, -e^{2 chi}
    on H3, at chi -> i chi on S3.  Returns a stack of 3 x 3 matrices of shape
    ``chi.shape + (3, 3)``.
    """
    (a1, a2), (u1, u2) = _chart_factors(space, chi, theta)
    unit = space.unit
    du1, du2 = unit * np.exp(-2 * unit * chi), -unit * np.exp(2 * unit * chi)
    s = np.sin(theta)
    jac = np.zeros(chi.shape + (3, 3), dtype=complex)
    jac[..., 0, 0] = a1 * du1
    jac[..., 0, 1] = -s * u1
    jac[..., 1, 0] = a2 * du2
    jac[..., 1, 1] = s * u2
    jac[..., 2, 2] = 1.0
    return jac


def _off_pullback_domain(chi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Points with chi <= 0.05 or theta within SINGULAR_GUARD of the axis."""
    return ~((chi > 0.05) & (SINGULAR_GUARD < theta) & (theta < math.pi - SINGULAR_GUARD))


def pullback_accepts(space: SpaceTag, p: SphericalPoint) -> np.ndarray:
    """Mask of the points :func:`metric_pullback_check` accepts."""
    center = spherical_to_parabolic(space, p)
    return ~(_off_pullback_domain(p.chi, p.theta) | (center.clearance() < SINGULAR_GUARD))


def metric_pullback_check(space: SpaceTag, p: SphericalPoint) -> ResidualReport:
    """Compare the closed-form parabolic metric against the spherical one.

    With the closed-form chart Jacobian J, J^T G J must reproduce the
    space's spherical metric diag(1, f^2, f^2 sin^2 th), on S3 as on H3;
    phi does not enter.  One report covers the nine entries of every
    point, each measured against 1 + |reference|.

    chi <= 0.05 or theta within ``SINGULAR_GUARD`` of the axis raises
    DomainError; a :meth:`ParabolicPoints.clearance` below ``SINGULAR_GUARD``
    raises SingularLocusError.  A batch raises for its first such point,
    and :func:`pullback_accepts` masks them.
    """
    chi, theta = np.broadcast_arrays(p.chi, p.theta)
    _raise_first(
        _off_pullback_domain(chi, theta),
        DomainError,
        "pullback check needs chi > 0.05 and theta off the axis, got ({}, {})",
        chi,
        theta,
    )
    center = spherical_to_parabolic(space, p)
    _raise_first(center.clearance() < SINGULAR_GUARD, SingularLocusError, "point too close to a parabolic boundary")
    jac = _chart_jacobian(space, chi, theta)
    pull = np.swapaxes(jac, -1, -2) @ metric_parabolic(space, center) @ jac
    ref = _spherical_metric(space, chi, theta)
    return build_report(np.abs(pull - ref), np.abs(ref), METRIC_PULLBACK_TOL)


# ---------------------------------------------------------------------------
# constraint, flat limit


def _constraint_residuals(t1, t2):
    """Elementwise S3 conjugation-constraint residuals (inf where t1 ~ 1)."""
    near_one = np.abs(1.0 - t1) < 1e-14
    r1 = np.abs(np.conj(t1) + t1 * (1.0 - t2) / np.where(near_one, 1.0, 1.0 - t1))
    return np.where(near_one, np.inf, r1), np.abs((t1 * t2).imag)


def constraint_check(p: ParabolicPoints) -> ResidualReport:
    """Report the S3 conjugation-constraint residuals of a batch.

    Each point gives the two residuals of :func:`_constraint_residuals`,
    the formula the S3 chart validation uses, and the worst point is
    recorded as ``(t1, t2, phi)``, t1 and t2 complex on an H3 batch too.
    Pure report: H3-real points simply show a nonzero residual since the
    constraint is an S3 statement.
    """
    t1, t2 = p.t1.ravel(), p.t2.ravel()
    r1, r2 = _constraint_residuals(t1, t2)
    columns = [np.repeat(c, 2) for c in (t1.astype(complex), t2.astype(complex), p.phi.ravel())]
    return build_report(np.column_stack([r1, r2]), 0.0, CONSTRAINT_CHECK_TOL, columns=columns)


@dataclass(frozen=True)
class FlatLimitTable:
    """Convergence table of the flat-limit coordinate identities.

    ``limits`` holds the flat values z + r and z - r that the scaled
    coordinates approach ((0, 0) at the base point 0,0,0).
    """

    rho: tuple[float, ...]
    err_t1: tuple[float, ...]
    err_t2: tuple[float, ...]
    degenerate: bool
    limits: tuple[float, float]

    def slope(self) -> float:
        """Least-squares slope of log10(max error) vs log10(rho).

        NaN below two measurable errors.  An error at or below four ulps
        of the larger of ``limits`` is rounding, not convergence, and
        counts as not measurable.
        """
        errs = np.maximum(np.array(self.err_t1), np.array(self.err_t2))
        mask = errs > 4.0 * np.spacing(max(abs(v) for v in self.limits))
        if mask.sum() < 2:
            return math.nan
        x = np.log10(np.array(self.rho)[mask])
        y = np.log10(errs[mask])
        return float(np.polyfit(x, y, 1)[0])


def flat_limit_coords(
    space: SpaceTag, rho_list: list[float], euclidean_point: tuple[float, float, float]
) -> FlatLimitTable:
    """Check that scaled parabolic coordinates approach their flat limits.

    A Euclidean point (x, y, z) with r = |(x,y,z)| placed at geodesic
    distance r/rho has rho*t1 -> z + r and rho*t2 -> z - r on H3, and the
    same limits for rho*t/unit = -i*rho*t on S3; errors decay as O(1/rho).
    """
    x, y, z = euclidean_point
    r = math.sqrt(x * x + y * y + z * z)
    rhos = [float(v) for v in rho_list]
    if not rhos or not all(math.isfinite(v) and v > 0.0 for v in rhos):
        raise DomainError("need one or more rho values, positive and finite")
    if any(b <= a for a, b in zip(rhos, rhos[1:])):
        raise DomainError("rho values must be strictly increasing")
    if r == 0.0:
        zeros = (0.0,) * len(rhos)
        return FlatLimitTable(tuple(rhos), zeros, zeros, True, (0.0, 0.0))
    if rhos[0] < 10.0 * r:
        raise DomainError("need rho >= 10 * |point| for the asymptotic regime")
    theta = math.acos(z / r)
    phi = math.atan2(y, x)
    xi = z + r
    eta_neg = z - r
    q = spherical_to_parabolic(space, SphericalPoint(r / np.array(rhos), theta, phi))
    # the errors in Python scalars: numpy's complex abs can differ in the last bit
    e1 = tuple(abs(rho * t / space.unit - xi) for rho, t in zip(rhos, q.t1.tolist()))
    e2 = tuple(abs(rho * t / space.unit - eta_neg) for rho, t in zip(rhos, q.t2.tolist()))
    return FlatLimitTable(tuple(rhos), e1, e2, False, (xi, eta_neg))
