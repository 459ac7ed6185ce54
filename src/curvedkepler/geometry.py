"""Coordinate charts and metrics on H3 and S3.

Three charts are connected here:

* ambient quadric coordinates (x0..x3 on H3, y0..y3 on S3),
* geodesic spherical coordinates (chi, theta, phi),
* generalized parabolic coordinates (t1, t2, phi).

On H3 the parabolic pair is real with 0 <= t1 < 1 and t2 <= 0,

    t1 = (1 + cos th) sinh(chi) e^{-chi},   t2 = -(1 - cos th) sinh(chi) e^{chi},

while on S3 it is genuinely complex,

    t1 = (1 + cos th) w(chi),   t2 = (1 - cos th) conj(w(chi)),
    w(chi) = sin(chi) e^{i(pi/2 - chi)} = (1 - e^{-2i chi})/2,

tied to the real sphere by the conjugation constraint
t1* = -t1 (1 - t2)/(1 - t1) (equivalently t2* = -t2 (1 - t1)/(1 - t2),
and t1 t2 real).  The closed-form parabolic metrics are diagonal,

    H3:  diag( (t1-t2)/(4 t1 (1-t1)^2),  (t2-t1)/(4 t2 (1-t2)^2),  -t1 t2 ),
    S3:  the negated first two entries and +t1 t2,

and each pulls back, through the closed-form chart Jacobian, to the
space's own spherical metric diag(1, f^2, f^2 sin^2 th) with
f = sinh(chi) (H3) or sin(chi) (S3).  All maps are pure functions of
double-precision values; singular loci raise typed errors instead of
producing NaNs.

The chart maps work on arrays: a :class:`ParabolicPoints` batch holds
parallel (t1, t2, phi) arrays, and the single-point dataclasses go
through the same array code as batches of one.
"""

from __future__ import annotations

import cmath
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
    "AmbientPoint",
    "SphericalPoint",
    "ParabolicPoint",
    "ParabolicPoints",
    "FlatLimitTable",
    "spherical_to_parabolic",
    "parabolic_to_spherical",
    "parabolic_to_ambient",
    "ambient_to_parabolic",
    "antipodal",
    "metric_parabolic",
    "metric_pullback_check",
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

_TWO_PI = 2.0 * math.pi


def _norm_phi(phi):
    """phi reduced into [0, 2 pi), elementwise: C fmod, then one shift up."""
    phi = np.fmod(phi, _TWO_PI)
    return np.where(phi < 0.0, phi + _TWO_PI, phi)


def _raise_first(bad: np.ndarray, error: type, message: str, *values) -> None:
    """Raise ``error`` for the first flagged point, formatting its values in."""
    if bad.any():
        i = int(np.argmax(bad))
        raise error(message.format(*(np.ravel(v)[i] for v in values)))


def _quadric(space: SpaceTag, c):
    """c0^2 - |c|^2 (H3) or c0^2 + |c|^2 (S3), elementwise over (c0, c1, c2, c3)."""
    s = c[1] * c[1] + c[2] * c[2] + c[3] * c[3]
    if space.model is Model.H3:
        return c[0] * c[0] - s
    return c[0] * c[0] + s


def _validate_ambient(space: SpaceTag, c: np.ndarray) -> None:
    """Raise DomainError for the first column of c = (c0, c1, c2, c3) off the quadric."""
    off = np.abs(_quadric(space, c) - 1.0) > QUADRIC_TOL * np.maximum(1.0, c[0] * c[0])
    _raise_first(
        off, DomainError, f"point not on the {space.name} quadric: ({{}}, {{}}, {{}}, {{}})", *c
    )
    if space.model is Model.H3:
        _raise_first(
            c[0] < 1.0 - QUADRIC_TOL, DomainError, "H3 points live on the upper sheet (x0 >= 1)"
        )


def _validate_spherical(chi: np.ndarray, theta: np.ndarray) -> None:
    _raise_first(
        ~((chi >= 0.0) & np.isfinite(chi)), DomainError, "chi must be finite and >= 0, got {}", chi
    )
    _raise_first(
        ~((0.0 <= theta) & (theta <= math.pi)), DomainError, "theta must lie in [0, pi], got {}", theta
    )


def _validate_parabolic(space: SpaceTag, t1: np.ndarray, t2: np.ndarray, tol: float) -> None:
    """Raise the space's typed error for the first point off its parabolic chart."""
    if space.model is Model.H3:
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


@dataclass(frozen=True)
class AmbientPoint:
    """Quadric embedding coordinates; c0 is x0 (H3) or y0 (S3)."""

    c0: float
    c1: float
    c2: float
    c3: float

    def quadric(self, space: SpaceTag) -> float:
        return _quadric(space, (self.c0, self.c1, self.c2, self.c3))

    def validate_for(self, space: SpaceTag) -> None:
        _validate_ambient(space, np.array([[self.c0], [self.c1], [self.c2], [self.c3]]))

    def radius(self) -> float:
        """Euclidean length of the spatial part (c1, c2, c3)."""
        return math.sqrt(self.c1 * self.c1 + self.c2 * self.c2 + self.c3 * self.c3)


@dataclass(frozen=True)
class SphericalPoint:
    """Geodesic polar coordinates; chi in [0, inf) on H3, [0, pi] on S3."""

    chi: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        _validate_spherical(np.array([self.chi]), np.array([self.theta]))
        object.__setattr__(self, "phi", float(_norm_phi(float(self.phi))))


@dataclass(frozen=True)
class ParabolicPoint:
    """Generalized parabolic coordinates (t1, t2, phi)."""

    t1: complex
    t2: complex
    phi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t1", complex(self.t1))
        object.__setattr__(self, "t2", complex(self.t2))
        object.__setattr__(self, "phi", float(_norm_phi(float(self.phi))))

    def validate_for(self, space: SpaceTag, tol: float = CONSTRAINT_TOL) -> None:
        _validate_parabolic(space, np.array([self.t1]), np.array([self.t2]), tol)


@dataclass(frozen=True, eq=False)
class ParabolicPoints:
    """A batch of parabolic chart points: parallel t1, t2, phi arrays.

    The three arrays are broadcast to one shape; t1 and t2 are stored as
    complex, and phi is normalized into [0, 2 pi) exactly as
    :class:`ParabolicPoint` normalizes it, before the broadcast.
    Iterating yields the points one by one, in flat order.
    """

    t1: np.ndarray
    t2: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        t1, t2, phi = np.broadcast_arrays(
            np.asarray(self.t1, dtype=complex),
            np.asarray(self.t2, dtype=complex),
            _norm_phi(np.asarray(self.phi, dtype=float)),
        )
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "t2", t2)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def of(cls, points) -> "ParabolicPoints":
        """A batch as is, or the batch of one ParabolicPoint or of a sequence of them."""
        if isinstance(points, cls):
            return points
        if isinstance(points, ParabolicPoint):
            points = (points,)
        points = list(points)
        return cls([p.t1 for p in points], [p.t2 for p in points], [p.phi for p in points])

    def __len__(self) -> int:
        return self.t1.size

    def __iter__(self):
        for t1, t2, phi in zip(self.t1.flat, self.t2.flat, self.phi.flat):
            yield ParabolicPoint(t1, t2, phi)

    def validate_for(self, space: SpaceTag, tol: float = CONSTRAINT_TOL) -> None:
        _validate_parabolic(space, self.t1, self.t2, tol)

    def clearance(self) -> np.ndarray:
        """Distance of each point from the singular loci t = 0, t = 1 and t1 = t2."""
        t1, t2 = self.t1, self.t2
        return np.minimum.reduce(
            [np.abs(t1), np.abs(1.0 - t1), np.abs(t2), np.abs(1.0 - t2), np.abs(t1 - t2)]
        )


# ---------------------------------------------------------------------------
# chart maps


def spherical_to_parabolic(space: SpaceTag, p):
    """Map geodesic polar coordinates to the parabolic chart.

    ``p`` is a :class:`SphericalPoint`, mapped to a :class:`ParabolicPoint`,
    or a tuple of broadcastable ``(chi, theta, phi)`` arrays, mapped to a
    :class:`ParabolicPoints` batch of their shape; the arrays are checked
    as SphericalPoint checks its fields.  phi passes through, reduced
    into [0, 2 pi); the output satisfies the space's parabolic invariants
    by construction.
    """
    if isinstance(p, SphericalPoint):
        q = _spherical_to_parabolic(space, np.array([p.chi]), np.array([p.theta]), p.phi)
        return ParabolicPoint(q.t1[0], q.t2[0], q.phi[0])
    chi, theta, phi = p
    chi, theta = np.asarray(chi, dtype=float), np.asarray(theta, dtype=float)
    _validate_spherical(chi, theta)
    return _spherical_to_parabolic(space, chi, theta, phi)


def _spherical_to_parabolic(
    space: SpaceTag, chi: np.ndarray, theta: np.ndarray, phi
) -> ParabolicPoints:
    c = np.cos(theta)
    if space.model is Model.H3:
        _raise_first(chi > 350.0, DomainError, "chi too large: parabolic t2 would overflow")
        sh = np.sinh(chi)
        t1 = ((1.0 + c) * sh * np.exp(-chi)).astype(complex)
        t2 = (-(1.0 - c) * sh * np.exp(chi)).astype(complex)
    else:
        _raise_first(chi > math.pi, DomainError, "S3 requires chi <= pi, got {}", chi)
        w = np.sin(chi) * np.exp(1j * (math.pi / 2.0 - chi))
        t1 = (1.0 + c) * w
        t2 = (1.0 - c) * np.conj(w)
    return ParabolicPoints(t1, t2, phi)


def parabolic_to_spherical(space: SpaceTag, p: ParabolicPoint) -> SphericalPoint:
    """Invert the parabolic chart back to (chi, theta, phi).

    At the coordinate origin t1 = t2 = 0 the polar angle is genuinely
    indeterminate; chi = 0 with theta = 0 is returned under a warning.
    """
    p.validate_for(space)
    t1, t2 = p.t1, p.t2
    if t1 == t2:
        if t1 == 0:
            warnings.warn(
                "theta is indeterminate at the chart origin",
                IndeterminateCoordinateWarning,
            )
            return SphericalPoint(0.0, 0.0, p.phi)
        raise SingularLocusError("t1 = t2 != 0 lies on the chart axis")
    cos_theta = (t1 + t2 - 2.0 * t1 * t2) / (t1 - t2)
    if abs(cos_theta.imag) > 1e-8:
        raise ConstraintError(f"cos(theta) came out non-real: {cos_theta}")
    theta = math.acos(min(1.0, max(-1.0, cos_theta.real)))
    if space.model is Model.H3:
        tanh_chi = ((t1 - t2) / (2.0 - t1 - t2)).real
        if not 0.0 <= tanh_chi < 1.0:
            raise DomainError(f"point outside the H3 chart: tanh(chi) = {tanh_chi}")
        return SphericalPoint(math.atanh(tanh_chi), theta, p.phi)
    # S3: arg t1 = pi/2 - chi (and arg t2 = chi - pi/2), so either
    # nonzero member of the pair recovers chi in [0, pi].
    if t1 != 0:
        chi = math.pi / 2.0 - cmath.phase(t1)
    else:
        chi = math.pi / 2.0 + cmath.phase(t2)
    chi = min(math.pi, max(0.0, chi))
    return SphericalPoint(chi, theta, p.phi)


def parabolic_to_ambient(space: SpaceTag, p):
    """Map parabolic coordinates to the ambient quadric.

    ``p`` is a :class:`ParabolicPoint`, mapped to an :class:`AmbientPoint`,
    or a :class:`ParabolicPoints` batch, mapped to an array of shape
    ``(4,) + p.t1.shape`` holding (c0, c1, c2, c3).  A batch raises the
    typed error of its first point that fails a check.

    The S3 square root has two branches differing by the simultaneous
    flip of (y0, y3); only one of them inverts the forward formulas, so
    both candidates are built and the one reproducing (t1, t2) is kept.
    """
    if isinstance(p, ParabolicPoint):
        c = _parabolic_to_ambient(space, ParabolicPoints.of(p))
        return AmbientPoint(*(float(v) for v in c[:, 0]))
    return _parabolic_to_ambient(space, p)


def _parabolic_to_ambient(space: SpaceTag, p: ParabolicPoints) -> np.ndarray:
    p.validate_for(space)
    t1, t2 = p.t1, p.t2
    cos, sin = np.cos(p.phi), np.sin(p.phi)
    if space.model is Model.H3:
        x1, x2 = t1.real, t2.real
        _raise_first(x1 >= 1.0, SingularLocusError, "t1 = 1 is the chart boundary")
        root = np.sqrt((1.0 - x1) * (1.0 - x2))
        radial = np.sqrt(np.maximum(0.0, -(x1 * x2)))
        x3 = (x1 + x2 - 2.0 * x1 * x2) / (2.0 * root)
        x0 = (2.0 - x1 - x2) / (2.0 * root)
        out = np.stack([x0, radial * cos, radial * sin, x3])
        _validate_ambient(space, out)
        return out
    prod = (1.0 - t1) * (1.0 - t2)
    _raise_first(prod == 0, SingularLocusError, "t = 1 is the chart boundary")
    root = np.sqrt(prod)
    # t1*t2 is nonnegative real on S3 points, so -t1*t2 would sit on the
    # sqrt branch cut and rounding noise could flip the sign of (y1, y2);
    # keep the argument on the positive axis instead.
    radial = np.sqrt(t1 * t2)
    y0 = (2.0 - t1 - t2) / (2.0 * root)
    iy3 = (t1 + t2 - 2.0 * t1 * t2) / (2.0 * root)
    y = np.stack([y0, radial * cos, radial * sin, -1j * iy3])
    # The other branch negates the root, so it is (-y0, y1, y2, -y3) with
    # the same imaginary parts: both candidates are real or neither is.
    real = ~(np.abs(y.imag).max(axis=0) > 1e-9)
    plus = y.real
    minus = np.stack([-plus[0], plus[1], plus[2], -plus[3]])

    def inversion_error(c: np.ndarray) -> np.ndarray:
        # distance of the inverse map (2.14b) from (t1, t2)
        r = np.sqrt(c[1] * c[1] + c[2] * c[2] + c[3] * c[3])
        return np.abs((r + c[3]) * (r + 1j * c[0]) - t1) + np.abs((r - c[3]) * (r - 1j * c[0]) - t2)

    err_plus, err_minus = inversion_error(plus), inversion_error(minus)
    use_minus = err_minus < err_plus
    best_err = np.where(real, np.minimum(err_plus, err_minus), np.inf)
    _raise_first(
        ~(best_err <= 1e-8 * (1.0 + np.abs(t1) + np.abs(t2))),
        ConstraintError,
        "({}, {}) does not correspond to a real S3 point",
        t1,
        t2,
    )
    out = np.where(use_minus, minus, plus)
    _validate_ambient(space, out)
    return out


def ambient_to_parabolic(space: SpaceTag, p: AmbientPoint) -> ParabolicPoint:
    """Invert the ambient parametrization of the parabolic chart."""
    p.validate_for(space)
    r = p.radius()
    if p.c1 == 0.0 and p.c2 == 0.0:
        warnings.warn(
            "phi is indeterminate on the c1 = c2 = 0 axis",
            IndeterminateCoordinateWarning,
        )
    phi = math.atan2(p.c2, p.c1)
    if space.model is Model.H3:
        if r == 0.0:
            return ParabolicPoint(0j, 0j, phi)
        t1 = (p.c3 + r) / (p.c0 + r)
        t2 = (p.c3 - r) / (p.c0 - r)
        return ParabolicPoint(complex(t1, 0.0), complex(t2, 0.0), phi)
    t1 = (r + p.c3) * (r + 1j * p.c0)
    t2 = (r - p.c3) * (r - 1j * p.c0)
    return ParabolicPoint(t1, t2, phi)


def antipodal(p: AmbientPoint) -> AmbientPoint:
    """The S3 antipodal map (y0, y_k) -> (-y0, -y_k)."""
    return AmbientPoint(-p.c0, -p.c1, -p.c2, -p.c3)


# ---------------------------------------------------------------------------
# metrics


def metric_parabolic(space: SpaceTag, p: ParabolicPoint) -> np.ndarray:
    """Closed-form diagonal metric in (t1, t2, phi) order."""
    t1, t2 = p.t1, p.t2
    if t1 in (0, 1) or t2 in (0, 1) or t1 == t2:
        raise SingularLocusError(f"metric singular at ({t1}, {t2})")
    g11 = (t1 - t2) / (4.0 * t1 * (1.0 - t1) ** 2)
    g22 = (t2 - t1) / (4.0 * t2 * (1.0 - t2) ** 2)
    gpp = -t1 * t2
    if space.model is Model.S3:
        g11, g22, gpp = -g11, -g22, -gpp
    return np.diag(np.array([g11, g22, gpp], dtype=complex))


def _spherical_metric(space: SpaceTag, p: SphericalPoint) -> np.ndarray:
    f = math.sinh(p.chi) if space.model is Model.H3 else math.sin(p.chi)
    return np.diag([1.0, f * f, f * f * math.sin(p.theta) ** 2]).astype(complex)


def _chart_jacobian(space: SpaceTag, p: SphericalPoint) -> np.ndarray:
    """Closed-form Jacobian of (chi, theta, phi) -> (t1, t2, phi).

    Both charts read t1 = (1 + cos th) u1(chi) and t2 = (1 - cos th) u2(chi),
    with (u1, u2) = (sinh(chi) e^{-chi}, -sinh(chi) e^{chi}) on H3 and
    (w, conj(w)) on S3, where dw/dchi = i e^{-2i chi}.
    """
    chi = p.chi
    if space.model is Model.H3:
        u1, u2 = math.sinh(chi) * math.exp(-chi), -math.sinh(chi) * math.exp(chi)
        du1, du2 = math.exp(-2.0 * chi), -math.exp(2.0 * chi)
    else:
        u1 = math.sin(chi) * cmath.exp(1j * (math.pi / 2.0 - chi))
        du1 = 1j * cmath.exp(-2j * chi)
        u2, du2 = u1.conjugate(), du1.conjugate()
    c, s = math.cos(p.theta), math.sin(p.theta)
    return np.array(
        [[(1.0 + c) * du1, -s * u1, 0.0], [(1.0 - c) * du2, s * u2, 0.0], [0.0, 0.0, 1.0]],
        dtype=complex,
    )


def metric_pullback_check(
    space: SpaceTag, p: SphericalPoint, tolerance: float = 1e-6
) -> ResidualReport:
    """Compare the closed-form parabolic metric against the spherical one.

    With the closed-form chart Jacobian J, J^T G J must reproduce the
    space's spherical metric diag(1, f^2, f^2 sin^2 th), on S3 as on H3.
    Entrywise residuals are measured against 1 + |reference|.
    """
    if p.chi <= 0.05 or not SINGULAR_GUARD < p.theta < math.pi - SINGULAR_GUARD:
        raise DomainError("pullback check needs chi > 0.05 and theta off the axis")
    center = spherical_to_parabolic(space, p)
    for t in (center.t1, center.t2):
        if min(abs(t), abs(1.0 - t)) < SINGULAR_GUARD:
            raise SingularLocusError("point too close to a parabolic boundary")
    jac = _chart_jacobian(space, p)
    ref = _spherical_metric(space, p)
    pull = jac.T @ metric_parabolic(space, center) @ jac
    return build_report(np.abs(pull - ref).ravel(), np.abs(ref).ravel(), tolerance)


# ---------------------------------------------------------------------------
# constraint, flat limit


def _constraint_residuals(t1, t2):
    """Elementwise S3 conjugation-constraint residuals (inf where t1 ~ 1)."""
    near_one = np.abs(1.0 - t1) < 1e-14
    r1 = np.abs(np.conj(t1) + t1 * (1.0 - t2) / np.where(near_one, 1.0, 1.0 - t1))
    return np.where(near_one, np.inf, r1), np.abs((t1 * t2).imag)


def constraint_check(p: ParabolicPoint, tolerance: float = 1e-12) -> ResidualReport:
    """Report the S3 conjugation-constraint residuals of a single point.

    Pure report: H3-real points simply show a nonzero residual since the
    constraint is an S3 statement.  The residuals use Python complex
    arithmetic: numpy divides complex numbers with a different rounding,
    and the reported figures are part of the verify output.
    """
    t1, t2 = p.t1, p.t2
    if abs(1.0 - t1) < 1e-14:
        r1 = math.inf
    else:
        r1 = abs(t1.conjugate() + t1 * (1.0 - t2) / (1.0 - t1))
    r2 = abs((t1 * t2).imag)
    return build_report(
        np.array([r1, r2]),
        np.array([0.0, 0.0]),
        tolerance,
        points=[(p.t1, p.t2, p.phi)] * 2,
    )


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
    same limits for -i*rho*t on S3; errors decay as O(1/rho).
    """
    x, y, z = euclidean_point
    r = math.sqrt(x * x + y * y + z * z)
    rhos = [float(v) for v in rho_list]
    if not all(math.isfinite(v) and v > 0.0 for v in rhos):
        raise DomainError("rho values must be positive and finite")
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
    unit = -1j if space.model is Model.S3 else 1.0
    e1, e2 = [], []
    for rho in rhos:
        q = spherical_to_parabolic(space, SphericalPoint(r / rho, theta, phi))
        e1.append(abs(unit * rho * q.t1 - xi))
        e2.append(abs(unit * rho * q.t2 - eta_neg))
    return FlatLimitTable(tuple(rhos), tuple(e1), tuple(e2), False, (xi, eta_neg))
