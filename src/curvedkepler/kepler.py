"""Bound states of the Kepler problem on H3 and S3.

Separation of the Schroedinger equation in parabolic coordinates writes
every bound state as

    Psi(t1, t2, phi) = f1(t1) f2(t2) e^{i m phi},
    f_i(t) = t^{a_i} (1 - t)^{b_i} F(alpha_i, beta_i; gamma_i; t),

with quantum numbers (n1, n2, m), principal number k = n1 + n2 + |m| + 1
and closed-form spectra

    H3:  eps = -e^2/(2 k^2) - (k^2 - 1)/2,   bound only for k < sqrt(e),
    S3:  eps = -e^2/(2 k^2) + (k^2 - 1)/2,   all k (infinite ladder),

for attractive dimensionless coupling e > 0.  The exponents and
separation constants come out of the quantization in closed form; on H3
everything is real while on S3 the pair (b1, b2) and the separation
constants pick up conjugate imaginary parts +-i e/(2k) style terms.
Everything here is evaluated from those closed forms; the quantization
equations themselves are only ever used as verification assertions in
the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

from .errors import BoundStateError, DomainError, IntegrabilityError, ParameterError
from .geometry import spherical_to_parabolic
from .spaces import Model, SpaceTag, space_from_name
from .specfun import Hyp2F1Params, hyp2f1, power_product

__all__ = [
    "QuantumNumbers",
    "StateParams",
    "SeparatedFactor",
    "NormalizationResult",
    "energy",
    "bound_count_h3",
    "bound_interval_h3",
    "enumerate_states",
    "assemble_state",
    "factor",
    "wavefunction_values",
    "radial_spherical",
    "normalize",
]

# Integrand cutoff for the H3 radial truncation, relative to the peak.
RADIAL_TAIL_CUTOFF = 1e-14


@dataclass(frozen=True)
class QuantumNumbers:
    n1: int
    n2: int
    m: int

    def __post_init__(self) -> None:
        for name in ("n1", "n2", "m"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ParameterError(f"{name} must be an integer, got {v!r}")
        if self.n1 < 0 or self.n2 < 0:
            raise ParameterError("n1 and n2 must be >= 0")

    @property
    def k(self) -> int:
        return self.n1 + self.n2 + abs(self.m) + 1


@dataclass(frozen=True)
class StateParams:
    """Complete parameter bundle of one parabolic bound state."""

    space: SpaceTag
    e: float
    qn: QuantumNumbers
    epsilon: float
    a1: float
    a2: float
    b1: complex
    b2: complex
    alpha1: complex
    beta1: complex
    gamma1: complex
    alpha2: complex
    beta2: complex
    gamma2: complex
    k1: complex
    k2: complex

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-ready fields in declaration order.

        ``qn`` expands to n1, n2, m and k; complex fields become
        ``[re, im]``; float fields stay floats (the CSV output of
        ``cli state`` dispatches on that type).
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "space":
                out["space"] = v.name
            elif f.name == "qn":
                out.update(n1=v.n1, n2=v.n2, m=v.m, k=v.k)
            elif f.type in (complex, "complex"):
                z = complex(v)
                out[f.name] = [z.real, z.imag]
            else:
                out[f.name] = v
        return out

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "StateParams":
        kw: dict[str, Any] = {}
        for f in fields(cls):
            if f.name == "space":
                kw["space"] = space_from_name(d["space"])
            elif f.name == "qn":
                kw["qn"] = QuantumNumbers(int(d["n1"]), int(d["n2"]), int(d["m"]))
            elif f.type in (complex, "complex"):
                kw[f.name] = complex(d[f.name][0], d[f.name][1])
            else:
                kw[f.name] = float(d[f.name])
        return cls(**kw)


@dataclass(frozen=True)
class SeparatedFactor:
    """One separated factor f(t) = t^a (1-t)^b F(alpha, beta; gamma; t)."""

    a: float
    b: complex
    params: Hyp2F1Params

    def value(self, t):
        """Evaluate f at scalar or array t (principal branches).

        Far out on the negative real axis (deep H3 tail, |t| beyond
        1e2) the plain product overflows in intermediates even though f
        itself underflows, so terminating cases switch to a termwise
        form with the powers of |t| combined before exponentiation.
        """
        scalar = np.isscalar(t) or isinstance(t, complex)
        tt = np.atleast_1d(np.asarray(t, dtype=complex))
        far = (tt.imag == 0.0) & (tt.real < -1e2)
        if far.any() and self.params.polynomial_degree is not None:
            out = np.empty_like(tt)
            out[far] = self._far_tail(tt[far].real)
            near = ~far
            if near.any():
                out[near] = self._plain(tt[near])
        else:
            out = self._plain(tt)
        return complex(out[0]) if scalar else out.reshape(np.shape(t))

    def _plain(self, tt: np.ndarray) -> np.ndarray:
        return hyp2f1(self.params, tt) * power_product(tt, self.a, self.b)

    def _far_tail(self, t: np.ndarray) -> np.ndarray:
        # t real < -1e2: write t^{a+j}(1-t)^b = e^{i pi(a+j)} |t|^{a+b+j}
        # (1 + 1/|t|)^b and sum the terminating series termwise; every
        # exponent a+b+j stays <= a+b+n, so nothing overflows.
        x = np.abs(t)
        lx = np.log(x)
        al, be, ga = self.params.alpha, self.params.beta, self.params.gamma
        n = self.params.polynomial_degree
        c = 1.0 + 0j
        acc = np.zeros_like(x, dtype=complex)
        for j in range(n + 1):
            if j > 0:
                c = c * (al + j - 1) * (be + j - 1) / ((ga + j - 1) * j)
            acc += c * np.exp(1j * math.pi * (self.a + j) + (self.a + self.b + j) * lx)
        return acc * np.exp(self.b * np.log1p(1.0 / x))


@dataclass(frozen=True)
class NormalizationResult:
    """Normalization constant with its quadrature self-error estimate."""

    constant: float
    error_estimate: float
    chi_max: float | None
    n_chi: int
    n_theta: int


def energy(space: SpaceTag, e: float, k: int, force: bool = False) -> float:
    """Closed-form energy of principal level k.

    On H3 only k < sqrt(e) is a bound level; other k raise unless
    ``force`` is set (the formula itself stays meaningful).
    """
    rydberg, curvature = energy_split(space, e, k)
    if space.model is Model.H3 and not is_admissible(space, e, k) and not force:
        raise BoundStateError(
            f"H3 level k={k} is not bound for e={e} (needs k < sqrt(e))"
        )
    return rydberg + curvature


def energy_split(space: SpaceTag, e: float, k: int) -> tuple[float, float]:
    """(flat Rydberg term, curvature term) whose sum is the level energy.

    The first term -e^2/2k^2 carries no curvature dependence at all:
    the flat-space limit of the spectrum is a statement about the
    closed form, not a numerical limit.
    """
    if e < 0:
        raise DomainError("coupling e must be >= 0")
    if k < 1:
        raise DomainError("principal number k must be >= 1")
    curvature = (k * k - 1) / 2.0
    if space.model is Model.H3:
        curvature = -curvature + 0.0  # keep k=1 at +0.0, not -0.0
    return -e * e / (2.0 * k * k), curvature


def is_admissible(space: SpaceTag, e: float, k: int) -> bool:
    """True when (e, k) labels a genuine bound state of the space."""
    if space.model is Model.H3:
        return k * k < e
    return k >= 1


def bound_count_h3(e: float) -> int:
    """Number of discrete H3 levels: integers k >= 1 with k < sqrt(e)."""
    if e < 0:
        raise DomainError("coupling e must be >= 0")
    count = 0
    k = 1
    while k * k < e:
        count += 1
        k += 1
    return count


def bound_interval_h3(e: float) -> tuple[float, float]:
    """The closed interval [-e^2/2, 1/2 - e] containing all H3 levels."""
    return (-e * e / 2.0, 0.5 - e)


def enumerate_states(k: int) -> list[QuantumNumbers]:
    """All (n1, n2, m) with n1 + n2 + |m| + 1 = k; the count is k^2."""
    if k < 1:
        raise DomainError("principal number k must be >= 1")
    out = []
    for m in range(-(k - 1), k):
        for n1 in range(k - abs(m)):
            n2 = k - 1 - abs(m) - n1
            out.append(QuantumNumbers(n1, n2, m))
    return out


def assemble_state(space: SpaceTag, e: float, qn: QuantumNumbers) -> StateParams:
    """Build the full closed-form parameter bundle of a bound state."""
    if e <= 0:
        raise DomainError("bound states need attractive coupling e > 0")
    k = qn.k
    if space.model is Model.H3 and not is_admissible(space, e, k):
        raise BoundStateError(
            f"H3 state with k={k} is not bound for e={e} (needs k < sqrt(e))"
        )
    eps = energy(space, e, k)
    n1, n2, m = qn.n1, qn.n2, qn.m
    am = abs(m)
    a = am / 2.0
    gamma = complex(am + 1)
    beta1 = complex(-n1)
    beta2 = complex(-n2)
    d = n2 - n1
    if space.model is Model.H3:
        r = e / k
        b1 = complex((d + r) / 2.0)
        b2 = complex((-d - r) / 2.0)
        alpha1 = complex(n2 + am + 1 + r)
        alpha2 = complex(n1 + am + 1 - r)
        k1 = complex(((k + r) ** 2 - (d + r) ** 2 + m * m - 1) / 4.0)
        k2 = complex(((k - r) ** 2 - (d + r) ** 2 + m * m - 1) / 4.0)
    else:
        ri = 1j * e / k
        b1 = (d - ri) / 2.0
        b2 = (-d + ri) / 2.0
        alpha1 = n2 + am + 1 - ri
        alpha2 = n1 + am + 1 + ri
        k1 = ((k - ri) ** 2 - (d - ri) ** 2 + m * m - 1) / 4.0
        k2 = ((k + ri) ** 2 - (d - ri) ** 2 + m * m - 1) / 4.0
    return StateParams(
        space=space,
        e=float(e),
        qn=qn,
        epsilon=eps,
        a1=a,
        a2=a,
        b1=b1,
        b2=b2,
        alpha1=alpha1,
        beta1=beta1,
        gamma1=gamma,
        alpha2=alpha2,
        beta2=beta2,
        gamma2=gamma,
        k1=k1,
        k2=k2,
    )


def factor(state: StateParams, which: int) -> SeparatedFactor:
    """The separated factor for index 1 (t1) or 2 (t2)."""
    if which == 1:
        return SeparatedFactor(
            state.a1, state.b1, Hyp2F1Params(state.alpha1, state.beta1, state.gamma1)
        )
    if which == 2:
        return SeparatedFactor(
            state.a2, state.b2, Hyp2F1Params(state.alpha2, state.beta2, state.gamma2)
        )
    raise ParameterError(f"factor index must be 1 or 2, got {which}")


def wavefunction_values(state: StateParams, t1, t2, phi) -> np.ndarray:
    """Vectorized Psi over parallel arrays of chart coordinates."""
    v1 = factor(state, 1).value(np.asarray(t1, dtype=complex))
    v2 = factor(state, 2).value(np.asarray(t2, dtype=complex))
    return v1 * v2 * np.exp(1j * state.qn.m * np.asarray(phi, dtype=float))


def radial_spherical(space: SpaceTag, e: float, n: int, l: int, chi: float) -> complex:
    """Radial bound-state function of the spherical chart.

    H3:  sinh^l(chi) e^{(n-l-1-e/n) chi} F(e/n+l+1, l-n+1; 2l+2; 1-e^{-2 chi})
    S3:  sin^l(chi)  e^{(i(n-l-1)-e/n) chi} F(-ie/n+l+1, l-n+1; 2l+2; 1-e^{-2i chi})

    F terminates (second parameter l-n+1 <= 0), so any chi in the
    space's range is fine.
    """
    if n < 1 or not 0 <= l <= n - 1:
        raise DomainError(f"need n >= 1 and 0 <= l <= n-1, got n={n}, l={l}")
    if not isinstance(chi, complex):
        if chi < 0:
            raise DomainError("chi must be >= 0")
        if space.model is Model.S3 and chi > math.pi:
            raise DomainError("S3 requires chi <= pi")
        if space.model is Model.H3 and chi > 350.0:
            raise DomainError("chi too large; sinh(chi) overflows beyond 350")
    return _radial_formula(space, e, n, l, chi)


def _radial_formula(space: SpaceTag, e, n: int, l: int, chi) -> complex:
    """Radial closed form, permissive in complex chi and e.

    Used by the public operation and by the chi -> i chi substitution
    cross-checks, which probe the formula off the real axis.
    """
    chi = complex(chi)
    if space.model is Model.H3:
        base = np.sinh(chi)
        expo = (n - l - 1 - e / n) * chi
        arg = 1.0 - np.exp(-2.0 * chi)
        coupling = e / n
    else:
        base = np.sin(chi)
        expo = (1j * (n - l - 1) - e / n) * chi
        arg = 1.0 - np.exp(-2j * chi)
        coupling = -1j * e / n
    f = hyp2f1(Hyp2F1Params(coupling + l + 1, complex(l - n + 1), complex(2 * l + 2)), complex(arg))
    return complex(base**l * np.exp(expo) * f)


def perturbed(state: StateParams, **deltas: complex) -> StateParams:
    """Copy of the state with additive tweaks to named parameters.

    Used by sensitivity (negative-control) checks, e.g.
    ``perturbed(state, epsilon=1e-3)``; the result intentionally
    violates the bound-state identities.
    """
    changes = {}
    for name, delta in deltas.items():
        current = getattr(state, name)
        changes[name] = current + delta
    return replace(state, **changes)


# ---------------------------------------------------------------------------
# normalization


def _density_on_grid(state: StateParams, chi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """|Psi|^2 * (metric radial weight) on an outer-product grid."""
    cc = chi[:, None]
    pts = spherical_to_parabolic(state.space, (cc, theta[None, :], 0.0))
    if state.space.model is Model.H3:
        weight = np.sinh(cc) ** 2
    else:
        weight = np.sin(cc) ** 2
    # |Psi|^2 does not depend on phi, so the phase factor is taken at phi = 0
    psi = wavefunction_values(state, pts.t1, pts.t2, 0.0)
    return (psi.real**2 + psi.imag**2) * weight


def _h3_chi_cutoff(state: StateParams) -> float:
    """Radial truncation point where the density falls below the cutoff."""
    thetas = np.array([0.3, math.pi / 2.0, math.pi - 0.3])
    # 300 keeps t2 ~ -e^{2 chi} finite; that covers decay rates down to
    # 2(e/k - k) ~ 0.1, i.e. everything but states at the very edge of
    # the bound interval.
    chis = np.linspace(0.05, 300.0, 1501)
    # a normalizable profile stays finite out to chi = 300 (the density
    # underflows long before the volume weight can overflow), so overflow
    # during the probe already proves the state is not normalizable
    with np.errstate(over="ignore", invalid="ignore"):
        profile = _density_on_grid(state, chis, thetas).max(axis=1)
    finite = np.isfinite(profile)
    peak_idx = int(np.argmax(np.where(finite, profile, 0.0)))
    peak = profile[peak_idx]
    below = np.nonzero(profile[peak_idx:] < RADIAL_TAIL_CUTOFF * peak)[0]
    if not finite.all() or below.size == 0:
        raise IntegrabilityError(
            "radial density does not decay fast enough to truncate; the "
            "state is not normalizable (or sits at the edge of the bound "
            "interval)"
        )
    return float(chis[peak_idx + below[0]] + 1.0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per order.

    Each rule costs an eigen-solve; the arrays are read-only because
    every caller shares them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


# normalize() at its default orders uses these rules and their doublings.
# They are built on import, so no normalize() call at the defaults makes an
# eigen-solve and every such call costs the same, the first one included.
_N_CHI, _N_THETA = 128, 64
for _n in sorted({_N_THETA, _N_CHI, 2 * _N_THETA, 2 * _N_CHI}):
    _gauss_legendre(_n)
del _n


def _quad_norm(state: StateParams, chi_max: float, n_chi: int, n_theta: int) -> float:
    x, wx = _gauss_legendre(n_chi)
    y, wy = _gauss_legendre(n_theta)
    chi = 0.5 * chi_max * (x + 1.0)
    wchi = 0.5 * chi_max * wx
    theta = 0.5 * math.pi * (y + 1.0)
    wtheta = 0.5 * math.pi * wy * np.sin(theta)
    dens = _density_on_grid(state, chi, theta)
    return 2.0 * math.pi * float(wchi @ dens @ wtheta)


def normalize(state: StateParams, n_chi: int = _N_CHI, n_theta: int = _N_THETA) -> NormalizationResult:
    """Normalization constant c with integral(|c Psi|^2 dV) = 1.

    Tensor-product Gauss-Legendre quadrature in the spherical chart; the
    H3 radial integral is truncated where the density drops below 1e-14
    of its peak.  The error estimate is the relative shift of c under
    doubling both quadrature orders.  Each Gauss-Legendre rule is built
    once per order and process; the rules of the default orders are
    built when the module is imported, those of other orders on first use.
    """
    for name, n in (("n_chi", n_chi), ("n_theta", n_theta)):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ParameterError(f"{name} must be an integer >= 1, got {n!r}")
    if state.space.model is Model.H3:
        chi_max: float | None = _h3_chi_cutoff(state)
        top = chi_max
    else:
        chi_max = None
        top = math.pi
    i1 = _quad_norm(state, top, n_chi, n_theta)
    i2 = _quad_norm(state, top, 2 * n_chi, 2 * n_theta)
    if not (i2 > 0 and math.isfinite(i2)):
        raise IntegrabilityError(f"normalization integral came out {i2}")
    c = 1.0 / math.sqrt(i2)
    err = abs(1.0 / math.sqrt(i1) - c) / c
    return NormalizationResult(c, err, chi_max, n_chi, n_theta)
