"""Bound states of the Kepler problem on H3 and S3.

Separation of the Schroedinger equation in parabolic coordinates writes
every bound state as

    Psi(t1, t2, phi) = f1(t1) f2(t2) e^{i m phi},
    f_i(t) = t^{a_i} (1 - t)^{b_i} F(alpha_i, beta_i; gamma_i; t),

with quantum numbers (n1, n2, m), principal number k = n1 + n2 + |m| + 1
and closed-form spectra

    H3:  eps = -e^2/(2 k^2) - (k^2 - 1)/2,   bound only for k < sqrt(e),
    S3:  eps = -e^2/(2 k^2) + (k^2 - 1)/2,   all k (infinite ladder),

for coupling e >= 0 (:func:`is_admissible`); S3 at e = 0 is the free
particle.  The exponents and separation constants come out of the
quantization in closed form; on H3 everything is real while on S3 the
pair (b1, b2) and the separation constants pick up conjugate imaginary
parts +-i e/(2k) style terms.  :func:`assemble_state` sets that type once: an
H3 state holds floats, so every H3 kernel and residual, the ODE's too, runs
in float64, and an S3 state holds complex values.
Everything here is evaluated from those closed forms; the quantization
equations themselves are only ever used as verification assertions in
the test suite.  Since b2 = -b1, Psi itself is evaluated in a closed
form whose powers take no branch (:func:`psi_prefactor`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

from .errors import BoundStateError, DomainError, IntegrabilityError, ParameterError, is_integer
from .geometry import _chart_factors
from .spaces import Model, SpaceTag
from .specfun import Hyp2F1Params, per_state, scaled_series, series_coefficients

__all__ = [
    "QuantumNumbers",
    "StateParams",
    "Level",
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
            if not is_integer(v):
                raise ParameterError(f"{name} must be an integer, got {v!r}")
        if self.n1 < 0 or self.n2 < 0:
            raise ParameterError("n1 and n2 must be >= 0")

    @property
    def k(self) -> int:
        return self.n1 + self.n2 + abs(self.m) + 1


@dataclass(frozen=True)
class StateParams:
    """Complete parameter bundle of one parabolic bound state; a ``complex`` field holds a float on H3 (and beta
    and gamma on S3 too), and ``to_json_dict`` prints it as ``[re, im]`` all the same."""

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


class Level(tuple):
    """States of one space, evaluated as one stack, a row each and bit for bit as alone."""

    def __new__(cls, states) -> "Level":
        level = super().__new__(cls, states)
        if not level or any(s.space is not level[0].space for s in level):
            raise ParameterError("a level needs one or more states, all on one space")
        return level

    space = property(lambda self: self[0].space)


@dataclass(frozen=True)
class SeparatedFactor:
    """One separated factor f(t) = t^a (1-t)^b F(alpha, beta; gamma; t)."""

    a: float
    b: complex
    params: Hyp2F1Params


@dataclass(frozen=True)
class NormalizationResult:
    """Normalization constant with its quadrature self-error estimate."""

    constant: float
    error_estimate: float
    chi_max: float | None
    n_chi: int
    n_theta: int


def energy(space: SpaceTag, e: float, k: int) -> float:
    """Closed-form energy of principal level k.

    On H3 only k < sqrt(e) is a bound level; other k raise (the sum of
    :func:`energy_split` is the formula itself, unchecked).
    """
    rydberg, curvature = energy_split(space, e, k)
    if not is_admissible(space, e, k):  # on S3 every k >= 1 is bound
        raise BoundStateError(f"H3 level k={k} is not bound for e={e} (needs k < sqrt(e))")
    return rydberg + curvature


def energy_split(space: SpaceTag, e: float, k: int) -> tuple[float, float]:
    """(flat Rydberg term, curvature term) whose sum is the level energy.

    The first term -e^2/2k^2 carries no curvature dependence at all:
    the flat-space limit of the spectrum is a statement about the
    closed form, not a numerical limit.
    """
    _check_coupling(e)
    if k < 1:
        raise DomainError("principal number k must be >= 1")
    return -e * e / (2.0 * k * k), -space.sigma * (k * k - 1) / 2.0  # an int numerator: k = 1 gives +0.0


def is_admissible(space: SpaceTag, e: float, k: int) -> bool:
    """True when (e, k) labels a bound level: k >= 1 on S3, and also k^2 < e on H3; e is checked as
    :func:`energy_split` checks it.  This is the one test of whether a level is bound."""
    _check_coupling(e)
    return k >= 1 and (space.model is Model.S3 or k * k < e)


def _check_coupling(e: float) -> None:
    """Refuse an e < 0, or one whose square is not finite: the closed forms read e^2 and (k +- e/k)^2."""
    if e < 0:
        raise DomainError("coupling e must be >= 0")
    if not math.isfinite(e * e):
        raise DomainError(f"coupling e={e!r} is out of range: e*e must be finite")


def bound_count_h3(e: float) -> int:
    """Number of discrete H3 levels: integers k >= 1 with k < sqrt(e)."""
    _check_coupling(e)
    # k^2 < e  <=>  k^2 <= ceil(e) - 1 for integer k
    return math.isqrt(math.ceil(e) - 1) if e > 1 else 0


def bound_interval_h3(e: float) -> tuple[float, float]:
    """The closed interval [-e^2/2, 1/2 - e] containing all H3 levels."""
    _check_coupling(e)
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
    """Build the full closed-form parameter bundle of a bound state; :func:`energy` refuses (e, k) first."""
    k = qn.k
    eps = energy(space, e, k)
    n1, n2, m = qn.n1, qn.n2, qn.m
    am = abs(m)
    a = am / 2.0
    gamma = float(am + 1)
    beta1 = float(-n1)
    beta2 = float(-n2)
    d = n2 - n1
    r = space.coupling(e) / k  # kappa/k: a float on H3, complex on S3, and so is every value that reads it
    b1 = (d + r) / 2.0
    b2 = (-d - r) / 2.0
    alpha1 = n2 + am + 1 + r
    alpha2 = n1 + am + 1 - r
    k1 = ((k + r) ** 2 - (d + r) ** 2 + m * m - 1) / 4.0
    k2 = ((k - r) ** 2 - (d + r) ** 2 + m * m - 1) / 4.0
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


def state_on_a_row(fn):
    """fn(level, t1, t2, phi) of one state, as a level of one on its chart arrays flattened to a (1, n) row, in their
    broadcast shape.  A lone point runs as a pair: numpy's loops round one element unlike its array loops, and so a
    point keeps the bits it has in a batch.  A :class:`Level` runs as it is, on its rows (n_states, n)."""
    @functools.wraps(fn)
    def run(state, t1, t2, phi):
        if isinstance(state, Level):
            return fn(state, t1, t2, phi)
        t1, t2, phi = np.broadcast_arrays(t1, t2, phi)
        rows = (np.resize(a, (1, 2)) if a.size == 1 else a.reshape(1, -1) for a in (t1, t2, phi))
        return fn(Level((state,)), *rows)[0, : t1.size].reshape(t1.shape)

    return run


@state_on_a_row
def wavefunction_values(state, t1, t2, phi) -> np.ndarray:
    """Psi = F1(t1) F2(t2) (t1 t2)^{|m|/2} ((1-t1)/(1-t2))^{b1} e^{i m phi}.

    That is f1 f2 e^{i m phi} with b2 = -b1, over parallel arrays of chart
    coordinates; :func:`psi_prefactor` evaluates the powers with no branch.
    The arithmetic follows the dtype of t1, t2 and the parameters
    (:func:`~curvedkepler.specfun.scaled_series`): float64 for the real
    values of the H3 chart, complex128 on S3 or for complex input.  The
    state runs as a level of one (:func:`state_on_a_row`).

    The far-axis limit: on H3 near theta = 0, 1 - t1 = O(e^{-2 chi}) is read from a rounded t1.  At e = 5,
    state (0,1,0), Psi reads within 3e-14 out to chi = 2.5 (the samplers' range), theta = 0 included, then
    1.1e-13 at chi = 3 and 4.5e-12 at chi = 5; t1 rounds to 1 near chi = 19.  ``eval`` and ``normalize``
    take the separated form, which has no such limit.
    """
    (f1,), s1 = scaled_series([factor(s, 1).params for s in state], t1)
    (f2,), s2 = scaled_series([factor(s, 2).params for s in state], t2)
    return f1 * f2 * psi_prefactor(state, t1, t2, s1 + s2, phi)


def psi_prefactor(state: Level, t1, t2, log_scale, phi) -> np.ndarray:
    """(t1 t2)^{|m|/2} ((1-t1)/(1-t2))^{b1} e^{log_scale + i m phi}, one exponential per point, a row per state.

    The exponent E without the phase is :func:`_psi_exponent`.  On H3 it
    is real (float64 for real t and b1 + b2) and the phase
    i^|m| e^{i m phi} is applied once, at the end; on S3 the phase goes
    into the exponent, added to log_scale.
    """
    im, unit = per_state(state, lambda s: (1j * s.qn.m, 1j ** abs(s.qn.m)))
    phi = np.asarray(phi, dtype=float)
    if state.space.model is Model.H3:  # keeps E real, in float64
        return np.exp(_psi_exponent(state, t1, t2, log_scale)) * (unit * np.exp(im * phi))
    return np.exp(_psi_exponent(state, t1, t2, log_scale + im * phi))


def _psi_exponent(state: Level, t1, t2, log_scale) -> np.ndarray:
    """E with e^E = (t1 t2)^{|m|/2} ((1-t1)/(1-t2))^{b1} e^{log_scale}, the magnitudes in one exponent.

    1 - t1 = e^{-chi} D and 1 - t2 = e^{chi} D on H3 (chi -> i chi on S3),
    so the ratio is e^{-2 chi} on H3 and e^{-2i chi} on S3, where
    chi = atan2(Re(t1 + t2), Im(t1 - t2)) = atan2(2 sin^2 chi, sin 2 chi)
    lies in [0, pi]; (t1 t2)^{|m|/2} is (i sin(theta) sinh(chi))^|m| on H3
    and (sin(theta) sin(chi))^|m| on S3, taken here by modulus (the H3
    phase i^|m| is :func:`psi_prefactor`'s).  No power takes a branch, so
    S3 states are continuous across the equator, and E stays finite where
    F2 and e^{-2 b1 chi} alone would over- or underflow.  A perturbed
    state's b1 + b2 != 0 adds (1-t2)^{b1+b2} on the principal branch.
    """
    h3 = state.space.model is Model.H3  # float64 logs on H3; the branch-free angle chi on S3
    b1, half_m, shift = per_state(state, lambda s: (s.b1.real if h3 else -2j * s.b1, 0.5 * abs(s.qn.m), s.b1 + s.b2))
    with np.errstate(divide="ignore"):
        if h3:
            # by modulus: far out on theta = 0, t1 can round to just above 1
            expo = b1 * np.log(np.abs((1.0 - t1.real) / (1.0 - t2.real))) + log_scale
        else:
            expo = b1 * np.arctan2(t1.real + t2.real, t1.imag - t2.imag) + log_scale
        if np.count_nonzero(half_m):
            expo = _add_where(expo, half_m, np.log(np.abs(t1 * t2)))
        if np.count_nonzero(shift):
            expo = _add_where(expo, shift, np.log(1.0 - t2))
    return expo


def _add_where(expo, coef, log):
    """expo + coef log where coef != 0: a level's states without the term neither add nor compute it."""
    on = coef != 0
    out = np.asarray(expo, dtype=np.result_type(expo, coef, log))
    return np.add(out, np.multiply(coef, log, out=None, where=on), out=out, where=on)


def radial_spherical(space: SpaceTag, e: float, n: int, l: int, chi: float) -> complex:
    """Radial bound-state function of the spherical chart.

    H3:  sinh^l(chi) e^{(n-l-1-e/n) chi} F(e/n+l+1, l-n+1; 2l+2; 1-e^{-2 chi})
    S3:  sin^l(chi)  e^{(i(n-l-1)-e/n) chi} F(-ie/n+l+1, l-n+1; 2l+2; 1-e^{-2i chi})

    that is, the H3 form at chi -> unit chi (:class:`~curvedkepler.spaces.SpaceTag`).  F terminates (second
    parameter l-n+1 <= 0), so any chi in [0, ``space.chi_max``] is fine; e must be finite.  A complex chi is taken
    as given, unchecked, for the chi -> i chi substitution cross-checks off the real axis.
    On H3 an n with n^2 >= e labels no bound state.  It is accepted for
    those cross-checks (acceptance criterion 11), but there the series
    cancels: at e = 5, n = 5, l = 0, chi = 3 the value reads 3.3e-6
    relative off a 50-digit mpmath sum.
    """
    if n < 1 or not 0 <= l <= n - 1:
        raise DomainError(f"need n >= 1 and 0 <= l <= n-1, got n={n}, l={l}")
    if not isinstance(chi, complex) and not 0 <= chi <= space.chi_max:
        raise DomainError(f"{space.name} requires 0 <= chi <= {space.chi_max:g}, got {chi}")
    if not np.isfinite(e):  # complex in the substitution cross-checks
        raise DomainError(f"coupling e must be finite, got {e}")
    chi, unit = complex(chi), space.unit
    expo = (unit * (n - l - 1) - e / n) * chi
    arg = 1.0 - np.exp(-2 * unit * chi)
    params = Hyp2F1Params(space.coupling(e) / n + l + 1, complex(l - n + 1), complex(2 * l + 2))
    (f,), s = scaled_series([params], np.full((1, 1), arg))
    return complex(space.radius(chi) ** l * np.exp(expo + s[0, 0]) * f[0, 0])


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


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only because every normalize() call shares them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _rounding(a, b, ab):
    """a b - ab for the float64 product ab = a * b, exactly (Dekker's product on Veltkamp's 26-bit halves)."""
    (ah, al), (bh, bl) = ((h, x - h) for x in (a, b) for h in [134217729.0 * x - (134217729.0 * x - x)])
    return ((ah * bh - ab) + ah * bl + al * bh) + al * bl


def _separated(state: StateParams, chi: np.ndarray, theta: np.ndarray, power: int, split: bool = True):
    """(F1 F2 |e^E| rad^(power - |m|) on the outer product of the axes, rows chi; ``big``), rad = sinh or sin(chi).

    The chart is separated, t_i = a_i(theta) u_i(chi) as :func:`~curvedkepler.geometry._chart_factors` gives a and u,
    so F = sum c_p t^p is a theta matrix, rows a^p, times a chi matrix, rows c_p u^p (c_p u^{p-n}, with n log|u| in
    the exponent, where ``big``: |u| > 1).  sin(theta)^|m| starts F1's theta rows, and the rest of |e^E|
    (:func:`_psi_exponent`), F2's scale and rad^power make one real exponent that starts F2's chi rows.  With
    ``split`` and real arithmetic each entry carries its rounding as a lo part (:func:`_rounding`), and F is
    [A A A_lo] @ [U; U_lo; U]: on H3 the terms of F cancel, and an entry rounded once would share its error along a
    grid row or column.  S3 (|t| <= 2) stays in complex float64.  The phases are :func:`_psi_grid`'s: i^|m| and
    (-1)^n2 where ``big[1]`` (u2 < 0) on H3, e^{-2i Re(b1) chi} on S3 (|u| = sin(chi) <= 1), and (1 - t2)^{b1+b2}'s.
    """
    am, shift = abs(state.qn.m), state.b1 + state.b2
    a, u = (np.stack(pair) for pair in _chart_factors(state.space, chi, theta))
    expo, rad = (-2 * state.space.unit * state.b1).real * chi, state.space.radius(chi)  # |e^{-2 b1 unit chi}|
    if power:  # no 0 log 0 at chi = 0
        with np.errstate(divide="ignore"):
            expo = power * np.log(rad) + expo
    params = [factor(state, i).params for i in (1, 2)]
    real = u.dtype.kind == "f" and not any(z.imag for p in params for z in (p.alpha, p.beta, p.gamma))
    split, coef = split and real, [series_coefficients(p, real)[:, None] for p in params]
    deg, big, nt = np.array([[c.size - 1] for c in coef]), np.abs(u) > 1.0, theta.size
    # columns: the theta axis, then the chi axis; row 0 the weights, row p the weights times the axis to the p
    rows = np.empty((deg.max() + 1, 2, nt + chi.size), dtype=u.dtype)
    rows[0, 0, :nt], rows[0, 1, :nt] = np.sin(theta) ** am, 1.0
    rows[0, :, nt:] = np.exp(np.stack([np.zeros_like(expo), expo]) + deg * np.log(np.where(big, np.abs(u), 1.0)))
    rows[1:] = np.hstack([a, np.where(big, 1.0 / np.where(big, u, 1.0), u)])
    hi, lo = np.multiply.accumulate(rows), np.zeros_like(rows)
    if split:  # row p's relative error is the sum of the relative roundings of steps 1 .. p
        step = np.divide(_rounding(hi[:-1], rows[1:], hi[1:]), hi[1:], out=np.zeros_like(lo[1:]), where=hi[1:] != 0)
        lo[1:] = np.cumsum(step, axis=0) * hi[1:]
    f = None
    for i, c in enumerate(coef):
        # where |u| > 1, row p of the chi matrix is c_p times the row of u^{-(n-p)}
        w, w_lo = (np.where(big[i], z[c.size - 1 :: -1, i, nt:], z[: c.size, i, nt:]) for z in (hi, lo))
        th, ch = hi[: c.size, i, :nt].real.T, w * c
        if split:
            th, ch = np.hstack([th, th, lo[: c.size, i, :nt].T]), np.vstack([ch, _rounding(w, c, ch) + w_lo * c, ch])
        fi = (th @ ch.view(float)).view(complex) if ch.dtype.kind == "c" else th @ ch
        f = fi if f is None else np.multiply(f, fi, out=fi)
    if shift:
        f *= np.exp((shift * np.log(1.0 - np.multiply.outer(a[1], u[1]))).real)
    return f.T, big


def _density(state: StateParams, chi: np.ndarray, theta: np.ndarray, split: bool = True) -> np.ndarray:
    """|Psi|^2 times the weight sinh^2 or sin^2(chi): :func:`_separated` squared, the weight's root in its exponent."""
    f = _separated(state, chi, theta, abs(state.qn.m) + 1, split)[0]
    return f.real**2 + f.imag**2 if np.iscomplexobj(f) else f * f


def _psi_grid(state: StateParams, chi: np.ndarray, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Psi on the outer product of the chi, theta and phi axes: :func:`_separated` with its phases put back
    (i^|m| and the sign of the split-off u2^n2 on H3, e^{-2i Re(b1) chi} on S3), times e^{i m phi}."""
    (f, big), m = _separated(state, chi, theta, abs(state.qn.m)), state.qn.m
    if state.space.model is Model.H3:  # a real sign on H3; on S3 |u| <= 1 splits nothing off
        phase = 1j ** abs(m) * np.where(big[1], (-1.0) ** state.qn.n2, 1.0)
    else:
        phase = np.exp(-2j * state.b1.real * chi)
    # + 0.0 turns the zeros of Psi (on the axis when m != 0) into 0, never -0
    return np.multiply.outer(f * phase[:, None], np.exp(1j * m * phi)) + 0.0


def _h3_chi_cutoff(state: StateParams) -> float:
    """Radial truncation point where the density falls below the cutoff."""
    # a normalizable profile stays finite out to chi = 300 (the density underflows long before the volume
    # weight can overflow), so overflow in the probe proves the state is not normalizable; a profile needs no lo parts
    with np.errstate(over="ignore", invalid="ignore"):
        profile = _density(state, *_H3_PROBE, split=False).max(axis=1)
    finite = np.isfinite(profile)
    peak_idx = int(np.argmax(np.where(finite, profile, 0.0)))
    below = np.nonzero(profile[peak_idx:] < RADIAL_TAIL_CUTOFF * profile[peak_idx])[0]
    if not finite.all() or below.size == 0:
        raise IntegrabilityError("radial density does not decay fast enough to truncate; the state is "
                                 "not normalizable (or sits at the edge of the bound interval)")
    return float(_H3_PROBE[0][peak_idx + below[0]] + 1.0)


def _quad_norm(state: StateParams, top: float, n_chi: int, n_theta: int) -> float:
    """The integral of |Psi|^2 dV by the Gauss-Legendre rule on [0, top] x [0, pi]."""
    (x, wx), (y, wy) = _GAUSS_LEGENDRE[n_chi], _GAUSS_LEGENDRE[n_theta]
    theta = 0.5 * math.pi * (y + 1.0)
    dens = _density(state, 0.5 * top * (x + 1.0), theta)
    return 2.0 * math.pi * float((0.5 * top * wx) @ dens @ (0.5 * math.pi * wy * np.sin(theta)))


# normalize() integrates at the (n_chi, n_theta) orders of _ORDERS, the quadrature and its doubling; their rules
# and the axes of the H3 cutoff probe are built on import and shared read-only.  The probe's 300 keeps t2 ~ -e^{2 chi}
# finite; that covers decay rates down to 2(e/k - k) ~ 0.1, i.e. all but states at the very edge of the bound interval.
_ORDERS = ((128, 64), (256, 128))
_GAUSS_LEGENDRE = {n: _frozen(*np.polynomial.legendre.leggauss(n)) for n in sorted({*_ORDERS[0], *_ORDERS[1]})}
_H3_PROBE = _frozen(np.linspace(0.05, 300.0, 1501), np.array([0.3, math.pi / 2.0, math.pi - 0.3]))


def normalize(state: StateParams) -> NormalizationResult:
    """Normalization constant c with integral(|c Psi|^2 dV) = 1.

    Tensor-product Gauss-Legendre quadrature in the spherical chart, with 128 chi and 64
    theta nodes; the H3 radial integral is truncated where the density drops below 1e-14 of
    its peak.  The error estimate is the relative shift of c under doubling both orders.
    The density is taken on the separated form (:func:`_density`): no chart runs.
    """
    chi_max = _h3_chi_cutoff(state) if state.space.model is Model.H3 else None
    i1, i2 = (_quad_norm(state, chi_max or math.pi, *orders) for orders in _ORDERS)
    if not (i2 > 0 and math.isfinite(i2)):
        raise IntegrabilityError(f"normalization integral came out {i2}")
    c = 1.0 / math.sqrt(i2)
    return NormalizationResult(c, abs(1.0 / math.sqrt(i1) - c) / c, chi_max, *_ORDERS[0])
