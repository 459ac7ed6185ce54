"""Differential-operator and symmetry-algebra verification.

Everything here measures how well a constructed bound state satisfies
the equations that define it, and reports the outcome as a
:class:`~curvedkepler.report.ResidualReport`:

* ``ode_residual`` — each separated factor against its second-order ODE,
  using exact hypergeometric derivatives (no finite differences).
* ``hamiltonian_residual`` — the full Hamiltonian in parabolic
  coordinates against the energy eigenvalue.
* ``b_operator_residual`` — the second separation operator (the one
  diagonal with eigenvalue k1+k2), plus the per-point identity tying its
  scalar coefficient to cos(theta) through the ambient chart.
* ``runge_lenz_check`` — the operator identity B = A3 + L^2 (H3) /
  iB = A3 + iL^2 (S3), with the left side built from nested central
  finite differences in quasi-Cartesian coordinates.
* ``momentum_commutators`` — the so(3,1)/so(4) commutation relations as
  exact polynomial-coefficient identities.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ParameterError
from .geometry import ParabolicPoint, ParabolicPoints, parabolic_to_ambient
from .kepler import SeparatedFactor, StateParams, factor, wavefunction_values
from .report import ResidualReport, build_report
from .spaces import Model, SpaceTag
from .specfun import hyp2f1, hyp2f1_derivative, power_product

ODE_TOL = 1e-10
HAMILTONIAN_TOL = 1e-9
B_OPERATOR_TOL = 1e-9
RUNGE_LENZ_TOL = 1e-4
COMMUTATOR_TOL = 1e-12
COUPLING_IDENTITY_TOL = 1e-12

# points closer than this to a chart singularity are skipped (and
# counted) rather than evaluated; samplers keep a wider margin (1e-3).
SINGULAR_SKIP = 1e-6

_DEFAULT_FD_STEP = 5e-4


# ---------------------------------------------------------------------------
# exact factor derivatives


def factor_derivatives(fac: SeparatedFactor, t) -> tuple:
    """(f, f', f'') of f(t) = t^a (1-t)^b F(alpha, beta; gamma; t).

    Product rule with exact hypergeometric derivatives throughout; no
    finite differences.  The powers share one exponential
    P = t^(a-2) (1-t)^(b-2) (a zero exponent drops its power), so t = 0
    needs a > 2, where f, f' and f'' all vanish.  Scalar in, scalars
    out; array in, arrays out.
    """
    scalar = np.isscalar(t) or isinstance(t, complex)
    tt = np.atleast_1d(np.asarray(t, dtype=complex))
    a, b = fac.a, fac.b
    if a <= 2.0 and np.any(tt == 0):
        raise DomainError("derivatives at t = 0 need the t^a power to have a > 2")
    if b != 0 and np.any(tt == 1):
        raise DomainError("derivatives need t != 1 when the (1-t)^b power is active")

    F = hyp2f1(fac.params, tt)
    F1 = hyp2f1_derivative(fac.params, tt, 1)
    F2 = hyp2f1_derivative(fac.params, tt, 2)

    # t^a = P_a u, (t^a)' = P_a u1, (t^a)'' = P_a u2 with P_a = t^(a-2);
    # likewise v, v1, v2 for (1-t)^b, and P = P_a P_b
    s = 1.0 - tt
    ea, u, u1, u2 = (a - 2.0, tt * tt, a * tt, a * (a - 1.0)) if a else (0.0, 1.0, 0.0, 0.0)
    eb, v, v1, v2 = (b - 2.0, s * s, -b * s, b * (b - 1.0)) if b else (0.0, 1.0, 0.0, 0.0)
    p = power_product(tt, ea, eb)

    f = p * (u * v * F)
    f1 = p * (u1 * v * F + u * v1 * F + u * v * F1)
    f2 = p * (
        u2 * v * F
        + u * v2 * F
        + u * v * F2
        + 2.0 * (u1 * v1 * F + u1 * v * F1 + u * v1 * F1)
    )
    if scalar:
        return complex(f[0]), complex(f1[0]), complex(f2[0])
    shape = np.shape(t)
    return f.reshape(shape), f1.reshape(shape), f2.reshape(shape)


# ---------------------------------------------------------------------------
# separated ODE residual


def ode_residual(
    state: StateParams,
    which: int,
    sample,
    tolerance: float = ODE_TOL,
) -> ResidualReport:
    """Residual of one separated factor in its defining ODE.

    (1-t) d/dt[t(1-t) f'] + (c t - m^2/(4t) + k_i) f = 0, where c is the
    energy/coupling combination of the factor's variable.  The relative
    scale is 1 + |k_i f|.
    """
    if which not in (1, 2):
        raise ParameterError(f"which must be 1 or 2, got {which}")
    t = np.atleast_1d(np.asarray(sample, dtype=complex))
    if np.any(np.abs(t) < SINGULAR_SKIP) or np.any(np.abs(1.0 - t) < SINGULAR_SKIP):
        raise DomainError("ODE sample points must stay away from t = 0 and t = 1")

    e, eps = state.e, state.epsilon
    if state.space.model is Model.S3:
        c = (1j * e - eps) / 2.0 if which == 1 else (-1j * e - eps) / 2.0
    else:
        c = (-e + eps) / 2.0 if which == 1 else (e + eps) / 2.0
    kconst = state.k1 if which == 1 else state.k2
    m2 = float(state.qn.m * state.qn.m)

    f, f1, f2 = factor_derivatives(factor(state, which), t)
    lhs = (1.0 - t) * ((1.0 - 2.0 * t) * f1 + t * (1.0 - t) * f2) + (
        c * t - m2 / (4.0 * t) + kconst
    ) * f
    return build_report(lhs, kconst * f, tolerance, points=np.column_stack([t.real, t.imag]))


# ---------------------------------------------------------------------------
# Hamiltonian and B-operator applications (exact derivatives)


def _regular_points(sample: ParabolicPoints | Sequence[ParabolicPoint]):
    """(t1, t2, phi, skipped): the sample's points clear of the singular loci."""
    pts = ParabolicPoints.of(sample)
    keep = pts.clearance() >= SINGULAR_SKIP
    if not keep.any():
        raise DomainError("every sample point sits on a singular chart locus")
    return pts.t1[keep], pts.t2[keep], pts.phi[keep], int(np.count_nonzero(~keep))


def _point_rows(t1: np.ndarray, t2: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Report rows (Re t1, Im t1, Re t2, Im t2, phi), one per point."""
    return np.column_stack([t1.real, t1.imag, t2.real, t2.imag, phi])


def _separated_derivatives(state: StateParams, t1, t2):
    f1, d1, dd1 = factor_derivatives(factor(state, 1), t1)
    f2, d2, dd2 = factor_derivatives(factor(state, 2), t2)
    return (f1, d1, dd1), (f2, d2, dd2)


def _hamiltonian_core(state: StateParams, space: SpaceTag, t1, t2, jets) -> np.ndarray:
    """H Psi without the e^(i m phi) phase, from the two factor jets."""
    (f1, d1, dd1), (f2, d2, dd2) = jets
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
    if space.model is Model.S3:
        return core - 1j * e * (2.0 - t1 - t2) / (t1 - t2) * pair
    return -core - e * (2.0 - t1 - t2) / (t1 - t2) * pair


def _b_operator_core(state: StateParams, t1, t2, jets) -> np.ndarray:
    """B Psi without the e^(i m phi) phase, from the two factor jets."""
    (f1, d1, dd1), (f2, d2, dd2) = jets
    m2 = float(state.qn.m * state.qn.m)
    w = state.e if state.space.model is Model.H3 else -1j * state.e
    diff = t1 - t2
    pair = f1 * f2
    c = (t1 + t2 - 2.0 * t1 * t2) / diff
    return (
        w * c * pair
        + 2.0 * t2 * (1.0 - t1) * (1.0 - 2.0 * t1) / diff * d1 * f2
        - 2.0 * t1 * (1.0 - t2) * (1.0 - 2.0 * t2) / diff * f1 * d2
        + 2.0 * t1 * t2 * (1.0 - t1) ** 2 / diff * dd1 * f2
        - 2.0 * t1 * t2 * (1.0 - t2) ** 2 / diff * f1 * dd2
        + m2 * (t1 + t2) / (2.0 * t1 * t2) * pair
    )


def _phase(state: StateParams, phi) -> np.ndarray:
    return np.exp(1j * state.qn.m * np.asarray(phi, dtype=float))


def apply_hamiltonian(
    state: StateParams,
    t1,
    t2,
    phi,
    operator_space: SpaceTag | None = None,
) -> np.ndarray:
    """H Psi with exact separated derivatives, arrays in chart coordinates.

    ``operator_space`` applies the other model's Hamiltonian to this
    state's factors — only useful as a deliberate mismatch control.
    """
    space = operator_space if operator_space is not None else state.space
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    jets = _separated_derivatives(state, t1, t2)
    return _hamiltonian_core(state, space, t1, t2, jets) * _phase(state, phi)


def apply_b_operator(state: StateParams, t1, t2, phi) -> np.ndarray:
    """B Psi: the second separation operator, exact derivatives.

    Same differential structure in both models; only the scalar
    coupling differs (e on H3, -ie on S3).
    """
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    jets = _separated_derivatives(state, t1, t2)
    return _b_operator_core(state, t1, t2, jets) * _phase(state, phi)


def hamiltonian_residual(
    state: StateParams,
    sample: ParabolicPoints | Sequence[ParabolicPoint],
    tolerance: float = HAMILTONIAN_TOL,
    operator_space: SpaceTag | None = None,
) -> ResidualReport:
    """(H Psi - eps Psi) over chart points, relative to 1 + (1 + |eps|) |Psi|.

    H Psi and Psi = f1 f2 e^(i m phi) come from one exact-derivative jet
    (f, f', f'') per factor, so each factor is evaluated once.  The scale
    keeps the measure relative to the local wavefunction magnitude even
    when the eigenvalue is zero (possible on S3 when e^2 = k^2 (k^2 - 1));
    |eps Psi| alone would then degenerate to an absolute comparison
    against unnormalized Psi.
    """
    space = operator_space if operator_space is not None else state.space
    t1, t2, phi, skipped = _regular_points(sample)
    jets = _separated_derivatives(state, t1, t2)
    phase = _phase(state, phi)
    hpsi = _hamiltonian_core(state, space, t1, t2, jets) * phase
    psi = jets[0][0] * jets[1][0] * phase
    scale = (1.0 + abs(state.epsilon)) * np.abs(psi)
    note = f"skipped {skipped} singular point(s)" if skipped else ""
    return build_report(
        hpsi - state.epsilon * psi, scale, tolerance, points=_point_rows(t1, t2, phi), note=note
    )


def coupling_identity_residual(
    space: SpaceTag, points: ParabolicPoints | Sequence[ParabolicPoint]
) -> float:
    """max |(t1+t2-2 t1 t2)/(t1-t2) - cos(theta)| via the ambient chart.

    The left side is the scalar coefficient of the B operator; the right
    side is cos(theta) = c3/|vec c| reconstructed through
    parabolic_to_ambient, so the comparison crosses module boundaries.
    Wherever the quasi-Cartesian chart is single-valued (c0 > 0 — always
    on H3, the near hemisphere on S3) the same value is also checked as
    q3/q; on the far S3 hemisphere q = y/y0 swaps antipodes and q3/q
    flips sign, so only the ambient form applies there.
    """
    pts = ParabolicPoints.of(points)
    t1, t2 = pts.t1, pts.t2
    c = (t1 + t2 - 2.0 * t1 * t2) / (t1 - t2)
    amb = parabolic_to_ambient(space, pts)
    ambient_cos = amb[3] / np.sqrt(amb[1] * amb[1] + amb[2] * amb[2] + amb[3] * amb[3])
    near = amb[0] > 0
    q = amb[1:, near] / amb[0, near]
    quasi_cos = q[2] / np.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2])
    return float(
        max(np.abs(c - ambient_cos).max(initial=0.0), np.abs(c[near] - quasi_cos).max(initial=0.0))
    )


def b_operator_residual(
    state: StateParams,
    sample: ParabolicPoints | Sequence[ParabolicPoint],
    tolerance: float = B_OPERATOR_TOL,
) -> ResidualReport:
    """(B Psi - (k1+k2) Psi) over chart points, plus the cos(theta) identity.

    B Psi and Psi share one jet per factor, as in hamiltonian_residual,
    and are normalized like it, by 1 + (1 + |k1+k2|) |Psi|;
    the eigenvalue alone cannot set the scale because k1 + k2 = 0 for
    every ground state on S3.
    """
    t1, t2, phi, skipped = _regular_points(sample)
    jets = _separated_derivatives(state, t1, t2)
    phase = _phase(state, phi)
    bpsi = _b_operator_core(state, t1, t2, jets) * phase
    eigenvalue = state.k1 + state.k2
    psi = jets[0][0] * jets[1][0] * phase
    scale = (1.0 + abs(eigenvalue)) * np.abs(psi)
    identity = coupling_identity_residual(state.space, ParabolicPoints(t1, t2, phi))
    parts = []
    if skipped:
        parts.append(f"skipped {skipped} singular point(s)")
    parts.append(f"coupling/cos(theta) identity max |diff| = {identity:.3e}")
    report = build_report(
        bpsi - eigenvalue * psi,
        scale,
        tolerance,
        points=_point_rows(t1, t2, phi),
        note="; ".join(parts),
    )
    if identity > COUPLING_IDENTITY_TOL:
        report = replace(report, passed=False)
    return report


# ---------------------------------------------------------------------------
# Runge-Lenz / angular-momentum identity via finite differences


def _quasi_to_chart(space: SpaceTag, Q: np.ndarray):
    """(t1, t2, phi) arrays of stacked quasi-Cartesian coordinates (3, n)."""
    q = np.sqrt((Q * Q).sum(axis=0))
    phi = np.arctan2(Q[1], Q[0])
    if space.model is Model.H3:
        t1 = ((Q[2] + q) / (1.0 + q)).astype(complex)
        t2 = ((Q[2] - q) / (1.0 - q)).astype(complex)
    else:
        y0 = 1.0 / np.sqrt(1.0 + q * q)
        y = q * y0
        y3 = Q[2] * y0
        t1 = (y + y3) * (y + 1j * y0)
        t2 = (y - y3) * (y - 1j * y0)
    return t1, t2, phi


def _shifted(Q: np.ndarray, axis: int, delta: np.ndarray) -> np.ndarray:
    out = Q.copy()
    out[axis] = out[axis] + delta
    return out


def _canonical(path: tuple) -> tuple:
    """Key of the node reached by a path of (axis, sign) shifts.

    Shifts along different axes commute bit for bit; two shifts along one
    axis do not ((x + h) - h need not equal (x - h) + h), so they keep
    their order.
    """
    return tuple(sorted(path)) if len({axis for axis, _ in path}) == len(path) else path


_UNIT_SHIFTS = tuple((axis, sign) for axis in range(3) for sign in (1.0, -1.0))
_TWO_SHIFTS = tuple((u, v) for u in _UNIT_SHIFTS for v in _UNIT_SHIFTS)
# the nodes Psi is read at: the centre and every distinct two-shift node
_READ_PATHS = ((),) + tuple(sorted({_canonical(p) for p in _TWO_SHIFTS}))


class _Stencil(NamedTuple):
    """Nested central differences at one step h.

    ``nodes`` maps the centre, each one-shift path and each canonical
    two-shift path of (axis, sign) shifts to the points it reaches,
    composed in the nesting order of the differences; ``psi`` maps the
    centre and every two-shift path to Psi there.
    """

    h: np.ndarray
    nodes: dict
    psi: dict


def _stencils(state: StateParams, Q: np.ndarray, steps) -> list[_Stencil]:
    """One stencil per step, with Psi from a single ``wavefunction_values`` call."""
    node_tables = []
    for h in steps:
        nodes = {(): Q}
        for u in _UNIT_SHIFTS:
            nodes[(u,)] = _shifted(Q, u[0], u[1] * h)
        for u, v in _READ_PATHS[1:]:
            nodes[(u, v)] = _shifted(nodes[(u,)], v[0], v[1] * h)
        node_tables.append(nodes)
    batch = np.concatenate([nodes[p] for nodes in node_tables for p in _READ_PATHS], axis=1)
    psi = wavefunction_values(state, *_quasi_to_chart(state.space, batch))
    blocks = iter(np.split(psi, len(node_tables) * len(_READ_PATHS)))
    out = []
    for h, nodes in zip(steps, node_tables):
        read = {p: next(blocks) for p in _READ_PATHS}
        out.append(_Stencil(h, nodes, {p: read[_canonical(p)] for p in ((),) + _TWO_SHIFTS}))
    return out


def _gradient(fn, st: _Stencil, path: tuple) -> np.ndarray:
    rows = [
        (fn(path + ((a, 1.0),)) - fn(path + ((a, -1.0),))) / (2.0 * st.h) for a in range(3)
    ]
    return np.stack(rows)


def _momentum_op(fn, st: _Stencil, sigma: int, axis: int):
    """P_a = -i (d_a - sigma q_a q_j d_j), as a closure over an evaluator.

    Operators and evaluators take the shift path of the node they act at.
    """

    def apply(path: tuple = ()) -> np.ndarray:
        Q = st.nodes[path]
        g = _gradient(fn, st, path)
        radial = (Q * g).sum(axis=0)
        return -1j * (g[axis] - sigma * Q[axis] * radial)

    return apply


def _angular_op(fn, st: _Stencil, axis: int):
    """L_a = -i (q_b d_c - q_c d_b) with (a, b, c) cyclic."""
    b = (axis + 1) % 3
    c = (axis + 2) % 3

    def apply(path: tuple = ()) -> np.ndarray:
        Q = st.nodes[path]
        g = _gradient(fn, st, path)
        return -1j * (Q[b] * g[c] - Q[c] * g[b])

    return apply


def _a3_and_l2(state: StateParams, st: _Stencil):
    """(A3 Psi, L^2 Psi) by nested central differences at the stencil centre."""
    psi = st.psi.__getitem__
    sigma = state.space.sigma
    p1 = _momentum_op(psi, st, sigma, 0)
    p2 = _momentum_op(psi, st, sigma, 1)
    l1 = _angular_op(psi, st, 0)
    l2 = _angular_op(psi, st, 1)

    l1p2 = _angular_op(p2, st, 0)()
    l2p1 = _angular_op(p1, st, 1)()
    p1l2 = _momentum_op(l2, st, sigma, 0)()
    p2l1 = _momentum_op(l1, st, sigma, 1)()

    Q = st.nodes[()]
    q = np.sqrt((Q * Q).sum(axis=0))
    a3 = state.e * Q[2] / q * psi(()) + 0.5 * (l1p2 - l2p1 - p1l2 + p2l1)
    lsq = sum(_angular_op(_angular_op(psi, st, a), st, a)() for a in range(3))
    return a3, lsq


def runge_lenz_check(
    state: StateParams,
    sample,
    h: float = _DEFAULT_FD_STEP,
    tolerance: float = RUNGE_LENZ_TOL,
) -> ResidualReport:
    """A3 + L^2 (H3) or A3 + i L^2 (S3) against the exact B operator.

    The left side uses nested second-order central differences in
    quasi-Cartesian coordinates with per-point step h * max(1, |q|),
    Richardson-extrapolated over (h, h/2); the right side applies the
    exact separated derivatives through the chart.  The note records the
    observed convergence order (should sit near 2) before extrapolation.
    """
    Q = np.asarray(sample, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != 3:
        Q = Q.T if Q.ndim == 2 and Q.shape[1] == 3 else Q
    if Q.ndim != 2 or Q.shape[0] != 3:
        raise ParameterError("sample must be 3 x n (or n x 3) quasi-Cartesian coordinates")
    q = np.sqrt((Q * Q).sum(axis=0))
    rho = np.sqrt(Q[0] ** 2 + Q[1] ** 2)
    h_eff = h * np.maximum(1.0, q)
    keep = (q >= 0.05) & (rho >= 6.0 * h_eff + 0.01)
    if state.space.model is Model.H3:
        keep &= q + 4.0 * h_eff <= 0.98
    skipped = int(np.count_nonzero(~keep))
    if not keep.any():
        raise DomainError("no usable sample points for the finite-difference stencil")
    Q, q, h_eff = Q[:, keep], q[keep], h_eff[keep]

    t1, t2, phi = _quasi_to_chart(state.space, Q)
    b_exact = apply_b_operator(state, t1, t2, phi)
    if state.space.model is Model.H3:
        unit = 1.0 + 0j
    else:
        unit = 1j
    want = unit * b_exact

    st_h, st_h2 = _stencils(state, Q, (h_eff, h_eff / 2.0))
    a3_h, l2_h = _a3_and_l2(state, st_h)
    a3_h2, l2_h2 = _a3_and_l2(state, st_h2)
    fd_h = a3_h + unit * l2_h
    fd_h2 = a3_h2 + unit * l2_h2
    rich = (4.0 * fd_h2 - fd_h) / 3.0

    r1 = np.abs(fd_h - want)
    r2 = np.abs(fd_h2 - want)
    ok = r2 > 1e-13
    order = float(np.median(np.log2(r1[ok] / r2[ok]))) if ok.any() else math.nan
    parts = [f"median FD convergence order {order:.2f} over (h, h/2), h={h:g}"]
    if skipped:
        parts.append(f"skipped {skipped} point(s) near chart boundaries")
    return build_report(rich - want, want, tolerance, points=Q.T, note="; ".join(parts))


# ---------------------------------------------------------------------------
# polynomial algebra for the commutation relations


# The packed layout of QPolynomial.  _SLOT maps exponents -13..13 to slots,
# negatives by wrapping, and every triple off the table to the pad.  Per axis a,
# _UP gathers q_a p and _DOWN gathers d/dq_a p before the multiply by _EXPONENT.
_MAX_DEGREE = 12
_N = _MAX_DEGREE + 1
_KEYS = tuple((i, j, k) for i in range(_N) for j in range(_N - i) for k in range(_N - i - j))
_PAD, _WIDTH = len(_KEYS), len(_KEYS) + 1
_EXPS = np.array(_KEYS)
_DEGREE = _EXPS.sum(axis=1)
_TOP = np.flatnonzero(_DEGREE == _MAX_DEGREE)
_SLOT = np.full((2 * _N,) * 3, _PAD)
_SLOT[tuple(_EXPS.T)] = np.arange(_PAD)
_UP, _DOWN = (
    [np.append(_SLOT[tuple((_EXPS + step * np.eye(3, dtype=int)[a]).T)], _PAD) for a in range(3)]
    for step in (-1, 1)
)
_EXPONENT = [np.append(_EXPS[:, a] + 1.0, 0.0).astype(complex) for a in range(3)]


def _times(rows: np.ndarray, axis: int) -> np.ndarray:
    """q_axis times each packed row; a non-zero degree-12 term is refused."""
    if np.take(rows, _TOP, axis=-1).any():
        raise ParameterError(f"polynomial degree {_N} exceeds cap {_MAX_DEGREE}")
    return np.take(rows, _UP[axis], axis=-1)


def _diff(rows: np.ndarray, axis: int) -> np.ndarray:
    out = np.take(rows, _DOWN[axis], axis=-1)
    out *= _EXPONENT[axis]
    return out


def _momentum(sigma: int, axis: int, rows: np.ndarray) -> np.ndarray:
    grads = [_diff(rows, j) for j in range(3)]
    radial = _times(grads[0], 0) + _times(grads[1], 1) + _times(grads[2], 2)
    return -1j * (grads[axis] - sigma * _times(radial, axis))


def _angular(axis: int, rows: np.ndarray) -> np.ndarray:
    b, c = (axis + 1) % 3, (axis + 2) % 3
    return -1j * (_times(_diff(rows, c), b) - _times(_diff(rows, b), c))


class QPolynomial:
    """Complex polynomial in (q1, q2, q3) as a packed coefficient row.

    ``_row`` holds the coefficients of the 455 monomials q1^i q2^j q3^k of
    total degree <= 12 in lexicographic (i, j, k) order, then a zero pad
    slot.  q_i and d/dq_i are gathers through tables built on import, by
    array functions on the last axis, so a stack of rows runs as one.
    Products and q_i shifts refuse to pass degree 12 — the commutator
    checks never legitimately exceed degree(p) + 2.  ``coeffs`` is a
    read-only view of the non-zero terms.  Magnitudes are taken as
    ``hypot(re, im)``, the same rounding as CPython's ``abs``.
    """

    MAX_DEGREE = _MAX_DEGREE

    __slots__ = ("_row",)

    def __init__(self, coeffs=None):
        self._row = np.zeros(_WIDTH, dtype=complex)
        for key, val in (coeffs or {}).items():
            k = tuple(int(x) for x in key)
            if len(k) != 3 or min(k) < 0:
                raise ParameterError(f"bad monomial key {key!r}")
            c = complex(val)
            if c != 0:
                self._capped(sum(k))
                self._row[_SLOT[k]] = c

    @classmethod
    def _of(cls, row: np.ndarray) -> "QPolynomial":
        out = cls.__new__(cls)
        out._row = row
        return out

    @classmethod
    def _capped(cls, degree: int) -> None:
        if degree > cls.MAX_DEGREE:
            raise ParameterError(f"polynomial degree {degree} exceeds cap {cls.MAX_DEGREE}")

    @staticmethod
    def _check_axis(axis: int) -> int:
        if axis not in (0, 1, 2):
            raise ParameterError(f"axis must be 0, 1 or 2, got {axis!r}")
        return axis

    @classmethod
    def variable(cls, axis: int) -> "QPolynomial":
        key = tuple(1 if i == cls._check_axis(axis) else 0 for i in range(3))
        return cls({key: 1.0})

    @classmethod
    def random(cls, rng: np.random.Generator, degree: int = 6, terms: int = 8) -> "QPolynomial":
        coeffs: dict[tuple[int, int, int], complex] = {}
        for _ in range(terms):
            while True:
                key = tuple(int(x) for x in rng.integers(0, degree + 1, size=3))
                if sum(key) <= degree:
                    break
            coeffs[key] = complex(rng.standard_normal(), rng.standard_normal())
        return cls(coeffs)

    @property
    def coeffs(self) -> MappingProxyType:
        row = self._row
        return MappingProxyType({_KEYS[n]: complex(row[n]) for n in np.flatnonzero(row[:_PAD])})

    def degree(self) -> int:
        return int(_DEGREE[self._row[:_PAD] != 0].max(initial=0))

    def max_abs_coeff(self) -> float:
        return float(np.hypot(self._row.real, self._row.imag).max())

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        return self._of(self._row + other._row)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self._of(self._row - other._row)

    def __mul__(self, other):
        if not isinstance(other, QPolynomial):
            return self._of(complex(other) * self._row)
        # with the total degree capped, no product term falls off the table
        self._capped(self.degree() + other.degree())
        out = np.zeros_like(self._row)
        for n in np.flatnonzero(self._row[:_PAD]):
            src = np.append(_SLOT[tuple((_EXPS - _EXPS[n]).T)], _PAD)
            out += self._row[n] * other._row[src]
        return self._of(out)

    __rmul__ = __mul__

    def times_variable(self, axis: int) -> "QPolynomial":
        return self._of(_times(self._row, self._check_axis(axis)))

    def diff(self, axis: int) -> "QPolynomial":
        return self._of(_diff(self._row, self._check_axis(axis)))

    def __call__(self, q1: complex, q2: complex, q3: complex) -> complex:
        total = 0j
        for (i, j, k), c in self.coeffs.items():
            total += c * q1**i * q2**j * q3**k
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{k}: {c:.3g}" for k, c in sorted(self.coeffs.items()))
        return f"QPolynomial({{{terms}}})"


def momentum_polynomial(space: SpaceTag, axis: int, p: QPolynomial) -> QPolynomial:
    """P_a p = -i (d_a p - sigma q_a q_j d_j p), exact in coefficients.

    Axes are 0-indexed: axis 2 is the distinguished q3 direction.
    """
    return QPolynomial._of(_momentum(space.sigma, QPolynomial._check_axis(axis), p._row))


def angular_polynomial(axis: int, p: QPolynomial) -> QPolynomial:
    """L_a p = -i (q_b d_c - q_c d_b) p with (a, b, c) cyclic, 0-indexed."""
    return QPolynomial._of(_angular(QPolynomial._check_axis(axis), p._row))


def _commutator_residuals(space: SpaceTag, rows: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The nine identities' labels and their (n, 9) residuals on n packed rows."""
    sigma = space.sigma
    pp_sign = -1j * sigma  # -i on H3, +i on S3
    rhs = "+ iL" if space.model is Model.H3 else "- iL"
    lp = [_angular(a, rows) for a in range(3)]
    pp = [_momentum(sigma, a, rows) for a in range(3)]
    residuals, labels = [], []

    def peak(r: np.ndarray) -> np.ndarray:
        return np.hypot(r.real, r.imag).max(axis=-1)

    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        residuals.append(peak(_angular(a, lp[b]) - _angular(b, lp[a]) - 1j * lp[c]))
        labels.append(f"[L{a+1},L{b+1}] - iL{c+1}")
        residuals.append(peak(_angular(a, pp[b]) - _momentum(sigma, b, lp[a]) - 1j * pp[c]))
        labels.append(f"[L{a+1},P{b+1}] - iP{c+1}")
        residuals.append(
            peak(_momentum(sigma, a, pp[b]) - _momentum(sigma, b, pp[a]) - pp_sign * lp[c])
        )
        labels.append(f"[P{a+1},P{b+1}] {rhs}{c+1}")
    return np.stack(residuals, axis=-1), labels


def momentum_commutators(
    space: SpaceTag,
    p: QPolynomial | Sequence[QPolynomial],
    tolerance: float = COMMUTATOR_TOL,
) -> ResidualReport | list[ResidualReport]:
    """All nine so(3,1)/so(4) commutation identities applied to p.

    [L_a,L_b] = i eps_abc L_c and [L_a,P_b] = i eps_abc P_c in both
    models; [P_a,P_b] = -i eps_abc L_c on H3 and +i eps_abc L_c on S3.
    Residual per identity is the max coefficient magnitude of
    (commutator - right side) applied to p.  A sequence of polynomials
    runs as one stack and gives the reports separate calls would give.
    """
    polys = [p] if isinstance(p, QPolynomial) else list(p)
    degrees = [q.degree() for q in polys]
    if any(d > 10 for d in degrees):
        raise ParameterError("commutator check is limited to degree <= 10 inputs")
    rows = np.array([q._row for q in polys], dtype=complex).reshape(-1, _WIDTH)
    residuals, labels = _commutator_residuals(space, rows)
    sign_word = "so(3,1)" if space.model is Model.H3 else "so(4)"
    reports = []
    for vals, d in zip(residuals, degrees):
        worst = labels[int(np.argmax(vals))]
        note = f"{sign_word} relations on degree-{d} input; worst identity: {worst}"
        reports.append(build_report(vals, np.zeros_like(vals), tolerance, note=note))
    return reports[0] if isinstance(p, QPolynomial) else reports
