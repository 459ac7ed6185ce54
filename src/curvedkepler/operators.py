"""Differential-operator and symmetry-algebra verification.

Everything here measures how well a constructed bound state satisfies
the equations that define it, and every check returns a
:class:`~curvedkepler.report.ResidualReport` (a list of them for a level):

* ``ode_residual`` — each separated factor against its second-order ODE,
  on the exact polynomial jets that H and B read (no finite differences).
* ``hamiltonian_residual`` — the full Hamiltonian of the state's space,
  in parabolic coordinates, against the energy eigenvalue.
* ``b_operator_residual`` — the second separation operator (the one
  diagonal with eigenvalue k1+k2), by the Hamiltonian's eigen-residual.

All three read one 1-D operator per factor (``_separated_operator``), and the space enters by its tag
alone: ``sigma`` and ``kappa = space.coupling(e)``.  H, B and Psi combine the Staeckel parts of one
evaluation (``_staeckel``), which an H and B pair on one state and sample shares; the verify suites
take all three residuals from one evaluation (``_separated_reports``).
* ``coupling_identity_residual`` — B's scalar coefficient against
  cos(theta) of the ambient point, a property of the chart points alone.
* ``runge_lenz_check`` — the operator identity B = A3 + L^2 (H3) /
  iB = A3 + iL^2 (S3), with the left side built from nested central
  finite differences in quasi-Cartesian coordinates, on node arrays
  mapped to the chart in one call of the unchecked inverse chart, the
  centre once, whose columns the exact B reads too.  A level runs as one
  stencil: one chart call, one Psi evaluation and one exact B for all its states.
* ``momentum_commutators`` — the so(3,1)/so(4) commutation relations as
  exact polynomial-coefficient identities, with the stencil's P_a and L_a.

A level's reports are one report set of
:func:`~curvedkepler.report.build_report`: one reduction per set, no loop per report.
"""

from __future__ import annotations

import math
import weakref
from functools import partial
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError, is_integer
from .geometry import ParabolicPoints, _ambient_chart, parabolic_to_ambient
from .kepler import (
    Level,
    SeparatedFactor,
    StateParams,
    factor,
    psi_prefactor,
    state_on_a_row,
    wavefunction_values,
)
from .report import ResidualReport, build_report
from .spaces import Model, SpaceTag
from .specfun import per_state, pow_arr, scaled_series

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

_last: dict = {}  # {"entry": (batch weakrefs, state, sample key, evaluation)} of the last eigen-residual


# ---------------------------------------------------------------------------
# exact factor derivatives


def _factor_jet(fac: Sequence[SeparatedFactor], t: np.ndarray):
    """Polynomial parts (q, q', q'') of a level's factor jets, and their log scale s, a row per factor.

    f^(j) = t^(a-2) (1-t)^(b-2) e^s q^(j) for j = 0, 1, 2: the product rule
    on t^a = t^(a-2) u and (1-t)^b = (1-t)^(b-2) v with u = t^2 and
    v = (1-t)^2, and F, F', F'' from :func:`scaled_series` with its scale.
    Real t and parameters give a float64 jet.  t is stacked, a row per factor.
    """
    (F, F1, F2), s = scaled_series([f.params for f in fac], t, 2)

    a, b, u2, v2 = per_state(fac, lambda f: (f.a, -f.b, f.a * (f.a - 1.0), f.b * (f.b - 1.0)))
    w = 1.0 - t
    u, u1 = t * t, a * t
    v, v1 = w * w, b * w
    uv, u1v, uv1 = u * v, u1 * v, u * v1
    q, q1 = uv * F, u1v * F + uv1 * F + uv * F1
    q2 = u2 * v * F + u * v2 * F + uv * F2 + 2.0 * (u1 * v1 * F + u1v * F1 + uv1 * F1)
    return (q, q1, q2), s


def factor_derivatives(fac: SeparatedFactor, t) -> tuple:
    """(f, f', f'') of f(t) = t^a (1-t)^b F(alpha, beta; gamma; t), arrays of the shape of t (0-d for a scalar).

    The jets of :func:`_factor_jet` on a (1, n) row times t^(a-2) (1-t)^(b-2) on principal branches (``pow_arr``).
    t = 0 needs a > 2, where f, f' and f'' all vanish, and t = 1 needs b = 0.
    """
    row = np.asarray(t, dtype=complex).reshape(1, -1)
    if fac.a <= 2.0 and np.any(row == 0):
        raise DomainError("derivatives at t = 0 need the t^a power to have a > 2")
    if fac.b != 0 and np.any(row == 1):
        raise DomainError("derivatives need t != 1 when the (1-t)^b power is active")
    q, s = _factor_jet([fac], row)
    p = pow_arr(row, fac.a - 2.0) * pow_arr(1.0 - row, fac.b - 2.0) * np.exp(s)
    return tuple((p * qj).reshape(np.shape(t)) for qj in q)


# ---------------------------------------------------------------------------
# separated ODE residual


def _as_level(state: StateParams | Level, sample) -> tuple[Level, list]:
    """A Level with its samples, one per state, or a StateParams as a level of one with its sample: the residual
    entries run the level, and return its reports for a Level and the one report for a StateParams."""
    if not isinstance(state, Level):
        return Level((state,)), [sample]
    samples = None if isinstance(sample, ParabolicPoints) else list(sample)
    if samples is None or len(samples) != len(state):
        raise ParameterError(f"{len(state)} states need one sample each (one batch per state)")
    return state, samples


def _stacked(rows: list[np.ndarray]) -> np.ndarray:
    """A level's rows as one array, a short row cycled through its values."""
    n = max(r.size for r in rows)
    return np.array([np.resize(r, n) if r.size < n else r for r in rows])


def _kept(rows, counts) -> list:
    """The first counts[s] entries of row s of a stack: the points kept of each state, without the cycled ones."""
    return [row[:n] for row, n in zip(rows, counts)]


def _reports(tolerance, counts, sizes, residual, scale, *columns) -> list:
    """A report per state on the first counts[s] of its sizes[s] points, as one report set (:func:`build_report`);
    ``columns``: coordinates, a row per state."""
    notes = [f"skipped {size - n} singular point(s)" if n < size else "" for n, size in zip(counts, sizes)]
    return build_report(_kept(residual, counts), _kept(scale, counts), tolerance, columns=columns, note=notes)


def ode_residual(
    state: StateParams | Level,
    which: int,
    sample,
) -> ResidualReport | list[ResidualReport]:
    """Residual of one separated factor in its defining ODE.

    (1-t) d/dt[t(1-t) f'] + (c t - m^2/(4t) + k_i) f = 0, where
    c = (sigma eps -/+ kappa)/2 for i = 1/2, with kappa the space's coupling.  Every term
    shares the nonzero power p = t^(a-2) (1-t)^(b-2) e^s of f^(j) = p q^(j), so this takes
    :func:`_separated_operator` + (c t + k_i) q, relative to 1 + |k_i q|, on the jets of
    :func:`_factor_jet` that H and B read.  The sample keeps its dtype
    (real H3 draws run in float64).  A :class:`~curvedkepler.kepler.Level` takes a sample per state.
    """
    if which not in (1, 2):
        raise ParameterError(f"which must be 1 or 2, got {which}")
    level, samples = _as_level(state, sample)
    rows = [np.atleast_1d(np.asarray(s)).ravel() for s in samples]
    t = _stacked(rows)
    if np.any(np.abs(t) < SINGULAR_SKIP) or np.any(np.abs(1.0 - t) < SINGULAR_SKIP):
        raise DomainError("ODE sample points must stay away from t = 0 and t = 1")
    (m2,) = per_state(level, lambda s: (float(s.qn.m * s.qn.m),))
    jet, _ = _factor_jet([factor(s, which) for s in level], t)
    reports = _ode_reports(level, which, t, _separated_operator(t, jet, m2), jet[0], [r.size for r in rows])
    return reports if isinstance(state, Level) else reports[0]


def _ode_reports(level: Level, which: int, t, ell, q, counts) -> list:
    """l_i + (c_i t + k_i) q relative to 1 + |k_i q|, a report per state on the first counts[s] points of its row:
    factor i's ODE on its separated operator ``ell`` and jet ``q``, with c_i = (sigma eps -/+ kappa)/2."""

    def constants(st: StateParams) -> tuple:
        eps, kappa = st.space.sigma * st.epsilon, st.space.coupling(st.e)
        return (eps - kappa) / 2.0 if which == 1 else (eps + kappa) / 2.0, st.k1 if which == 1 else st.k2

    c, kconst = per_state(level, constants)
    return _reports(ODE_TOL, counts, counts, ell + (c * t + kconst) * q, kconst * q, t.real, t.imag)


# ---------------------------------------------------------------------------
# Hamiltonian and B-operator applications (exact derivatives)


# numpy runs a * b as b *= a for a temporary b of 256 KiB or more, which moves the
# last bits of a complex product; no complex product here takes a temporary on its
# right (1 - t and 2/(t1 - t2) are named), so a state has the same bits in a stack of any size.
def _separated_operator(t, jet, m2) -> np.ndarray:
    """l q = (1-t)[(1-2t) q' + t(1-t) q''] - m^2/(4t) q on a jet (q, q', q''): the one 1-D operator that each
    factor's ODE (l_i + (c_i t + k_i) q = 0) holds and that H and B combine in Staeckel form."""
    q, q1, q2 = jet
    w = 1.0 - t
    return ((1.0 - 2.0 * t) * q1 + t * w * q2) * w - m2 / (4.0 * t) * q


def _staeckel(state: Level, t1, t2, phi) -> tuple:
    """The Staeckel parts (l_1, l_2, f1, f2, f1 f2, kappa, 2/(t1-t2), t1, t2), and the prefactor P1 P2 e^(i m phi).

    H Psi, B Psi and Psi = f1 f2 P1 P2 e^(i m phi) combine the parts, times the prefactor: f_i^(j) = P_i q_i^(j) on
    the jets of :func:`_factor_jet`, P1 P2 = (t1 t2)^(|m|/2-2) ((1-t1)(1-t2))^-2 ((1-t1)/(1-t2))^b1 (as
    :func:`~curvedkepler.kepler.psi_prefactor`) and kappa the space's coupling.  The chart values keep their dtype
    (float64 on the H3 chart, for the jets and the cores too) and are stacked (n_states, n_points).
    """
    q1, s1 = _factor_jet([factor(s, 1) for s in state], t1)
    q2, s2 = _factor_jet([factor(s, 2) for s in state], t2)
    p = psi_prefactor(state, t1, t2, s1 + s2, phi) / (t1 * t2 * (1.0 - t1) * (1.0 - t2)) ** 2
    m2, kappa = per_state(state, lambda s: (float(s.qn.m * s.qn.m), s.space.coupling(s.e)))
    ell1, ell2, f1, f2 = _separated_operator(t1, q1, m2), _separated_operator(t2, q2, m2), q1[0], q2[0]
    return (ell1, ell2, f1, f2, f1 * f2, kappa, 2.0 / (t1 - t2), t1, t2), p


def _hamiltonian_core(space: SpaceTag, parts: tuple) -> np.ndarray:
    """H Psi over P1 P2 e^(i m phi): -sigma [2/(t1-t2) (l_1 f2 - f1 l_2) + kappa (2-t1-t2)/(t1-t2) f1 f2]."""
    ell1, ell2, f1, f2, pair, kappa, scale, t1, t2 = parts
    return ((ell1 * f2 - f1 * ell2) * scale + kappa * (2.0 - t1 - t2) / (t1 - t2) * pair) * -space.sigma


def _b_operator_core(space: SpaceTag, parts: tuple) -> np.ndarray:
    """B Psi over P1 P2 e^(i m phi): 2/(t1-t2) (t2 l_1 f2 - t1 f1 l_2) + kappa (t1+t2-2 t1 t2)/(t1-t2) f1 f2."""
    ell1, ell2, f1, f2, pair, kappa, scale, t1, t2 = parts
    return (t2 * ell1 * f2 - t1 * f1 * ell2) * scale + kappa * (t1 + t2 - 2.0 * t1 * t2) / (t1 - t2) * pair


@state_on_a_row
def apply_hamiltonian(state, t1, t2, phi) -> np.ndarray:
    """H Psi with exact separated derivatives, arrays in chart coordinates, the state as a level of one."""
    parts, p = _staeckel(state, t1, t2, phi)
    return _hamiltonian_core(state.space, parts) * p


@state_on_a_row
def apply_b_operator(state, t1, t2, phi) -> np.ndarray:
    """B Psi: the second separation operator, exact derivatives.

    Same differential structure in both models; only the scalar
    coupling differs (:meth:`~curvedkepler.spaces.SpaceTag.coupling`).  The state runs as a level of one.
    """
    parts, p = _staeckel(state, t1, t2, phi)
    return _b_operator_core(state.space, parts) * p


def _batch(sample) -> ParabolicPoints:
    """The sample itself; a sequence of points or any other type raises ParameterError."""
    if not isinstance(sample, ParabolicPoints):
        raise ParameterError(f"expected a ParabolicPoints batch, got {type(sample).__name__}")
    return sample


def _evaluate(level: Level, batches: list) -> tuple:
    """The points kept of a batch per state (masks; a point within SINGULAR_SKIP of a singular locus is skipped), their
    counts, phi, and one :func:`_staeckel` evaluation stacked over the level: parts, prefactor and Psi = f1 f2 P1 P2."""
    if not all(len(b) for b in batches):
        raise ParameterError("no residuals to report: a sample batch holds no points")
    keep = [b.clearance() >= SINGULAR_SKIP for b in batches]
    counts = [int(np.count_nonzero(k)) for k in keep]
    if not all(counts):
        raise DomainError("every sample point sits on a singular chart locus")
    rows = zip(*[(b.t1[k], b.t2[k], b.phi[k]) for b, k in zip(batches, keep)])
    t1, t2, phi = (_stacked(r) for r in rows)
    parts, p = _staeckel(level, t1, t2, phi)
    return keep, counts, phi, parts, p, parts[4] * p


def _eigen_reports(level: Level, evaluation: tuple, core, eigenvalue, tolerance) -> list:
    """(O Psi - eigenvalue Psi) relative to 1 + (1 + |eigenvalue|) |Psi|, a report per state of an :func:`_evaluate`:
    O Psi is ``core`` of the space and the Staeckel parts, times the prefactor; ``eigenvalue`` maps a state to it."""
    keep, counts, phi, parts, p, psi = evaluation
    eig, unit = per_state(level, lambda s: ((v := eigenvalue(s)), 1.0 + abs(v)))
    residual = core(level.space, parts) * p - eig * psi
    t1, t2 = parts[-2:]
    columns = (t1.real, t1.imag, t2.real, t2.imag, phi)
    return _reports(tolerance, counts, [k.size for k in keep], residual, unit * np.abs(psi), *columns)


def _hamiltonian_reports(level: Level, evaluation: tuple) -> list:
    return _eigen_reports(level, evaluation, _hamiltonian_core, lambda s: s.epsilon, HAMILTONIAN_TOL)


def _b_operator_reports(level: Level, evaluation: tuple) -> list:
    return _eigen_reports(level, evaluation, _b_operator_core, lambda s: s.k1 + s.k2, B_OPERATOR_TOL)


def _separated_reports(level: Level, batches: list) -> tuple[list, list, list, list]:
    """The ODE reports of factors 1 and 2, then the H and B reports, of one :func:`_evaluate` on a batch per state;
    factor i's ODE reads l_i and q_i of the Staeckel parts on the points kept, as :func:`ode_residual` reads them."""
    evaluation = _evaluate(level, batches)
    counts, (ell1, ell2, q1, q2, *_, t1, t2) = evaluation[1], evaluation[3]
    return (_ode_reports(level, 1, t1, ell1, q1, counts), _ode_reports(level, 2, t2, ell2, q2, counts),
            _hamiltonian_reports(level, evaluation), _b_operator_reports(level, evaluation))


def _eigen_residual(caller, level: Level, samples: list, reports) -> list:
    """``reports`` (H's or B's) of an :func:`_evaluate` of the level on a batch per state.  Until a batch is freed, the
    next call on the same ``caller`` (the object the entry was passed, by identity: a StateParams shares though its
    level of one is new on every call) and batches of the same dtype, shape and bytes reuses the evaluation."""
    batches = [_batch(b) for b in samples]
    key = tuple((a.dtype.str, a.shape, a.tobytes()) for b in batches for a in (b.t1, b.t2, b.phi))
    if (entry := _last.get("entry")) is None or entry[1] is not caller or entry[2] != key:
        evaluation = _evaluate(level, batches)
        refs = [weakref.ref(b, lambda _: _last.clear()) for b in batches]
        _last["entry"] = entry = (refs, caller, key, evaluation)
    return reports(level, entry[3])


def hamiltonian_residual(
    state: StateParams | Level,
    sample: ParabolicPoints | Sequence[ParabolicPoints],
) -> ResidualReport | list[ResidualReport]:
    """(H Psi - eps Psi) over chart points, relative to 1 + (1 + |eps|) |Psi|.

    The scale keeps the measure relative to the local wavefunction
    magnitude even when the eigenvalue is zero (possible on S3 when
    e^2 = k^2 (k^2 - 1)); |eps Psi| alone would then degenerate to an
    absolute comparison against unnormalized Psi.  A level takes a batch per state.
    H and :func:`b_operator_residual` share Psi's evaluation on one state and sample while it lives.
    """
    reports = _eigen_residual(state, *_as_level(state, sample), _hamiltonian_reports)
    return reports if isinstance(state, Level) else reports[0]


def b_operator_residual(
    state: StateParams | Level,
    sample: ParabolicPoints | Sequence[ParabolicPoints],
) -> ResidualReport | list[ResidualReport]:
    """(B Psi - (k1+k2) Psi) over chart points, relative to 1 + (1 + |k1+k2|) |Psi|.

    The eigenvalue alone cannot set the scale because k1 + k2 = 0 for
    every ground state on S3.  A level takes a batch per state.  Psi's
    evaluation is shared as in :func:`hamiltonian_residual`.
    """
    reports = _eigen_residual(state, *_as_level(state, sample), _b_operator_reports)
    return reports if isinstance(state, Level) else reports[0]


def coupling_identity_residual(space: SpaceTag, points: ParabolicPoints) -> ResidualReport:
    """|(t1+t2-2 t1 t2)/(t1-t2) - cos(theta)| over a batch, at ``COUPLING_IDENTITY_TOL``.

    The left side is the scalar coefficient of the B operator; the right
    side is cos(theta) = c3/|vec c| reconstructed through
    parabolic_to_ambient, so the comparison crosses module boundaries.
    Where c0 > 0 the quasi-Cartesian q = vec c/c0 gives q3/|q| = c3/|vec c|,
    so this one form covers it.  The worst point reads (Re t1, Im t1, Re t2, Im t2, phi).
    """
    pts = _batch(points)
    amb = parabolic_to_ambient(space, pts)
    t1, t2 = pts.t1, pts.t2
    c = (t1 + t2 - 2.0 * t1 * t2) / (t1 - t2)
    diffs = np.abs(c - amb[3] / np.sqrt(amb[1] * amb[1] + amb[2] * amb[2] + amb[3] * amb[3]))
    columns = [a.ravel() for a in (t1.real, t1.imag, t2.real, t2.imag, pts.phi)]
    note = "|(t1+t2-2 t1 t2)/(t1-t2) - cos(theta)|, cos(theta) via the ambient chart"
    return build_report(diffs, 0.0, COUPLING_IDENTITY_TOL, columns=columns, note=note)


# ---------------------------------------------------------------------------
# the so(3,1)/so(4) generators, shared by the stencil and the polynomial rows


def _momentum(sigma: int, axis: int, d, times):
    """P_a = -i (d_a - sigma q_a q_j d_j), from d(j), the derivative along q_j, and times(x, j) = q_j x."""
    grads = [d(j) for j in range(3)]
    radial = times(grads[0], 0) + times(grads[1], 1) + times(grads[2], 2)
    return -1j * (grads[axis] - sigma * times(radial, axis))


def _angular(axis: int, d, times):
    """L_a = -i (q_b d_c - q_c d_b) with (a, b, c) cyclic, from d and times as in :func:`_momentum`."""
    b, c = (axis + 1) % 3, (axis + 2) % 3
    return -1j * (times(d(c), b) - times(d(b), c))


# ---------------------------------------------------------------------------
# Runge-Lenz / angular-momentum identity via finite differences


def _quasi_to_chart(space: SpaceTag, Q: np.ndarray):
    """(t1, t2, phi) arrays of stacked quasi-Cartesian coordinates (3, n), by the unchecked inverse chart.

    Q lifts to the ambient point c0 (1, Q) with c0 = (1 - sigma |Q|^2)^(-1/2), on the quadric by construction;
    ``runge_lenz_check`` keeps its nodes off the axis and inside the chart.
    """
    c0 = 1.0 / np.sqrt(1.0 - space.sigma * (Q * Q).sum(axis=0))
    return _ambient_chart(space, c0 * np.concatenate([np.ones_like(Q[:1]), Q]))


# The stencil of one step h.  Its nodes are the centre (0) and the one-shift
# nodes u = 1..6, the centre moved by +h (odd u) or -h (even u) along axis
# (u - 1) // 2.  Psi is read at the centre and at the 24 distinct two-shift
# nodes, shift u then shift v: one node per unordered pair along different
# axes, which commute bit for bit, and one per order along one axis, where
# (x + h) - h need not equal (x - h) + h.  _COLUMN[u - 1, v - 1] is the row of
# node (u, v) in Psi's table, whose row 0 is the centre.
_AXIS = np.repeat(np.arange(3), 2)
_SIGN = np.tile([1.0, -1.0], 3)
_FIRST, _THEN = np.array([(u, v) for u in range(6) for v in range(6) if u < v or _AXIS[u] == _AXIS[v]]).T
_COLUMN = np.empty((6, 6), dtype=int)
_COLUMN[_THEN, _FIRST] = 1 + np.arange(_FIRST.size)
_COLUMN[_FIRST, _THEN] = 1 + np.arange(_FIRST.size)  # after the swap, so a one-axis pair keeps its order


def _stencils(level: Level, Q: np.ndarray, steps) -> tuple[list[tuple], list]:
    """(nodes, h, psi) per step h, the centre and its one-shift nodes (7, 3, N) and Psi (25, N); and the centre's
    chart columns (t1, t2, phi), a row per state.  Q holds n columns per state, state after state (N = n_states n).
    One chart call and one ``wavefunction_values`` call of the level take each state's centre once, at the head of
    its row, then the two-shift nodes of every step; a step's Psi is the centre's row and its 24.
    """
    out, reads = [], [Q[None]]
    for h in steps:
        nodes = np.repeat(Q[None], 7, axis=0)
        nodes[1 + np.arange(6), _AXIS] += _SIGN[:, None] * h
        two = nodes[1 + _FIRST]
        two[np.arange(_FIRST.size), _AXIS[_THEN]] += _SIGN[_THEN, None] * h
        out.append((nodes, h))
        reads.append(two)
    size, count = Q.shape[1], len(level)
    n = size // count
    # the 49 reads (49, 3, N) as (3, n_states, 49, n): a row of 49 n columns per state
    chart = _quasi_to_chart(level.space, np.concatenate(reads).reshape(-1, 3, count, n).transpose(1, 2, 0, 3)
                            .reshape(3, -1))
    psi = wavefunction_values(level, *(c.reshape(count, -1) for c in chart))
    psi = psi.reshape(count, -1, n).transpose(1, 0, 2).reshape(-1, size)
    tables = psi[1:].reshape(len(steps), _FIRST.size, size)
    centre = [c.reshape(count, -1, n)[:, 0] for c in chart]
    return [(nodes, h, np.concatenate([psi[:1], p])) for (nodes, h), p in zip(out, tables)], centre


def _central(values: np.ndarray, h) -> np.ndarray:
    """Central-difference gradients (..., 3, n) from values (..., 6, n) at the six one-shift nodes."""
    return (values[..., 0::2, :] - values[..., 1::2, :]) / (2.0 * h)


def _a3_and_l2(level: Level, nodes: np.ndarray, h, psi: np.ndarray):
    """(A3 Psi, L^2 Psi) by nested central differences at the stencil centre.

    Psi's gradient at the six one-shift nodes is one central difference
    over the two-shift table; every composed term applies its inner
    operator at those nodes and takes one outer difference.  The columns
    are the level's states' in turn, as many for each (:func:`_stencils`).
    """
    centre, shifted = nodes[0], nodes[1:]
    grad = _central(psi[_COLUMN], h)

    def term(outer, inner) -> np.ndarray:
        g = _central(inner(lambda j: grad[:, j], lambda x, j: shifted[:, j] * x), h)
        return outer(lambda j: g[j], lambda x, j: centre[j] * x)

    sigma = level.space.sigma
    p1, p2 = partial(_momentum, sigma, 0), partial(_momentum, sigma, 1)
    l1, l2, l3 = (partial(_angular, a) for a in range(3))
    q = np.sqrt((centre * centre).sum(axis=0))
    commutator = term(l1, p2) - term(l2, p1) - term(p1, l2) + term(p2, l1)
    e = np.repeat([s.e for s in level], centre.shape[-1] // len(level))
    a3 = e * centre[2] / q * psi[0] + 0.5 * commutator
    return a3, sum(term(l, l) for l in (l1, l2, l3))


def runge_lenz_check(state: StateParams | Level, sample) -> ResidualReport | list[ResidualReport]:
    """A3 + L^2 (H3) or A3 + i L^2 (S3) against the exact B operator.

    The left side uses nested second-order central differences in
    quasi-Cartesian coordinates with per-point step h * max(1, |q|),
    h = ``_DEFAULT_FD_STEP``, Richardson-extrapolated over (h, h/2); the
    right side applies the exact separated derivatives through the chart.
    The note records the observed convergence order (should sit near 2)
    before extrapolation.  An empty sample or a coordinate that is not
    finite raises ParameterError; a sample with no usable point raises DomainError.
    A :class:`~curvedkepler.kepler.Level` takes a (3, n) sample per state and runs as one stencil: its
    kept points, cycled to one count per state, go through one chart call, one Psi evaluation and one
    exact B, and each state's report has the bits it has alone.
    """
    level, samples = _as_level(state, sample)
    samples = [np.asarray(s, dtype=float) for s in samples]
    for Q in samples:
        if Q.ndim != 2 or Q.shape[0] != 3:
            raise ParameterError(f"sample must be 3 x n quasi-Cartesian columns, got shape {Q.shape}")
        if Q.shape[1] == 0:
            raise ParameterError("no residuals to report: the sample holds no points")
    Q = np.concatenate(samples, axis=1)
    if not np.isfinite(Q).all():
        raise ParameterError("sample coordinates must be finite")
    h = _DEFAULT_FD_STEP
    q = np.sqrt((Q * Q).sum(axis=0))
    rho = np.sqrt(Q[0] ** 2 + Q[1] ** 2)
    h_eff = h * np.maximum(1.0, q)
    # the stencil stays inside the chart sigma |q|^2 < 1, with a margin: a ball on H3, all of R^3 on S3
    keep = (q >= 0.05) & (rho >= 6.0 * h_eff + 0.01) & (level.space.sigma * (q + 4.0 * h_eff) <= 0.98)
    sizes = [s.shape[1] for s in samples]
    kept = np.flatnonzero(keep)
    kept = np.split(kept, np.searchsorted(kept, np.cumsum(sizes)[:-1]))  # the columns kept of each sample
    counts = [k.size for k in kept]
    if not all(counts):
        raise DomainError("no usable sample points for the finite-difference stencil")
    # each state's kept points, cycled to one count (two or more: a lone point runs as a pair, as alone)
    n = max(2, *counts)
    take = np.concatenate([k[np.arange(n) % k.size] for k in kept])
    Q, h_eff = Q[:, take], h_eff[take]

    unit = level.space.unit
    stencils, centre = _stencils(level, Q, (h_eff, h_eff / 2.0))
    want = (unit * apply_b_operator(level, *centre)).ravel()
    fd_h, fd_h2 = (a3 + unit * l2 for a3, l2 in (_a3_and_l2(level, *st) for st in stencils))
    rich = (4.0 * fd_h2 - fd_h) / 3.0

    r1, r2 = (np.abs(fd - want).reshape(len(level), n) for fd in (fd_h, fd_h2))
    ok = (r2 > 1e-13) & (np.arange(n) < np.array(counts)[:, None])
    ratios = np.split(np.log2(r1[ok] / r2[ok]), np.cumsum(ok.sum(axis=1))[:-1])
    notes = []
    for ratio, size, count in zip(ratios, sizes, counts):
        order = float(np.median(ratio)) if ratio.size else math.nan
        skipped = f"; skipped {size - count} point(s) near chart boundaries" if size > count else ""
        notes.append(f"median FD convergence order {order:.2f} over (h, h/2), h={h:g}{skipped}")

    def rows(a: np.ndarray) -> list:
        return _kept(a.reshape(len(level), n), counts)

    reports = build_report(rows(rich - want), rows(want), RUNGE_LENZ_TOL, columns=Q.reshape(3, -1, n), note=notes)
    return reports if isinstance(state, Level) else reports[0]


# ---------------------------------------------------------------------------
# polynomial algebra for the commutation relations


# The packed layout of QPolynomial: slot 0 is a zero pad, then the monomials graded,
# by total degree and lexicographic within a degree, so slots 1.._PREFIX[d] hold those
# of degree <= d and a row's first _PREFIX[d] + 1 slots are the same layout capped at
# degree d.  _SLOT maps exponents -13..13 to slots, negatives by wrapping, and every
# triple off the table to the pad.  _LAYOUT maps each such width to (d, the slots of
# degree d, and per axis a the gathers of q_a p and of d/dq_a p, the latter before the
# multiply by the exponent); a slot past the width reads as the pad.
_MAX_DEGREE = 12
_N = _MAX_DEGREE + 1
_KEYS = tuple(sorted(((i, j, k) for i in range(_N) for j in range(_N - i) for k in range(_N - i - j)),
                     key=lambda key: (sum(key), key)))
_PREFIX = tuple(math.comb(d + 3, 3) for d in range(_N))
_WIDTH = _PREFIX[-1] + 1
_EXPS = np.array(_KEYS)
_DEGREE = _EXPS.sum(axis=1)
_SLOT = np.zeros((2 * _N,) * 3, dtype=int)
_SLOT[tuple(_EXPS.T)] = np.arange(1, _WIDTH)


def _is_finite(c: complex) -> bool:
    return math.isfinite(c.real) and math.isfinite(c.imag)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _layouts() -> MappingProxyType:
    """The tables of every width; the gathers of q_a p and the exponents are views of the full width's."""
    unit = np.eye(3, dtype=int)
    up, down = ([_read_only(np.append(0, _SLOT[tuple((_EXPS + step * unit[a]).T)])) for a in range(3)]
                for step in (-1, 1))
    exponent = [_read_only(np.append(0.0, _EXPS[:, a] + 1.0).astype(complex)) for a in range(3)]
    layouts = {}
    for d, n in enumerate(_PREFIX):
        w = n + 1
        cut = [_read_only(np.where(s[:w] < w, s[:w], 0)) for s in down]
        layouts[w] = (d, slice(w - math.comb(d + 2, 2), w), [u[:w] for u in up], cut, [x[:w] for x in exponent])
    return MappingProxyType(layouts)


_LAYOUT = _layouts()


def _times(rows: np.ndarray, axis: int) -> np.ndarray:
    """q_axis times each packed row of a prefix layout; a non-zero term of its top degree is refused."""
    d, top, up, _, _ = _LAYOUT[rows.shape[-1]]
    if rows[..., top].any():
        raise ParameterError(f"polynomial degree {d + 1} exceeds cap {d}")
    return rows.take(up[axis], axis=-1)


def _diff(rows: np.ndarray, axis: int) -> np.ndarray:
    _, _, _, down, exponent = _LAYOUT[rows.shape[-1]]
    out = rows.take(down[axis], axis=-1)
    out *= exponent[axis]
    return out


class QPolynomial:
    """Complex polynomial in (q1, q2, q3) as a packed coefficient row.

    ``_row`` holds a zero pad slot, then the coefficients of the 455
    monomials q1^i q2^j q3^k of total degree <= 12, by total degree and
    lexicographic (i, j, k) within a degree.  The commutator checks run on
    these rows, cut to the prefix of degree(p) + 2 that they never
    legitimately exceed: q_i and d/dq_i are the gathers :func:`_times` and
    :func:`_diff`, by array functions on the last axis, so a stack of rows
    runs as one.  Products and q_i shifts refuse to pass the layout's top
    degree.  Keys are triples of non-negative integers and coefficients are
    finite.  ``coeffs`` is a read-only view of the non-zero terms, in
    layout order.
    """

    MAX_DEGREE = _MAX_DEGREE

    __slots__ = ("_row",)

    def __init__(self, coeffs=None):
        self._row = np.zeros(_WIDTH, dtype=complex)
        for key, val in (coeffs or {}).items():
            k = key if isinstance(key, tuple) else (key,)
            if len(k) != 3 or not all(is_integer(x) and x >= 0 for x in k):
                raise ParameterError(f"bad monomial key {key!r}")
            c = complex(val)
            if not _is_finite(c):
                raise ParameterError(f"coefficient of {key!r} must be finite, got {val!r}")
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

    @classmethod
    def random(cls, rng: np.random.Generator, degree: int = 6, terms: int = 8) -> "QPolynomial":
        if not (is_integer(degree) and 0 <= degree <= cls.MAX_DEGREE and is_integer(terms) and terms >= 0):
            raise ParameterError(f"random needs integers 0 <= degree <= {cls.MAX_DEGREE} and terms >= 0, "
                                 f"got degree={degree!r}, terms={terms!r}")
        # three scalar draws per key: the same PCG64 stream as one size-3 draw
        integers, top = rng.integers, degree + 1
        row = np.zeros(_WIDTH, dtype=complex)
        for _ in range(terms):
            while True:
                key = (int(integers(0, top)), int(integers(0, top)), int(integers(0, top)))
                if sum(key) <= degree:
                    break
            row[_SLOT[key]] = complex(rng.standard_normal(), rng.standard_normal())
        return cls._of(row)

    @property
    def coeffs(self) -> MappingProxyType:
        row = self._row
        return MappingProxyType({_KEYS[n]: complex(row[n + 1]) for n in np.flatnonzero(row[1:])})

    def degree(self) -> int:
        return int(_DEGREE[self._row[1:] != 0].max(initial=0))

    def __mul__(self, other):
        if not isinstance(other, QPolynomial):
            if not _is_finite(c := complex(other)):
                raise ParameterError(f"scalar factor must be finite, got {other!r}")
            return self._of(c * self._row)
        # with the total degree capped, no product term falls off the table
        self._capped(self.degree() + other.degree())
        out = np.zeros_like(self._row)
        for n in np.flatnonzero(self._row[1:]):
            src = np.append(0, _SLOT[tuple((_EXPS - _EXPS[n]).T)])
            out += self._row[n + 1] * other._row[src]
        return self._of(out)

    __rmul__ = __mul__


def _commutator_residuals(space: SpaceTag, rows: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """The nine identities' labels and their (n, 9) residuals on n packed rows.

    The rows run cut to the pad and the prefix of their top degree + 2: no
    commutator term passes degree(p) + 2, so every slot cut off holds a zero.
    """
    top = int(_DEGREE[rows[:, 1:].any(axis=0)].max(initial=0))
    rows = rows[:, : _PREFIX[min(top + 2, _MAX_DEGREE)] + 1]
    sigma = space.sigma
    pp_sign = -1j * sigma  # -i on H3, +i on S3
    rhs = "+ iL" if space.model is Model.H3 else "- iL"

    def P(a: int, r: np.ndarray) -> np.ndarray:
        return _momentum(sigma, a, partial(_diff, r), _times)

    def L(a: int, r: np.ndarray) -> np.ndarray:
        return _angular(a, partial(_diff, r), _times)

    lp = [L(a, rows) for a in range(3)]
    pp = [P(a, rows) for a in range(3)]
    residuals, labels = [], []

    def peak(r: np.ndarray) -> np.ndarray:
        return np.hypot(r.real, r.imag).max(axis=-1)

    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        residuals.append(peak(L(a, lp[b]) - L(b, lp[a]) - 1j * lp[c]))
        labels.append(f"[L{a+1},L{b+1}] - iL{c+1}")
        residuals.append(peak(L(a, pp[b]) - P(b, lp[a]) - 1j * pp[c]))
        labels.append(f"[L{a+1},P{b+1}] - iP{c+1}")
        residuals.append(peak(P(a, pp[b]) - P(b, pp[a]) - pp_sign * lp[c]))
        labels.append(f"[P{a+1},P{b+1}] {rhs}{c+1}")
    return np.stack(residuals, axis=-1), labels


def momentum_commutators(space: SpaceTag, p: QPolynomial) -> ResidualReport:
    """All nine so(3,1)/so(4) commutation identities applied to p.

    [L_a,L_b] = i eps_abc L_c and [L_a,P_b] = i eps_abc P_c in both
    models; [P_a,P_b] = -i eps_abc L_c on H3 and +i eps_abc L_c on S3.
    Residual per identity is the max coefficient magnitude of
    (commutator - right side) applied to p.
    """
    degree = p.degree()
    if degree > _MAX_DEGREE - 2:
        raise ParameterError("commutator check is limited to degree <= 10 inputs")
    (residuals,), labels = _commutator_residuals(space, p._row[None])
    sign_word = "so(3,1)" if space.model is Model.H3 else "so(4)"
    note = f"{sign_word} relations on degree-{degree} input; worst identity: {labels[int(residuals.argmax())]}"
    return build_report(residuals, 0.0, COMMUTATOR_TOL, note=note)
