"""Verification-suite orchestration shared by the CLI and the tests.

A suite is a named batch of residual checks over a (space, e, max_k,
seed) configuration; each check comes back as a labelled
:class:`~curvedkepler.report.ResidualReport`.  The sampling suites draw
their points from per-suite PRNG streams spawned from the run seed, so
the points a suite uses do not depend on which other suites run;
``commutators`` draws nothing, as it checks one fixed polynomial.  The three
separated suites, ``ode``, ``hamiltonian`` and ``boperator``, run as one:
they share the hamiltonian stream's chart points and one evaluation of
the level, whichever of them runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundStateError, ParameterError
from .geometry import constraint_check, metric_pullback_check
from .kepler import Level, StateParams, assemble_state, enumerate_states, is_admissible, perturbed
from .operators import (_KEYS, _PREFIX, QPolynomial, _separated_reports, coupling_identity_residual,
                        momentum_commutators, runge_lenz_check)
from .report import ResidualReport
from .sampling import chart_points, pullback_points, quasi_points
from .spaces import Model, SpaceTag

CHART_POINTS = 200
RUNGE_LENZ_POINTS = 50
RUNGE_LENZ_STATES = 3
METRIC_POINTS = 25
# the commutators suite's one input: all 84 monomials of degree <= 6, graded slot j holding exp(2 pi i j g),
# g = (sqrt(5) - 1)/2; the identities are linear in p, so it reaches every monomial a degree-6 input can hold
COMMUTATOR_POLY = QPolynomial(dict(zip(
    _KEYS, np.exp(2j * math.pi * (math.sqrt(5.0) - 1.0) / 2.0 * np.arange(1, _PREFIX[6] + 1)).tolist())))


@dataclass(frozen=True)
class SuiteResult:
    """One labelled residual report from a verification suite."""

    suite: str
    label: str
    report: ResidualReport

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "label": self.label, **self.report.to_json_dict()}


def bound_states(space: SpaceTag, e: float, max_k: int) -> list[StateParams]:
    """Every admissible state with k <= max_k, in enumeration order; no level above an unbound one is bound."""
    out: list[StateParams] = []
    for k in range(1, max_k + 1):
        if not is_admissible(space, e, k):
            break
        for qn in enumerate_states(k):
            out.append(assemble_state(space, e, qn))
    return out


def _suite_rng(seed: int, suite: str) -> np.random.Generator:
    """The suite's stream: child SUITES.index(suite) of the run seed, as SeedSequence.spawn numbers its children."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=(SUITES.index(suite),))))


def _state_label(state: StateParams) -> str:
    qn = state.qn
    return (
        f"{state.space.model.value} e={state.e:g} "
        f"(n1,n2,m)=({qn.n1},{qn.n2},{qn.m})"
    )


def _separated(space, states, rng) -> list[SuiteResult]:
    """The ode, hamiltonian and boperator suites, in that order, from one evaluation of the level on a chart batch
    per state, drawn in state order: an ode report per factor, then a hamiltonian and a boperator report per state."""
    batches = [chart_points(space, rng, CHART_POINTS) for _ in states]
    ode1, ode2, h, b = _separated_reports(Level(states), batches)
    labels = [_state_label(s) for s in states]
    return [
        *(SuiteResult("ode", f"{label} factor {which}", r)
          for label, *pair in zip(labels, ode1, ode2) for which, r in enumerate(pair, 1)),
        *(SuiteResult("hamiltonian", label, r) for label, r in zip(labels, h)),
        *(SuiteResult("boperator", label, r) for label, r in zip(labels, b)),
    ]


def _rungelenz(space, states, rng) -> list[SuiteResult]:
    """The first RUNGE_LENZ_STATES states as one level, on a quasi-Cartesian sample per state drawn in state order."""
    states = states[:RUNGE_LENZ_STATES]
    reports = runge_lenz_check(Level(states), [quasi_points(space, rng, RUNGE_LENZ_POINTS) for _ in states])
    return [SuiteResult("rungelenz", _state_label(s), r) for s, r in zip(states, reports)]


def _metric(space, states, rng) -> list[SuiteResult]:
    label = f"{space.model.value} metric pullback ({METRIC_POINTS} points)"
    report = metric_pullback_check(space, pullback_points(space, rng, METRIC_POINTS))
    return [SuiteResult("metric", label, report)]


def _constraint(space, states, rng) -> list[SuiteResult]:
    results = []
    if space.model is Model.S3:
        pts = chart_points(space, rng, CHART_POINTS)
        label = f"s3 conjugation constraint ({len(pts)} points)"
        results.append(SuiteResult("constraint", label, constraint_check(pts)))
    # the B coupling identity depends on the points alone: checked once, on as many points as the boperator suite takes
    pts = chart_points(space, rng, CHART_POINTS * len(states))
    label = f"{space.model.value} coupling/cos(theta) identity ({len(pts)} points)"
    results.append(SuiteResult("constraint", label, coupling_identity_residual(space, pts)))
    return results


def _commutators(space, states, rng) -> list[SuiteResult]:
    """The nine identities on COMMUTATOR_POLY; the suite draws nothing from its stream."""
    label = f"{space.model.value} algebra relations (dense degree-6 polynomial)"
    return [SuiteResult("commutators", label, momentum_commutators(space, COMMUTATOR_POLY))]


# suite name -> runner(space, states, rng) over the run's bound states, each check at
# its own tolerance; the order fixes each suite's PRNG stream and the order of the reports
_RUNNERS = {
    "ode": _separated,
    "hamiltonian": _separated,
    "boperator": _separated,
    "rungelenz": _rungelenz,
    "metric": _metric,
    "constraint": _constraint,
    "commutators": _commutators,
}
SUITES = tuple(_RUNNERS)
# the suites that read no state are handed none: they build nothing at a large max_k
_STATELESS = ("metric", "commutators")
# the suites of the one separated runner, which draws the hamiltonian stream
_SEPARATED = ("ode", "hamiltonian", "boperator")


def _check_perturbation(eps: float, name: str = "perturb_eps") -> None:
    """Refuse an energy shift whose square is not finite, NaN too: the ode residual reads (c t + k) q, c ~ eps."""
    if not math.isfinite(eps * eps):
        raise ParameterError(f"{name} {eps!r} is out of range: its square must be finite")


def _run(suite, space, e, max_k, seed, perturb_eps) -> list[SuiteResult]:
    """Every report of the runner of ``suite``: all three separated suites' for ode, hamiltonian or boperator."""
    if suite not in SUITES:
        raise ParameterError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    _check_perturbation(perturb_eps)
    if not is_admissible(space, e, 1) or max_k < 1:
        raise BoundStateError(f"no bound level with k <= {max_k} on {space.name} at e={e!r}")
    states = [] if suite in _STATELESS else bound_states(space, e, max_k)
    if perturb_eps:
        states = [perturbed(s, epsilon=perturb_eps) for s in states]
    return _RUNNERS[suite](space, states, _suite_rng(seed, "hamiltonian" if suite in _SEPARATED else suite))


def run_suite(
    suite: str,
    space: SpaceTag,
    e: float,
    max_k: int,
    seed: int,
    perturb_eps: float = 0.0,
) -> list[SuiteResult]:
    """Run one named suite on the bound states with k <= max_k and return its labelled reports; every suite refuses
    a run with no bound level (BoundStateError) before it builds a state.  A nonzero ``perturb_eps`` shifts each
    state's energy, which only ``ode`` and ``hamiltonian`` read.  ode, hamiltonian and boperator run as one, on
    the hamiltonian stream's chart points, and each keeps its own reports."""
    return [r for r in _run(suite, space, e, max_k, seed, perturb_eps) if r.suite == suite]


def run_suites(
    suites: str,
    space: SpaceTag,
    e: float,
    max_k: int,
    seed: int,
    perturb_eps: float = 0.0,
) -> list[SuiteResult]:
    """Run one named suite, or every suite in ``SUITES`` order for 'all', the three separated suites in one run."""
    if suites != "all":
        return run_suite(suites, space, e, max_k, seed, perturb_eps)
    args = (space, e, max_k, seed, perturb_eps)
    return _run("hamiltonian", *args) + [r for name in SUITES if name not in _SEPARATED for r in run_suite(name, *args)]


def all_passed(results) -> bool:
    return all(r.report.passed for r in results)
