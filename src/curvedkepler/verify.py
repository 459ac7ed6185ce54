"""Verification-suite orchestration shared by the CLI and the tests.

A suite is a named batch of residual checks over a (space, e, max_k,
seed) configuration; each check comes back as a labelled
:class:`~curvedkepler.report.ResidualReport`.  Suites draw their sample
points from per-suite PRNG streams spawned from the run seed, so the
points used by, say, ``ode`` do not depend on which other suites run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BoundStateError, ParameterError
from .geometry import constraint_check, metric_pullback_check
from .kepler import (
    Level,
    StateParams,
    assemble_state,
    enumerate_states,
    is_admissible,
    perturbed,
)
from .operators import (
    QPolynomial,
    b_operator_residual,
    coupling_identity_residual,
    hamiltonian_residual,
    momentum_commutators,
    ode_residual,
    runge_lenz_check,
)
from .report import ResidualReport, merge_reports
from .sampling import chart_points, factor_samples, pullback_points, quasi_points
from .spaces import Model, SpaceTag

ODE_POINTS = 100
CHART_POINTS = 200
RUNGE_LENZ_POINTS = 50
RUNGE_LENZ_STATES = 3
METRIC_POINTS = 25
COMMUTATOR_POLYS = 20


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


# ode, hamiltonian and boperator draw each state's points in state order, then
# evaluate the level in one stacked call per residual
def _ode(space, states, rng) -> list[SuiteResult]:
    draws = [factor_samples(space, rng, which, ODE_POINTS) for _ in states for which in (1, 2)]
    level = Level(states)
    reports = zip(*(ode_residual(level, which, draws[which - 1 :: 2]) for which in (1, 2)))
    return [
        SuiteResult("ode", f"{_state_label(s)} factor {which}", r)
        for s, pair in zip(states, reports)
        for which, r in zip((1, 2), pair)
    ]


def _eigen_suite(suite, residual, space, states, rng) -> list[SuiteResult]:
    """The hamiltonian or boperator suite."""
    batches = [chart_points(space, rng, CHART_POINTS) for _ in states]
    reports = residual(Level(states), batches)
    return [SuiteResult(suite, _state_label(s), r) for s, r in zip(states, reports)]


def _rungelenz(space, states, rng) -> list[SuiteResult]:
    results = []
    for state in states[:RUNGE_LENZ_STATES]:
        pts = quasi_points(space, rng, RUNGE_LENZ_POINTS)
        report = runge_lenz_check(state, pts)
        results.append(SuiteResult("rungelenz", _state_label(state), report))
    return results


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
    polys = [QPolynomial.random(rng, degree=6) for _ in range(COMMUTATOR_POLYS)]
    reports = momentum_commutators(space, polys)
    label = f"{space.model.value} algebra relations ({COMMUTATOR_POLYS} random polynomials)"
    return [SuiteResult("commutators", label, merge_reports(reports))]


# suite name -> runner(space, states, rng) over the run's bound states, each check at
# its own tolerance; the order fixes each suite's PRNG stream and the order of the reports
_RUNNERS = {
    "ode": _ode,
    "hamiltonian": partial(_eigen_suite, "hamiltonian", hamiltonian_residual),
    "boperator": partial(_eigen_suite, "boperator", b_operator_residual),
    "rungelenz": _rungelenz,
    "metric": _metric,
    "constraint": _constraint,
    "commutators": _commutators,
}
SUITES = tuple(_RUNNERS)
# the suites that read no state are handed none: they build nothing at a large max_k
_STATELESS = ("metric", "commutators")


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
    state's energy, which only ``ode`` and ``hamiltonian`` read."""
    if suite not in SUITES:
        raise ParameterError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if not is_admissible(space, e, 1) or max_k < 1:
        raise BoundStateError(f"no bound level with k <= {max_k} on {space.name} at e={e!r}")
    states = [] if suite in _STATELESS else bound_states(space, e, max_k)
    if perturb_eps:
        states = [perturbed(s, epsilon=perturb_eps) for s in states]
    return _RUNNERS[suite](space, states, _suite_rng(seed, suite))


def run_suites(
    suites: str,
    space: SpaceTag,
    e: float,
    max_k: int,
    seed: int,
    perturb_eps: float = 0.0,
) -> list[SuiteResult]:
    """Run one named suite, or every suite in ``SUITES`` order for 'all'."""
    names = SUITES if suites == "all" else (suites,)
    return [
        result
        for name in names
        for result in run_suite(name, space, e, max_k, seed, perturb_eps=perturb_eps)
    ]


def all_passed(results) -> bool:
    return all(r.report.passed for r in results)
