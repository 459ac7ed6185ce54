"""Verification-suite orchestration shared by the CLI and the tests.

A suite is a named batch of residual checks over a (space, e, max_k,
seed) configuration; each check comes back as a labelled
:class:`~curvedkepler.report.ResidualReport`.  Suites draw their sample
points from per-suite PRNG streams spawned from the run seed, so the
points used by, say, ``ode`` do not depend on which other suites run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, SingularLocusError
from .geometry import SphericalPoint, constraint_check, metric_pullback_check
from .kepler import (
    StateParams,
    assemble_state,
    enumerate_states,
    is_admissible,
    perturbed,
)
from .operators import (
    QPolynomial,
    b_operator_residual,
    hamiltonian_residual,
    momentum_commutators,
    ode_residual,
    runge_lenz_check,
)
from .report import ResidualReport, build_report, merge_reports
from .sampling import chart_points, factor_samples, quasi_points
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
    """Every admissible state with k <= max_k, in enumeration order."""
    out: list[StateParams] = []
    for k in range(1, max_k + 1):
        if not is_admissible(space, e, k):
            continue
        for qn in enumerate_states(k):
            out.append(assemble_state(space, e, qn))
    return out


def _suite_rng(seed: int, suite: str) -> np.random.Generator:
    children = np.random.SeedSequence(int(seed)).spawn(len(SUITES))
    return np.random.Generator(np.random.PCG64(children[SUITES.index(suite)]))


def _state_label(state: StateParams) -> str:
    qn = state.qn
    return (
        f"{state.space.model.value} e={state.e:g} "
        f"(n1,n2,m)=({qn.n1},{qn.n2},{qn.m})"
    )


def _ode(space, e, max_k, rng, perturb_eps, kw) -> list[SuiteResult]:
    results = []
    for state in bound_states(space, e, max_k):
        probe = perturbed(state, epsilon=perturb_eps) if perturb_eps else state
        for which in (1, 2):
            pts = factor_samples(space, rng, which, ODE_POINTS)
            report = ode_residual(probe, which, pts, **kw)
            results.append(SuiteResult("ode", f"{_state_label(state)} factor {which}", report))
    return results


def _hamiltonian(space, e, max_k, rng, perturb_eps, kw) -> list[SuiteResult]:
    results = []
    for state in bound_states(space, e, max_k):
        probe = perturbed(state, epsilon=perturb_eps) if perturb_eps else state
        pts = chart_points(space, rng, CHART_POINTS)
        report = hamiltonian_residual(probe, pts, **kw)
        results.append(SuiteResult("hamiltonian", _state_label(state), report))
    return results


def _boperator(space, e, max_k, rng, perturb_eps, kw) -> list[SuiteResult]:
    results = []
    for state in bound_states(space, e, max_k):
        pts = chart_points(space, rng, CHART_POINTS)
        report = b_operator_residual(state, pts, **kw)
        results.append(SuiteResult("boperator", _state_label(state), report))
    return results


def _rungelenz(space, e, max_k, rng, perturb_eps, kw) -> list[SuiteResult]:
    results = []
    for state in bound_states(space, e, max_k)[:RUNGE_LENZ_STATES]:
        pts = quasi_points(space, rng, RUNGE_LENZ_POINTS)
        report = runge_lenz_check(state, pts, **kw)
        results.append(SuiteResult("rungelenz", _state_label(state), report))
    return results


def _metric(space, e, max_k, rng, perturb_eps, kw) -> list[SuiteResult]:
    chi_hi = 2.5 if space.model is Model.H3 else math.pi - 0.15
    reports = []
    while len(reports) < METRIC_POINTS:
        p = SphericalPoint(
            rng.uniform(0.15, chi_hi),
            rng.uniform(0.15, math.pi - 0.15),
            rng.uniform(0.0, 2.0 * math.pi),
        )
        try:
            reports.append(metric_pullback_check(space, p, **kw))
        except (DomainError, SingularLocusError):
            continue
    label = f"{space.model.value} metric pullback ({METRIC_POINTS} points)"
    return [SuiteResult("metric", label, merge_reports(reports))]


def _constraint(space, e, max_k, rng, perturb_eps, kw) -> list[SuiteResult]:
    pts = chart_points(space, rng, CHART_POINTS)
    if space.model is Model.S3:
        merged = merge_reports([constraint_check(p, **kw) for p in pts])
        label = f"s3 conjugation constraint ({len(pts)} points)"
    else:
        imag = np.maximum(np.abs(pts.t1.imag), np.abs(pts.t2.imag))
        merged = build_report(
            imag,
            np.zeros_like(imag),
            kw.get("tolerance", 1e-12),
            note="H3 chart reality: max(|Im t1|, |Im t2|) over generated points",
        )
        label = f"h3 chart reality ({len(pts)} points)"
    return [SuiteResult("constraint", label, merged)]


def _commutators(space, e, max_k, rng, perturb_eps, kw) -> list[SuiteResult]:
    polys = [QPolynomial.random(rng, degree=6) for _ in range(COMMUTATOR_POLYS)]
    reports = momentum_commutators(space, polys, **kw)
    label = f"{space.model.value} algebra relations ({COMMUTATOR_POLYS} random polynomials)"
    return [SuiteResult("commutators", label, merge_reports(reports))]


# suite name -> runner(space, e, max_k, rng, perturb_eps, tolerance kwargs); the
# order fixes each suite's PRNG stream and the order of the reports
_RUNNERS = {
    "ode": _ode,
    "hamiltonian": _hamiltonian,
    "boperator": _boperator,
    "rungelenz": _rungelenz,
    "metric": _metric,
    "constraint": _constraint,
    "commutators": _commutators,
}
SUITES = tuple(_RUNNERS)


def run_suite(
    suite: str,
    space: SpaceTag,
    e: float,
    max_k: int,
    seed: int,
    perturb_eps: float = 0.0,
    tolerance: float | None = None,
) -> list[SuiteResult]:
    """Run one named suite and return its labelled reports."""
    if suite not in SUITES:
        raise ParameterError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    kw = {} if tolerance is None else {"tolerance": tolerance}
    return _RUNNERS[suite](space, e, max_k, _suite_rng(seed, suite), perturb_eps, kw)


def run_suites(
    suites,
    space: SpaceTag,
    e: float,
    max_k: int,
    seed: int,
    perturb_eps: float = 0.0,
    tolerance: float | None = None,
) -> list[SuiteResult]:
    """Run the named suite(s) — a name, a list of names, or 'all'."""
    if isinstance(suites, str):
        wanted = list(SUITES) if suites == "all" else [suites]
    else:
        wanted = list(suites)
        if wanted == ["all"]:
            wanted = list(SUITES)
    for name in wanted:
        if name not in SUITES:
            raise ParameterError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'"
            )
    out: list[SuiteResult] = []
    for name in SUITES:
        if name in wanted:
            out.extend(
                run_suite(
                    name,
                    space,
                    e,
                    max_k,
                    seed,
                    perturb_eps=perturb_eps,
                    tolerance=tolerance,
                )
            )
    return out


def all_passed(results) -> bool:
    return all(r.report.passed for r in results)
