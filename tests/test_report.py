"""Residual reports: the worst point from coordinate columns, merging, and no report of an empty sample."""

import math

import numpy as np
import pytest

from curvedkepler import (
    H3,
    S3,
    SUITES,
    BoundStateError,
    Level,
    ParameterError,
    QuantumNumbers,
    assemble_state,
    b_operator_residual,
    chart_points,
    constraint_check,
    coupling_identity_residual,
    factor_samples,
    hamiltonian_residual,
    make_rng,
    metric_pullback_check,
    momentum_commutators,
    ode_residual,
    pullback_points,
    quasi_points,
    run_suite,
    runge_lenz_check,
)
from curvedkepler.report import build_report, merge_reports


def test_build_report_records_the_worst_point_from_columns():
    residual = np.array([1e-3, 4e-3, 2e-3])
    t = np.array([0.1 + 0.2j, 0.3 + 0.4j, 0.5 + 0.6j])
    phi = np.array([1.0, 2.0, 3.0])
    report = build_report(residual, 0.0, 1e-2, columns=[t, phi])
    assert report.worst_point == (0.3 + 0.4j, 2.0)
    assert report.to_json_dict()["worst_point"] == [[0.3, 0.4], 2.0]
    assert build_report(residual, 0.0, 1e-2).worst_point is None


def test_constraint_check_keeps_t1_and_t2_complex_on_an_h3_batch():
    pts = chart_points(H3, make_rng(5), 20)
    assert pts.t1.dtype == np.float64
    t1, t2, phi = constraint_check(pts).worst_point
    assert isinstance(t1, complex) and isinstance(t2, complex) and isinstance(phi, float)
    assert any(p.t1 == t1 and p.t2 == t2 and p.phi == phi for p in pts)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_nan_report_is_the_worst_in_either_order(order):
    finite = build_report(np.array([1e-15]), 0.0, 1e-12, columns=[np.array([1.0])])
    nan = build_report(np.array([math.nan]), 0.0, 1e-12, columns=[np.array([2.0])])
    assert finite.passed and not nan.passed
    merged = merge_reports([(finite, nan)[i] for i in order])
    assert math.isnan(merged.max_rel) and math.isnan(merged.max_abs)
    assert merged.worst_point == (2.0,) and not merged.passed


def test_build_report_refuses_an_empty_residual():
    with pytest.raises(ParameterError, match="no residuals to report"):
        build_report(np.zeros(0), 0.0, 1e-12, columns=[np.zeros(0)])


def test_merge_reports_refuses_an_empty_list():
    """No reports once merged to a pass with n_points = 0 and tolerance = inf."""
    with pytest.raises(ParameterError, match="no reports to merge"):
        merge_reports([])


def _state(space):
    return assemble_state(space, 2.0 if space is S3 else 10.0, QuantumNumbers(0, 1, 0))


# each check on an empty sample from its own sampler
EMPTY_SAMPLE_CHECKS = {
    "ode": lambda space, rng: ode_residual(_state(space), 1, factor_samples(space, rng, 1, 0)),
    "hamiltonian": lambda space, rng: hamiltonian_residual(_state(space), chart_points(space, rng, 0)),
    "boperator": lambda space, rng: b_operator_residual(_state(space), chart_points(space, rng, 0)),
    "coupling identity": lambda space, rng: coupling_identity_residual(space, chart_points(space, rng, 0)),
    "constraint": lambda space, rng: constraint_check(chart_points(space, rng, 0)),
    "metric pullback": lambda space, rng: metric_pullback_check(space, pullback_points(space, rng, 0)),
    "rungelenz": lambda space, rng: runge_lenz_check(_state(space), quasi_points(space, rng, 0)),
    "commutators": lambda space, rng: momentum_commutators(space, []),
}


@pytest.mark.parametrize("space", [H3, S3], ids=["h3", "s3"])
@pytest.mark.parametrize("check", list(EMPTY_SAMPLE_CHECKS))
def test_an_empty_sample_is_refused_not_passed(check, space):
    """An empty sample once passed four checks with n_points = 0, and H and B
    blamed its points for sitting on a singular locus."""
    with pytest.raises(ParameterError, match="no residuals to report"):
        EMPTY_SAMPLE_CHECKS[check](space, make_rng(1))


def test_a_level_with_one_empty_batch_is_refused():
    states = [_state(S3), assemble_state(S3, 2.0, QuantumNumbers(1, 0, 0))]
    rng = make_rng(1)
    batches = [chart_points(S3, rng, 5), chart_points(S3, rng, 0)]
    with pytest.raises(ParameterError, match="no residuals to report"):
        hamiltonian_residual(Level(states), batches)


@pytest.mark.parametrize("space, e, max_k, text", [(H3, 1.0, 3, "k <= 3 on h3 at e=1.0"),
                                                  (S3, 2.0, 0, "k <= 0 on s3 at e=2.0")], ids=["h3-e1", "s3-k0"])
@pytest.mark.parametrize("suite", SUITES)
def test_a_suite_with_no_bound_state_is_refused(suite, space, e, max_k, text):
    """H3 at e = 1 binds no level, nor does any space below k = 1: every suite refuses the run, where
    four once returned no report, which all_passed read as a pass."""
    with pytest.raises(BoundStateError) as refusal:
        run_suite(suite, space, e, max_k, 7)
    assert str(refusal.value) == f"no bound level with {text}"
