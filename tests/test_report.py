"""Residual reports: the worst point from coordinate columns, merging, and no report of an empty sample."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ode_residual,
    pullback_points,
    quasi_points,
    run_suite,
    runge_lenz_check,
)
from curvedkepler.report import ResidualReport, build_report, merge_reports


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


def _row_by_row(residual, reference, tolerance, columns, note) -> ResidualReport:
    """build_report's arithmetic on one row as it ran before report sets ran as stacks: the oracle of the stacks."""
    res = np.abs(np.asarray(residual)).ravel()
    ref = np.abs(np.asarray(reference)).ravel()
    rel = res / (1.0 + ref)
    i = int(np.argmax(rel))
    return ResidualReport(max_abs=float(res.max()), max_rel=float(rel[i]), mean_rel=float(rel.mean()),
                          n_points=int(res.size), worst_point=tuple(c[i] for c in columns), tolerance=tolerance,
                          passed=bool(float(rel[i]) <= tolerance), note=note)


def _bits(report: ResidualReport) -> tuple:
    floats = (report.max_abs, report.max_rel, report.mean_rel)
    return (*(x.hex() for x in floats), report.n_points, [np.asarray(v).tobytes() for v in report.worst_point],
            report.tolerance, report.passed, report.note)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.integers(1, 40), min_size=1, max_size=7), seed=st.integers(0, 2**32 - 1),
       complex_rows=st.booleans(), nans=st.integers(0, 3))
def test_a_report_set_reduces_each_row_as_the_row_alone(lengths, seed, complex_rows, nans):
    """Rows of ragged counts, some of them over tolerance and some with NaN residuals, give the bits the
    row-by-row arithmetic gives; the first NaN of a row is its worst point and fails it."""
    rng = np.random.default_rng(seed)
    rows, refs, cols = [], [], []
    for n in lengths:
        row = rng.standard_normal(n) * 10.0 ** rng.integers(-16, 0)
        if complex_rows:
            row = row + 1j * rng.standard_normal(n) * 1e-12
        row[rng.integers(0, n, nans)] = math.nan
        rows.append(row)
        refs.append(rng.standard_normal(n) * (1 + 1j if complex_rows else 1))
        cols.append((rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    notes = [f"row {i}" for i in range(len(rows))]
    columns = [[c[0] for c in cols], [c[1] for c in cols]]
    got = build_report(rows, refs, 1e-9, columns=columns, note=notes)
    want = [_row_by_row(r, f, 1e-9, c, note) for r, f, c, note in zip(rows, refs, cols, notes)]
    assert [_bits(r) for r in got] == [_bits(r) for r in want]
    for report, row, (first, _) in zip(got, rows, cols):
        if np.isnan(row).any():
            assert math.isnan(report.max_rel) and not report.passed
            assert report.worst_point[0] == first[np.flatnonzero(np.isnan(row))[0]]


def test_a_report_set_takes_one_reference_value_and_one_note_for_every_row():
    rows = [np.array([1e-3, 4e-3]), np.array([2e-3]), np.array([5e-3, 1e-3])]
    got = build_report(rows, 0.0, 3e-3, note="shared")
    assert [(r.max_rel, r.n_points, r.passed, r.note, r.worst_point) for r in got] == [
        (4e-3, 2, False, "shared", None), (2e-3, 1, True, "shared", None), (5e-3, 2, False, "shared", None)]
    assert got == [build_report(r, 0.0, 3e-3, note="shared") for r in rows]


@pytest.mark.parametrize("rows", [[np.ones(3), np.zeros(0)], [np.zeros(0)], []], ids=["one-empty", "empty", "none"])
def test_a_report_set_with_an_empty_row_is_refused(rows):
    with pytest.raises(ParameterError, match="no residuals to report"):
        build_report(rows, 0.0, 1e-12)
