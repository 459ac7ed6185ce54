"""Residual reports: the worst point from coordinate columns, and merging."""

import math

import numpy as np
import pytest

from curvedkepler import H3, chart_points, constraint_check, make_rng
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
