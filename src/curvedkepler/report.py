"""Residual report container used by every verification routine.

A report aggregates pointwise residuals of an identity that should hold
exactly.  Relative residuals are measured against 1 + |reference|, where
the reference is the identity's right-hand side at that point; the +1
keeps the quotient meaningful near zeros of the wave function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import ParameterError

__all__ = ["ResidualReport", "build_report", "merge_reports"]


@dataclass(frozen=True)
class ResidualReport:
    max_abs: float
    max_rel: float
    mean_rel: float
    n_points: int
    worst_point: tuple | None
    tolerance: float
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "mean_rel": self.mean_rel,
            "n_points": self.n_points,
            "worst_point": _encode_point(self.worst_point),
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


def _encode_point(point: tuple | None) -> list | None:
    if point is None:
        return None
    out: list = []
    for v in point:
        if isinstance(v, complex):
            out.append([v.real, v.imag])
        else:
            out.append(float(v))
    return out


def build_report(
    residual: np.ndarray,
    reference: np.ndarray,
    tolerance: float,
    columns: Sequence[np.ndarray] | None = None,
    note: str = "",
) -> ResidualReport:
    """Aggregate pointwise |residual| against 1 + |reference|.

    ``columns`` holds 1-d coordinate arrays, each with one entry per
    residual; the worst offender's entries are recorded as the report's
    worst point.  When omitted the worst point is left unset.  An empty
    residual raises ParameterError: no points would pass by default.
    """
    res = np.abs(np.asarray(residual)).ravel()
    ref = np.abs(np.asarray(reference)).ravel()
    if res.size == 0:
        raise ParameterError("no residuals to report: the sample holds no points")
    rel = res / (1.0 + ref)
    i = int(np.argmax(rel))
    worst = tuple(c[i] for c in columns) if columns is not None else None
    max_rel = float(rel[i])
    return ResidualReport(
        max_abs=float(res.max()),
        max_rel=max_rel,
        mean_rel=float(rel.mean()),
        n_points=int(res.size),
        worst_point=worst,
        tolerance=tolerance,
        passed=bool(max_rel <= tolerance),
        note=note,
    )


def merge_reports(reports: Sequence[ResidualReport]) -> ResidualReport:
    """Combine per-state reports into one suite-level report.

    The merged tolerance is the strictest of the inputs; passed requires
    every input to pass (equivalently max_rel <= tolerance since the
    inputs each used their own tolerance).  A NaN ``max_rel`` counts as
    the worst, and a NaN ``max_abs`` carries into the merged one.  No
    reports raise ParameterError, as an empty residual does.
    """
    reports = list(reports)
    if not reports:
        raise ParameterError("no reports to merge: an empty merge would pass by default")
    n = sum(r.n_points for r in reports)
    mean = sum(r.mean_rel * r.n_points for r in reports) / n
    worst = max(reports, key=lambda r: (np.isnan(r.max_rel), r.max_rel))
    notes = sorted({r.note for r in reports if r.note})
    if len(notes) > 3:
        notes = notes[:3] + [f"... and {len(notes) - 3} more"]
    return ResidualReport(
        max_abs=float(np.max([r.max_abs for r in reports])),
        max_rel=worst.max_rel,
        mean_rel=mean,
        n_points=n,
        worst_point=worst.worst_point,
        tolerance=min(r.tolerance for r in reports),
        passed=all(r.passed for r in reports),
        note="; ".join(notes),
    )
