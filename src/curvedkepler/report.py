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
    residual: np.ndarray | list,
    reference: np.ndarray | float | list,
    tolerance: float,
    columns: Sequence | None = None,
    note: str | Sequence[str] = "",
) -> ResidualReport | list[ResidualReport]:
    """Aggregate pointwise |residual| against 1 + |reference|.

    ``columns`` holds 1-d coordinate arrays, each with one entry per
    residual; the worst offender's entries are recorded as the report's
    worst point.  When omitted the worst point is left unset.  An empty
    residual raises ParameterError: no points would pass by default.

    A report set runs as one: a list of 1-d residual rows, with
    ``reference`` a row each (or one value for all), ``columns`` a row per
    residual row for each coordinate (its leading entries those of the
    residuals) and ``note`` a note each, gives the list of the reports that
    each row gives alone.  The rows of one length are reduced as one stack:
    one abs, divide, argmax, max and mean per length.
    """
    if not isinstance(residual, list):
        cols = None if columns is None else [[c] for c in columns]
        return _reduce([np.ravel(residual)], np.ravel(reference), tolerance, cols, [note])[0]
    refs = reference if isinstance(reference, list) else np.ravel(reference)
    return _reduce(residual, refs, tolerance, columns, [note] * len(residual) if isinstance(note, str) else note)


def _reduce(residual: list, reference, tolerance: float, columns, notes) -> list[ResidualReport]:
    """The reports of :func:`build_report`'s rows, one stack per row length: ``reference`` is a list of rows or one
    array that broadcasts to every row, and ``columns`` a row per residual row for each coordinate."""
    lengths: dict[int, list[int]] = {}
    for i, row in enumerate(residual):
        lengths.setdefault(row.size, []).append(i)
    if not lengths or 0 in lengths:
        raise ParameterError("no residuals to report: the sample holds no points")
    reports: list = [None] * len(residual)
    for n, rows in lengths.items():
        res = np.abs(np.array([residual[i] for i in rows]))
        ref = np.array([reference[i] for i in rows]) if isinstance(reference, list) else reference
        rel = res / (1.0 + np.abs(ref))
        worst = rel.argmax(axis=1)
        max_rel = rel[np.arange(len(rows)), worst].tolist()
        means = np.add.reduce(rel, axis=1) / n  # rel.mean(axis=1), with less call overhead
        stats = zip(rows, worst.tolist(), max_rel, res.max(axis=1).tolist(), means.tolist())
        for i, w, top, max_abs, mean_rel in stats:
            reports[i] = ResidualReport(
                max_abs=max_abs,
                max_rel=top,
                mean_rel=mean_rel,
                n_points=n,
                worst_point=None if columns is None else tuple(c[i][w] for c in columns),
                tolerance=tolerance,
                passed=bool(top <= tolerance),
                note=notes[i],
            )
    return reports


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
