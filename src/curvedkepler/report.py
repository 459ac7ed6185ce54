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

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} max_rel={self.max_rel:.3e} (tol {self.tolerance:.1e}, "
            f"{self.n_points} points)"
        )

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
    points: np.ndarray | Sequence[tuple] | None = None,
    note: str = "",
) -> ResidualReport:
    """Aggregate pointwise |residual| against 1 + |reference|.

    ``points`` holds one row of coordinates per residual, as an (n, k)
    array or a sequence of tuples; the worst offender's row is recorded
    as the report's worst point.  When omitted the worst point is left
    unset.
    """
    res = np.abs(np.asarray(residual)).ravel()
    ref = np.abs(np.asarray(reference)).ravel()
    if res.size == 0:
        return ResidualReport(0.0, 0.0, 0.0, 0, None, tolerance, True, note)
    if ref.size == 1:
        ref = np.full_like(res, ref[0])
    rel = res / (1.0 + ref)
    i = int(np.argmax(rel))
    worst = tuple(points[i]) if points is not None else None
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


def merge_reports(reports: Sequence[ResidualReport], note: str = "") -> ResidualReport:
    """Combine per-state reports into one suite-level report.

    The merged tolerance is the strictest of the inputs; passed requires
    every input to pass (equivalently max_rel <= tolerance since the
    inputs each used their own tolerance).
    """
    reports = list(reports)
    if not reports:
        return ResidualReport(0.0, 0.0, 0.0, 0, None, float("inf"), True, note)
    n = sum(r.n_points for r in reports)
    mean = sum(r.mean_rel * r.n_points for r in reports) / max(n, 1)
    worst = max(reports, key=lambda r: r.max_rel)
    notes = [note] if note else []
    unique = sorted({r.note for r in reports if r.note})
    if len(unique) > 3:
        unique = unique[:3] + [f"... and {len(unique) - 3} more"]
    if unique:
        notes.append("; ".join(unique))
    return ResidualReport(
        max_abs=max(r.max_abs for r in reports),
        max_rel=worst.max_rel,
        mean_rel=mean,
        n_points=n,
        worst_point=worst.worst_point,
        tolerance=min(r.tolerance for r in reports),
        passed=all(r.passed for r in reports),
        note="; ".join(notes),
    )
