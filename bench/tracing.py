"""Span tracing for the benchmark's traced run.

A :class:`Tracer` replaces each traced function at every name that a
caller looks it up by (a module attribute in ``curvedkepler``, a class
attribute of ``QPolynomial``, or numpy's ``leggauss``), records one span
per call, and puts the original objects back when it exits.  Spans stay
in memory until the run ends; nothing is written while the workload runs.

A span is ``(name, start, end, parent, points, raised)``.  ``parent`` is
the index of the enclosing span (-1 at the top), so a span's self time is
its duration minus the durations of its direct children: the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from types import ModuleType

import numpy as np

WRAPPED = "__bench_span__"

# (span name, defining module, attribute, index of the argument whose size
# is the point count, or None).  A span name is the layer function's home;
# the wrapper is installed wherever a caller binds that function.
FUNCTIONS = (
    ("specfun.hyp2f1", "curvedkepler.specfun", "hyp2f1", 1),
    ("specfun.pow_arr", "curvedkepler.specfun", "pow_arr", None),
    ("kepler.wavefunction_values", "curvedkepler.kepler", "wavefunction_values", 1),
    ("kepler.assemble_state", "curvedkepler.kepler", "assemble_state", None),
    ("operators.factor_derivatives", "curvedkepler.operators", "factor_derivatives", 1),
    ("operators.apply_hamiltonian", "curvedkepler.operators", "apply_hamiltonian", None),
    ("operators.apply_b_operator", "curvedkepler.operators", "apply_b_operator", None),
    (
        "operators.coupling_identity_residual",
        "curvedkepler.operators",
        "coupling_identity_residual",
        None,
    ),
    ("operators.runge_lenz_check", "curvedkepler.operators", "runge_lenz_check", None),
    ("operators.momentum_commutators", "curvedkepler.operators", "momentum_commutators", None),
    ("geometry.spherical_to_parabolic", "curvedkepler.geometry", "spherical_to_parabolic", None),
    ("geometry.parabolic_to_ambient", "curvedkepler.geometry", "parabolic_to_ambient", None),
    ("geometry.metric_pullback_check", "curvedkepler.geometry", "metric_pullback_check", None),
    ("sampling.chart_points", "curvedkepler.sampling", "chart_points", None),
    ("sampling.quasi_points", "curvedkepler.sampling", "quasi_points", None),
    ("sampling.factor_samples", "curvedkepler.sampling", "factor_samples", None),
    ("report.build_report", "curvedkepler.report", "build_report", None),
    ("report.merge_reports", "curvedkepler.report", "merge_reports", None),
    ("cli.main", "curvedkepler.cli", "main", None),
)
SUITE_SPAN = "verify.run_suite"  # renamed to verify.<suite> from its first argument
QPOLY_MUL = "operators.qpoly.mul"
LEGGAUSS = "kepler.leggauss"

# per-layer metric -> (span name, what to take from its spans)
COUNTS = {
    "specfun.hyp2f1.calls": ("specfun.hyp2f1", "calls"),
    "specfun.hyp2f1.points": ("specfun.hyp2f1", "points"),
    "specfun.pow_arr.calls": ("specfun.pow_arr", "calls"),
    "kepler.wavefunction_values.calls": ("kepler.wavefunction_values", "calls"),
    "kepler.wavefunction_values.points": ("kepler.wavefunction_values", "points"),
    "kepler.leggauss.calls": (LEGGAUSS, "calls"),
    "kepler.assemble_state.calls": ("kepler.assemble_state", "calls"),
    "operators.factor_derivatives.calls": ("operators.factor_derivatives", "calls"),
    "operators.factor_derivatives.points": ("operators.factor_derivatives", "points"),
    "operators.qpoly.mul_calls": (QPOLY_MUL, "calls"),
    "geometry.spherical_to_parabolic.calls": ("geometry.spherical_to_parabolic", "calls"),
    "geometry.parabolic_to_ambient.calls": ("geometry.parabolic_to_ambient", "calls"),
    "geometry.metric_pullback_check.calls": ("geometry.metric_pullback_check", "calls"),
    "geometry.metric_pullback_check.errors": ("geometry.metric_pullback_check", "errors"),
    "report.build_report.calls": ("report.build_report", "calls"),
}
SUITES = ("ode", "hamiltonian", "boperator", "rungelenz", "metric", "constraint", "commutators")
SELF_TIMES = (
    "specfun.hyp2f1",
    "specfun.pow_arr",
    "kepler.wavefunction_values",
    LEGGAUSS,
    "kepler.assemble_state",
    "operators.factor_derivatives",
    "operators.apply_hamiltonian",
    "operators.apply_b_operator",
    "operators.coupling_identity_residual",
    "operators.runge_lenz_check",
    "operators.momentum_commutators",
    "geometry.spherical_to_parabolic",
    "geometry.parabolic_to_ambient",
    "sampling.chart_points",
    "sampling.quasi_points",
    "sampling.factor_samples",
    *(f"verify.{s}" for s in SUITES),
    "report.build_report",
    "report.merge_reports",
    "cli.main",
)


def _package_modules() -> list[ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "curvedkepler" or name.startswith("curvedkepler."))
    ]


def _legendre() -> ModuleType:
    return np.polynomial.legendre


def _qpolynomial():
    return sys.modules["curvedkepler.operators"].QPolynomial


def installed_wrappers() -> list[str]:
    """Every place a span wrapper is bound right now, as 'owner.attr'."""
    found = []
    owners = [*_package_modules(), _legendre()]
    if "curvedkepler.operators" in sys.modules:
        owners.append(_qpolynomial())
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if getattr(value, WRAPPED, None) is not None:
                found.append(f"{owner.__name__}.{attr}")
    return found


class Tracer:
    """Context manager that records spans for the calls made inside it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, points_arg: int | None, name_from_arg: bool = False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = f"verify.{args[0]}" if name_from_arg else name
            points = int(np.size(args[points_arg])) if points_arg is not None else 0
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, start, end, parent, points, raised)

        setattr(traced, WRAPPED, name)
        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        if self._saved or installed_wrappers():
            raise RuntimeError("span wrappers are already installed")
        try:
            modules = _package_modules()
            for name, home, attr, points_arg in FUNCTIONS:
                fn = getattr(sys.modules[home], attr)
                wrapper = self._wrap(name, fn, points_arg)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, bound, wrapper)
            verify = sys.modules["curvedkepler.verify"]
            self._patch(
                verify, "run_suite", self._wrap(SUITE_SPAN, verify.run_suite, None, True)
            )
            qpoly = _qpolynomial()
            mul = self._wrap(QPOLY_MUL, vars(qpoly)["__mul__"], None)
            self._patch(qpoly, "__mul__", mul)
            self._patch(qpoly, "__rmul__", mul)
            legendre = _legendre()
            self._patch(legendre, "leggauss", self._wrap(LEGGAUSS, legendre.leggauss, None))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; spans[mark():] are the calls after now."""
        return len(self.spans)

    def summarize(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer counts and self times of the spans in [lo, hi)."""
        spans = self.spans[lo:hi]
        child_time = [0.0] * len(spans)
        under_rl = [False] * len(spans)
        calls: dict[str, int] = {}
        points: dict[str, int] = {}
        errors: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, parent, npts, raised) in enumerate(spans):
            p = parent - lo
            if p >= 0:
                child_time[p] += end - start
                under_rl[i] = under_rl[p] or spans[p][0] == "operators.runge_lenz_check"
        psi_evals = 0
        for i, (name, start, end, parent, npts, raised) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            points[name] = points.get(name, 0) + npts
            errors[name] = errors.get(name, 0) + int(raised)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            if name == "kepler.wavefunction_values" and under_rl[i]:
                psi_evals += 1
        table = {"calls": calls, "points": points, "errors": errors}
        out: dict[str, float] = {}
        for metric, (span, kind) in COUNTS.items():
            out[metric] = table[kind].get(span, 0)
        out["operators.rungelenz.psi_evals"] = psi_evals
        for span in SELF_TIMES:
            out[f"{span}.self_s"] = self_s.get(span, 0.0)
        return out


def merge_passes(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first pass and median self times over all passes.

    Returns the merged metrics and the names of counts that differed
    between passes (the program is deterministic, so this should be empty).
    """
    first = passes[0]
    drift = sorted(
        k for k in first if not k.endswith(".self_s") and any(p[k] != first[k] for p in passes)
    )
    merged = {
        k: statistics.median(p[k] for p in passes) if k.endswith(".self_s") else first[k]
        for k in first
    }
    return merged, drift
