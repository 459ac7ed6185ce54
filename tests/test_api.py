"""Public API surface: every exported name resolves, removed names stay gone."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvedkepler
from curvedkepler import cli, geometry, kepler, operators, report, sampling, spaces, specfun, verify

SUBMODULES = [
    importlib.import_module(f"curvedkepler.{info.name}")
    for info in pkgutil.iter_modules(curvedkepler.__path__)
]
MODULES = [m for m in [curvedkepler, *SUBMODULES] if hasattr(m, "__all__")]

REMOVED = {
    geometry: [
        "QuasiCartesian",
        "ambient_to_quasi",
        "quasi_to_ambient",
        "PolarFactors",
        "polar_decompose",
        "_wrap_angle",
        "ParabolicPoint",
        "AmbientPoint",
        "_near_boundary",
    ],
    kepler: [
        "wavefunction",
        "chart_values",
        "_radial_formula",
        "_gauss_legendre",
        "_s3_quad_grid",
        "_h3_probe_grid",
        "_N_CHI",
        "_N_THETA",
        "_S3_GRIDS",
        "_H3_PROBE_CHI",
        "_chart_grid",
        "_quad_grid",
        "_density_on_grid",
        "lone_point_as_pair",
    ],
    cli: ["RunConfig", "_config_from"],
    operators: [
        "_regular_points",
        "_Stencil",
        "_canonical",
        "_shifted",
        "_UNIT_SHIFTS",
        "_TWO_SHIFTS",
        "_READ_PATHS",
        "_momentum_at",
        "_angular_at",
        "momentum_polynomial",
        "angular_polynomial",
        "_point_rows",
        "_coupling_identity_differences",
        "_derivatives",
        "_is_int",
    ],
    sampling: ["GUARD"],
    specfun: ["hyp2f1_derivative", "power_product", "SERIES_MAX_TERMS", "SERIES_RELATIVE_CUTOFF", "is_level", "each",
              "drop_zero_imag"],
    verify: ["ODE_POINTS", "_ode", "_eigen_suite", "COMMUTATOR_POLYS"],
}


# class -> attributes it no longer has
REMOVED_ATTRIBUTES = {
    operators.QPolynomial: [
        "variable",
        "_check_axis",
        "times_variable",
        "diff",
        "__add__",
        "__sub__",
        "__call__",
        "max_abs_coeff",
        "__repr__",
    ],
    kepler.StateParams: ["from_json_dict"],
}


# function -> parameters it no longer takes
REMOVED_PARAMETERS = {
    kepler.normalize: ["n_chi", "n_theta"],
    operators.apply_hamiltonian: ["operator_space"],
    operators.hamiltonian_residual: ["operator_space", "tolerance"],
    report.merge_reports: ["note"],
    report.build_report: ["points"],
    geometry.ParabolicPoints.validate_for: ["tol"],
    operators.runge_lenz_check: ["h", "tolerance"],
    operators.ode_residual: ["tolerance"],
    operators.b_operator_residual: ["tolerance"],
    operators.momentum_commutators: ["tolerance"],
    geometry.metric_pullback_check: ["tolerance"],
    geometry.constraint_check: ["tolerance"],
    spaces.SpaceTag: ["sigma"],
    verify.run_suite: ["tolerance"],
    verify.run_suites: ["tolerance"],
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in module.__all__:
        assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", list(REMOVED), ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    for name in REMOVED[module]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert not hasattr(curvedkepler, name), name
        assert name not in curvedkepler.__all__


@pytest.mark.parametrize("cls", list(REMOVED_ATTRIBUTES), ids=lambda c: c.__name__)
def test_removed_class_attributes_are_gone(cls):
    for name in REMOVED_ATTRIBUTES[cls]:
        assert name not in vars(cls), f"{cls.__name__}.{name}"


def test_removed_parameters_are_gone():
    for fn, names in REMOVED_PARAMETERS.items():
        assert not set(names) & set(inspect.signature(fn).parameters), fn.__name__


def test_the_benchmark_tracer_finds_every_name_it_binds():
    """bench/tracing.py looks its traced functions up by name; entering a
    Tracer raises if one is gone, and leaving it restores every binding."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    originals = [vars(curvedkepler.operators.QPolynomial)["__mul__"], curvedkepler.verify.run_suite]
    with tracing.Tracer():
        installed = tracing.installed_wrappers()
        for _, home, attr, _ in tracing.FUNCTIONS:
            assert f"{home}.{attr}" in installed
        assert "curvedkepler.verify.run_suite" in installed
        assert {"QPolynomial.__mul__", "QPolynomial.__rmul__"} <= set(installed)
    assert tracing.installed_wrappers() == []
    assert [vars(curvedkepler.operators.QPolynomial)["__mul__"], curvedkepler.verify.run_suite] == originals


def test_parabolic_points_has_no_of():
    """One point is a batch of 0-d arrays, so there is nothing to wrap."""
    assert not hasattr(curvedkepler.ParabolicPoints, "of")


def test_runtime_imports_load_no_test_only_dependency():
    """The runtime depends on numpy alone: importing the package and its
    CLI in a fresh interpreter loads none of the test-only libraries."""
    code = (
        "import sys, curvedkepler, curvedkepler.cli\n"
        "banned = {'scipy', 'mpmath', 'hypothesis', 'pytest'}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in banned))\n"
    )
    src = str(Path(curvedkepler.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
