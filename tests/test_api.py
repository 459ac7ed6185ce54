"""Public API surface: every exported name resolves, removed names stay gone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import curvedkepler
from curvedkepler import geometry, kepler

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
    ],
    kepler: ["wavefunction"],
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
