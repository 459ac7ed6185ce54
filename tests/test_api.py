"""Public API surface: every exported name resolves, removed names stay gone."""

import importlib
import pkgutil

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
