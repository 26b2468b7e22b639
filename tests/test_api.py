"""The public surface: every name in an `__all__` resolves, and the package
exports the library modules' names."""

from __future__ import annotations

import importlib

import pytest

import gf2sigma

MODULES = ["gf2sigma", *(f"gf2sigma.{name}" for name in ("gf2poly", "factorizer", "sigma", "catalog", "search", "cli"))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__)), module_name
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], module_name


def test_package_all_is_the_library_modules_all():
    """The package exports exactly its five library modules' names and
    __version__, each once; cli's names stay in cli."""
    library = ["gf2poly", "factorizer", "sigma", "catalog", "search"]
    names = [name for lib in library for name in importlib.import_module(f"gf2sigma.{lib}").__all__]
    assert len(gf2sigma.__all__) == len(set(gf2sigma.__all__))
    assert sorted(gf2sigma.__all__) == sorted([*names, "__version__"])
