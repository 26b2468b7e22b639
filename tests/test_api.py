"""The public surface: every name in an `__all__` resolves."""

from __future__ import annotations

import importlib

import pytest

MODULES = ["gf2sigma", *(f"gf2sigma.{name}" for name in ("gf2poly", "factorizer", "sigma", "catalog", "search", "cli"))]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__)), module_name
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], module_name
