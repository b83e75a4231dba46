"""Every public name a module exports must exist."""

import importlib
import pkgutil

import pytest

import msinv

MODULES = ["msinv"] + [f"msinv.{m.name}" for m in pkgutil.iter_modules(msinv.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
