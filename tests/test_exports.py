"""Every name a module declares in `__all__` exists, once."""
import importlib
import pkgutil

import pytest

import rosenblatt

MODULES = ["rosenblatt"] + [f"rosenblatt.{m.name}" for m in pkgutil.iter_modules(rosenblatt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    declared = getattr(module, "__all__", [])
    assert len(declared) == len(set(declared))
    missing = [attr for attr in declared if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
