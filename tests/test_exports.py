"""Every name a module declares in `__all__` exists, once, and every
public function and class a module defines is declared there."""
import importlib
import inspect
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


@pytest.mark.parametrize("name", [m for m in MODULES if hasattr(importlib.import_module(m), "__all__")])
def test_public_definitions_declared(name):
    module = importlib.import_module(name)
    defined = [attr for attr, obj in vars(module).items()
               if not attr.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name]
    undeclared = sorted(set(defined) - set(module.__all__))
    assert not undeclared, f"{name} defines public names missing from __all__: {undeclared}"
