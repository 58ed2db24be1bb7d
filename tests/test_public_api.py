"""Every name a module exports through `__all__` exists, once."""

import importlib
import pkgutil

import pytest

import mimo3way

MODULES = ["mimo3way"] + [f"mimo3way.{info.name}" for info in pkgutil.iter_modules(mimo3way.__path__)]
EXPORTING = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_exporting_modules_found():
    # the package and its nine submodules that declare __all__
    assert len(EXPORTING) == 10


@pytest.mark.parametrize("name", EXPORTING)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), sorted({n for n in exported if exported.count(n) > 1})
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
