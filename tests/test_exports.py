"""Every public name a module declares in ``__all__`` exists, star-imports, and is exported by the package."""

from __future__ import annotations

import importlib

import pytest

import symlie

MODULES = ("partitions", "symfunc", "plethysm", "families", "verify")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(f"symlie.{name}")
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace: dict = {}
    exec(f"from symlie.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_every_module_name(name):
    module = importlib.import_module(f"symlie.{name}")
    assert [x for x in module.__all__ if getattr(symlie, x, None) is not getattr(module, x)] == []
