"""Every module's declared public names exist and star-import cleanly."""

import importlib
import pkgutil

import pytest

import h2mul

MODULES = sorted(m.name for m in pkgutil.iter_modules(h2mul.__path__))


def test_every_module_is_listed():
    assert {"coarsening", "dense", "h2", "induced", "trees",
            "weights"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"h2mul.{name}")
    missing = [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace: dict = {}
    exec(f"from h2mul.{name} import *", namespace)
    for n in getattr(importlib.import_module(f"h2mul.{name}"), "__all__", []):
        assert n in namespace
