"""Every module's declared public names exist and star-import cleanly."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import h2mul
from h2mul import dense

MODULES = sorted(m.name for m in pkgutil.iter_modules(h2mul.__path__))
# the kernels on one matrix: those with a list form beside them
SINGLE_KERNELS = {n for n in dense.__all__ if n + "s" in dense.__all__}


def test_every_module_is_listed():
    assert {"coarsening", "dense", "h2", "induced", "trees",
            "weights"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_in_readme_layout(name):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert f"| `h2mul.{name}` |" in readme.read_text()


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


def test_traced_functions_exist(monkeypatch):
    # the traced benchmark wraps functions by name; a rename must fail here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    tracer.Tracer(h2mul)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "dense"])
def test_no_single_matrix_kernel(name):
    # the tree algorithms batch their dense work through the list forms;
    # only the package's re-export names the single-matrix kernels
    source = Path(importlib.import_module(f"h2mul.{name}").__file__)
    used = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            used |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    assert SINGLE_KERNELS and not used & SINGLE_KERNELS
