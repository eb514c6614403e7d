"""Static hygiene of the package modules: every imported name is used and
every annotation resolves.  Standard library only (ast, typing)."""
import ast
import importlib
import inspect
import pathlib
import typing

import pytest

import pwlab

SRC = pathlib.Path(pwlab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    assert _unused_imports(tree) == []


def _functions(module):
    """Functions and classes defined in module, with the classes' methods
    and properties."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for m in vars(obj).values():
                m = m.fget if isinstance(m, property) else m
                if inspect.isfunction(m):
                    yield m


@pytest.mark.parametrize("name", MODULES)
def test_annotations_resolve(name):
    module = importlib.import_module(
        "pwlab" if name == "__init__" else f"pwlab.{name}")
    checked = 0
    for obj in _functions(module):
        typing.get_type_hints(obj)
        checked += 1
    assert checked > 0 or name == "__init__"


def test_unused_import_detector_flags_a_stray_name():
    tree = ast.parse("from .grid import Grid, lp_norm\n"
                     "import numpy as np\n"
                     "def f(g: Grid):\n    return np.ones(3)\n")
    assert _unused_imports(tree) == ["lp_norm (line 1)"]
