"""Every import of the package is used: a module reads each name it
imports, unless the benchmark's tracer wraps that name there, and the
package's ``__all__`` is exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import pytest

import dejean
from helpers import load_tracer_sites

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dejean"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """The names that the import statements of ``tree`` bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.asname or alias.name for alias in node.names)


def _read_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read_or_traced(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    module = f"dejean.{path.stem}"
    traced = {site[1] for site in load_tracer_sites() if site[0] == module}
    unused = set(_imported_names(tree)) - _read_names(tree) - traced
    assert unused == set(), path.name


def test_all_is_what_init_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(dejean.__all__) == imported
    assert len(dejean.__all__) == len(imported)
    for name in dejean.__all__:
        assert hasattr(dejean, name), name
