"""Every import of the package is used: a module reads each name it
imports, unless the benchmark's tracer wraps that name there, and the
package's ``__all__`` is exactly what ``__init__`` imports.  Every private
module-level name is read somewhere in the package outside its own
definition."""

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


def _private_definitions(tree):
    """(name, statement) for each private name that a top-level statement of
    ``tree`` defines: a function, a class or an assigned name that starts
    with one underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _read_names_and_attributes(node):
    """The names that ``node`` reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_private_name_is_read_outside_its_definition():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}
    statements = [(name, node, _read_names_and_attributes(node))
                  for name, tree in trees.items() for node in tree.body]
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name, definition in _private_definitions(tree)
              if not any(name in reads for where, node, reads in statements
                         if (where, node) != (module, definition))]
    assert unread == []


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
