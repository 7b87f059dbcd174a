"""The library's north star: it imports the standard library and numpy,
nothing else."""

import ast
import sys
from pathlib import Path

import sentbound

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}


def absolute_imports(source):
    """The module names of every absolute import statement in source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_imports_only_the_standard_library_and_numpy():
    files = sorted(Path(sentbound.__file__).parent.rglob("*.py"))
    assert len(files) > 10
    outside = [
        f"{path.name}: {name}"
        for path in files
        for name in absolute_imports(path.read_text(encoding="utf-8"))
        if name.split(".")[0] not in ALLOWED
    ]
    assert not outside


def imported_names(tree):
    """The names that the import statements of a module bind."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def exported_names(package):
    """The names in the __all__ of a package's __init__.py."""
    for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_read_or_exported():
    """A module reads every name that it imports, or its package exports
    the name: nothing is imported only for the tests to reach."""
    unread = []
    for path in sorted(Path(sentbound.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = exported_names(path.parent)
        unread += [f"{path.name}: {name}" for name in imported_names(tree)
                   if name not in read | exported]
    assert not unread
