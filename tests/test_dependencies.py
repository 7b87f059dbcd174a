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
