"""Source-level checks on the ``onerelator`` package."""
from __future__ import annotations

import ast
from pathlib import Path

import onerelator


def test_no_assert_statements():
    """Invariants raise explicit errors, because ``python -O`` strips asserts."""
    found = []
    for path in sorted(Path(onerelator.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports():
    """Every imported name is used; ``__init__`` is exempt, it re-exports."""
    package = Path(onerelator.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += Path(__file__).parent.glob("*.py")
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in imported.items():
            if name not in used:
                found.append(f"{path.name}:{line} {name}")
    assert found == []
