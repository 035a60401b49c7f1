"""Source-level checks on the ``onerelator`` package, its tests and demos."""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import onerelator
from conftest import subprocess_env

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


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
    paths += DEMOS
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


def test_no_dead_private_names():
    """Every module-level private function, class or alias is referenced
    somewhere in the package, not only from tests."""
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted(Path(onerelator.__file__).parent.glob("*.py"))
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for private in defined:
                if private.startswith("_") and not private.startswith("__"):
                    if private not in used:
                        found.append(f"{name}:{node.lineno} {private}")
    assert found == []


def test_no_recursion_where_input_size_is_unbounded():
    """No function in ``spheres`` or ``traffic`` calls itself: a complex has no
    size cap, so a recursion there would be as deep as the input is large."""
    package = Path(onerelator.__file__).parent
    found = []
    for name in ("spheres.py", "traffic.py"):
        tree = ast.parse((package / name).read_text(), name)
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            itself = (fn.name, f"self.{fn.name}")
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in itself:
                    found.append(f"{name}:{node.lineno} {fn.name}")
    assert found == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    """Each demo script runs to completion against the package under test."""
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr.decode()
