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
