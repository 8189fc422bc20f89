"""The package guards nothing with ``assert``: ``python -O`` deletes asserts,
so every guard must raise a typed error instead."""

import ast
from pathlib import Path

import blockseq


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(blockseq.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
