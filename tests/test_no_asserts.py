"""The package guards nothing with ``assert``: ``python -O`` deletes asserts,
so every guard must raise a typed error instead.  And only ``core`` decides
what an integer and a real are: no other module tests for ``bool`` or
catches the ``OverflowError`` of an int beyond the float range."""

import ast
from pathlib import Path

import blockseq

SOURCES = sorted(Path(blockseq.__file__).parent.glob("*.py"))


def _nodes(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def _names(node) -> set[str]:
    """The plain names a type argument or an ``except`` clause lists."""
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return {item.id for item in items if isinstance(item, ast.Name)}


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in _nodes(path)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_core_decides_what_a_number_is():
    found = []
    for path in SOURCES:
        if path.name == "core.py":
            continue
        for node in _nodes(path):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "OverflowError" in _names(node.type):
                    found.append(f"{path.name}:{node.lineno} except OverflowError")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass")
                and len(node.args) == 2
                and "bool" in _names(node.args[1])
            ):
                found.append(f"{path.name}:{node.lineno} {node.func.id}(..., bool)")
    assert found == []
