"""Each rule about an instance or a key is written once under src/stochmatch.

core.check_stop holds the one message for a policy that stops while an edge
is alive, and parse_instance leaves the probability range to Instance.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochmatch"


def _trees():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sources}


def test_stop_message_written_once():
    found = [
        (name, node.lineno)
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "stopped while" in node.value
    ]
    assert len(found) == 1


def test_parse_instance_compares_against_no_float_bound():
    (parse,) = [
        node
        for node in _trees()["core.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "parse_instance"
    ]
    compared = [
        node.lineno
        for node in ast.walk(parse)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(part, ast.Attribute) and part.attr == "float_info"
            for operand in (node.left, *node.comparators)
            for part in ast.walk(operand)
        )
    ]
    assert compared == []
