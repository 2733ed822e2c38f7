"""The DP is solved from the root only: solver._solve has one way in.

Every reference to the name _solve under src/stochmatch is listed with the
function it sits in, and the only ones allowed are optimal_value's call and
_solve's own recursion.  A policy that solved keys on demand would need a
third.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochmatch"


def _references(path, node, scope=""):
    """(file, enclosing function, line) of each reference to _solve below node."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        elif isinstance(child, ast.Name) and child.id == "_solve":
            found.append((path.name, scope, child.lineno))
        elif isinstance(child, ast.Attribute) and child.attr == "_solve":
            found.append((path.name, scope, child.lineno))
        found += _references(path, child, inner)
    return found


def test_solve_is_reached_only_from_optimal_value():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        found += _references(path, ast.parse(path.read_text(encoding="utf-8")))
    assert {(name, scope) for name, scope, _ in found} == {
        ("solver.py", "_solve"),
        ("solver.py", "optimal_value"),
    }, found
