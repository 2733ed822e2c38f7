"""proofcheck.TOL is the package's one float tolerance.

Every float literal x with 0 < |x| < 1e-6 under src/stochmatch is listed,
and the only one allowed is the value assigned to TOL in proofcheck.py.  A
tolerance spelled as an expression (such as 2 ** -30) is not caught.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochmatch"


def _tiny_floats(path, tree):
    return [
        (path.name, node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < 1e-6
    ]


def test_tol_is_the_only_tiny_float():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    tol = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += _tiny_floats(path, tree)
        if path.name == "proofcheck.py":
            tol = [
                (path.name, node.value.lineno, node.value.value)
                for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["TOL"]
                and isinstance(node.value, ast.Constant)
            ]
    assert len(tol) == 1
    assert found == tol
