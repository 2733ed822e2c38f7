"""The package imports nothing outside the standard library at run time, and
its grammar is Python 3.10's, the oldest version requires-python allows.

The grammar check parses each module with ast's feature_version=(3, 10), so
newer syntax (such as except*) fails here even on a newer interpreter.  It
checks syntax only: a stdlib function or argument added after 3.10 is not
caught.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stochmatch"


def test_absolute_imports_are_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_grammar_is_python_3_10():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
