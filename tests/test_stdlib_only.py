"""The package imports nothing outside the standard library at run time, and
its grammar is Python 3.10's, the oldest version requires-python allows.

The grammar check parses each module with ast's feature_version=(3, 10), so
newer syntax (such as except*) fails here even on a newer interpreter.  It
checks syntax only: a stdlib function or argument added after 3.10 is not
caught.

Loading the package generates no code either.  Each @dataclass writes and
compiles its methods when its module loads, and dataclasses pulls in inspect,
ast, dis and tokenize; every CLI command is a fresh process that pays for
its imports.  So no module imports dataclasses or inspect, and a fresh
interpreter that imports stochmatch.cli has loaded neither.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "stochmatch"
HEAVY = ("dataclasses", "inspect")


def _absolute_imports():
    """(file name, module name) of each absolute import in the package."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name


def test_absolute_imports_are_stdlib():
    outside = [
        f"{file}: {name}"
        for file, name in _absolute_imports()
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_no_module_imports_dataclasses():
    found = [f"{file}: {name}" for file, name in _absolute_imports() if name.split(".")[0] in HEAVY]
    assert found == []


def test_cli_import_leaves_dataclasses_unloaded():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import stochmatch.cli; "
        f"print(*(m for m in {HEAVY!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []


def test_grammar_is_python_3_10():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
