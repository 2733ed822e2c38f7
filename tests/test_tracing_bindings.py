"""The benchmark tracer rebinds package names; each one must still exist.

perfbench/tracing.py is read as text and never imported, so this check
neither runs nor changes the benchmark's code.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _bindings():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "BINDINGS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no BINDINGS")


def test_every_traced_name_resolves():
    bindings = _bindings()
    assert bindings
    missing = [
        f"stochmatch.{module}.{name}"
        for module, name, _, _ in bindings
        if not callable(getattr(importlib.import_module(f"stochmatch.{module}"), name, None))
    ]
    assert missing == []
