"""The benchmark tracer rebinds package names; each one must still exist.

perfbench/tracing.py is read as text and never imported, so this check
neither runs nor changes the benchmark's code.  Some of those names are
imported into proofcheck for the tracer alone, and proofcheck must not call them.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
PROOFCHECK = ROOT / "src" / "stochmatch" / "proofcheck.py"
# Imported by proofcheck only so that the tracer can rebind them there.
TRACER_ONLY = {"event_probability", "conditional_probability", "optimal_policy", "subtree_value"}


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


def test_tracer_only_names_appear_only_in_imports():
    tree = ast.parse(PROOFCHECK.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert TRACER_ONLY <= imported
    used = [
        (node.lineno, name)
        for node in ast.walk(tree)
        for name in (getattr(node, "id", None), getattr(node, "attr", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and name in TRACER_ONLY
    ]
    assert used == []
