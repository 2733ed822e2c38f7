"""Every call README.md writes in backticks names a real signature.

Each inline code span of the form name(args) whose name resolves to a
function of a stochmatch module (a bare name, or one dotted from the package
or a module, such as core.state_budget) must pass, as its arguments, a
prefix of that function's parameters, by name, as `check_subtree_optimality(inst,
pol)` does for check_subtree_optimality(inst, pol, force=False).  Keyword
arguments must name a parameter.
Names that do not resolve to such a function, such as range and Fraction,
are skipped.  Fenced code blocks are not read for this.

The Library section's Python example runs as written on P4, imports from
stochmatch only public names, and the section names every public name.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import stochmatch

README = Path(__file__).resolve().parent.parent / "README.md"

NAMESPACES = [stochmatch] + [
    importlib.import_module(f"stochmatch.{info.name}")
    for info in pkgutil.iter_modules(stochmatch.__path__)
]


def _inline_spans(text):
    prose = re.sub(r"^```.*?^```", "", text, flags=re.MULTILINE | re.DOTALL)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", prose)]


def _resolve(dotted):
    """The stochmatch function a dotted name reaches, or None."""
    for namespace in NAMESPACES:
        obj = namespace
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        if inspect.isfunction(obj) and obj.__module__.startswith("stochmatch"):
            return obj
    return None


def _calls():
    """(span, function, call node) for each span that calls a stochmatch function."""
    found = []
    for span in _inline_spans(README.read_text(encoding="utf-8")):
        try:
            node = ast.parse(span, mode="eval").body
        except SyntaxError:
            continue
        if isinstance(node, ast.Call):
            fn = _resolve(ast.unparse(node.func))
            if fn is not None:
                found.append((span, fn, node))
    return found


def test_readme_calls_match_signatures():
    calls = _calls()
    assert calls
    stale = []
    for span, fn, node in calls:
        params = list(inspect.signature(fn).parameters)
        args = [arg.id if isinstance(arg, ast.Name) else ast.unparse(arg) for arg in node.args]
        if args != params[: len(args)] or any(kw.arg not in params for kw in node.keywords):
            stale.append(f"{span} against {fn.__name__}({', '.join(params)})")
    assert stale == []


def _library_section():
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs(p4, tmp_path, monkeypatch):
    (example,) = re.findall(r"^```python\n(.*?)^```", _library_section(), re.MULTILINE | re.DOTALL)
    code = ast.parse(example)
    imported = {
        alias.name
        for node in ast.walk(code)
        if isinstance(node, ast.ImportFrom) and node.module == "stochmatch"
        for alias in node.names
    }
    assert imported and imported <= set(stochmatch.__all__)
    (tmp_path / "instance.txt").write_text(stochmatch.format_instance(p4), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})


def test_library_section_names_every_public_name():
    section = _library_section()
    assert [name for name in stochmatch.__all__ if not re.search(rf"\b{name}\b", section)] == []
