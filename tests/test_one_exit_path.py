"""The CLI has one exit path: commands raise, and main maps errors to status 2.

cli.py is parsed, and each sys.exit call, each reference to sys.stderr and
each `return 2` is listed with the function it sits in.  sys.exit is called
only under `if __name__ == "__main__"`, and the other two sit only in main.
A command that printed its own error and exited would add a second path,
and a SystemExit raised on a worker thread is dropped.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parent.parent / "src" / "stochmatch" / "cli.py"
MAIN_GUARD = "if __name__ == '__main__'"


def _is_main_guard(node):
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def _is_sys(node, attr):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def _sites(node, scope="<module>"):
    """(kind, enclosing function or main guard, line) of each exit site below node."""
    found = []
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        elif _is_main_guard(child):
            inner = MAIN_GUARD
        if _is_sys(child, "exit"):
            found.append(("sys.exit", scope, child.lineno))
        elif _is_sys(child, "stderr"):
            found.append(("sys.stderr", scope, child.lineno))
        elif (
            isinstance(child, ast.Return)
            and isinstance(child.value, ast.Constant)
            and child.value.value == 2
        ):
            found.append(("return 2", scope, child.lineno))
        found += _sites(child, inner)
    return found


def _scopes(kind):
    sites = _sites(ast.parse(CLI.read_text(encoding="utf-8")))
    return {scope for k, scope, _ in sites if k == kind}, sites


def test_sys_exit_only_under_the_main_guard():
    scopes, sites = _scopes("sys.exit")
    assert scopes == {MAIN_GUARD}, sites


def test_stderr_written_only_in_main():
    scopes, sites = _scopes("sys.stderr")
    assert scopes == {"main"}, sites


def test_status_2_returned_only_in_main():
    scopes, sites = _scopes("return 2")
    assert scopes == {"main"}, sites
