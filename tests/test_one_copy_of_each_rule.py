"""Each rule about an instance or a key is written once under src/stochmatch.

core.check_stop holds the one message for a policy that stops while an edge
is alive, and only the two places that ask a policy, policy._build and
montecarlo._step, call it.  parse_instance leaves the probability range to
Instance.  The
CLI parses and the library judges: argparse converts each value with int or
float, and the code that uses the value is the one that checks it.  One
function of proofcheck, its judge, alone reads TOL, and the CLI computes no
ratio and judges no bound of its own.
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


def test_check_stop_called_only_where_a_policy_runs():
    # build_tree and simulate ask the policy, so they alone judge its stops;
    # every other check of a policy goes through build_tree.
    callers = [
        (name, function.name)
        for name, tree in _trees().items()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and "check_stop" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert sorted(callers) == [("montecarlo.py", "_step"), ("policy.py", "_build")]


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


def test_cli_types_are_only_int_or_float():
    tree = _trees()["cli.py"]
    named = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and "ArgumentTypeError" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    assert named == []
    types = [
        ast.unparse(keyword.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "add_argument"
        for keyword in node.keywords
        if keyword.arg == "type"
    ]
    assert types and set(types) <= {"int", "float"}


def _tol_reads(tree):
    """Each node that reads or imports TOL."""
    return {
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "TOL" and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == "TOL")
        or (isinstance(node, ast.alias) and node.name == "TOL")
    }


def test_tol_is_read_by_one_judge():
    trees = _trees()
    elsewhere = [
        name for name, tree in trees.items() if name != "proofcheck.py" and _tol_reads(tree)
    ]
    assert elsewhere == []
    proofcheck = trees["proofcheck.py"]
    readers = [
        node
        for node in ast.walk(proofcheck)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _tol_reads(node)
    ]
    assert len(readers) == 1
    assert _tol_reads(readers[0]) == _tol_reads(proofcheck)


def test_cli_divides_by_nothing_and_spells_no_factor_2():
    tree = _trees()["cli.py"]
    found = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, (ast.Div, ast.FloorDiv)))
        or (isinstance(node, ast.Constant) and type(node.value) is float and node.value == 2.0)
    ]
    assert found == []
