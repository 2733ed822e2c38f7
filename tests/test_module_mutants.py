"""Each subtle rule of core, solver and policy fails a named check when broken.

Each mutant replaces one text of one module with a plausible mistake.  It is
loaded as a fresh copy of the package under another name, in-process: the
mutated module is executed from its changed source, and the modules it
imports or that import it are loaded from their files under the same name,
so a core mutant reaches solver and policy.  Each mutant names the one check
that must fail on it; every check passes on an unmutated copy.  The checks
compare with the raw-state model and the reference DP of conftest, which
share nothing with core's packed keys.  A refactor that moves a mutated text
fails test_each_old_text_occurs_once; rewrite that pair to match the new code.
"""

import importlib
import itertools
import sys
import types
from pathlib import Path

import pytest

from conftest import (
    canonical_key,
    random_instances,
    raw_failure,
    raw_initial_state,
    raw_probeable_edges,
    raw_success,
    reference_dp,
)

import stochmatch

PACKAGE = Path(stochmatch.__file__).resolve().parent
SOURCES = {
    name: (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    for name in ("core", "solver", "policy")
}
_names = itertools.count()

# Small instances whose raw-state references are computed once; the last one
# mixes vertices with a patience field and vertices without one.
INSTANCES = random_instances(seed=28, count=12) + [
    stochmatch.Instance(
        n=4, edges=((0, 1, 0.3), (0, 2, 0.6), (1, 2, 0.5), (2, 3, 0.8)), patience=(5, 4, 2, 6)
    ),
]
REFERENCES = [reference_dp(inst) for inst in INSTANCES]
P4 = stochmatch.Instance(
    n=4, edges=((0, 1, 0.5), (1, 2, 0.51), (2, 3, 0.5)), patience=(2, 2, 2, 2)
)
DISJOINT = stochmatch.Instance(
    n=6, edges=((0, 1, 0.5), (2, 3, 0.5), (4, 5, 0.5)), patience=(1,) * 6
)


def _load(module=None, old="", new=""):
    """A fresh copy of the package, with old replaced by new in module's source."""
    name = f"_stochmatch_mutant_{next(_names)}"
    package = types.ModuleType(name)
    package.__path__ = [str(PACKAGE)]
    sys.modules[name] = package
    try:
        if module is not None:
            mutant = types.ModuleType(f"{name}.{module}")
            mutant.__package__ = name
            sys.modules[mutant.__name__] = mutant
            source = SOURCES[module].replace(old, new)
            exec(compile(source, str(PACKAGE / f"{module}.py"), "exec"), mutant.__dict__)
        for part in SOURCES:
            setattr(package, part, importlib.import_module(f"{name}.{part}"))
    finally:
        for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
            del sys.modules[key]
    return package


def _copy(pkg, inst):
    """inst as an instance of pkg, so its transition table is pkg's."""
    return pkg.core.Instance(inst.n, inst.edges, inst.patience)


# Killing checks: each takes a loaded package and returns whether it behaves.


def transitions_match_raw_model(pkg):
    """The root key, and both transitions of every reachable state, are the raw model's."""
    for inst, reference in zip(INSTANCES, REFERENCES):
        own = _copy(pkg, inst)
        rows = pkg.core.kernel(own)
        if pkg.core.initial_state(own) != canonical_key(inst, raw_initial_state(inst)):
            return False
        for s in reference:
            key = canonical_key(inst, s)
            for e in raw_probeable_edges(inst, s):
                children = (pkg.core.apply_success(rows, key, e), pkg.core.apply_failure(rows, key, e))
                raw = (raw_success(inst, s, e), raw_failure(inst, s, e))
                if children != tuple(canonical_key(inst, child) for child in raw):
                    return False
    return True


def state_count_matches_reference(pkg):
    """The root solve holds one key per distinct packed raw state."""
    return all(
        len(pkg.solver.optimal_value(_copy(pkg, inst))[1])
        == len({canonical_key(inst, s) for s in reference})
        for inst, reference in zip(INSTANCES, REFERENCES)
    )


def values_match_reference_dp(pkg):
    """The DP's root value and edge equal the raw-state DP's, exactly."""
    for inst, reference in zip(INSTANCES, REFERENCES):
        own = _copy(pkg, inst)
        root = pkg.solver.optimal_value(own)[1][pkg.core.initial_state(own)]
        if root != reference[raw_initial_state(inst)]:
            return False
    return True


def optimal_ties_break_by_lowest_index(pkg):
    """Three equal disjoint edges: the optimal policy probes edge 0 first."""
    own = _copy(pkg, DISJOINT)
    return pkg.solver.optimal_policy(own)(pkg.core.initial_state(own)) == 0


def optimal_policy_refuses_a_float_key(pkg):
    """The optimal policy refuses P4's root key as a float, though it equals the int key."""
    own = _copy(pkg, P4)
    try:
        pkg.solver.optimal_policy(own)(float(pkg.core.initial_state(own)))
    except ValueError:
        return True
    return False


def solve_refused_one_state_past_budget(pkg):
    """With the budget one below P4's state count, the solve raises SizeCapError."""
    own = _copy(pkg, P4)
    pkg.core.MAX_STATES = len(pkg.solver.optimal_value(own)[1]) - 1
    try:
        pkg.solver.optimal_value(own)
    except pkg.core.SizeCapError:
        return True
    return False


def stop_with_only_edge_0_alive_refused(pkg):
    """A policy that probes edges 2 and 1 and then stops, with edge 0 alive, is refused."""
    own = _copy(pkg, DISJOINT)  # patience 1 at degree 1: no fields, so a key is its alive bits

    def pol(key):
        return None if key == 1 else key.bit_length() - 1  # the highest alive edge

    try:
        pkg.policy.build_tree(own, pol)
    except ValueError as err:
        return "stopped while" in str(err)
    return False


def tree_children_are_the_outcomes(pkg):
    """In P4's optimal tree, each node's left child is its success state and right its failure."""
    own = _copy(pkg, P4)
    rows = pkg.core.kernel(own)
    stack = [pkg.policy.build_tree(own, pkg.solver.optimal_policy(own))]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            continue
        if (node.left.state, node.right.state) != (
            pkg.core.apply_success(rows, node.state, node.edge),
            pkg.core.apply_failure(rows, node.state, node.edge),
        ):
            return False
        stack += [node.left, node.right]
    return True


def greedy_ties_break_by_lowest_index(pkg):
    """Three equal disjoint edges: greedy probes edge 0 first."""
    own = _copy(pkg, DISJOINT)
    return pkg.policy.greedy_policy(own)(pkg.core.initial_state(own)) == 0


# name: (module, old text, new text, killing check)
MUTANTS = {
    # core
    "failure_decrements_one_endpoint": (
        "core",
        "(1 << e) + (field[u] & -field[u]) + (field[v] & -field[v]),",
        "(1 << e) + (field[u] & -field[u]),",
        transitions_match_raw_model,
    ),
    "success_keeps_a_field": (
        "core",
        "~(inc[u] | inc[v] | field[u] | field[v]),",
        "~(inc[u] | inc[v] | field[u]),",
        transitions_match_raw_model,
    ),
    "exhaustion_ignores_the_field": (
        "core",
        "    if key & ou and not key & fu:\n",
        "    if key & ou:\n",
        transitions_match_raw_model,
    ),
    "field_when_patience_equals_degree": (
        "core",
        "if t < inc[v].bit_count():",
        "if t <= inc[v].bit_count():",
        state_count_matches_reference,
    ),
    "root_patience_one_short": (
        "core",
        "root |= t << top",
        "root |= (t - 1) << top",
        transitions_match_raw_model,
    ),
    "stop_check_ignores_edge_0": (
        "core",
        "if key & ((1 << inst.m) - 1):",
        "if key & ((1 << inst.m) - 2):",
        stop_with_only_edge_0_alive_refused,
    ),
    # solver
    "tie_goes_to_the_highest_index": (
        "solver",
        "if val > best_val:",
        "if val >= best_val:",
        optimal_ties_break_by_lowest_index,
    ),
    "budget_allows_one_more_state": (
        "solver",
        "if len(memo) >= limit:",
        "if len(memo) > limit:",
        solve_refused_one_state_past_budget,
    ),
    "success_worth_p_times_vs": (
        "solver",
        "val = p * (1.0 + vs) + q * vf",
        "val = p * vs + q * vf",
        values_match_reference_dp,
    ),
    "failure_weighted_p": (
        "solver",
        "+ q * vf",
        "+ p * vf",
        values_match_reference_dp,
    ),
    "solve_exhaustion_ignores_the_field": (
        "solver",
        "if fail & ou and not fail & fu:",
        "if fail & ou:",
        values_match_reference_dp,
    ),
    "float_key_answered": (
        "solver",
        "entry = memo.get(key) if type(key) is int else None",
        "entry = memo.get(key)",
        optimal_policy_refuses_a_float_key,
    ),
    # policy
    "children_swapped": (
        "policy",
        "TreeNode(key, e, u, v, p, left, right, value)",
        "TreeNode(key, e, u, v, p, right, left, value)",
        tree_children_are_the_outcomes,
    ),
    "leaf_not_judged": (
        "policy",
        "check_stop(inst, key)\n",
        "pass\n",
        stop_with_only_edge_0_alive_refused,
    ),
    "greedy_ties_by_highest_index": (
        "policy",
        "key=lambda e: (-inst.edges[e][2], e)",
        "key=lambda e: (-inst.edges[e][2], -e)",
        greedy_ties_break_by_lowest_index,
    ),
}

# Mutants no check can catch, with the reason; they are not asserted.
EQUIVALENT = {
    # Both the transitions and _solve subtract e's bit (in dec) before they
    # test or clear an endpoint's other edges, so a mask that also holds e
    # clears nothing more.
    "failure_row_other_edges_include_e": (
        "core",
        "inc[u] & ~(1 << e) if field[u] else 0,",
        "inc[u] if field[u] else 0,",
    ),
}

# Every killing check once, in the order the mutants name them.
CHECKS = list(dict.fromkeys(check for *_, check in MUTANTS.values()))


def test_each_old_text_occurs_once():
    for module, old, *_ in [*MUTANTS.values(), *EQUIVALENT.values()]:
        assert SOURCES[module].count(old) == 1, old


def test_mutants_per_module():
    counts = {module: 0 for module in SOURCES}
    for module, *_ in MUTANTS.values():
        counts[module] += 1
    assert counts["core"] >= 6 and counts["solver"] >= 6 and counts["policy"] >= 3, counts


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_unmutated_copy_passes(check):
    assert check(_load())


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(name):
    module, old, new, check = MUTANTS[name]
    assert not check(_load(module, old, new))
