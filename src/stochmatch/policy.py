"""Deterministic adaptive policies and exact decision-tree evaluation.

A policy is a callable mapping a state key (see core.kernel) to the edge
index it probes next, or None to stop.  Stop is only legal (and mandatory)
when no edge is alive: every alive edge of a key is probeable.
Decision trees materialize a policy's full branching structure: left child is
the successful probe, right child the failed one.  Equal states share one
node, so a tree is a DAG whose paths are the policy's probe histories.  Each
node carries its subtree's value (t.value), computed once when it is built;
policy_value is the one public reader of a policy's value.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    SizeCapError, apply_failure, apply_success, check_stop, initial_state, kernel, state_budget,
)


class TreeNode(NamedTuple):
    """Decision tree node, an immutable named tuple.  Leaf iff edge is None.

    Internal nodes record the probed edge, its endpoints and success
    probability; left is the success branch, right the failure branch.
    value is the subtree's expected matched count,
    p * (1 + left.value) + (1 - p) * right.value, and 0 at a leaf.
    """

    state: int  # the node's state key
    edge: object = None  # edge index, or None for a leaf
    u: int = -1
    v: int = -1
    p: float = 0.0
    left: object = None
    right: object = None
    value: float = 0.0

    @property
    def is_leaf(self):
        return self.edge is None


def greedy_policy(inst):
    """Probe the alive edge with highest p, ties by lowest edge index."""
    order = sorted(range(inst.m), key=lambda e: (-inst.edges[e][2], e))

    def choose(key):
        for e in order:
            if key >> e & 1:
                return e
        return None

    return choose


def build_tree(inst, pol, force=False):
    """Materialize the full decision tree of a policy.

    A policy is a function of the state key, so equal states get the same
    subtree: each distinct state is handed to the policy and built once, and
    its node is shared by every path that reaches it.  Beyond core.MAX_STATES
    nodes: SizeCapError, unless force.
    """
    return _build(inst, kernel(inst), pol, initial_state(inst), {}, state_budget(force))


def _build(inst, rows, pol, key, nodes, limit):
    """The node of state key, built once per state and kept in nodes.

    A module-level function rather than a closure, so no reference cycle
    keeps the policy (and any memo it holds) alive after the build.
    """
    node = nodes.get(key)
    if node is not None:
        return node
    e = pol(key)
    if e is None:
        check_stop(inst, key)
        node = TreeNode(key)
    else:
        left = _build(inst, rows, pol, apply_success(rows, key, e), nodes, limit)
        right = _build(inst, rows, pol, apply_failure(rows, key, e), nodes, limit)
        u, v, p = inst.edges[e]  # after the transitions, which judge e
        value = p * (1.0 + left.value) + (1.0 - p) * right.value
        node = TreeNode(key, e, u, v, p, left, right, value)
    if len(nodes) >= limit:
        raise SizeCapError(f"the decision tree needs more than {limit:,} nodes")
    nodes[key] = node
    return node


def tree_value(t):  # t.value; kept only because perfbench's solve workload and tracer read it
    return t.value


def policy_value(inst, pol, force=False):
    """Expected matched count of a policy that is a function of the state key."""
    return build_tree(inst, pol, force).value

