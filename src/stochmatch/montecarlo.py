"""Seeded Monte Carlo estimation of a policy's expected matched count.

Draws come from the standard library's Mersenne Twister,
random.Random(seed).random, whose sequence for a given int seed Python's
docs guarantee not to change across Python versions, so results are
bit-reproducible for a fixed (instance, policy, trials, seed).

A policy must be a function of the state key (as build_tree and
policy_value also assume).  Each simulate call walks a graph of linked state
nodes that it builds as its trials go and drops when it returns.  A state's
node is made empty, holding only its key, when the state is first reached as
a child, and is filled in the first time a trial enters it: the policy's
edge, p, the endpoint bitmask and both child nodes.  So the policy is called
once per distinct state per call, and a trial moves from node to node with no
lookup.  At most core.MAX_STATES nodes are kept; a child past that budget is
not kept, so its state is stepped again on every visit.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .core import apply_failure, apply_success, check_stop, initial_state, kernel, state_budget

_MASK64 = (1 << 64) - 1
_STOP = (None, None, 0, 0, 0)  # a stop state's node: no edge and no p


class SimResult(NamedTuple):
    trials: int
    mean: float
    stddev: float
    ci95_halfwidth: float
    seed: int


def simulate(inst, pol, trials, seed):
    """Run independent trajectories of a policy and summarize matched counts.

    Each probe takes one draw u from random.Random(seed & (2**64 - 1)) and
    succeeds iff u < p, so p = 1 always succeeds.  pol must be a function of
    the state key: it is called once per distinct state per call, when a
    trial first enters the state's node, which then links to both child
    nodes.  At most core.MAX_STATES nodes are kept; past that, a state is
    stepped on every visit.  Raises
    RuntimeError if a trajectory's matched edges are not a matching, and
    ValueError if trials is not an int >= 1 or seed not an int (a bool is
    neither), or if the policy picks an edge that is not alive (any index
    outside range(inst.m)) or stops while one is.
    """
    if type(trials) is not int or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    draw = random.Random(seed & _MASK64).random
    rows = kernel(inst)
    nodes = {}
    room = state_budget()
    head = _empty(nodes, room, initial_state(inst))
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        node = head
        used = 0  # bitmask of matched vertices
        matched = 0
        while True:
            e, p, ends, success, failure = node
            if e is None:
                if p is None:  # a stop state
                    break
                node = _step(inst, rows, pol, nodes, room, node)
                continue
            if draw() < p:
                if used & ends:
                    raise RuntimeError(f"edge {e} matched an already matched vertex")
                used |= ends
                matched += 1
                node = success
            else:
                node = failure
        total += matched
        total_sq += matched * matched
    mean = total / trials
    variance = max(total_sq / trials - mean * mean, 0.0)
    stddev = math.sqrt(variance)
    return SimResult(
        trials=trials,
        mean=mean,
        stddev=stddev,
        ci95_halfwidth=1.96 * stddev / math.sqrt(trials),
        seed=seed,
    )


def _empty(nodes, room, key):
    """A new empty node of state key, kept in nodes while they number fewer
    than room.  One past the budget is a tuple, never filled in place, so its
    state is stepped again at every visit."""
    if len(nodes) < room:
        node = nodes[key] = [None, key, 0, 0, 0]
        return node
    return (None, key, 0, 0, 0)


def _step(inst, rows, pol, nodes, room, node):
    """Fill in an empty node: (edge, p, endpoint bitmask, success node,
    failure node), or _STOP.  A kept node (a list) is filled in place, and
    each child node is read from nodes or made empty there."""
    key = node[1]
    e = pol(key)
    if e is None:
        check_stop(inst, key)
        filled = _STOP
    else:
        succ, fail = apply_success(rows, key, e), apply_failure(rows, key, e)
        u, v, p = inst.edges[e]  # after the transitions, which judge e
        filled = (
            e,
            p,
            1 << u | 1 << v,
            nodes.get(succ) or _empty(nodes, room, succ),
            nodes.get(fail) or _empty(nodes, room, fail),
        )
    if type(node) is list:
        node[:] = filled
    return filled
