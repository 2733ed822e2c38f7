"""Seeded Monte Carlo estimation of a policy's expected matched count.

Draws come from the standard library's Mersenne Twister,
random.Random(seed).random, whose sequence for a given int seed Python's
docs guarantee not to change across Python versions, so results are
bit-reproducible for a fixed (instance, policy, trials, seed).

A policy must be a function of the state key (as build_tree and
policy_value also assume): simulate consults it once per distinct state per
call and caches that state's step, in a cache bounded by the state budget
(core.MAX_STATES); past the budget, states are stepped without caching.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .core import apply_failure, apply_success, check_stop, initial_state, kernel, state_budget

_MASK64 = (1 << 64) - 1
_STOP = (None, 0.0, 0, 0, 0)


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
    the state key: it is called once per distinct state per call, and the
    state's step (edge, p, endpoints, both children) is cached for later
    visits until the cache holds core.MAX_STATES entries.  Raises
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
    root = initial_state(inst)
    steps = {}
    room = state_budget()
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        key = root
        used = 0  # bitmask of matched vertices
        matched = 0
        while True:
            step = steps.get(key)
            if step is None:
                step = _step(inst, rows, pol, key)
                if len(steps) < room:
                    steps[key] = step
            e, p, ends, success, failure = step
            if e is None:
                break
            if draw() < p:
                if used & ends:
                    raise RuntimeError(f"edge {e} matched an already matched vertex")
                used |= ends
                matched += 1
                key = success
            else:
                key = failure
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


def _step(inst, rows, pol, key):
    """(edge, p, endpoint bitmask, success key, failure key) at key."""
    e = pol(key)
    if e is None:
        check_stop(inst, key)
        return _STOP
    succ, fail = apply_success(rows, key, e), apply_failure(rows, key, e)
    u, v, p = inst.edges[e]
    return e, p, 1 << u | 1 << v, succ, fail
