"""Exact optimal expected value via dynamic programming over states.

The value recursion: V(s) = 0 if no edge is probeable, otherwise the max over
probeable edges e of p_e * (1 + V(success)) + (1 - p_e) * V(failure).
Argmax ties break by ascending edge index under exact float comparison.

The memo is keyed by canonical packed states (see core.kernel), so alive and
probeable coincide and states with the same future are solved once.  _solve
inlines core's apply_success and apply_failure: it is the DP's inner loop,
and only optimal_value calls it, once, from the root.  That root solve holds
every state any policy on the instance can reach, so the optimal policy is a
read of its memo.
"""

from __future__ import annotations

from .core import SizeCapError, initial_state, kernel, state_budget


def _solve(key, mask, rows, memo, limit):
    """(value, best edge or None) of a canonical packed state not yet in memo.

    Every alive edge of a canonical key is probeable, and both children are
    canonical again.  Alive edges are tried in ascending index order and only
    a strictly larger value replaces the best, so argmax ties break by lowest
    index.  SizeCapError rather than store more than limit states.
    """
    best_val = 0.0
    best_edge = None
    alive = key & mask
    while alive:
        low = alive & -alive
        alive ^= low
        e = low.bit_length() - 1
        fu, fv, ou, ov, keep, dec, p, q = rows[e]
        succ = key & keep
        fail = key - dec
        if fail & ou and not fail & fu:
            fail -= fail & ou
        if fail & ov and not fail & fv:
            fail -= fail & ov
        vs = (memo.get(succ) or _solve(succ, mask, rows, memo, limit))[0]
        vf = (memo.get(fail) or _solve(fail, mask, rows, memo, limit))[0]
        val = p * (1.0 + vs) + q * vf
        if val > best_val:
            best_val = val
            best_edge = e
    if len(memo) >= limit:
        raise SizeCapError(f"the solve needs more than {limit:,} states")
    entry = memo[key] = (best_val, best_edge)
    return entry


def optimal_value(inst, force=False):
    """Optimal expected matched count and the memo of solved states.

    The memo maps canonical packed state keys (see core.kernel) to (value,
    best edge or None); it holds every state reachable from the initial
    state, and optimal_policy reads it.  Beyond core.MAX_STATES states:
    SizeCapError, unless force.
    """
    memo = {}
    mask, limit = (1 << inst.m) - 1, state_budget(force)
    value, _ = _solve(initial_state(inst), mask, kernel(inst), memo, limit)
    return value, memo


def optimal_policy(inst, force=False, memo=None):
    """Deterministic policy reading argmax choices from a root solve's memo.

    memo is the one optimal_value returned for inst; without it, inst is
    solved once, here, under core.MAX_STATES unless force.  A decision is one
    memo read.  The memo holds every state reachable from the initial state,
    so a key missing from it is not one a policy on inst can meet: ValueError,
    and the memo is left as it was.
    """
    if memo is None:
        _, memo = optimal_value(inst, force)

    def choose(key):
        entry = memo.get(key)
        if entry is None:
            raise ValueError("state key is not reachable in this instance")
        return entry[1]

    return choose
