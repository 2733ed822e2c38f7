"""Exact optimal expected value via dynamic programming over states.

The value recursion: V(s) = 0 if no edge is probeable, otherwise the max over
probeable edges e of p_e * (1 + V(success)) + (1 - p_e) * V(failure).
Argmax ties break by ascending edge index under exact float comparison.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .core import initial_state
from .policy import subtree_value

LEMMA_TOL = 1e-9


def _solve(inst, alive, patience, memo):
    """Value and best edge for a raw (alive mask, patience tuple) state."""
    key = (alive, patience)
    cached = memo.get(key)
    if cached is not None:
        return cached
    edges = inst.edges
    best_val = 0.0
    best_edge = None
    for e in range(len(edges)):
        if not (alive >> e) & 1:
            continue
        u, v, p = edges[e]
        if patience[u] <= 0 or patience[v] <= 0:
            continue
        succ_alive = alive & ~(inst.incidence[u] | inst.incidence[v])
        succ_pat = list(patience)
        succ_pat[u] = 0
        succ_pat[v] = 0
        fail_pat = list(patience)
        fail_pat[u] -= 1
        fail_pat[v] -= 1
        val = p * (
            1.0 + _solve(inst, succ_alive, tuple(succ_pat), memo)[0]
        ) + (1.0 - p) * _solve(inst, alive & ~(1 << e), tuple(fail_pat), memo)[0]
        if val > best_val:
            best_val = val
            best_edge = e
    memo[key] = (best_val, best_edge)
    return memo[key]


def optimal_value(inst, force=False):
    """Optimal expected matched count and the memo of solved states.

    The memo maps state_key bytes to (value, best edge or None).
    """
    inst.check_caps(force)
    memo = {}
    s0 = initial_state(inst)
    value, _ = _solve(inst, s0.alive, s0.patience_left, memo)
    by_key = {
        state_key_raw(alive, pat): entry for (alive, pat), entry in memo.items()
    }
    return value, by_key


def state_key_raw(alive, patience):
    return struct.pack("<I", alive) + bytes(patience)


def state_value(inst, s, memo=None):
    """Optimal value of an arbitrary state (lazy; shares memo if given)."""
    if memo is None:
        memo = {}
    return _solve(inst, s.alive, s.patience_left, memo)[0]


def optimal_policy(inst, force=False, memo=None):
    """Deterministic policy reading argmax choices from the DP, lazily.

    States never reached during the initial solve are solved on demand, so
    the policy is optimal on every state, reachable or not.  It fills memo if given.
    """
    inst.check_caps(force)
    memo = {} if memo is None else memo

    def choose(s):
        return _solve(inst, s.alive, s.patience_left, memo)[1]

    return choose


@dataclass
class LemmaReport:
    """Per-node margins E T(v) - E L(v) for the one-plus-left-subtree bound."""

    max_margin: float = float("-inf")
    nodes_checked: int = 0
    violations: list = field(default_factory=list)  # (path, margin)

    @property
    def ok(self):
        return not self.violations


def check_lemma31(t):
    """Check E T(v) <= E L(v) + 1 at every internal node of an optimal tree."""
    report = LemmaReport()

    def walk(node, path):
        if node.is_leaf:
            return 0.0
        lval = walk(node.left, path + "L")
        rval = walk(node.right, path + "R")
        val = node.p * (1.0 + lval) + (1.0 - node.p) * rval
        margin = val - lval
        report.nodes_checked += 1
        if margin > report.max_margin:
            report.max_margin = margin
        if margin > 1.0 + LEMMA_TOL:
            report.violations.append((path, margin))
        return val

    walk(t, "")
    return report


@dataclass
class OptimalityReport:
    """Gap between each subtree's value and the optimum of its state."""

    max_gap: float = 0.0
    nodes_checked: int = 0
    violations: list = field(default_factory=list)  # (path, subtree value, optimal value)

    @property
    def ok(self):
        return not self.violations


def check_subtree_optimality(inst, t):
    """Check that every subtree's value matches the optimum of its state."""
    report = OptimalityReport()
    memo = {}

    def walk(node, path):
        val = subtree_value(node)
        opt = state_value(inst, node.state, memo)
        gap = opt - val
        report.nodes_checked += 1
        if abs(gap) > report.max_gap:
            report.max_gap = abs(gap)
        if abs(gap) > LEMMA_TOL:
            report.violations.append((path, val, opt))
        if not node.is_leaf:
            walk(node.left, path + "L")
            walk(node.right, path + "R")

    walk(t, "")
    return report
