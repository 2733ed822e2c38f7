"""Exact optimal expected value via dynamic programming over states.

The value recursion: V(s) = 0 if no edge is probeable, otherwise the max over
probeable edges e of p_e * (1 + V(success)) + (1 - p_e) * V(failure).
Argmax ties break by ascending edge index under exact float comparison.

The memo is keyed by canonical packed states (see core.kernel), so alive and
probeable coincide and states with the same future are solved once.  _solve
inlines core's apply_success and apply_failure: it is the DP's inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import check_key, initial_state, kernel

LEMMA_TOL = 1e-9


def _solve(key, mask, rows, memo):
    """(value, best edge or None) of a canonical packed state not yet in memo.

    Every alive edge of a canonical key is probeable, and both children are
    canonical again.  Alive edges are tried in ascending index order and only
    a strictly larger value replaces the best, so argmax ties break by lowest
    index.
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
        vs = (memo.get(succ) or _solve(succ, mask, rows, memo))[0]
        vf = (memo.get(fail) or _solve(fail, mask, rows, memo))[0]
        val = p * (1.0 + vs) + q * vf
        if val > best_val:
            best_val = val
            best_edge = e
    entry = memo[key] = (best_val, best_edge)
    return entry


def optimal_value(inst, force=False):
    """Optimal expected matched count and the memo of solved states.

    The memo maps canonical packed state keys (see core.kernel) to (value,
    best edge or None); state_value and optimal_policy key a shared memo the
    same way.
    """
    inst.check_caps(force)
    memo = {}
    value, _ = _solve(initial_state(inst), (1 << inst.m) - 1, kernel(inst), memo)
    return value, memo


def state_value(inst, key, memo=None):
    """Optimal value of a canonical state key (lazy; shares memo if given)."""
    check_key(inst, key)
    memo = {} if memo is None else memo
    return (memo.get(key) or _solve(key, (1 << inst.m) - 1, kernel(inst), memo))[0]


def optimal_policy(inst, force=False, memo=None):
    """Deterministic policy reading argmax choices from the DP, lazily.

    States never reached during the initial solve are solved on demand, so
    the policy is optimal on every state, reachable or not.  It fills memo if
    given.  A decision is one memo read; a key missing from the memo is
    checked (ValueError if it is not a canonical key of inst) and solved.
    The transition rows are built on the first miss, so a policy over a memo
    that already holds every state it is asked about never builds them.
    """
    inst.check_caps(force)
    memo = {} if memo is None else memo
    mask = (1 << inst.m) - 1
    rows = None

    def choose(key):
        nonlocal rows
        entry = memo.get(key)
        if entry is None:
            check_key(inst, key)
            if rows is None:
                rows = kernel(inst)
            entry = _solve(key, mask, rows, memo)
        return entry[1]

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


def _first_paths(t):
    """Each distinct node of a tree once, with its first path (L before R)."""
    seen = set()
    stack = [(t, "")]
    while stack:
        node, path = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node, path
        if not node.is_leaf:
            stack.append((node.right, path + "R"))
            stack.append((node.left, path + "L"))


def check_lemma31(t):
    """Check E T(v) <= E L(v) + 1 at each distinct internal node of an optimal tree."""
    report = LemmaReport()
    for node, path in _first_paths(t):
        if node.is_leaf:
            continue
        margin = node.value - node.left.value
        report.nodes_checked += 1
        report.max_margin = max(report.max_margin, margin)
        if margin > 1.0 + LEMMA_TOL:
            report.violations.append((path, margin))
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
    """Check that each distinct subtree's value matches the optimum of its state."""
    report = OptimalityReport()
    memo = {}
    for node, path in _first_paths(t):
        opt = state_value(inst, node.state, memo)
        gap = abs(opt - node.value)
        report.nodes_checked += 1
        report.max_gap = max(report.max_gap, gap)
        if gap > LEMMA_TOL:
            report.violations.append((path, node.value, opt))
    return report
