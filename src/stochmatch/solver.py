"""Exact optimal expected value via dynamic programming over states.

The value recursion: V(s) = 0 if no edge is probeable, otherwise the max over
probeable edges e of p_e * (1 + V(success)) + (1 - p_e) * V(failure).
Argmax ties break by ascending edge index under exact float comparison.

The memo is keyed by canonical packed states: a key never has an alive edge
at a vertex whose patience is exhausted, so alive and probeable coincide, and
two states that differ only in such dead edges are solved once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import initial_state

LEMMA_TOL = 1e-9


def _kernel(inst):
    """The packed state key of an instance and its per-edge transition data.

    A key is one int: the alive-edge bits are its low m bits, and above them
    sits one w-bit patience field per vertex, w = max(patience).bit_length().
    Keys are canonical: no key has an alive edge at a vertex whose field is 0,
    so an alive edge is a probeable one, and states with the same future share
    one key.  Returns (pack, alive mask, edges); pack maps a State to its key,
    clearing the edges of its exhausted vertices, and edges[e] is (field of u,
    field of v, u's other edges, v's other edges, success mask, failure
    decrement, p, 1 - p).  A success child is key & keep; a failure child is
    key - dec, less the other edges of an endpoint whose field reaches 0.
    """
    m, n = inst.m, inst.n
    w = max(inst.patience, default=0).bit_length()
    unit = [1 << (m + w * v) for v in range(n)]
    fields = [((1 << w) - 1) * b for b in unit]
    inc = inst.incidence
    edges = [
        (
            fields[u],
            fields[v],
            inc[u] & ~(1 << e),
            inc[v] & ~(1 << e),
            ~(inc[u] | inc[v] | fields[u] | fields[v]),
            (1 << e) + unit[u] + unit[v],
            p,
            1.0 - p,
        )
        for e, (u, v, p) in enumerate(inst.edges)
    ]
    mask = (1 << m) - 1
    limit = 1 << w

    def pack(s):
        if s.alive >> m or len(s.patience_left) != n:
            raise ValueError("state does not fit this instance")
        key = 0
        alive = s.alive
        for v in reversed(range(n)):
            t = s.patience_left[v]
            if not 0 <= t < limit:
                raise ValueError("state does not fit this instance")
            if not t:
                alive &= ~inc[v]
            key = (key << w) | t
        return (key << m) | alive

    return pack, mask, edges


def _solve(key, mask, edges, memo):
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
        fu, fv, ou, ov, keep, dec, p, q = edges[e]
        succ = key & keep
        fail = key - dec
        if fail & ou and not fail & fu:
            fail -= fail & ou
        if fail & ov and not fail & fv:
            fail -= fail & ov
        vs = (memo.get(succ) or _solve(succ, mask, edges, memo))[0]
        vf = (memo.get(fail) or _solve(fail, mask, edges, memo))[0]
        val = p * (1.0 + vs) + q * vf
        if val > best_val:
            best_val = val
            best_edge = e
    entry = memo[key] = (best_val, best_edge)
    return entry


def optimal_value(inst, force=False):
    """Optimal expected matched count and the memo of solved states.

    The memo maps packed int state keys (see _kernel) to (value, best edge
    or None); state_value and optimal_policy key a shared memo the same way.
    """
    inst.check_caps(force)
    memo = {}
    pack, mask, edges = _kernel(inst)
    value, _ = _solve(pack(initial_state(inst)), mask, edges, memo)
    return value, memo


def state_value(inst, s, memo=None):
    """Optimal value of an arbitrary state (lazy; shares memo if given)."""
    if memo is None:
        memo = {}
    pack, mask, edges = _kernel(inst)
    key = pack(s)
    return (memo.get(key) or _solve(key, mask, edges, memo))[0]


def optimal_policy(inst, force=False, memo=None):
    """Deterministic policy reading argmax choices from the DP, lazily.

    States never reached during the initial solve are solved on demand, so
    the policy is optimal on every state, reachable or not.  It fills memo if
    given.  Decisions already made are kept per policy under the State's own
    fields, so a repeated decision costs one dict read and no packing.
    """
    inst.check_caps(force)
    memo = {} if memo is None else memo
    pack, mask, edges = _kernel(inst)
    decided = {}

    def choose(s):
        state = (s.alive, s.patience_left)
        try:
            return decided[state]
        except KeyError:
            key = pack(s)
            e = decided[state] = (memo.get(key) or _solve(key, mask, edges, memo))[1]
            return e

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
