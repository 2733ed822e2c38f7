"""Numerical verification of the greedy 2-approximation argument.

The checked chain bounds the optimum by two filtered policies (one for the
instance after greedy's first probe ab succeeds, one for after it fails) plus
closed-form residuals, and ends at the factor-2 bound against greedy.
check_chain solves the DP once and walks the optimal policy's state keys
over that memo, reading each key's edge from it, with no decision tree.
That one walk gives OPT' (descend left at ab), the filtered values ALG_L
and ALG_R, and the path-event masses; the public transform_optprime,
value_algL and value_algR each solve once and read one value from the same
walk.  Greedy's tree gives ab and greedy's value, and the induction
endpoints are the memo's values at its root children, the states after ab
succeeds and after it fails.  The events module, through check_key_lemma(inst,
ab) on inst's optimal tree, is the reference specification of those events.

check_lemma31 (E T(v) <= E L(v) + 1) checks an optimal tree node by node,
and check_subtree_optimality checks any tree of the instance against the
root solve's memo.  holds is the one judge, the only code that compares a
slack with TOL, the one float tolerance: for the chain's relations, both
node checks and the ratio command's exit status, the chain's final relation.
A conditional on "ab never probed" is undefined iff that event's mass is
exactly 0, and then counts as 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import apply_failure, apply_success, initial_state, kernel
from .events import (
    FailsKthOfVertex,
    Not,
    ProbesEdge,
    TakesVertex,
    TakesVertexAtKth,
    conditional_probability,
    event_probability,  # unused here, but perfbench/tracing.py rebinds it
)
from .policy import TreeNode, build_tree, greedy_policy, subtree_value
from .solver import optimal_policy, optimal_value

TOL = 1e-9

# Relation keys in chain order (i)..(ix), each with its kind for holds.
RELATIONS = (
    ("optp", "le"),
    ("optl", "eq"),
    ("optr", "eq"),
    ("algl", "le"),
    ("baseineq", "le"),
    ("keylem", "le"),
    ("combined", "le"),
    ("induction", "le"),
    ("final", "le"),
)


def holds(slack, kind="le"):
    """The one verdict: "le" (slack = rhs - lhs) iff slack >= -TOL, "eq" iff |slack| <= TOL."""
    return abs(slack) <= TOL if kind == "eq" else slack >= -TOL


def factor2_slack(e_opt, e_grd):
    """Slack of the final relation E[OPT] <= 2 E[GRD]."""
    return 2.0 * e_grd - e_opt


def opt_grd_ratio(e_opt, e_grd):
    """E[OPT] / E[GRD], and 1.0 when greedy's value is 0."""
    return e_opt / e_grd if e_grd > 0 else 1.0


def transform_optprime(inst, ab):
    """OPT's value, modified to descend left after every probe of ab.

    A state probing ab contributes p_ab plus its success child's value with
    full weight; every other state is unchanged.  ValueError unless ab is an edge of inst.
    """
    return _walk(inst, optimal_value(inst)[1], ab)[0]


def value_algL(inst, ab):
    """OPT's value with every probe touching an endpoint of ab muted.

    Muted probes contribute nothing but still branch with their original probabilities;
    probes of ab descend left with weight 1.  ValueError unless ab is an edge of inst.
    """
    return _walk(inst, optimal_value(inst)[1], ab)[1]


def value_algR(inst, ab):
    """OPT's value with probes invalid on the failure-reduced instance muted.

    A probe is invalid if it is ab itself, or ab has not been probed earlier
    on the path and this is the t_alpha-th probe touching alpha or the
    t_beta-th probe touching beta.  Once ab is probed, the endpoint patience
    of the reduced instance aligns with the original and every later probe is
    valid.  Invalid probes contribute nothing but branch with their original
    probabilities.  ValueError unless ab is an edge of inst.
    """
    return _walk(inst, optimal_value(inst)[1], ab)[2]


class KeyLemmaResult(NamedTuple):
    lhs: float
    rhs_lemma: float
    rhs_corollary: float

    @property
    def lemma_slack(self):
        return self.rhs_lemma - self.lhs

    @property
    def corollary_slack(self):
        return self.rhs_corollary - self.lhs

    @property
    def ok(self):
        return holds(self.lemma_slack) and holds(self.corollary_slack)


def check_key_lemma(inst, ab):
    """The key lemma at alpha and at beta, ab's endpoints, on inst's optimal tree, built here.

    Each KeyLemmaResult bounds the take-at-last-probe term by the all-probes-failed term.
    ValueError unless ab is an edge of inst and p_ab the maximum edge probability.  When the
    conditioning event (ab never probed) has mass exactly 0, its conditionals are undefined
    and count as 0, so all terms are 0.
    """
    apply_success(kernel(inst), initial_state(inst), ab)  # every edge is alive at the root
    alpha, beta, p_ab = inst.edges[ab]
    if any(p > p_ab for _, _, p in inst.edges):
        raise ValueError("p_ab must be the maximum edge probability")
    t, not_probe = build_tree(inst, optimal_policy(inst)), Not(ProbesEdge(ab))

    def cond(event):
        return conditional_probability(t, event, not_probe) or 0.0

    return tuple(
        KeyLemmaResult((1.0 - p_ab) / p_ab * cond(TakesVertexAtKth(g, inst.patience[g])),
                       cond(FailsKthOfVertex(g, inst.patience[g])), cond(Not(TakesVertex(g))))
        for g in (alpha, beta)
    )


def _walk(inst, memo, ab):
    """OPT', ALG_L, ALG_R and the path masses, from one walk of OPT's keys.

    memo is inst's root solve.  Returns transform_optprime's, value_algL's
    and value_algR's values, P(ab probed), P(ab never probed) and, for each
    of ab's endpoints alpha and beta, the masses of never-probed paths that
    take the vertex, take it at its patience-th touch, fail that touch and
    never take it.

    Going down, a path carries whether ab is still unprobed (never) and, per
    endpoint, its touch count (c) and whether it took the vertex (took).  A
    vertex is touched at most its patience times and never after a take
    (both transitions clear the edges of a matched or exhausted vertex, and
    one with no patience field has degree at most its patience), so a path
    made the patience-th touch iff c equals the patience, and took the
    vertex there iff took.  Leaf masses are summed in event_probability's
    order, so they match the events module's.  Coming up, each key combines
    its children's three values.
    """
    rows, edges = kernel(inst), inst.edges
    apply_success(rows, initial_state(inst), ab)  # every edge is alive at the root
    alpha, beta, _ = edges[ab]
    k_alpha, k_beta = inst.patience[alpha], inst.patience[beta]
    probe = [0.0, 0.0]
    acc_a, acc_b = [0.0] * 4, [0.0] * 4

    def walk(key, prob, never, ca, took_a, cb, took_b):
        e = memo[key][1]
        if e is None:
            probe[never] += prob
            if never:
                acc_a[0 if took_a else 3] += prob
                if ca == k_alpha:
                    acc_a[1 if took_a else 2] += prob
                acc_b[0 if took_b else 3] += prob
                if cb == k_beta:
                    acc_b[1 if took_b else 2] += prob
            return 0.0, 0.0, 0.0
        u, v, p = edges[e]
        is_ab = e == ab
        never = never and not is_ab
        touch_a = u == alpha or v == alpha
        touch_b = u == beta or v == beta
        ca += touch_a
        cb += touch_b
        opt_l, alg_l_l, alg_r_l = walk(apply_success(rows, key, e), prob * p, never,
                                       ca, took_a or touch_a, cb, took_b or touch_b)
        opt_r, alg_l_r, alg_r_r = walk(apply_failure(rows, key, e), prob * (1.0 - p), never,
                                       ca, took_a, cb, took_b)
        if is_ab:
            opt, alg_l = p + opt_l, alg_l_l
        else:
            opt = p * (1.0 + opt_l) + (1.0 - p) * opt_r
            alg_l = p * alg_l_l + (1.0 - p) * alg_l_r
            if not (touch_a or touch_b):
                alg_l = p + alg_l
        alg_r = p * alg_r_l + (1.0 - p) * alg_r_r
        if not (is_ab or (never and (touch_a and ca == k_alpha or touch_b and cb == k_beta))):
            alg_r = p + alg_r
        return opt, alg_l, alg_r

    values = walk(initial_state(inst), 1.0, True, 0, False, 0, False)
    del walk  # walk's cell refers to walk: break that cycle, so memo is freed now
    return (*values, probe[0], probe[1], acc_a, acc_b)


class ChainReport(NamedTuple):
    """All quantities and verdicts for the proof chain on one instance."""

    instance_id: str
    ab: int
    alpha: int
    beta: int
    p_ab: float
    e_opt: float
    e_grd: float
    e_optprime: float
    e_algL: float
    e_RL: float
    e_algR: float
    e_RR: float
    p_probe_ab: float
    cond_take_alpha: float
    cond_take_beta: float
    cond_take_alpha_kth: float
    cond_take_beta_kth: float
    keylem_alpha: KeyLemmaResult
    keylem_beta: KeyLemmaResult
    slacks: dict
    verdicts: dict

    @property
    def ratio(self):
        return opt_grd_ratio(self.e_opt, self.e_grd)

    @property
    def passed(self):
        return all(self.verdicts.values())

    @staticmethod
    def csv_header():
        names = [name for name, _ in RELATIONS]
        return ["instance_id", "p_ab", "e_opt", "e_grd", "ratio"] + [
            f"slack_{name}" for name in names
        ]

    def csv_row(self):
        values = [self.p_ab, self.e_opt, self.e_grd, self.ratio]
        values += [self.slacks[name] for name, _ in RELATIONS]
        return [self.instance_id] + [repr(x) for x in values]


def check_chain(inst, instance_id="", force=False):
    """Verify every relation of the proof chain on one nonempty instance."""
    if inst.m == 0:
        raise ValueError("chain check requires at least one edge")

    # Greedy's root probes its first edge, the max-probability edge ab.
    grd_tree = build_tree(inst, greedy_policy(inst), force=force)
    ab = grd_tree.edge
    alpha, beta, p_ab = inst.edges[ab]
    r = (1.0 - p_ab) / p_ab

    e_opt, memo = optimal_value(inst, force)
    e_grd = subtree_value(grd_tree)

    # One walk of the optimal policy's keys: the transformed and filtered
    # values, and the masses that R_L, R_R and check_key_lemma define.
    e_optprime, e_algL, e_algR, p_probe, p_never, *per_end = _walk(inst, memo, ab)
    pnot = 1.0 - p_probe
    w = max(pnot, 0.0)  # weight of a residual's conditional term
    # P(event | ab never probed), worth 0 where the condition has no mass.
    conds = [[m / p_never if p_never else 0.0 for m in ms] for ms in per_end]
    (c_take_a, c_take_a_kth, _, _), (c_take_b, c_take_b_kth, _, _) = conds
    e_RL = p_probe * p_ab + w * c_take_a + w * c_take_b
    e_RR = p_probe * p_ab + w * c_take_a_kth + w * c_take_b_kth
    kl_a, kl_b = (
        KeyLemmaResult(r * take_kth, fail_kth, no_take) for _, take_kth, fail_kth, no_take in conds
    )

    # Induction endpoints: the filtered policies are proper policies for the
    # states after ab succeeds and after it fails, so the optima of those
    # states bound them from above.  Greedy's root probes ab, so its children
    # are those states, and the root solve left both in the memo.
    opt_left = memo[grd_tree.left.state][0]
    opt_right = memo[grd_tree.right.state][0]

    slacks = {
        "optp": (e_optprime + (1.0 - p_ab) * p_probe) - e_opt,
        "optl": e_optprime - (e_algL + e_RL),
        "optr": e_opt - (e_algR + e_RR),
        "algl": (e_algL + p_probe + pnot * (c_take_a + c_take_b)) - e_opt,
        "baseineq": (
            p_ab * e_algL
            + (1.0 - p_ab) * e_algR
            + p_ab * p_probe * (2.0 - p_ab)
            + p_ab * pnot * (c_take_a + r * c_take_a_kth + c_take_b + r * c_take_b_kth)
        )
        - e_opt,
        "keylem": min(min(kl.lemma_slack, kl.corollary_slack) for kl in (kl_a, kl_b)),
        "combined": (p_ab * e_algL + (1.0 - p_ab) * e_algR + 2.0 * p_ab) - e_opt,
        "induction": min(opt_left - e_algL, opt_right - e_algR),
        "final": factor2_slack(e_opt, e_grd),
    }
    verdicts = {name: holds(slacks[name], kind) for name, kind in RELATIONS}

    return ChainReport(
        instance_id=instance_id, ab=ab, alpha=alpha, beta=beta, p_ab=p_ab, e_opt=e_opt,
        e_grd=e_grd, e_optprime=e_optprime, e_algL=e_algL, e_RL=e_RL, e_algR=e_algR, e_RR=e_RR,
        p_probe_ab=p_probe, cond_take_alpha=c_take_a, cond_take_beta=c_take_b,
        cond_take_alpha_kth=c_take_a_kth, cond_take_beta_kth=c_take_b_kth,
        keylem_alpha=kl_a, keylem_beta=kl_b, slacks=slacks, verdicts=verdicts,
    )


class LemmaReport(NamedTuple):
    """Per-node margins E T(v) - E L(v) for the one-plus-left-subtree bound."""

    max_margin: float
    nodes_checked: int
    violations: list  # (path, margin)

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
    margins = []
    violations = []
    for node, path in _first_paths(t):
        if node.is_leaf:
            continue
        margins.append(node.value - node.left.value)
        if not holds(1.0 - margins[-1]):
            violations.append((path, margins[-1]))
    return LemmaReport(max(margins, default=float("-inf")), len(margins), violations)


class OptimalityReport(NamedTuple):
    """Gap between each subtree's value and the optimum of its state."""

    max_gap: float
    nodes_checked: int
    violations: list  # (path, subtree value, optimal value)

    @property
    def ok(self):
        return not self.violations


def check_subtree_optimality(inst, t, force=False):
    """Check that each distinct subtree's value matches the optimum of its state.

    inst is solved once from the root, under core.MAX_STATES or with no
    budget if force, and each node's optimum read from that memo, which holds
    every state a tree of inst can reach.  ValueError if t is not a tree of
    inst: its root must be inst's initial state, and each internal node must probe an edge
    alive in its state, as the transitions judge it, with TreeNode children at its outcomes.
    """
    if t.state != initial_state(inst):
        raise ValueError("the tree's root is not the instance's initial state")
    rows = kernel(inst)
    gaps = []
    violations = []
    _, memo = optimal_value(inst, force)
    for node, path in _first_paths(t):
        if not node.is_leaf and (
            not (isinstance(node.left, TreeNode) and isinstance(node.right, TreeNode))
            or node.left.state != apply_success(rows, node.state, node.edge)
            or node.right.state != apply_failure(rows, node.state, node.edge)
            or (node.u, node.v, node.p) != inst.edges[node.edge]
        ):
            raise ValueError(f"node at path {path!r} is not a node of a tree of this instance")
        opt = memo[node.state][0]
        gaps.append(abs(opt - node.value))
        if not holds(gaps[-1], "eq"):
            violations.append((path, node.value, opt))
    return OptimalityReport(max(gaps, default=0.0), len(gaps), violations)
