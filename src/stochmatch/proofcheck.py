"""Numerical verification of the greedy 2-approximation argument.

Everything here works on explicit decision trees of the optimal policy for a
concrete instance.  The checked chain bounds the optimum by two filtered
policies (one for the instance after greedy's first probe succeeds, one for
after it fails) plus closed-form residuals, and ends at the factor-2 bound
against greedy.  check_chain solves the DP once and builds the optimal tree
over that memo.  One walk of that tree gives OPT' (descend left at ab), the
filtered values ALG_L and ALG_R, and the path-event masses; the public
transform_optprime, value_algL and value_algR read one value each from the
same walk.  The induction endpoints are the memo's values at greedy's root
children, the states after greedy's first probe ab succeeds and after it
fails.  The events module, through check_key_lemma, is the reference
specification of those events.

check_lemma31 (E T(v) <= E L(v) + 1) and check_subtree_optimality check an
optimal tree node by node.  TOL is the one float tolerance: for the chain's
verdicts, for both node checks and for the ratio command's exit status.  A
conditional on "ab never probed" is undefined iff that event's mass is
exactly 0, and then counts as 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import (
    FailsKthOfVertex,
    Not,
    ProbesEdge,
    TakesVertex,
    TakesVertexAtKth,
    conditional_probability,
    event_probability,  # unused here, but perfbench/tracing.py rebinds it
)
from .policy import build_tree, greedy_policy, subtree_value
from .solver import optimal_policy, optimal_value

TOL = 1e-9

# Relation keys in chain order (i)..(ix); "eq" must hold to +-TOL,
# "le" means slack = rhs - lhs must be >= -TOL.
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


def transform_optprime(t, ab):
    """Value of the tree modified to descend left after every probe of ab.

    At a node probing ab the subtree contributes p_ab plus its left subtree's
    value with full weight; all other nodes are unchanged.
    """
    return _walk(t, ab, None, 0, None, 0)[0]


def value_algL(t, ab, alpha, beta):
    """Value of the modified tree with all probes touching alpha or beta muted.

    Muted nodes contribute nothing but still branch with their original
    probabilities; nodes probing ab descend left with weight 1.
    """
    return _walk(t, ab, alpha, 0, beta, 0)[1]


def value_algR(inst, t, ab):
    """Value of the tree with probes invalid on the failure-reduced instance muted.

    A probe is invalid if it is ab itself, or ab has not been probed earlier
    on the path and this is the t_alpha-th probe touching alpha or the
    t_beta-th probe touching beta.  Once ab is probed, the endpoint patience
    of the reduced instance aligns with the original and every later probe is
    valid.  Invalid probes contribute nothing but branch with their original
    probabilities.
    """
    alpha, beta, _ = inst.edges[ab]
    return _walk(t, ab, alpha, inst.patience[alpha], beta, inst.patience[beta])[2]


@dataclass
class KeyLemmaResult:
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
        return self.lemma_slack >= -TOL and self.corollary_slack >= -TOL


def check_key_lemma(t, inst, gamma, ab):
    """Bound the take-at-last-probe term by the all-probes-failed term.

    Requires p_ab to be the maximum edge probability in the instance.  When
    the conditioning event (ab never probed) has mass exactly 0, its
    conditionals are undefined and count as 0, so all terms are 0.
    """
    p_ab = inst.edges[ab][2]
    if any(p > p_ab for _, _, p in inst.edges):
        raise ValueError("p_ab must be the maximum edge probability")
    t_gamma = inst.patience[gamma]
    not_probe = Not(ProbesEdge(ab))
    c_take_kth = conditional_probability(t, TakesVertexAtKth(gamma, t_gamma), not_probe)
    c_fail_kth = conditional_probability(t, FailsKthOfVertex(gamma, t_gamma), not_probe)
    c_not_take = conditional_probability(t, Not(TakesVertex(gamma)), not_probe)
    c_take_kth = 0.0 if c_take_kth is None else c_take_kth
    c_fail_kth = 0.0 if c_fail_kth is None else c_fail_kth
    c_not_take = 0.0 if c_not_take is None else c_not_take
    lhs = (1.0 - p_ab) / p_ab * c_take_kth
    return KeyLemmaResult(lhs=lhs, rhs_lemma=c_fail_kth, rhs_corollary=c_not_take)


def _walk(t, ab, alpha, k_alpha, beta, k_beta):
    """OPT', ALG_L, ALG_R and the path masses of t, from one walk.

    Returns transform_optprime's, value_algL's and value_algR's values (with
    ALG_R muting alpha's k_alpha-th and beta's k_beta-th touch), P(ab probed),
    P(ab never probed) and, for alpha and for beta, the masses of
    never-probed paths that take the vertex, take it at the k-th touch, fail
    that touch and never take it.

    Going down, a path carries whether ab is still unprobed (never) and, per
    endpoint, its touch count (c), whether it took the vertex (took) and the
    k-th touch's outcome (kth, None before it).  Leaf masses are summed in
    event_probability's order, so they match the events module's.  Coming
    up, each node combines its children's three values.
    """
    probe = [0.0, 0.0]
    acc_a = [0.0] * 4
    acc_b = [0.0] * 4

    def walk(node, prob, never, ca, took_a, kth_a, cb, took_b, kth_b):
        _, e, u, v, p, left, right, _ = node
        if e is None:
            probe[never] += prob
            if never:
                acc_a[0 if took_a else 3] += prob
                if kth_a is not None:
                    acc_a[1 if kth_a else 2] += prob
                acc_b[0 if took_b else 3] += prob
                if kth_b is not None:
                    acc_b[1 if kth_b else 2] += prob
            return 0.0, 0.0, 0.0
        is_ab = e == ab
        never = never and not is_ab
        touch_a = u == alpha or v == alpha
        touch_b = u == beta or v == beta
        ca += touch_a
        cb += touch_b
        at_a = touch_a and ca == k_alpha
        at_b = touch_b and cb == k_beta
        opt_l, alg_l_l, alg_r_l = walk(left, prob * p, never,
                                       ca, took_a or touch_a, True if at_a else kth_a,
                                       cb, took_b or touch_b, True if at_b else kth_b)
        opt_r, alg_l_r, alg_r_r = walk(right, prob * (1.0 - p), never,
                                       ca, took_a, False if at_a else kth_a,
                                       cb, took_b, False if at_b else kth_b)
        if is_ab:
            opt, alg_l = p + opt_l, alg_l_l
        else:
            opt = p * (1.0 + opt_l) + (1.0 - p) * opt_r
            alg_l = p * alg_l_l + (1.0 - p) * alg_l_r
            if not (touch_a or touch_b):
                alg_l = p + alg_l
        alg_r = p * alg_r_l + (1.0 - p) * alg_r_r
        if not (is_ab or (never and (at_a or at_b))):
            alg_r = p + alg_r
        return opt, alg_l, alg_r

    values = walk(t, 1.0, True, 0, False, None, 0, False, None)
    return (*values, probe[0], probe[1], acc_a, acc_b)


@dataclass
class ChainReport:
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
    slacks: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)

    @property
    def ratio(self):
        return self.e_opt / self.e_grd if self.e_grd > 0 else 1.0

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

    _, memo = optimal_value(inst, force)
    opt_tree = build_tree(inst, optimal_policy(inst, force=force, memo=memo), force=force)
    e_opt = subtree_value(opt_tree)
    e_grd = subtree_value(grd_tree)

    # One walk of the optimal tree: the transformed and filtered values, and
    # the masses that the residuals R_L and R_R and check_key_lemma define.
    e_optprime, e_algL, e_algR, p_probe, p_never, *per_end = _walk(
        opt_tree, ab, alpha, inst.patience[alpha], beta, inst.patience[beta]
    )
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
        "final": 2.0 * e_grd - e_opt,
    }
    verdicts = {
        name: abs(slacks[name]) <= TOL if kind == "eq" else slacks[name] >= -TOL
        for name, kind in RELATIONS
    }

    return ChainReport(
        instance_id=instance_id,
        ab=ab,
        alpha=alpha,
        beta=beta,
        p_ab=p_ab,
        e_opt=e_opt,
        e_grd=e_grd,
        e_optprime=e_optprime,
        e_algL=e_algL,
        e_RL=e_RL,
        e_algR=e_algR,
        e_RR=e_RR,
        p_probe_ab=p_probe,
        cond_take_alpha=c_take_a,
        cond_take_beta=c_take_b,
        cond_take_alpha_kth=c_take_a_kth,
        cond_take_beta_kth=c_take_b_kth,
        keylem_alpha=kl_a,
        keylem_beta=kl_b,
        slacks=slacks,
        verdicts=verdicts,
    )


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
        if margin > 1.0 + TOL:
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


def check_subtree_optimality(inst, t, force=False):
    """Check that each distinct subtree's value matches the optimum of its state.

    Each node's state is solved through the optimal policy, under
    core.MAX_STATES or with no budget if force, and its optimum read from
    the policy's memo.
    """
    report = OptimalityReport()
    memo = {}
    solve = optimal_policy(inst, force=force, memo=memo)
    for node, path in _first_paths(t):
        solve(node.state)
        opt = memo[node.state][0]
        gap = abs(opt - node.value)
        report.nodes_checked += 1
        report.max_gap = max(report.max_gap, gap)
        if gap > TOL:
            report.violations.append((path, node.value, opt))
    return report
