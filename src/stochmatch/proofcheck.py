"""Numerical verification of the greedy 2-approximation argument.

Everything here works on explicit decision trees of the optimal policy for a
concrete instance.  The checked chain bounds the optimum by two filtered
policies (one for the instance after greedy's first probe succeeds, one for
after it fails) plus closed-form residuals, and ends at the factor-2 bound
against greedy.  check_chain solves the DP once, builds the optimal tree
over that memo and computes its path events in one walk of the tree.  The
induction endpoints are the memo's values at greedy's root children, the
states after greedy's first probe ab succeeds and after it fails.  The events
module, through residual_RL, residual_RR and check_key_lemma, is the
reference specification of those events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import (
    UNDEFINED_CUTOFF,
    FailsKthOfVertex,
    Not,
    ProbesEdge,
    TakesVertex,
    TakesVertexAtKth,
    conditional_probability,
    event_probability,
)
from .policy import build_tree, greedy_first_edge, greedy_policy, subtree_value
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

    def value(node):
        if node.is_leaf:
            return 0.0
        if node.edge == ab:
            return node.p + value(node.left)
        return node.p * (1.0 + value(node.left)) + (1.0 - node.p) * value(node.right)

    return value(t)


def value_algL(t, ab, alpha, beta):
    """Value of the modified tree with all probes touching alpha or beta muted.

    Muted nodes contribute nothing but still branch with their original
    probabilities; nodes probing ab descend left with weight 1.
    """

    def value(node):
        if node.is_leaf:
            return 0.0
        if node.edge == ab:
            return value(node.left)
        contrib = node.p * value(node.left) + (1.0 - node.p) * value(node.right)
        if node.u in (alpha, beta) or node.v in (alpha, beta):
            return contrib
        return node.p + contrib

    return value(t)


def _cond_times(t, pnot, a, not_probe):
    """pnot * P(a | not probe ab), with the zero-condition case worth 0."""
    if pnot <= 0.0:
        return 0.0
    c = conditional_probability(t, a, not_probe)
    return 0.0 if c is None else pnot * c


def residual_RL(t, ab, alpha, beta, p_ab):
    """Closed-form penalty for the alpha/beta-muted policy."""
    probe = ProbesEdge(ab)
    not_probe = Not(probe)
    p_probe = event_probability(t, probe)
    pnot = 1.0 - p_probe
    return (
        p_probe * p_ab
        + _cond_times(t, pnot, TakesVertex(alpha), not_probe)
        + _cond_times(t, pnot, TakesVertex(beta), not_probe)
    )


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
    t_alpha = inst.patience[alpha]
    t_beta = inst.patience[beta]

    def value(node, count_a, count_b, seen_ab):
        if node.is_leaf:
            return 0.0
        ca = count_a + (1 if node.u == alpha or node.v == alpha else 0)
        cb = count_b + (1 if node.u == beta or node.v == beta else 0)
        invalid = node.edge == ab or (
            not seen_ab
            and ((ca > count_a and ca == t_alpha) or (cb > count_b and cb == t_beta))
        )
        seen = seen_ab or node.edge == ab
        contrib = node.p * value(node.left, ca, cb, seen) + (1.0 - node.p) * value(
            node.right, ca, cb, seen
        )
        return contrib if invalid else node.p + contrib

    return value(t, 0, 0, False)


def residual_RR(t, ab, alpha, beta, t_alpha, t_beta, p_ab):
    """Closed-form penalty for the failure-reduced-instance policy."""
    probe = ProbesEdge(ab)
    not_probe = Not(probe)
    p_probe = event_probability(t, probe)
    pnot = 1.0 - p_probe
    return (
        p_probe * p_ab
        + _cond_times(t, pnot, TakesVertexAtKth(alpha, t_alpha), not_probe)
        + _cond_times(t, pnot, TakesVertexAtKth(beta, t_beta), not_probe)
    )


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
    the conditioning event (ab never probed) has probability zero, all terms
    are zero by the zero-branch convention.
    """
    p_ab = inst.edges[ab][2]
    if any(p > p_ab for _, _, p in inst.edges):
        raise ValueError("p_ab must be the maximum edge probability")
    t_gamma = inst.patience[gamma]
    probe = ProbesEdge(ab)
    not_probe = Not(probe)
    pnot = 1.0 - event_probability(t, probe)
    if pnot <= UNDEFINED_CUTOFF:
        return KeyLemmaResult(lhs=0.0, rhs_lemma=0.0, rhs_corollary=0.0)
    c_take_kth = conditional_probability(t, TakesVertexAtKth(gamma, t_gamma), not_probe)
    c_fail_kth = conditional_probability(t, FailsKthOfVertex(gamma, t_gamma), not_probe)
    c_not_take = conditional_probability(t, Not(TakesVertex(gamma)), not_probe)
    c_take_kth = 0.0 if c_take_kth is None else c_take_kth
    c_fail_kth = 0.0 if c_fail_kth is None else c_fail_kth
    c_not_take = 0.0 if c_not_take is None else c_not_take
    lhs = (1.0 - p_ab) / p_ab * c_take_kth
    return KeyLemmaResult(lhs=lhs, rhs_lemma=c_fail_kth, rhs_corollary=c_not_take)


def _path_masses(t, ab, alpha, k_alpha, beta, k_beta):
    """P(ab probed), P(ab never probed) and, for alpha at its k_alpha-th touch
    and beta at its k_beta-th, the masses of never-probed paths that take the
    vertex, take it at that touch, fail that touch and never take it.

    A path carries, per endpoint, its touch count (c), whether it took the
    vertex (took) and the outcome of the k-th touch (kth, None before it).
    Masses are summed leaf by leaf in event_probability's order, so they
    match the events module's.
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
            return
        never = never and e != ab
        touch_a = u == alpha or v == alpha
        touch_b = u == beta or v == beta
        ca += touch_a
        cb += touch_b
        at_a = touch_a and ca == k_alpha
        at_b = touch_b and cb == k_beta
        walk(left, prob * p, never,
             ca, took_a or touch_a, True if at_a else kth_a,
             cb, took_b or touch_b, True if at_b else kth_b)
        walk(right, prob * (1.0 - p), never,
             ca, took_a, False if at_a else kth_a,
             cb, took_b, False if at_b else kth_b)

    walk(t, 1.0, True, 0, False, None, 0, False, None)
    return probe[0], probe[1], acc_a, acc_b


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
    greedy_identity_gap: float
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
    inst.check_caps(force)

    ab = greedy_first_edge(inst)
    alpha, beta, p_ab = inst.edges[ab]
    r = (1.0 - p_ab) / p_ab

    _, memo = optimal_value(inst, force)
    opt_tree = build_tree(inst, optimal_policy(inst, force=force, memo=memo), force=force)
    grd_tree = build_tree(inst, greedy_policy(inst), force=force)
    e_opt = subtree_value(opt_tree)
    e_grd = subtree_value(grd_tree)

    e_optprime = transform_optprime(opt_tree, ab)
    e_algL = value_algL(opt_tree, ab, alpha, beta)
    e_algR = value_algR(inst, opt_tree, ab)

    # residual_RL, residual_RR and check_key_lemma on the walk's masses.
    p_probe, p_never, *per_end = _path_masses(
        opt_tree, ab, alpha, inst.patience[alpha], beta, inst.patience[beta]
    )
    pnot = 1.0 - p_probe
    w = max(pnot, 0.0)  # weight of a residual's conditional term
    # P(event | ab never probed), worth 0 where the condition has no mass.
    conds = [[m / p_never if p_never > UNDEFINED_CUTOFF else 0.0 for m in ms] for ms in per_end]
    (c_take_a, c_take_a_kth, _, _), (c_take_b, c_take_b_kth, _, _) = conds
    e_RL = p_probe * p_ab + w * c_take_a + w * c_take_b
    e_RR = p_probe * p_ab + w * c_take_a_kth + w * c_take_b_kth
    kl_a, kl_b = (
        KeyLemmaResult(r * take_kth, fail_kth, no_take)
        if pnot > UNDEFINED_CUTOFF
        else KeyLemmaResult(0.0, 0.0, 0.0)
        for _, take_kth, fail_kth, no_take in conds
    )

    # Induction endpoints: the filtered policies are proper policies for the
    # states after ab succeeds and after it fails, so the optima of those
    # states bound them from above.  Greedy's root probes ab, so its children
    # are those states, and the root solve left both in the memo.
    opt_left = memo[grd_tree.left.state][0]
    opt_right = memo[grd_tree.right.state][0]

    # Greedy recursion identity used by the final step of the chain.
    e_left_grd = subtree_value(grd_tree.left)
    e_right_grd = subtree_value(grd_tree.right)
    identity_gap = (
        2.0 * p_ab * (1.0 + e_left_grd) + 2.0 * (1.0 - p_ab) * e_right_grd
    ) - 2.0 * e_grd

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
    # The final step also relies on the greedy recursion identity.
    verdicts["final"] = verdicts["final"] and abs(identity_gap) <= TOL

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
        greedy_identity_gap=identity_gap,
        slacks=slacks,
        verdicts=verdicts,
    )
