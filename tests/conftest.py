import math
import random
import zlib
from dataclasses import dataclass

import pytest

from stochmatch import Instance
from stochmatch.core import apply_failure, apply_success, initial_state, kernel, probeable_edges
from stochmatch.events import (
    Not,
    ProbesEdge,
    TakesVertex,
    TakesVertexAtKth,
    conditional_probability,
    event_probability,
)
from stochmatch.generator import GeneratorSpec, generate_instance
from stochmatch.montecarlo import SimResult


@pytest.fixture
def single_edge():
    return Instance(n=2, edges=((0, 1, 0.7),), patience=(1, 1))


@pytest.fixture
def empty_graph():
    return Instance(n=3, edges=(), patience=(1, 1, 1))


@pytest.fixture
def star2():
    # K_{1,2} with patient center: both spokes can be probed.
    return Instance(n=3, edges=((0, 1, 0.5), (0, 2, 0.5)), patience=(2, 1, 1))


@pytest.fixture
def p4():
    # Path a-b-c-d where greedy starts in the middle and the optimum does not.
    return Instance(
        n=4,
        edges=((0, 1, 0.5), (1, 2, 0.51), (2, 3, 0.5)),
        patience=(2, 2, 2, 2),
    )


@pytest.fixture
def disjoint_pair():
    return Instance(n=4, edges=((0, 1, 0.9), (2, 3, 0.8)), patience=(1, 1, 1, 1))


@pytest.fixture
def disjoint16():
    # 16 disjoint edges at p = 0.5 with patience 1: success and failure of a
    # probe reach the same state, so 17 distinct states span 2^16 paths.
    k = 16
    return Instance(
        n=2 * k,
        edges=tuple((2 * i, 2 * i + 1, 0.5) for i in range(k)),
        patience=(1,) * (2 * k),
    )


def random_instances(seed, count, n_max=6, m_max=8, t_max=3):
    """Seeded stream of small instances, filtered to at most m_max edges."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(3, n_max)
        spec = GeneratorSpec(
            family="gnp",
            n=n,
            density=rng.uniform(0.3, 0.7),
            p_grid=rng.random() < 0.5,
            t_max=t_max,
            seed=0,
        )
        inst = generate_instance(spec, rng)
        if inst.m <= m_max:
            out.append(inst)
    return out


def arbitrary_policy(inst, salt):
    """A deterministic policy that is a function of the state key only."""

    def choose(key):
        probeable = probeable_edges(inst, key)
        if not probeable:
            return None
        h = zlib.crc32(key.to_bytes((key.bit_length() + 7) // 8, "little")) ^ salt
        return probeable[h % len(probeable)]

    return choose


def field_layout(inst):
    """(shift, width) of each vertex's patience field, None for a vertex
    whose patience is at least its degree, and the key's width in bits.

    The fields sit above the m alive bits in vertex order, each as wide as
    its own patience needs.  Written independently of core.
    """
    degree = [0] * inst.n
    for u, v, _ in inst.edges:
        degree[u] += 1
        degree[v] += 1
    fields, top = [], inst.m
    for t, d in zip(inst.patience, degree):
        if t < d:
            fields.append((top, t.bit_length()))
            top += t.bit_length()
        else:
            fields.append(None)
    return fields, top


def pack_key(inst, alive, patience):
    """The int core packs for an alive mask and patience per vertex: alive
    bits low, then the field of each vertex that has one (see field_layout);
    the patience of a vertex with no field is dropped.  Without canonicalising,
    so it can also make keys that do not fit or are not canonical.
    """
    fields, _ = field_layout(inst)
    return alive + sum(t << f[0] for t, f in zip(patience, fields) if f)


def unpack_key(inst, key):
    """(alive mask, patience per vertex) of a packed key, None for a vertex
    with no field; see pack_key."""
    fields, _ = field_layout(inst)
    patience = tuple(f and key >> f[0] & (1 << f[1]) - 1 for f in fields)
    return key & ((1 << inst.m) - 1), patience


def canonical_key(inst, s):
    """Key of a raw State with the edges of its exhausted vertices cleared."""
    pat = s.patience_left
    dead = sum(1 << e for e, (u, v, _) in enumerate(inst.edges) if not (pat[u] and pat[v]))
    return pack_key(inst, s.alive & ~dead, pat)


# The raw-state model: an alive-edge mask and a patience tuple, stepped
# without packing or canonical form.  reference_dp and the transition tests
# check core's packed keys against it.


@dataclass(frozen=True)
class State:
    """Alive-edge bitmask plus remaining patience per vertex."""

    alive: int
    patience_left: tuple


def raw_initial_state(inst):
    return State(alive=(1 << inst.m) - 1, patience_left=inst.patience)


def is_probeable(inst, s, e):
    u, v, _ = inst.edges[e]
    return bool((s.alive >> e) & 1) and s.patience_left[u] > 0 and s.patience_left[v] > 0


def raw_probeable_edges(inst, s):
    """Alive edges whose both endpoints still have patience, ascending index."""
    return [e for e in range(inst.m) if is_probeable(inst, s, e)]


def raw_success(inst, s, e):
    """Match edge e: drop both endpoints and every edge incident to them."""
    if not is_probeable(inst, s, e):
        raise ValueError(f"edge {e} is not probeable in this state")
    u, v, _ = inst.edges[e]
    alive = s.alive
    for f, (a, b, _) in enumerate(inst.edges):
        if {a, b} & {u, v}:
            alive &= ~(1 << f)
    pat = list(s.patience_left)
    pat[u] = 0
    pat[v] = 0
    return State(alive=alive, patience_left=tuple(pat))


def raw_failure(inst, s, e):
    """Failed probe of e: drop e and decrement patience at both endpoints."""
    if not is_probeable(inst, s, e):
        raise ValueError(f"edge {e} is not probeable in this state")
    u, v, _ = inst.edges[e]
    pat = list(s.patience_left)
    pat[u] -= 1
    pat[v] -= 1
    return State(alive=s.alive & ~(1 << e), patience_left=tuple(pat))


def path_sum_value(t):
    """Independent tree-value oracle: reach probability times p, summed over
    every internal node of every path.  Shares no summation order with the
    node values that build_tree computes bottom-up.
    """
    total = 0.0
    stack = [(t, 1.0)]
    while stack:
        node, q = stack.pop()
        if node.is_leaf:
            continue
        total += q * node.p
        stack.append((node.left, q * node.p))
        stack.append((node.right, q * (1.0 - node.p)))
    return total


def leaf_probabilities(t):
    """Reach probabilities of every leaf path; sums to 1 for a well-formed tree.

    Lists one entry per path, not per distinct node, so it is exponential on
    shared trees; an oracle for tests only.
    """
    out = []
    stack = [(t, 1.0)]
    while stack:
        node, q = stack.pop()
        if node.is_leaf:
            out.append(q)
        else:
            stack.append((node.left, q * node.p))
            stack.append((node.right, q * (1.0 - node.p)))
    return out


def reference_dp(inst):
    """Raw-state DP oracle: (value, best edge or None) of every State reachable
    from the initial state under any policy.

    Keys are raw State values and children come from raw_success and
    raw_failure, so no packing or canonical form is shared with the solver.
    Edges are tried in ascending order and the first maximum wins a tie; the
    value is the solver's float expression, so the two agree exactly.
    """
    table = {}

    def solve(s):
        entry = table.get(s)
        if entry is None:
            best_val, best_edge = 0.0, None
            for e in raw_probeable_edges(inst, s):
                p = inst.edges[e][2]
                vs = solve(raw_success(inst, s, e))[0]
                vf = solve(raw_failure(inst, s, e))[0]
                val = p * (1.0 + vs) + (1.0 - p) * vf
                if val > best_val:
                    best_val, best_edge = val, e
            entry = table[s] = (best_val, best_edge)
        return entry

    solve(raw_initial_state(inst))
    return table


def brute_force_optimal(edges, patience):
    """Independent optimal-value oracle: plain recursion over edge lists.

    No bitmasks, no memoization; deliberately shares nothing with the solver.
    """
    best = 0.0
    for u, v, p in edges:
        if patience[u] <= 0 or patience[v] <= 0:
            continue
        succ_edges = [e for e in edges if u not in e[:2] and v not in e[:2]]
        succ_pat = dict(patience)
        succ_pat[u] = 0
        succ_pat[v] = 0
        fail_edges = [e for e in edges if (e[0], e[1]) != (u, v)]
        fail_pat = dict(patience)
        fail_pat[u] -= 1
        fail_pat[v] -= 1
        val = p * (1.0 + brute_force_optimal(succ_edges, succ_pat)) + (
            1.0 - p
        ) * brute_force_optimal(fail_edges, fail_pat)
        best = max(best, val)
    return best


def brute_force_greedy(edges, patience):
    """Independent greedy-value oracle following the fixed probe order."""
    # Stable sort: ties keep list order, which preserves original edge order.
    order = sorted(edges, key=lambda e: -e[2])
    for u, v, p in order:
        if patience[u] > 0 and patience[v] > 0:
            succ_edges = [e for e in edges if u not in e[:2] and v not in e[:2]]
            succ_pat = dict(patience)
            succ_pat[u] = 0
            succ_pat[v] = 0
            fail_edges = [e for e in edges if (e[0], e[1]) != (u, v)]
            fail_pat = dict(patience)
            fail_pat[u] -= 1
            fail_pat[v] -= 1
            return p * (1.0 + brute_force_greedy(succ_edges, succ_pat)) + (
                1.0 - p
            ) * brute_force_greedy(fail_edges, fail_pat)
    return 0.0


def reference_simulate(inst, pol, trials, seed):
    """Uncached Monte Carlo oracle: the policy and both transitions are
    consulted at every step, the matched vertices kept in a set, and each
    probe takes one draw from random.Random(seed mod 2**64).
    """
    rng = random.Random(seed & (1 << 64) - 1)
    rows = kernel(inst)
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        key = initial_state(inst)
        matched_vertices = set()
        matched = 0
        while True:
            e = pol(key)
            if e is None:
                break
            u, v, p = inst.edges[e]
            if rng.random() < p:
                if u in matched_vertices or v in matched_vertices:
                    raise RuntimeError(f"edge {e} matched an already matched vertex")
                matched_vertices.update((u, v))
                matched += 1
                key = apply_success(rows, key, e)
            else:
                key = apply_failure(rows, key, e)
        total += matched
        total_sq += matched * matched
    mean = total / trials
    stddev = math.sqrt(max(total_sq / trials - mean * mean, 0.0))
    return SimResult(
        trials=trials,
        mean=mean,
        stddev=stddev,
        ci95_halfwidth=1.96 * stddev / math.sqrt(trials),
        seed=seed,
    )


# Reference values of OPT', ALG_L and ALG_R: a separate recursion for each,
# so the tests compare proofcheck's combined walk with code it does not share.


def reference_optprime(t, ab):
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


def reference_algL(t, ab, alpha, beta):
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


def reference_algR(inst, t, ab):
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


# Reference residuals R_L and R_R, stated through the events module's path
# events; check_chain computes them from its one walk's path masses.


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
