import gc

import pytest

from conftest import (
    random_instances,
    reference_algL,
    reference_algR,
    reference_optprime,
    residual_RL,
    residual_RR,
)

from stochmatch import proofcheck, solver
from stochmatch.core import Instance, initial_state
from stochmatch.events import (
    FailsKthOfVertex,
    Not,
    ProbesEdge,
    TakesVertex,
    TakesVertexAtKth,
    conditional_probability,
    event_probability,
)
from stochmatch.generator import P_GRID
from stochmatch.policy import build_tree, greedy_policy, tree_value
from stochmatch.proofcheck import (
    KeyLemmaResult,
    check_chain,
    check_key_lemma,
    transform_optprime,
    value_algL,
    value_algR,
)
from stochmatch.solver import optimal_policy, optimal_value


def opt_tree_of(inst):
    return build_tree(inst, optimal_policy(inst))


# Every path of the optimal tree probes ab, edge 2, except ones of mass about
# 1e-18.  1 - P(ab probed) reads 0.0, but P(ab never probed) is positive, so
# the conditionals on it are defined.
TINY_NEVER = Instance(
    n=4,
    edges=((0, 1, 1e-12), (0, 3, 0.999999), (1, 2, 1.0), (1, 3, 0.001), (2, 3, 1e-09)),
    patience=(3, 2, 1, 1),
)


def _reduced_after_success(inst, alpha, beta):
    edges = tuple((u, v, p) for u, v, p in inst.edges if not {u, v} & {alpha, beta})
    return Instance(n=inst.n, edges=edges, patience=inst.patience)


def _reduced_after_failure(inst, ab):
    # A vertex whose patience runs out loses its edges; its stored patience
    # stays 1 so the Instance is valid.
    alpha, beta, _ = inst.edges[ab]
    patience = list(inst.patience)
    dead = set()
    for v in (alpha, beta):
        patience[v] -= 1
        if patience[v] == 0:
            patience[v] = 1
            dead.add(v)
    edges = tuple(
        (u, v, p)
        for e, (u, v, p) in enumerate(inst.edges)
        if e != ab and not {u, v} & dead
    )
    return Instance(n=inst.n, edges=edges, patience=tuple(patience))


class TestOptPrime:
    def test_single_edge_equals_opt(self, single_edge):
        t = opt_tree_of(single_edge)
        value = transform_optprime(single_edge, 0)
        assert value == pytest.approx(0.7, abs=1e-12)

    def test_never_probed_edge_leaves_value(self):
        # If OPT never probes an edge, the left-descent modification at its
        # (empty) node set changes nothing.
        inst = Instance(
            n=4,
            edges=((0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.4), (2, 3, 0.3)),
            patience=(1, 1, 1, 1),
        )
        t = opt_tree_of(inst)
        unprobed = [
            e for e in range(inst.m) if event_probability(t, ProbesEdge(e)) == 0.0
        ]
        assert unprobed  # tight patience leaves some edges untouched
        for e in unprobed:
            value = transform_optprime(inst, e)
            assert value == pytest.approx(tree_value(t), abs=1e-12)

    def test_opt_bounded_by_optprime(self):
        for inst in random_instances(seed=41, count=25):
            ab = greedy_policy(inst)(initial_state(inst))
            p_ab = inst.edges[ab][2]
            t = opt_tree_of(inst)
            e_opt = tree_value(t)
            e_optprime = transform_optprime(inst, ab)
            p_probe = event_probability(t, ProbesEdge(ab))
            assert e_opt <= e_optprime + (1.0 - p_ab) * p_probe + 1e-9


class TestAlgL:
    def test_only_edge_is_ab(self, single_edge):
        assert value_algL(single_edge, 0) == 0.0

    def test_disjoint_second_edge_survives(self, disjoint_pair):
        ab = greedy_policy(disjoint_pair)(initial_state(disjoint_pair))
        assert ab == 0
        assert value_algL(disjoint_pair, 0) == pytest.approx(0.8, abs=1e-12)

    def test_optl_equality(self):
        for inst in random_instances(seed=42, count=40):
            ab = greedy_policy(inst)(initial_state(inst))
            alpha, beta, p_ab = inst.edges[ab]
            t = opt_tree_of(inst)
            e_optprime = transform_optprime(inst, ab)
            e_algL = value_algL(inst, ab)
            e_RL = residual_RL(t, ab, alpha, beta, p_ab)
            assert e_optprime == pytest.approx(e_algL + e_RL, abs=1e-9)

    def test_bounded_by_opt(self):
        for inst in random_instances(seed=43, count=20):
            ab = greedy_policy(inst)(initial_state(inst))
            t = opt_tree_of(inst)
            assert value_algL(inst, ab) <= tree_value(t) + 1e-9

    def test_bounded_by_reduced_optimum(self):
        for inst in random_instances(seed=44, count=20):
            ab = greedy_policy(inst)(initial_state(inst))
            alpha, beta, _ = inst.edges[ab]
            opt_reduced, _ = optimal_value(_reduced_after_success(inst, alpha, beta))
            assert value_algL(inst, ab) <= opt_reduced + 1e-9


class TestResidualRL:
    def test_only_edge_is_ab(self, single_edge):
        t = opt_tree_of(single_edge)
        assert residual_RL(t, 0, 0, 1, 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_isolated_ab_always_probed(self, disjoint_pair):
        t = opt_tree_of(disjoint_pair)
        assert residual_RL(t, 0, 0, 1, 0.9) == pytest.approx(0.9, abs=1e-12)

    def test_range(self):
        for inst in random_instances(seed=45, count=20):
            ab = greedy_policy(inst)(initial_state(inst))
            alpha, beta, p_ab = inst.edges[ab]
            t = opt_tree_of(inst)
            r = residual_RL(t, ab, alpha, beta, p_ab)
            assert -1e-12 <= r <= 2.0 + 1e-12


class TestAlgR:
    def test_only_edge_is_ab(self, single_edge):
        assert value_algR(single_edge, 0) == 0.0

    def test_no_invalid_probes_when_patience_large(self):
        # The certain spoke is probed first and removes the other spoke, so
        # edge 1 is never probed; with patience far above the tree depth no
        # probe count can reach its limit, and the walk recovers the full
        # optimum.
        inst = Instance(n=3, edges=((0, 1, 1.0), (0, 2, 0.1)), patience=(5, 5, 5))
        t = opt_tree_of(inst)
        assert event_probability(t, ProbesEdge(1)) == 0.0
        assert value_algR(inst, 1) == pytest.approx(tree_value(t), abs=1e-12)

    def test_optr_equality(self):
        for inst in random_instances(seed=46, count=40):
            ab = greedy_policy(inst)(initial_state(inst))
            alpha, beta, p_ab = inst.edges[ab]
            t = opt_tree_of(inst)
            e_opt = tree_value(t)
            e_algR = value_algR(inst, ab)
            e_RR = residual_RR(
                t, ab, alpha, beta, inst.patience[alpha], inst.patience[beta], p_ab
            )
            assert e_opt == pytest.approx(e_algR + e_RR, abs=1e-9)

    def test_bounded_by_opt(self):
        for inst in random_instances(seed=47, count=20):
            ab = greedy_policy(inst)(initial_state(inst))
            t = opt_tree_of(inst)
            assert value_algR(inst, ab) <= tree_value(t) + 1e-9


class TestResidualRR:
    def test_only_edge_is_ab(self, single_edge):
        t = opt_tree_of(single_edge)
        assert residual_RR(t, 0, 0, 1, 1, 1, 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_no_kth_probe_possible(self):
        # Edge 1 is never probed (the certain spoke removes it) and patience
        # 5 is never reached, so both residual terms vanish.
        inst = Instance(n=3, edges=((0, 1, 1.0), (0, 2, 0.1)), patience=(5, 5, 5))
        t = opt_tree_of(inst)
        assert event_probability(t, ProbesEdge(1)) == 0.0
        assert residual_RR(t, 1, 0, 2, 5, 5, 0.1) == 0.0


class TestKeyLemma:
    def test_no_kth_probe_gives_zero_lhs(self):
        inst = Instance(n=4, edges=((0, 1, 0.5), (2, 3, 0.4)), patience=(5, 5, 5, 5))
        for result in check_key_lemma(inst, 0):
            assert result.lhs == 0.0
            assert result.ok

    def test_certain_edge_gives_zero_lhs(self):
        inst = Instance(n=3, edges=((0, 1, 1.0), (1, 2, 0.5)), patience=(2, 2, 2))
        results = check_key_lemma(inst, 0)
        assert [result.lhs for result in results] == [0.0, 0.0]
        report = check_chain(inst)
        assert results == (report.keylem_alpha, report.keylem_beta)

    def test_maximality_precondition(self, p4):
        # Edge 0 has p=0.5 < 0.51.
        with pytest.raises(ValueError, match="maximum edge probability"):
            check_key_lemma(p4, 0)

    def test_takes_no_tree_or_endpoint(self, p4):
        # It builds inst's optimal tree and answers for both endpoints, so a
        # tree of another instance or a vertex off ab cannot be passed.
        with pytest.raises(TypeError):
            check_key_lemma(opt_tree_of(p4), p4, 1, 1)

    def test_builds_no_tree(self, p4, monkeypatch):
        # The pair is read from the chain's one walk of OPT's keys, like the
        # three transforms: no optimal policy and no tree is made.
        report = check_chain(p4)

        def refused(*args, **kwargs):
            raise AssertionError("check_key_lemma made a tree or a policy")

        monkeypatch.setattr(proofcheck, "build_tree", refused)
        monkeypatch.setattr(proofcheck, "optimal_policy", refused)
        assert check_key_lemma(p4, 1) == (report.keylem_alpha, report.keylem_beta)

    def test_no_violations_on_random_instances(self):
        for inst in random_instances(seed=48, count=40):
            ab = greedy_policy(inst)(initial_state(inst))
            assert all(result.ok for result in check_key_lemma(inst, ab))


TAKING_AB = {
    "transform_optprime": transform_optprime,
    "value_algL": value_algL,
    "value_algR": value_algR,
    "check_key_lemma": check_key_lemma,
}


@pytest.mark.parametrize("ab", [-1, 3, True, 1.0])
@pytest.mark.parametrize("name", list(TAKING_AB))
def test_ab_that_is_not_an_edge_rejected(name, ab, p4):
    # The transitions judge ab.  Indexing inst.edges read -1 as edge 2 and
    # True as edge 1, and raised IndexError for 3 and TypeError for 1.0.
    with pytest.raises(ValueError, match=f"edge {ab} is not alive"):
        TAKING_AB[name](p4, ab)


class TestChain:
    def test_single_edge(self, single_edge):
        report = check_chain(single_edge, "single")
        assert report.passed
        assert report.ratio == pytest.approx(1.0, abs=1e-12)

    def test_p4(self, p4):
        report = check_chain(p4, "p4")
        assert report.passed
        assert report.ratio == pytest.approx(1.1275, abs=1e-9)
        assert report.e_grd == pytest.approx(1.0, abs=1e-9)
        assert report.e_opt == pytest.approx(1.1275, abs=1e-9)

    def test_empty_rejected(self, empty_graph):
        with pytest.raises(ValueError):
            check_chain(empty_graph)

    def test_random_instances_pass(self):
        for i, inst in enumerate(random_instances(seed=49, count=50)):
            report = check_chain(inst, f"rand-{i}")
            assert report.passed, (i, report.slacks, report.verdicts)
            assert 1.0 - 1e-12 <= report.ratio <= 2.0 + 1e-9

    def test_solves_each_state_once(self, monkeypatch):
        # One DP solve per check: _solve is entered once per memo state (its
        # recursion calls through the module attribute, so every entry counts).
        instances = random_instances(seed=51, count=50)
        states = [len(optimal_value(inst)[1]) for inst in instances]
        entered = []
        solve = solver._solve

        def counted(key, *args):
            entered.append(key)
            return solve(key, *args)

        monkeypatch.setattr(solver, "_solve", counted)
        for inst, count in zip(instances, states):
            entered.clear()
            check_chain(inst)
            assert len(entered) == count

    def test_builds_only_greedys_tree(self, monkeypatch):
        # OPT's edges and values are read from the root solve's memo: the
        # one tree built is greedy's, and no optimal policy is made.
        built = []
        build = proofcheck.build_tree

        def counted(inst, pol, force=False):
            built.append(pol)
            return build(inst, pol, force)

        def refused(*args, **kwargs):
            raise AssertionError("check_chain made an optimal policy")

        monkeypatch.setattr(proofcheck, "build_tree", counted)
        monkeypatch.setattr(proofcheck, "optimal_policy", refused)
        for inst in random_instances(seed=52, count=10):
            built.clear()
            report = check_chain(inst)
            assert len(built) == 1
            assert report.passed

    def test_computes_the_table_once(self, p4, monkeypatch):
        # Greedy's tree, the solve and the walk share the instance's one table.
        table = Instance.__dict__["_table"]
        compute = table.func
        computed = []

        def counted(inst):
            computed.append(inst)
            return compute(inst)

        monkeypatch.setattr(table, "func", counted)
        for inst in random_instances(seed=54, count=5) + [p4]:
            fresh = Instance(inst.n, inst.edges, inst.patience)
            computed.clear()
            check_chain(fresh)
            assert len(computed) == 1 and computed[0] is fresh

    def test_leaves_no_cyclic_garbage(self, p4):
        # A cycle left by a check would hold its memo until a collection ran.
        instances = random_instances(seed=53, count=10) + [p4, TINY_NEVER]
        gc.disable()
        try:
            gc.collect()
            for inst in instances:
                check_chain(inst)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_csv_row_shape(self, p4):
        report = check_chain(p4, "p4")
        header = report.csv_header()
        row = report.csv_row()
        assert len(header) == len(row)
        assert header[0] == "instance_id"
        assert row[0] == "p4"


class TestExactZeroRule:
    def test_tiny_never_mass_gets_true_conditionals(self):
        report = check_chain(TINY_NEVER)
        t = opt_tree_of(TINY_NEVER)
        p_never = event_probability(t, Not(ProbesEdge(report.ab)))
        assert 0.0 < p_never < 1e-15
        assert report.p_probe_ab == 1.0
        assert report.passed
        assert report.cond_take_alpha == 1.0


class TestChainMatchesReference:
    """check_chain's one-walk quantities equal the events-algebra reference
    and conftest's recursive value oracles."""

    def test_exactly_equal(self, single_edge):
        # On the single edge ab is always probed, so the conditionals on "ab
        # never probed" take the zero-condition branch.
        instances = random_instances(seed=50, count=40) + [single_edge, TINY_NEVER]
        grid = [all(p in P_GRID for _, _, p in inst.edges) for inst in instances]
        assert any(grid) and not all(grid)
        for inst in instances:
            report = check_chain(inst)
            ab = greedy_policy(inst)(initial_state(inst))
            alpha, beta, p_ab = inst.edges[ab]
            t_alpha, t_beta = inst.patience[alpha], inst.patience[beta]
            t = opt_tree_of(inst)
            not_probe = Not(ProbesEdge(ab))

            def cond(a):
                c = conditional_probability(t, a, not_probe)
                return 0.0 if c is None else c

            e_optprime = reference_optprime(t, ab)
            e_algL = reference_algL(t, ab, alpha, beta)
            e_algR = reference_algR(inst, t, ab)
            assert report.e_optprime == e_optprime
            assert report.e_algL == e_algL
            assert report.e_algR == e_algR
            assert transform_optprime(inst, ab) == e_optprime
            assert value_algL(inst, ab) == e_algL
            assert value_algR(inst, ab) == e_algR
            assert report.p_probe_ab == event_probability(t, ProbesEdge(ab))
            assert report.e_RL == residual_RL(t, ab, alpha, beta, p_ab)
            assert report.e_RR == residual_RR(t, ab, alpha, beta, t_alpha, t_beta, p_ab)
            assert check_key_lemma(inst, ab) == (report.keylem_alpha, report.keylem_beta)
            r = (1.0 - p_ab) / p_ab
            assert (report.keylem_alpha, report.keylem_beta) == tuple(
                KeyLemmaResult(
                    r * cond(TakesVertexAtKth(g, t_g)),
                    cond(FailsKthOfVertex(g, t_g)),
                    cond(Not(TakesVertex(g))),
                )
                for g, t_g in ((alpha, t_alpha), (beta, t_beta))
            )
            assert report.cond_take_alpha == cond(TakesVertex(alpha))
            assert report.cond_take_beta == cond(TakesVertex(beta))
            assert report.cond_take_alpha_kth == cond(TakesVertexAtKth(alpha, t_alpha))
            assert report.cond_take_beta_kth == cond(TakesVertexAtKth(beta, t_beta))

            opt_left, _ = optimal_value(_reduced_after_success(inst, alpha, beta))
            opt_right, _ = optimal_value(_reduced_after_failure(inst, ab))
            assert report.slacks["induction"] == min(
                opt_left - value_algL(inst, ab),
                opt_right - value_algR(inst, ab),
            )
