import random

import pytest

from conftest import (
    arbitrary_policy,
    brute_force_optimal,
    canonical_key,
    field_layout,
    pack_key,
    random_instances,
    reference_dp,
    unpack_key,
)

from stochmatch import solver
from stochmatch.core import (
    Instance,
    apply_failure,
    apply_success,
    initial_state,
    kernel,
    probeable_edges,
)
from stochmatch.generator import GeneratorSpec, generate_instances
from stochmatch.policy import TreeNode, build_tree, greedy_policy, policy_value, tree_value
from stochmatch.proofcheck import check_lemma31, check_subtree_optimality
from stochmatch.solver import optimal_policy, optimal_value


class TestOptimalValue:
    def test_single_edge(self, single_edge):
        value, _ = optimal_value(single_edge)
        assert value == pytest.approx(0.7, abs=1e-15)

    def test_star2(self, star2):
        value, _ = optimal_value(star2)
        assert value == pytest.approx(0.75, abs=1e-12)

    def test_p4(self, p4):
        value, _ = optimal_value(p4)
        assert value == pytest.approx(1.1275, abs=1e-9)

    def test_matches_brute_force(self):
        for inst in random_instances(seed=21, count=15, n_max=5, m_max=6, t_max=2):
            value, _ = optimal_value(inst)
            oracle = brute_force_optimal(
                list(inst.edges), dict(enumerate(inst.patience))
            )
            assert value == pytest.approx(oracle, abs=1e-12)

    def test_memo_entries(self, p4):
        value, memo = optimal_value(p4)
        size = len(memo)
        root = initial_state(p4)
        assert memo[root][0] == value
        assert memo[root][1] == 0  # ab, by index tie-break against cd
        assert len(memo) == size  # both read the root solve's entries

    def test_deterministic_rerun(self, p4):
        v1, m1 = optimal_value(p4)
        v2, m2 = optimal_value(p4)
        assert v1 == v2
        assert m1 == m2


class TestPackedKey:
    def test_patience_beyond_a_byte(self):
        # A star whose center's patience 300 is below its degree 301: a 9-bit
        # field.  Each failed probe takes one unit; the 300th exhausts the
        # center and clears its one remaining edge.
        k = 301
        inst = Instance(
            n=k + 1,
            edges=tuple((0, i, 0.5) for i in range(1, k + 1)),
            patience=(k - 1,) + (1,) * k,
        )
        rows = kernel(inst)
        key = initial_state(inst)
        assert unpack_key(inst, key) == ((1 << k) - 1, (300,) + (None,) * k)
        for e in range(k - 2):
            key = apply_failure(rows, key, e)
            assert unpack_key(inst, key) == ((1 << k) - (2 << e), (k - 2 - e,) + (None,) * k)
        assert apply_failure(rows, key, k - 2) == 0

    def test_more_than_32_edges(self):
        # A star whose center has patience 1: one probe ends every path.
        k = 40
        inst = Instance(
            n=k + 1,
            edges=tuple((0, i, 0.9 if i == k else 0.5) for i in range(1, k + 1)),
            patience=(1,) * (k + 1),
        )
        value, memo = optimal_value(inst, force=True)
        assert value == 0.9
        # The root and the empty key: either outcome of any probe exhausts the
        # center, which clears every other edge, and no leaf has a field.
        assert len(memo) == 2
        assert memo[initial_state(inst)][1] == k - 1

    def test_disjoint_tie_break_exact(self, disjoint16):
        value, memo = optimal_value(disjoint16)
        assert value == 8.0
        assert len(memo) == 2**16
        assert memo[initial_state(disjoint16)][1] == 0

    def test_state_outside_instance_rejected(self):
        # Every vertex's patience is below its degree: fields of 1, 2, 2 and
        # 1 bits above the 5 alive bits, so a key has 11 bits.
        inst = Instance(
            n=4,
            edges=((0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)),
            patience=(1, 2, 2, 1),
        )
        _, top = field_layout(inst)
        assert top == 11
        assert len(optimal_value(inst)[1]) == 23
        pol = optimal_policy(inst)
        for key in [
            pack_key(inst, 0, (0, 0, 0, 2)),  # 1 << 11: one past the last field
            pack_key(inst, 0, (1, 2, 2, 3)),  # a patience wider than its field
            pack_key(inst, 0, (1, 2, 2, 1)) | 1 << top,  # a field for a fifth vertex
            pack_key(inst, -1, (0, 0, 0, 0)),  # negative
            pack_key(inst, 0b00001, (0, 2, 2, 1)),  # not canonical: edge 0 alive at exhausted vertex 0
            pack_key(inst, 0b10000, (1, 2, 2, 0)),  # not canonical: edge 4 alive at exhausted vertex 3
            pack_key(inst, 0b11111, (1, 1, 2, 1)),  # canonical, but no probe has failed at vertex 1
        ]:
            with pytest.raises(ValueError):
                pol(key)

    def test_path16_answered_without_force(self):
        # Patience 3 is above every path vertex's degree, so no vertex has a
        # field and a key is the 15 alive bits; a field per vertex would take
        # the solve past core.MAX_STATES.
        inst = Instance(
            n=16,
            edges=tuple((i, i + 1, 0.3 + 0.02 * i) for i in range(15)),
            patience=(3,) * 16,
        )
        value, memo = optimal_value(inst)
        assert len(memo) == 2**15
        assert value == tree_value(build_tree(inst, lambda key: memo[key][1]))


class TestCanonicalStates:
    def _check_against_reference(self, inst):
        _, memo = optimal_value(inst, force=True)
        size = len(memo)
        for s, (value, edge) in reference_dp(inst).items():
            key = canonical_key(inst, s)
            assert memo[key][0] == value
            assert memo[key][1] == edge
        assert len(memo) == size  # every reachable raw state's key was solved from the root
        for key in memo:
            alive, patience = unpack_key(inst, key)
            assert not any(
                alive >> e & 1 and 0 in (patience[u], patience[v])
                for e, (u, v, _) in enumerate(inst.edges)
            )

    def test_random_instances_match_reference(self):
        for inst in random_instances(seed=27, count=150):
            self._check_against_reference(inst)

    def test_patience_one_star(self):
        k = 6
        self._check_against_reference(
            Instance(
                n=k + 1,
                edges=tuple((0, i, 0.1 * i) for i in range(1, k + 1)),
                patience=(1,) * (k + 1),
            )
        )

    def test_patience_above_degree(self):
        self._check_against_reference(
            Instance(
                n=4,
                edges=((0, 1, 0.3), (0, 2, 0.6), (1, 2, 0.5), (2, 3, 0.8)),
                patience=(5, 4, 2, 6),
            )
        )

    @staticmethod
    def _with_patience(inst, patience_of_degree):
        """(inst with each vertex's patience drawn from its degree, degrees)."""
        degree = [sum(v in e[:2] for e in inst.edges) for v in range(inst.n)]
        patience = tuple(map(patience_of_degree, degree))
        return Instance(n=inst.n, edges=inst.edges, patience=patience), degree

    def test_no_field_instances_match_reference(self):
        # Patience at least the degree everywhere: every key is its alive bits,
        # and raw states that differ only in patience share one key.
        rng = random.Random(30)
        for inst in random_instances(seed=30, count=60):
            inst, _ = self._with_patience(inst, lambda d: max(d, 1) + rng.randint(0, 1))
            assert field_layout(inst)[1] == inst.m
            self._check_against_reference(inst)

    def test_mixed_field_instances_match_reference(self):
        # Patience from 1 to degree + 1: each instance checked has a vertex
        # with a field and a vertex of degree >= 2 without one.
        rng = random.Random(31)
        checked = 0
        for inst in random_instances(seed=31, count=200):
            inst, degree = self._with_patience(inst, lambda d: rng.randint(1, d + 1))
            fields, _ = field_layout(inst)
            if any(fields) and any(f is None and d >= 2 for f, d in zip(fields, degree)):
                self._check_against_reference(inst)
                checked += 1
        assert checked >= 50

    def _check_closed_under_transitions(self, inst):
        _, memo = optimal_value(inst, force=True)
        rows = kernel(inst)
        for key, (value, edge) in memo.items():
            best = (0.0, None)
            for e in probeable_edges(inst, key):
                succ = apply_success(rows, key, e)
                fail = apply_failure(rows, key, e)
                assert succ in memo and fail in memo
                p = inst.edges[e][2]
                val = p * (1.0 + memo[succ][0]) + (1.0 - p) * memo[fail][0]
                if val > best[0]:
                    best = (val, e)
            assert (value, edge) == best

    def test_inline_dp_matches_shared_transitions(self, disjoint16):
        # _solve steps keys inline; every child core's transitions reach from
        # a memo key must be a memo key, and each entry the best over them.
        for inst in random_instances(seed=29, count=100) + [disjoint16]:
            self._check_closed_under_transitions(inst)

    def test_solve_ladder_state_counts(self, disjoint16):
        # The benchmark's solve ladder; its state counts do not depend on p.
        ladder = [
            generate_instances(GeneratorSpec(family=family, n=n, p_grid=False, t_max=3, seed=1), 1)[0]
            for family, n in (("gnp", 8), ("complete", 7), ("path", 12))
        ]
        counts = [len(optimal_value(inst)[1]) for inst in ladder + [disjoint16]]
        assert counts == [17_110, 4_979, 781, 65_536]


class TestOptimalPolicy:
    def test_single_edge(self, single_edge):
        assert optimal_policy(single_edge)(initial_state(single_edge)) == 0

    def test_p4_avoids_middle(self, p4):
        assert optimal_policy(p4)(initial_state(p4)) == 0

    def test_warm_memo_never_builds_rows(self, monkeypatch):
        instances = random_instances(seed=25, count=20)
        made = [(optimal_value(inst)[0], optimal_policy(inst)) for inst in instances]

        def no_rows(inst):
            raise AssertionError("kernel built for a memo that holds every state")

        monkeypatch.setattr(solver, "kernel", no_rows)
        for inst, (value, pol) in zip(instances, made):
            assert build_tree(inst, pol).value == value

    def test_memo_is_not_a_parameter(self, p4, single_edge):
        # A memo passed in was read unchecked: the policy made from another
        # instance's memo was worth less than the optimum and raised nothing.
        _, memo = optimal_value(single_edge)
        with pytest.raises(TypeError):
            optimal_policy(p4, memo=memo)

    def test_k4_certain_probes_perfect_matching(self):
        k4 = Instance(
            n=4,
            edges=tuple((u, v, 1.0) for u in range(4) for v in range(u + 1, 4)),
            patience=(1, 1, 1, 1),
        )
        value, _ = optimal_value(k4)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_dominates_other_policies(self):
        for i, inst in enumerate(random_instances(seed=22, count=15)):
            opt, _ = optimal_value(inst)
            assert opt >= policy_value(inst, greedy_policy(inst)) - 1e-9
            assert opt >= policy_value(inst, arbitrary_policy(inst, i)) - 1e-9

    def test_monotone_under_edge_addition(self):
        for inst in random_instances(seed=23, count=10):
            if inst.m < 2:
                continue
            full, _ = optimal_value(inst)
            smaller = Instance(n=inst.n, edges=inst.edges[:-1], patience=inst.patience)
            reduced, _ = optimal_value(smaller)
            assert full >= reduced - 1e-9

    def test_at_least_best_single_edge(self):
        for inst in random_instances(seed=24, count=10):
            value, _ = optimal_value(inst)
            assert value >= max(p for _, _, p in inst.edges) - 1e-12


class TestLemma31:
    def test_single_edge(self, single_edge):
        t = build_tree(single_edge, optimal_policy(single_edge))
        report = check_lemma31(t)
        assert report.ok
        assert report.max_margin == pytest.approx(0.7, abs=1e-12)

    def test_empty_tree(self, empty_graph):
        t = build_tree(empty_graph, optimal_policy(empty_graph))
        report = check_lemma31(t)
        assert report.ok
        assert report.nodes_checked == 0

    def test_no_violations_on_random_optimal_trees(self):
        for inst in random_instances(seed=25, count=40):
            t = build_tree(inst, optimal_policy(inst))
            assert check_lemma31(t).ok

    def test_violation_reported(self):
        # Probing edge 0 first, then greedy: its success child is worth 0.0
        # and its failure child 2.0, so the root's margin is 1.5.
        inst = Instance(n=4, edges=((0, 1, 0.5), (0, 2, 1.0), (1, 3, 1.0)), patience=(2, 2, 1, 1))
        root, greedy = initial_state(inst), greedy_policy(inst)
        t = build_tree(inst, lambda key: 0 if key == root else greedy(key))
        assert (t.left.value, t.right.value) == (0.0, 2.0)
        report = check_lemma31(t)
        assert report == (1.5, 3, [("", 1.5)])
        assert not report.ok
        report = check_lemma31(build_tree(inst, optimal_policy(inst)))
        assert report == (1.0, 3, [])
        assert report.ok

    def test_each_shared_node_checked_once(self, disjoint16):
        # 16 internal nodes and one leaf, though the tree has 2^16 - 1 internal path nodes.
        report = check_lemma31(build_tree(disjoint16, greedy_policy(disjoint16)))
        assert report.nodes_checked == 16
        assert report.max_margin == 0.5


class TestSubtreeOptimality:
    def test_single_edge(self, single_edge):
        t = build_tree(single_edge, optimal_policy(single_edge))
        assert check_subtree_optimality(single_edge, t).ok

    def test_greedy_suboptimal_on_p4(self, p4):
        t = build_tree(p4, greedy_policy(p4))
        report = check_subtree_optimality(p4, t)
        assert not report.ok
        paths = [path for path, _, _ in report.violations]
        assert "" in paths  # fails at the root

    def test_optimal_trees_pass(self):
        for inst in random_instances(seed=26, count=25):
            t = build_tree(inst, optimal_policy(inst))
            assert check_subtree_optimality(inst, t).ok

    def test_each_shared_node_checked_once(self, disjoint16):
        report = check_subtree_optimality(disjoint16, build_tree(disjoint16, greedy_policy(disjoint16)))
        assert report.nodes_checked == 17
        assert report.ok

    def test_shared_node_reported_at_first_path(self, p4):
        # Greedy probes edge 45 first, and either outcome leaves the same P4
        # state, so greedy's suboptimal P4 subtree is one node on paths L and R.
        inst = Instance(n=6, edges=p4.edges + ((4, 5, 0.9),), patience=p4.patience + (1, 1))
        report = check_subtree_optimality(inst, build_tree(inst, greedy_policy(inst)))
        assert [path for path, _, _ in report.violations] == ["", "L"]

    def test_tree_of_another_instance_rejected(self, p4, single_edge):
        # Each tree once got a report or a bare KeyError: greedy's single
        # edge read ('', 0.7, 0.5), and P4 with its middle p at 0.6 read
        # ('', 1.15, 1.1275) and ('R', 0.8, 0.755), since their keys are keys
        # of P4's memo; the 5-vertex graph's root key 4095 is not one.
        p4_middle = Instance(
            n=4, edges=((0, 1, 0.5), (1, 2, 0.6), (2, 3, 0.5)), patience=p4.patience
        )
        band = Instance(
            n=5,
            edges=tuple((u, v, 0.5) for u in range(5) for v in range(u + 1, min(u + 3, 5))),
            patience=(1,) * 5,
        )
        foreign = [
            build_tree(single_edge, greedy_policy(single_edge)),
            build_tree(p4_middle, optimal_policy(p4_middle)),
            build_tree(band, greedy_policy(band)),
        ]
        for t in foreign:
            with pytest.raises(ValueError, match="instance"):
                check_subtree_optimality(p4, t)
        # An internal node with a child left at None once raised AttributeError.
        root = initial_state(single_edge)
        leaf = TreeNode(apply_success(kernel(single_edge), root, 0))
        for left, right in [(None, None), (leaf, None)]:
            t = TreeNode(root, 0, 0, 1, 0.7, left, right, 0.7)
            with pytest.raises(ValueError, match="instance"):
                check_subtree_optimality(single_edge, t)
        # An edge of 0.0 passed a range test, and indexing the edges with it
        # raised TypeError; the transitions refuse it.
        t = build_tree(single_edge, greedy_policy(single_edge))._replace(edge=0.0)
        with pytest.raises(ValueError, match="edge 0.0 is not alive"):
            check_subtree_optimality(single_edge, t)
