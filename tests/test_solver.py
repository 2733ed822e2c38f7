import pytest

from conftest import (
    arbitrary_policy,
    brute_force_optimal,
    canonical_key,
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
from stochmatch.policy import build_tree, greedy_policy, policy_value
from stochmatch.solver import (
    check_lemma31,
    check_subtree_optimality,
    optimal_policy,
    optimal_value,
    state_value,
)


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
        assert state_value(p4, root, memo) == value
        assert optimal_policy(p4, memo=memo)(root) == 0  # ab, by index tie-break against cd
        assert len(memo) == size  # both read the root solve's entries

    def test_deterministic_rerun(self, p4):
        v1, m1 = optimal_value(p4)
        v2, m2 = optimal_value(p4)
        assert v1 == v2
        assert m1 == m2


class TestPackedKey:
    def test_patience_beyond_a_byte(self):
        inst = Instance(n=2, edges=((0, 1, 0.5),), patience=(300, 1))
        value, memo = optimal_value(inst, force=True)
        assert value == 0.5
        assert len(memo) == 3  # root, success and failure

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
        # The root and one state per edge: either outcome exhausts the center
        # and the leaf and leaves no alive edge, so both children share a key.
        assert len(memo) == k + 1
        assert optimal_policy(inst, force=True, memo=memo)(initial_state(inst)) == k - 1

    def test_disjoint_tie_break_exact(self, disjoint16):
        value, memo = optimal_value(disjoint16)
        assert value == 8.0
        assert len(memo) == 2**16
        assert optimal_policy(disjoint16, memo=memo)(initial_state(disjoint16)) == 0

    def test_state_outside_instance_rejected(self, p4):
        for alive, patience in [
            (0, (0, 0, 0, 4)),  # 1 << (m + w * n): one past the last field
            (0, (2, 2, 2, 8)),  # a patience wider than its field
            (0, (2, 2, 2, 2, 1)),  # a fifth vertex
            (-1, (0, 0, 0, 0)),  # negative
            (0b001, (0, 2, 2, 2)),  # not canonical: edge 0 alive at exhausted vertex 0
            (0b100, (2, 2, 2, 0)),  # not canonical: edge 2 alive at exhausted vertex 3
        ]:
            key = pack_key(p4, alive, patience)
            with pytest.raises(ValueError):
                state_value(p4, key)
            # Checked before the solve, so nothing enters a shared memo.
            memo = {}
            with pytest.raises(ValueError):
                optimal_policy(p4, memo=memo)(key)
            assert memo == {}


class TestCanonicalStates:
    def _check_against_reference(self, inst):
        _, memo = optimal_value(inst, force=True)
        size = len(memo)
        pol = optimal_policy(inst, force=True, memo=memo)
        for s, (value, edge) in reference_dp(inst).items():
            key = canonical_key(inst, s)
            assert state_value(inst, key, memo) == value
            assert pol(key) == edge
        assert len(memo) == size  # every reachable raw state's key was solved from the root
        for key in memo:
            alive, patience = unpack_key(inst, key)
            assert not any(
                alive >> e & 1 and not (patience[u] and patience[v])
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
        assert counts == [17_110, 4_979, 10_836, 65_536]


class TestOptimalPolicy:
    def test_single_edge(self, single_edge):
        assert optimal_policy(single_edge)(initial_state(single_edge)) == 0

    def test_p4_avoids_middle(self, p4):
        assert optimal_policy(p4)(initial_state(p4)) == 0

    def test_warm_memo_never_builds_rows(self, monkeypatch):
        instances = random_instances(seed=25, count=20)
        solved = [optimal_value(inst) for inst in instances]

        def no_rows(inst):
            raise AssertionError("kernel built for a memo that holds every state")

        monkeypatch.setattr(solver, "kernel", no_rows)
        for inst, (value, memo) in zip(instances, solved):
            assert build_tree(inst, optimal_policy(inst, memo=memo)).value == value

    def test_cold_policy_builds_rows_once(self, monkeypatch, p4):
        built = []

        def counted(inst):
            built.append(inst)
            return kernel(inst)

        monkeypatch.setattr(solver, "kernel", counted)
        memo = {}
        pol = optimal_policy(p4, memo=memo)
        assert built == []
        rows, root = kernel(p4), initial_state(p4)
        # After a-b or c-d succeeds only the other end edge is left: two
        # disjoint states, then the root, each a memo miss.
        keys = [apply_success(rows, root, 0), apply_success(rows, root, 2), root]
        misses = 0
        for key in keys:
            misses += key not in memo
            pol(key)
        assert misses == 3
        assert built == [p4]

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
