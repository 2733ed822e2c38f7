import gc
import weakref

import pytest

from conftest import (
    arbitrary_policy,
    field_layout,
    leaf_probabilities,
    path_sum_value,
    random_instances,
)

from stochmatch import core
from stochmatch.core import (
    Instance,
    SizeCapError,
    apply_failure,
    apply_success,
    initial_state,
    kernel,
)
from stochmatch.policy import (
    TreeNode,
    build_tree,
    greedy_policy,
    policy_value,
    tree_value,
)
from stochmatch.solver import optimal_policy, optimal_value


class TestGreedy:
    def test_picks_max_probability(self):
        inst = Instance(
            n=4, edges=((0, 1, 0.5), (1, 2, 0.9), (2, 3, 0.5)), patience=(1, 1, 1, 1)
        )
        assert greedy_policy(inst)(initial_state(inst)) == 1

    def test_tie_breaks_by_index(self):
        inst = Instance(n=4, edges=((0, 1, 0.5), (2, 3, 0.5)), patience=(1, 1, 1, 1))
        assert greedy_policy(inst)(initial_state(inst)) == 0

    def test_all_failure_path_order(self, p4):
        pol = greedy_policy(p4)
        rows = kernel(p4)
        key = initial_state(p4)
        probed = []
        while (e := pol(key)) is not None:
            probed.append(e)
            key = apply_failure(rows, key, e)
        assert probed == [1, 0, 2]  # bc first (p=0.51), then ab, then cd

    def test_stop_on_empty(self, empty_graph):
        assert greedy_policy(empty_graph)(initial_state(empty_graph)) is None


class TestBuildTree:
    def test_single_edge(self, single_edge):
        t = build_tree(single_edge, greedy_policy(single_edge))
        assert t.edge == 0 and t.p == 0.7
        assert t.left.is_leaf and t.right.is_leaf

    def test_empty_graph(self, empty_graph):
        t = build_tree(empty_graph, greedy_policy(empty_graph))
        assert t.is_leaf

    def test_star2_shape(self, star2):
        t = build_tree(star2, greedy_policy(star2))

        def count_internal(node):
            if node.is_leaf:
                return 0
            return 1 + count_internal(node.left) + count_internal(node.right)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        # Success on the first spoke removes the shared center, so that
        # branch is a leaf: two internal nodes, one per possible probe.
        assert count_internal(t) == 2
        assert depth(t) == 2

    def test_child_state_invariant(self, p4):
        rows = kernel(p4)

        def walk(node):
            if node.is_leaf:
                return
            assert node.left.state == apply_success(rows, node.state, node.edge)
            assert node.right.state == apply_failure(rows, node.state, node.edge)
            walk(node.left)
            walk(node.right)

        t = build_tree(p4, greedy_policy(p4))
        assert t.state == initial_state(p4)
        walk(t)


def _distinct_nodes(t):
    seen = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if not node.is_leaf:
                stack.extend((node.left, node.right))
    return seen


class TestTreeNode:
    def test_fields_in_order(self):
        assert TreeNode._fields == ("state", "edge", "u", "v", "p", "left", "right", "value")

    def test_immutable(self, p4):
        t = build_tree(p4, greedy_policy(p4))
        for name in TreeNode._fields:
            with pytest.raises(AttributeError):
                setattr(t, name, None)

    def test_equality_and_hash_compare_whole_subtrees(self, p4):
        a = build_tree(p4, greedy_policy(p4))
        b = build_tree(p4, greedy_policy(p4))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != build_tree(p4, optimal_policy(p4))


class TestSharedSubtrees:
    def test_disjoint_greedy_tree_has_one_node_per_state(self, disjoint16):
        t = build_tree(disjoint16, greedy_policy(disjoint16))
        assert len(_distinct_nodes(t)) == 17
        assert tree_value(t) == 8.0
        assert sum(leaf_probabilities(t)) == 1.0

    def test_equal_states_share_a_node(self):
        for inst in random_instances(seed=14, count=20):
            nodes = _distinct_nodes(build_tree(inst, greedy_policy(inst))).values()
            assert len({node.state for node in nodes}) == len(nodes)

    @pytest.mark.parametrize("factory", [greedy_policy, optimal_policy])
    def test_policy_freed_without_gc(self, p4, factory):
        pol = factory(p4)
        ref = weakref.ref(pol)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = build_tree(p4, pol)
            del pol
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
        assert tree_value(t) > 0.0

    @pytest.mark.parametrize("e", [0, 2, 5, -1])
    def test_dead_edge_raises(self, e):
        # Edge 0 is dead once probed; 2, 5 and -1 are m, m + 3 and -1, no edge
        # index at all.  m and m + 3 raised IndexError from inst.edges; -1 read
        # the last edge, then raised "negative shift count".  The middle
        # vertex's patience field sets bit m of the key, so the alive bit
        # alone would pass index m.
        path = Instance(n=3, edges=((0, 1, 0.5), (1, 2, 0.5)), patience=(1, 1, 1))
        with pytest.raises(ValueError, match=f"edge {e} is not alive"):
            build_tree(path, lambda key: e)

    @pytest.mark.parametrize("e", [True, False, 1.0, 0.0])
    def test_edge_must_be_an_int(self, disjoint_pair, e):
        # True and False were taken as edges 1 and 0, and the tree's root edge
        # read True; 1.0 raised a bare TypeError at the shift.  The
        # transitions judge the edge, for every caller.
        root = initial_state(disjoint_pair)
        inner = greedy_policy(disjoint_pair)

        def pol(key):
            return e if key == root else inner(key)

        for evaluate in (build_tree, policy_value):
            with pytest.raises(ValueError, match=f"edge {e} is not alive"):
                evaluate(disjoint_pair, pol)
        for apply in (apply_success, apply_failure):
            with pytest.raises(ValueError, match=f"edge {e} is not alive"):
                apply(kernel(disjoint_pair), root, e)

    def test_node_budget_at_count_and_one_below(self, p4, monkeypatch):
        # _build stores at most core.MAX_STATES nodes, read when the build starts.
        tree = build_tree(p4, greedy_policy(p4))
        nodes = len(_distinct_nodes(tree))
        monkeypatch.setattr(core, "MAX_STATES", nodes)
        assert build_tree(p4, greedy_policy(p4)) == tree
        monkeypatch.setattr(core, "MAX_STATES", nodes - 1)
        with pytest.raises(SizeCapError, match=f"more than {nodes - 1} nodes"):
            build_tree(p4, greedy_policy(p4))
        assert build_tree(p4, greedy_policy(p4), force=True) == tree

class TestValues:
    def test_single_edge_value(self, single_edge):
        t = build_tree(single_edge, greedy_policy(single_edge))
        assert tree_value(t) == pytest.approx(0.7, abs=1e-15)

    def test_empty_value(self, empty_graph):
        assert tree_value(build_tree(empty_graph, greedy_policy(empty_graph))) == 0.0
        assert policy_value(empty_graph, greedy_policy(empty_graph)) == 0.0

    def test_star2_value(self, star2):
        assert policy_value(star2, greedy_policy(star2)) == pytest.approx(0.75, abs=1e-12)

    def test_disjoint_edges_linearity(self, disjoint_pair):
        assert policy_value(disjoint_pair, greedy_policy(disjoint_pair)) == pytest.approx(
            1.7, abs=1e-12
        )

    def test_path_two_probes(self):
        inst = Instance(n=3, edges=((0, 1, 0.9), (1, 2, 0.8)), patience=(2, 2, 2))
        assert policy_value(inst, greedy_policy(inst)) == pytest.approx(0.98, abs=1e-12)

    def test_patience_beyond_a_byte(self):
        # A 301-leaf star whose center has patience 300: a 9-bit field, so
        # greedy stops after 300 failures, and without the field it would not.
        k = 301
        inst = Instance(
            n=k + 1,
            edges=tuple((0, i, 0.01) for i in range(1, k + 1)),
            patience=(300,) + (1,) * k,
        )
        fields, top = field_layout(inst)
        assert (fields[0], top) == ((k, 9), k + 9)
        assert policy_value(inst, greedy_policy(inst)) == pytest.approx(1 - 0.99**300, abs=1e-12)

    def test_more_than_32_edges(self):
        # A star whose center has patience 1: greedy's one probe ends every path.
        k = 40
        inst = Instance(
            n=k + 1,
            edges=tuple((0, i, 0.9 if i == k else 0.5) for i in range(1, k + 1)),
            patience=(1,) * (k + 1),
        )
        assert policy_value(inst, greedy_policy(inst), force=True) == 0.9


class TestProperties:
    def test_leaf_probabilities_sum_to_one(self):
        for inst in random_instances(seed=11, count=20):
            t = build_tree(inst, greedy_policy(inst))
            assert sum(leaf_probabilities(t)) == pytest.approx(1.0, abs=1e-12)

    def test_tree_value_matches_policy_value(self):
        for i, inst in enumerate(random_instances(seed=12, count=25)):
            for pol in (greedy_policy(inst), arbitrary_policy(inst, i), arbitrary_policy(inst, 1000 + i), arbitrary_policy(inst, 2000 + i), arbitrary_policy(inst, 3000 + i)):
                t = build_tree(inst, pol)
                assert abs(tree_value(t) - path_sum_value(t)) <= 1e-12
                assert policy_value(inst, pol) == tree_value(t)

    def test_optimal_tree_value_is_dp_value(self):
        # The tree's bottom-up value repeats the DP's float expression.
        for inst in random_instances(seed=15, count=200):
            t = build_tree(inst, optimal_policy(inst))
            assert tree_value(t) == optimal_value(inst)[0]

    def test_certain_probes_realize_greedy_matching(self):
        # With p = 1 everywhere, every probe succeeds and greedy's value is
        # the size of the matching its fixed order produces.
        inst = Instance(
            n=5,
            edges=((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)),
            patience=(1, 1, 1, 1, 1),
        )
        value = policy_value(inst, greedy_policy(inst))
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_value_bounds(self):
        for inst in random_instances(seed=13, count=20):
            value = policy_value(inst, greedy_policy(inst))
            assert value <= inst.n // 2 + 1e-12
            assert value <= inst.m + 1e-12
