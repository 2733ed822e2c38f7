import pytest

from conftest import random_instances

from stochmatch.core import Instance
from stochmatch.events import (
    And,
    FailsKthOfVertex,
    Not,
    ProbesEdge,
    ProbesVertexKth,
    TakesEdge,
    TakesVertex,
    TakesVertexAtKth,
    conditional_probability,
    event_probability,
)
from stochmatch.policy import build_tree, greedy_policy
from stochmatch.solver import optimal_policy


def test_root_edge_always_probed(p4):
    t = build_tree(p4, greedy_policy(p4))
    assert event_probability(t, ProbesEdge(t.edge)) == pytest.approx(1.0, abs=1e-15)


def test_takes_root_edge_depth_one(single_edge):
    t = build_tree(single_edge, greedy_policy(single_edge))
    assert event_probability(t, TakesEdge(0)) == pytest.approx(0.7, abs=1e-15)


def test_event_and_negation_partition():
    for inst in random_instances(seed=31, count=15):
        t = build_tree(inst, greedy_policy(inst))
        for q in (ProbesEdge(0), TakesEdge(0), TakesVertex(0), ProbesVertexKth(0, 2)):
            total = event_probability(t, q) + event_probability(t, Not(q))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_take_vertex_sums_incident_edges(star2):
    t = build_tree(star2, greedy_policy(star2))
    take_center = event_probability(t, TakesVertex(0))
    both = event_probability(t, TakesEdge(0)) + event_probability(t, TakesEdge(1))
    assert take_center == pytest.approx(both, abs=1e-12)


def test_kth_take_implies_kth_probe():
    for inst in random_instances(seed=32, count=15):
        t = build_tree(inst, optimal_policy(inst))
        for vertex in range(inst.n):
            for k in range(1, inst.patience[vertex] + 1):
                bad = And(TakesVertexAtKth(vertex, k), Not(ProbesVertexKth(vertex, k)))
                assert event_probability(t, bad) == 0.0


def test_kth_split_into_success_and_failure():
    for inst in random_instances(seed=33, count=10):
        t = build_tree(inst, greedy_policy(inst))
        for vertex in range(inst.n):
            k = inst.patience[vertex]
            probed = event_probability(t, ProbesVertexKth(vertex, k))
            took = event_probability(t, TakesVertexAtKth(vertex, k))
            failed = event_probability(t, FailsKthOfVertex(vertex, k))
            assert probed == pytest.approx(took + failed, abs=1e-12)


class TestConditional:
    def test_certain_condition(self, p4):
        t = build_tree(p4, greedy_policy(p4))
        a = TakesEdge(1)
        certain = ProbesEdge(1)  # greedy always probes bc first
        assert conditional_probability(t, a, certain) == pytest.approx(
            event_probability(t, a), abs=1e-12
        )

    def test_self_condition(self, p4):
        t = build_tree(p4, greedy_policy(p4))
        q = TakesEdge(1)
        assert conditional_probability(t, q, q) == pytest.approx(1.0, abs=1e-12)

    def test_tiny_condition_defined(self):
        # Probing in index order, the condition "both 1e-10 edges taken" has
        # mass about 1e-20; only an exact 0 leaves a conditional undefined.
        inst = Instance(
            n=6, edges=((0, 1, 1e-10), (2, 3, 1e-10), (4, 5, 0.3)), patience=(1,) * 6
        )

        def in_order(key):
            return next((e for e in range(inst.m) if key >> e & 1), None)

        t = build_tree(inst, in_order)
        both = And(TakesEdge(0), TakesEdge(1))
        assert 0.0 < event_probability(t, both) < 1e-19
        assert conditional_probability(t, TakesEdge(2), both) == pytest.approx(0.3, rel=1e-12)

    def test_zero_condition_undefined(self, single_edge):
        t = build_tree(single_edge, greedy_policy(single_edge))
        assert conditional_probability(t, TakesEdge(0), Not(ProbesEdge(0))) is None
