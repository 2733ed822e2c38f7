import pytest

from conftest import arbitrary_policy, random_instances

from stochmatch.core import Instance, State
from stochmatch.montecarlo import SplitMix64, simulate
from stochmatch.policy import greedy_policy, policy_value


class TestSplitMix64:
    def test_deterministic_stream(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_floats_in_unit_interval(self):
        rng = SplitMix64(999)
        for _ in range(1000):
            u = rng.next_float()
            assert 0.0 <= u < 1.0

    def test_distinct_seeds_differ(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()


class TestSimulate:
    def test_certain_edge(self):
        inst = Instance(n=2, edges=((0, 1, 1.0),), patience=(1, 1))
        result = simulate(inst, greedy_policy(inst), trials=500, seed=7)
        assert result.mean == 1.0
        assert result.stddev == 0.0
        assert result.ci95_halfwidth == 0.0

    def test_empty_graph(self, empty_graph):
        result = simulate(empty_graph, greedy_policy(empty_graph), trials=100, seed=1)
        assert result.mean == 0.0

    def test_star2_accuracy(self, star2):
        result = simulate(star2, greedy_policy(star2), trials=100_000, seed=42)
        assert abs(result.mean - 0.75) < 0.01

    def test_seed_reproducibility(self, star2):
        a = simulate(star2, greedy_policy(star2), trials=5000, seed=42)
        b = simulate(star2, greedy_policy(star2), trials=5000, seed=42)
        assert a == b

    def test_trials_validated(self, star2):
        with pytest.raises(ValueError):
            simulate(star2, greedy_policy(star2), trials=0, seed=1)

    def test_non_matching_trajectory_raises(self, monkeypatch):
        # A success transition that removes only the probed edge leaves its
        # endpoints matchable, so the path's second certain edge reuses
        # vertex 1.
        def keep_endpoints(inst, s, e):
            return State(alive=s.alive & ~(1 << e), patience_left=s.patience_left)

        monkeypatch.setattr("stochmatch.montecarlo.apply_success", keep_endpoints)
        inst = Instance(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)), patience=(1, 1, 1))
        with pytest.raises(RuntimeError, match="already matched"):
            simulate(inst, greedy_policy(inst), trials=1, seed=0)

    def test_agrees_with_exact_values(self):
        # Statistical acceptance: at most one of the pairs may stray past
        # four CI half-widths. Seeds are pinned so this is deterministic.
        misses = 0
        for i, inst in enumerate(random_instances(seed=55, count=20, n_max=5, m_max=6)):
            pol = greedy_policy(inst) if i % 2 == 0 else arbitrary_policy(inst, i)
            exact = policy_value(inst, pol)
            result = simulate(inst, pol, trials=100_000, seed=1000 + i)
            tolerance = max(4.0 * result.ci95_halfwidth, 1e-9)
            if abs(result.mean - exact) >= tolerance:
                misses += 1
        assert misses <= 1
