from collections import Counter

import pytest

from conftest import arbitrary_policy, random_instances, reference_simulate

from stochmatch import core
from stochmatch.core import Instance, initial_state
from stochmatch.generator import GeneratorSpec, generate_instances
from stochmatch.montecarlo import SimResult, simulate
from stochmatch.policy import greedy_policy, policy_value
from stochmatch.solver import optimal_policy


class TestGoldenStream:
    """Exact results for fixed seeds: a change to the random stream or to the
    draws per probe fails here."""

    def test_star2_greedy(self, star2):
        assert simulate(star2, greedy_policy(star2), trials=1000, seed=42) == SimResult(
            trials=1000,
            mean=0.734,
            stddev=0.44186423254207846,
            ci95_halfwidth=0.027387028871347106,
            seed=42,
        )

    def test_p4_optimal(self, p4):
        assert simulate(p4, optimal_policy(p4), trials=1000, seed=42) == SimResult(
            trials=1000,
            mean=1.113,
            stddev=0.6117442275984302,
            ci95_halfwidth=0.037916300051560936,
            seed=42,
        )


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
        # True ran one trial and reported trials=True; 2.5 failed in range().
        for trials in (0, True, 2.5):
            with pytest.raises(ValueError, match="trials must be an int >= 1"):
                simulate(star2, greedy_policy(star2), trials=trials, seed=1)

    def test_seed_validated(self, star2):
        # A float, None or str seed failed with a bare TypeError at the mask;
        # a bool is not an int here, as with trials.
        for seed in (1.5, None, "7", True):
            with pytest.raises(ValueError, match="seed must be an int"):
                simulate(star2, greedy_policy(star2), trials=10, seed=seed)

    def test_non_matching_trajectory_raises(self, monkeypatch):
        # A success transition that removes only the probed edge leaves its
        # endpoints matchable, so the path's second certain edge reuses
        # vertex 1.
        def keep_endpoints(rows, key, e):
            return key & ~(1 << e)

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


POLICIES = {
    "greedy": lambda inst, i: greedy_policy(inst),
    "arbitrary": arbitrary_policy,
    "optimal": lambda inst, i: optimal_policy(inst),
}


class TestStepCache:
    """simulate fills one linked node per visited state, up to the state
    budget; the uncached loop in conftest.reference_simulate is its oracle."""

    @pytest.mark.parametrize("name", list(POLICIES))
    def test_matches_uncached_reference(self, name):
        for i, inst in enumerate(random_instances(seed=7, count=12, n_max=6, m_max=8)):
            pol = POLICIES[name](inst, i)
            expected = reference_simulate(inst, pol, trials=300, seed=i)
            assert simulate(inst, pol, trials=300, seed=i) == expected

    def test_one_policy_call_per_visited_state(self, p4):
        calls = {}
        inner = greedy_policy(p4)

        def counting(key):
            calls[key] = calls.get(key, 0) + 1
            return inner(key)

        simulate(p4, counting, trials=2000, seed=3)
        assert len(calls) > 1
        assert set(calls.values()) == {1}
        calls.clear()
        simulate(p4, counting, trials=2000, seed=3)  # a new call starts a new cache
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize("name", ["greedy", "optimal"])
    def test_matches_uncached_reference_on_gnp8(self, name):
        # Deeper graphs than the n <= 6 cases above, so that each call
        # re-enters its linked nodes many times.
        spec = GeneratorSpec(family="gnp", n=8, p_grid=False, seed=27)
        for i, inst in enumerate(generate_instances(spec, 5)):
            pol = POLICIES[name](inst, i)
            expected = reference_simulate(inst, pol, trials=3000, seed=i)
            assert simulate(inst, pol, trials=3000, seed=i) == expected

    def test_one_transition_call_per_probed_state(self, monkeypatch):
        # The transitions are called through montecarlo's names, the ones the
        # benchmark's tracer counts, once per state where pol picks an edge.
        inst = generate_instances(GeneratorSpec(family="gnp", n=8, p_grid=False, seed=27), 1)[0]
        inner = greedy_policy(inst)
        picked = {}

        def recording(key):
            picked[key] = inner(key)
            return picked[key]

        calls = {"apply_success": Counter(), "apply_failure": Counter()}
        for name, counter in calls.items():

            def counting(rows, key, e, apply=getattr(core, name), counter=counter):
                counter[key] += 1
                return apply(rows, key, e)

            monkeypatch.setattr(f"stochmatch.montecarlo.{name}", counting)
        simulate(inst, recording, trials=2000, seed=3)
        probed = Counter(key for key, e in picked.items() if e is not None)
        assert len(probed) > 10
        assert calls == {"apply_success": probed, "apply_failure": probed}

    def test_cache_bounded_by_state_budget(self, p4, monkeypatch):
        pol = optimal_policy(p4)
        expected = simulate(p4, pol, trials=2000, seed=5)
        monkeypatch.setattr(core, "MAX_STATES", 2)
        calls = []

        def counting(key):
            calls.append(key)
            return pol(key)

        assert simulate(p4, counting, trials=2000, seed=5) == expected
        assert len(calls) > len(set(calls))  # states past the budget are re-stepped

    def test_past_the_budget_states_are_stepped_on_every_visit(self, p4, monkeypatch):
        # A child past the budget is not linked into its parent, so each of
        # its visits goes to pol, as each visit does in the uncached oracle.
        pol = optimal_policy(p4)
        visits = Counter()
        stepped = Counter()

        def visiting(key):
            visits[key] += 1
            return pol(key)

        def stepping(key):
            stepped[key] += 1
            return pol(key)

        reference_simulate(p4, visiting, trials=2000, seed=5)
        monkeypatch.setattr(core, "MAX_STATES", 2)
        simulate(p4, stepping, trials=2000, seed=5)
        assert set(stepped) == set(visits)
        again = {key: n for key, n in stepped.items() if n > 1}
        assert again and again == {key: visits[key] for key in again}
        kept = [key for key, n in stepped.items() if n == 1 and visits[key] > 1]
        assert len(kept) <= 2

    @pytest.mark.parametrize("first", [None, 0, 1])
    def test_illegal_stop_raises(self, disjoint_pair, first):
        # Stopping at the root, or after edge 0 or edge 1, while the other
        # edge is alive.  Edge 1 first leaves only edge 0, the lowest bit.
        def pol(key):
            return first if first is not None and key >> first & 1 else None

        with pytest.raises(ValueError, match="stopped while edges were probeable"):
            simulate(disjoint_pair, pol, trials=10, seed=1)

    def test_dead_edge_raises(self, p4):
        # Edge 0 is dead once it has been probed, whatever the outcome.
        with pytest.raises(ValueError, match="not alive"):
            simulate(p4, lambda key: 0, trials=10, seed=1)
        # No index outside range(m) is alive.  m and m + 3 raised IndexError
        # from inst.edges; -1 read the last edge, then raised "negative shift
        # count".  The middle vertex's patience field sets bit m of the key,
        # so the alive bit alone would pass index m.
        path = Instance(n=3, edges=((0, 1, 0.5), (1, 2, 0.5)), patience=(1, 1, 1))
        for e in (path.m, path.m + 3, -1):
            with pytest.raises(ValueError, match=f"edge {e} is not alive"):
                simulate(path, lambda key: e, trials=10, seed=1)

    @pytest.mark.parametrize("e", [True, False, 1.0, 0.0])
    def test_edge_must_be_an_int(self, disjoint_pair, e):
        # True and False were taken as edges 1 and 0; 1.0 raised a bare
        # TypeError at the shift.  Past the root, the policy is greedy.
        root = initial_state(disjoint_pair)
        inner = greedy_policy(disjoint_pair)
        with pytest.raises(ValueError, match=f"edge {e} is not alive"):
            simulate(disjoint_pair, lambda key: e if key == root else inner(key), trials=10, seed=1)
