"""The three benchmark workloads: certify, solve and simulate.

Each workload is a closed loop in one thread: the next item starts when the
previous one returns.  A workload has three steps:

- ``setup(sm, seed)`` makes the fixed input set from the seed (and warms what
  a user would have warm); it is timed as ``setup_s``.
- ``run_pass(sm, state)`` runs the whole input set once and returns the
  latency of each item in seconds plus the pass's outputs.  The timed
  section repeats passes, so every pass sees identical inputs.
- ``mismatches(first, out)`` counts the items of a later pass whose outputs
  differ from the first pass's; every pass must repeat the first exactly.
- ``check(sm, state, first)`` runs after the timed section on the first
  pass's outputs and returns the number of failed items, the DP state count
  and informational fields.  A failure that spoils the whole pass counts
  every item.

``sm`` holds the stochmatch modules by short name.  Library functions are
looked up as module attributes at call time, so the tracer's rebinding of a
name in its defining module also covers the benchmark's own calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from time import perf_counter

TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# certify: `stochmatch scan` at its CLI defaults (gnp, n=5, density 0.5,
# t_max 3, grid p); 2,000 instances per pass keep the work per seed within a
# few percent of the mean.
CERTIFY_COUNT = 2000

# solve and simulate: ROADMAP W3 ladder rungs.  The graph and the patience of
# each rung come from generator seed 1, so the state counts are fixed; the
# workload seed draws the uniform edge probabilities, which do not change
# the DP's state space.
LADDER_SEED = 1
DISJOINT_EDGES = 16

# simulate: each item is one batch under the optimal policy followed by one
# batch under greedy, with the same RNG seed.  With 1,000 smaller items a
# pass, a changing 1-2% of them ran up to 1.6x slower in every pass, so the
# 99th percentile flipped by 30-40% between runs; 100 items of 100 trials
# keep it steady, at the cost of p99 being the slowest item.
SIM_BATCHES = 100
SIM_TRIALS = 100
# A pass's mean under either policy further than this many standard errors
# from the exact value fails; a correct simulator essentially never does.
SIM_Z = 6.0


def _differing_items(first, out):
    return sum(o != f for o, f in zip(out, first))


def _certify_spec(sm, seed):
    return sm.generator.GeneratorSpec(seed=seed)


class Certify:
    """The `scan` loop: check_chain on each instance, CSV rows, worst replay."""

    name = "certify"

    def setup(self, sm, seed):
        instances = sm.generator.generate_instances(_certify_spec(sm, seed), CERTIFY_COUNT)
        return {"seed": seed, "instances": instances}

    def run_pass(self, sm, state):
        seed = state["seed"]
        lat = []
        rows = [",".join(sm.proofcheck.ChainReport.csv_header())]
        passed = []
        e_opt = []
        e_grd = []
        worst_ratio = 0.0
        worst_inst = None
        for i, inst in enumerate(state["instances"]):
            t0 = perf_counter()
            report = sm.proofcheck.check_chain(inst, instance_id=f"gnp-{seed}-{i}")
            lat.append(perf_counter() - t0)
            rows.append(",".join(report.csv_row()))
            passed.append(report.passed)
            e_opt.append(report.e_opt)
            e_grd.append(report.e_grd)
            if report.ratio > worst_ratio:
                worst_ratio = report.ratio
                worst_inst = inst
        out = {
            "csv": "\n".join(rows) + "\n",
            "replay": sm.core.format_instance(worst_inst),
            "worst_ratio": worst_ratio,
            "passed": passed,
            "e_opt": e_opt,
            "e_grd": e_grd,
        }
        return lat, out

    def mismatches(self, first, out):
        # The CSV and the replay must repeat byte for byte.
        if out["csv"] != first["csv"] or out["replay"] != first["replay"]:
            return len(first["passed"])
        return 0

    def check(self, sm, state, first):
        instances = state["instances"]
        exact = _exact_values(sm, instances)
        failed = sum(
            not ok or abs(e_opt - opt) > TOL or abs(e_grd - grd) > TOL
            for ok, e_opt, e_grd, (opt, grd, _) in zip(
                first["passed"], first["e_opt"], first["e_grd"], exact
            )
        )
        aggregate = {
            "sum_e_opt": math.fsum(first["e_opt"]),
            "sum_e_grd": math.fsum(first["e_grd"]),
            "worst_ratio": first["worst_ratio"],
        }
        stored = _stored_reference(state["seed"])
        # A wrong replay or aggregate fails the whole pass.
        if sm.core.parse_instance(first["replay"]) not in instances or (
            stored is not None
            and any(abs(aggregate[k] - stored[k]) > TOL for k in aggregate)
        ):
            failed = len(instances)
        info = {
            "csv_sha256": hashlib.sha256(first["csv"].encode("utf-8")).hexdigest(),
            "reference": "stored" if stored is not None else "not stored for this seed",
            **aggregate,
        }
        return failed, sum(states for _, _, states in exact), info


def _stored_reference(seed):
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)["certify"].get(str(seed))


def _exact_values(sm, instances):
    """(optimal value, greedy value, DP states) of each instance."""
    out = []
    for inst in instances:
        value, memo = sm.solver.optimal_value(inst)
        out.append((value, sm.policy.policy_value(inst, sm.policy.greedy_policy(inst)), len(memo)))
    return out


def certify_reference(sm, seed):
    """Reference aggregates for one seed from the DP and greedy evaluators."""
    instances = sm.generator.generate_instances(_certify_spec(sm, seed), CERTIFY_COUNT)
    exact = _exact_values(sm, instances)
    return {
        "sum_e_opt": math.fsum(opt for opt, _, _ in exact),
        "sum_e_grd": math.fsum(grd for _, grd, _ in exact),
        "worst_ratio": max(opt / grd for opt, grd, _ in exact),
    }


def _with_seeded_p(sm, inst, seed):
    rng = random.Random(seed)
    edges = tuple((u, v, 1.0 - rng.random()) for u, v, _ in inst.edges)
    return sm.core.Instance(n=inst.n, edges=edges, patience=inst.patience)


def _ladder(sm, seed):
    """The solve ladder as (name, instance), uniform p drawn from the seed."""
    G = sm.generator
    rungs = []
    for name, family, n in (("gnp8", "gnp", 8), ("k7", "complete", 7), ("path12", "path", 12)):
        spec = G.GeneratorSpec(family=family, n=n, p_grid=False, t_max=3, seed=LADDER_SEED)
        inst = G.generate_instances(spec, 1)[0]
        rungs.append((name, _with_seeded_p(sm, inst, seed)))
    k = DISJOINT_EDGES
    disjoint = sm.core.Instance(
        n=2 * k,
        edges=tuple((2 * i, 2 * i + 1, 0.5) for i in range(k)),
        patience=(1,) * (2 * k),
    )
    rungs.append((f"disjoint{k}", disjoint))
    return rungs


class Solve:
    """The `ratio` command on each ladder rung: parse, DP, greedy's tree, ratio."""

    name = "solve"

    def setup(self, sm, seed):
        texts = [(name, sm.core.format_instance(inst)) for name, inst in _ladder(sm, seed)]
        return {"texts": texts}

    def run_pass(self, sm, state):
        lat = []
        out = []
        for _, text in state["texts"]:
            t0 = perf_counter()
            inst = sm.core.parse_instance(text)
            e_opt, memo = sm.solver.optimal_value(inst)
            # As `ratio` does: greedy's value from its explicit tree.
            e_grd = sm.policy.tree_value(sm.policy.build_tree(inst, sm.policy.greedy_policy(inst)))
            ratio = e_opt / e_grd
            lat.append(perf_counter() - t0)
            out.append((e_opt, e_grd, ratio, len(memo)))
        return lat, out

    mismatches = staticmethod(_differing_items)

    def check(self, sm, state, first):
        failed = 0
        for (_, text), (e_opt, e_grd, ratio, _) in zip(state["texts"], first):
            inst = sm.core.parse_instance(text)
            tree = sm.policy.build_tree(inst, sm.solver.optimal_policy(inst))
            grd = sm.policy.policy_value(inst, sm.policy.greedy_policy(inst))
            failed += (
                abs(e_opt - sm.policy.tree_value(tree)) > TOL
                or abs(e_grd - grd) > TOL
                or not 1.0 - TOL <= ratio <= 2.0 + TOL
            )
        states = sum(rung[3] for rung in first)
        info = {"rung_states": {name: rung[3] for (name, _), rung in zip(state["texts"], first)}}
        return failed, states, info


class Simulate:
    """`simulate` on the gnp n=8 rung under the optimal and greedy policies."""

    name = "simulate"

    def setup(self, sm, seed):
        _, inst = _ladder(sm, LADDER_SEED)[0]
        inst = sm.core.parse_instance(sm.core.format_instance(inst))
        optimal = sm.solver.optimal_policy(inst)
        optimal(sm.core.initial_state(inst))  # the one-time solve
        rng = random.Random(seed)
        return {
            "inst": inst,
            "optimal": optimal,
            "greedy": sm.policy.greedy_policy(inst),
            "batch_seeds": [rng.getrandbits(64) for _ in range(SIM_BATCHES)],
        }

    def run_pass(self, sm, state):
        inst = state["inst"]
        lat = []
        out = []
        for batch_seed in state["batch_seeds"]:
            t0 = perf_counter()
            r_opt = sm.montecarlo.simulate(inst, state["optimal"], SIM_TRIALS, batch_seed)
            r_grd = sm.montecarlo.simulate(inst, state["greedy"], SIM_TRIALS, batch_seed)
            lat.append(perf_counter() - t0)
            out.append(((r_opt.mean, r_opt.stddev), (r_grd.mean, r_grd.stddev)))
        return lat, out

    mismatches = staticmethod(_differing_items)

    def check(self, sm, state, batches):
        inst = state["inst"]
        exact_opt, memo = sm.solver.optimal_value(inst)
        exact_grd = sm.policy.policy_value(inst, sm.policy.greedy_policy(inst))
        failed = 0
        info = {}
        for k, (policy, exact) in enumerate((("optimal", exact_opt), ("greedy", exact_grd))):
            mean = math.fsum(batch[k][0] for batch in batches) / len(batches)
            second = math.fsum(sd * sd + m * m for (m, sd) in (b[k] for b in batches))
            stddev = math.sqrt(max(second / len(batches) - mean * mean, 0.0))
            if abs(mean - exact) > SIM_Z * stddev / math.sqrt(SIM_TRIALS * len(batches)):
                failed = len(batches)
            info[f"exact_{policy}"] = exact
            info[f"mean_{policy}"] = mean
        return failed, len(memo), info


WORKLOADS = {w.name: w for w in (Certify(), Solve(), Simulate())}
