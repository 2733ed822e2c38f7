"""Benchmark for stochmatch: the certify, solve and simulate workloads.

Run from the root of a checkout (stdlib only; the package is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced measurement, then one traced set-up and pass, and prints the
per-layer metrics plus the tracing overhead.  ``--workload all`` runs each
workload in its own process, one after another.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries informational fields (machine stamp,
seeds, the certify CSV's sha256).  See perfbench/README.md.
"""

from __future__ import annotations

import sys

# With no .pyc written here, and cached bytecode looked up under a directory
# that is never created (see main), every set-up compiles the package from
# source, whatever __pycache__ other runs left in src/.
sys.dont_write_bytecode = True

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1
# Not used while writing a change; re-check a claimed gain on it.
HELDOUT_SEED = 71

MODULES = ("core", "generator", "solver", "policy", "events", "proofcheck", "montecarlo")
# setup_s is the median of SETUP_POINTS x SETUP_REPEATS fresh set-ups: the
# points are spread over the run, with a few set-ups back to back at each.
SETUP_POINTS = 5
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("dp_states", "count"),
)

PER_LAYER = (
    ("events.event_probability.calls", "count"),
    ("events.event_probability.busy_s", "s"),
    ("events.nodes_walked", "count"),
    ("events.conditional_probability.calls", "count"),
    ("events.undefined_frac", "ratio"),
    ("proofcheck.check_chain.calls", "count"),
    ("proofcheck.check_chain.self_s", "s"),
    ("proofcheck.transforms.busy_s", "s"),
    ("proofcheck.key_lemma.busy_s", "s"),
    ("proofcheck.resolve.calls", "count"),
    ("proofcheck.resolve.busy_s", "s"),
    ("proofcheck.resolve.states", "count"),
    ("solver.optimal_value.calls", "count"),
    ("solver.optimal_value.busy_s", "s"),
    ("solver.states", "count"),
    ("solver.states_per_s", "1/s"),
    ("solver.policy.decisions", "count"),
    ("solver.policy.busy_s", "s"),
    ("policy.build_tree.calls", "count"),
    ("policy.build_tree.self_s", "s"),
    ("policy.tree_nodes", "count"),
    ("policy.subtree_value.busy_s", "s"),
    ("policy.tree_value.busy_s", "s"),
    ("policy.greedy.decisions", "count"),
    ("policy.greedy.busy_s", "s"),
    ("montecarlo.simulate.busy_s", "s"),
    ("montecarlo.trials", "count"),
    ("montecarlo.self_s", "s"),
    ("core.transitions", "count"),
    ("core.transitions.busy_s", "s"),
    ("generator.generate_instances.busy_s", "s"),
    ("generator.instances", "count"),
    ("core.parse_instance.busy_s", "s"),
    ("core.format_instance.busy_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def import_fresh():
    """Import the package from src/ as if in a new process."""
    for name in [n for n in sys.modules if n == "stochmatch" or n.startswith("stochmatch.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"stochmatch.{m}") for m in MODULES})


def measure(workload, seed, seconds, points, repeats):
    """Set up `repeats` times at each of `points` moments and run passes for
    `seconds` seconds of passes.

    The points are spread evenly over the run, each followed by passes on
    the last set-up's fresh import, so that the median set-up time does not
    rest on one moment.

    Each pass's outputs are compared with the first pass's as soon as it
    returns and then dropped, and of its latencies only the pass's total,
    median and 99th percentile are kept, so what the harness holds grows by
    three numbers a pass, not by a pass's outputs.  Returns the last modules and state, the
    set-up times, the (total, p50, p99) of each pass, the number of items in
    a pass, the first pass's outputs and the number of items that differed
    from the first pass.
    """
    setup_s = []
    pass_stats = []
    first = None
    mismatches = 0
    busy = 0.0
    done = 0
    while done < points or busy < seconds:
        if done < points and busy >= done * seconds / points:
            for _ in range(repeats):
                sm = state = None  # free the previous set-up before the next
                t0 = perf_counter()
                sm = import_fresh()
                state = workload.setup(sm, seed)
                setup_s.append(perf_counter() - t0)
            done += 1
        t0 = perf_counter()
        item_lat, out = workload.run_pass(sm, state)
        busy += perf_counter() - t0
        pass_stats.append(summarize(item_lat))
        if first is None:
            first = out
        else:
            mismatches += workload.mismatches(first, out)
    return sm, state, setup_s, pass_stats, len(item_lat), first, mismatches


def summarize(item_lat):
    """A pass's total seconds and its median and 99th-percentile item in ms."""
    ms = [t * 1000.0 for t in item_lat]
    return (
        math.fsum(item_lat),
        statistics.median(ms),
        statistics.quantiles(ms, n=100, method="inclusive")[98],
    )


def layer_metrics(tracer):
    """Per-layer values for the traced set-up and pass."""
    totals = tracer.totals()

    def get(name, field):
        return totals.get(name, [0, 0.0, 0.0, 0])[("calls", "busy", "self", "count").index(field)]

    solves = ("solver.optimal_value", "proofcheck.resolve")
    opt_calls = sum(get(n, "calls") for n in solves)
    opt_busy = sum(get(n, "busy") for n in solves)
    opt_states = sum(get(n, "count") for n in solves)
    cond_calls = get("events.conditional_probability", "calls")
    return {
        "events.event_probability.calls": get("events.event_probability", "calls"),
        "events.event_probability.busy_s": get("events.event_probability", "busy"),
        "events.nodes_walked": get("events.event_probability", "count"),
        "events.conditional_probability.calls": cond_calls,
        "events.undefined_frac": (
            get("events.conditional_probability", "count") / cond_calls if cond_calls else 0.0
        ),
        "proofcheck.check_chain.calls": get("proofcheck.check_chain", "calls"),
        "proofcheck.check_chain.self_s": get("proofcheck.check_chain", "self"),
        "proofcheck.transforms.busy_s": get("proofcheck.transforms", "busy"),
        "proofcheck.key_lemma.busy_s": get("proofcheck.key_lemma", "busy"),
        "proofcheck.resolve.calls": get("proofcheck.resolve", "calls"),
        "proofcheck.resolve.busy_s": get("proofcheck.resolve", "busy"),
        "proofcheck.resolve.states": get("proofcheck.resolve", "count"),
        "solver.optimal_value.calls": opt_calls,
        "solver.optimal_value.busy_s": opt_busy,
        "solver.states": opt_states,
        "solver.states_per_s": opt_states / opt_busy if opt_busy else 0.0,
        "solver.policy.decisions": get("solver.policy", "calls"),
        "solver.policy.busy_s": get("solver.policy", "busy"),
        "policy.build_tree.calls": get("policy.build_tree", "calls"),
        "policy.build_tree.self_s": get("policy.build_tree", "self"),
        "policy.tree_nodes": get("policy.build_tree", "count"),
        "policy.subtree_value.busy_s": get("policy.subtree_value", "busy"),
        "policy.tree_value.busy_s": get("policy.tree_value", "busy"),
        "policy.greedy.decisions": get("policy.greedy", "calls"),
        "policy.greedy.busy_s": get("policy.greedy", "busy"),
        "montecarlo.simulate.busy_s": get("montecarlo.simulate", "busy"),
        "montecarlo.trials": get("montecarlo.simulate", "count"),
        "montecarlo.self_s": get("montecarlo.simulate", "self"),
        "core.transitions": get("core.transitions", "calls"),
        "core.transitions.busy_s": get("core.transitions", "busy"),
        "generator.generate_instances.busy_s": get("generator.generate_instances", "busy"),
        "generator.instances": get("generator.generate_instances", "count"),
        "core.parse_instance.busy_s": get("core.parse_instance", "busy"),
        "core.format_instance.busy_s": get("core.format_instance", "busy"),
    }


def machine_stamp():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    sm, state, setup_s, pass_stats, items, first, mismatches = measure(
        workload, seed, seconds, *((1, 1) if trace else (SETUP_POINTS, SETUP_REPEATS))
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each timing is the median over passes.  Other tenants of a shared host
    # slow single passes down; the median pass moves least between runs.
    wall_s, p50_ms, p99_ms = (statistics.median(col) for col in zip(*pass_stats))
    passes = len(pass_stats)
    attempted = passes * items
    info = {"workload": name, "seed": seed, "passes": passes}

    if trace:
        tracer = Tracer()
        traced_sm = import_fresh()
        tracer.install(traced_sm)
        try:
            traced_state = workload.setup(traced_sm, seed)
            traced_lat, traced_out = workload.run_pass(traced_sm, traced_state)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-seed{seed}.json"
        tracer.write(spans_file)
        info["spans"] = len(tracer.name_of)
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        values = layer_metrics(tracer)
        values["trace.wall_s"] = math.fsum(traced_lat)
        values["trace.overhead_s"] = math.fsum(traced_lat) - wall_s
        passes += 1
        attempted += len(traced_lat)
        mismatches += workload.mismatches(first, traced_out)
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "op_p50_ms": p50_ms,
            "op_p99_ms": p99_ms,
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END

    # An item that fails its check in the first pass fails in every pass
    # that reproduced it.
    bad, dp_states, check_info = workload.check(sm, state, first)
    failed = min(attempted, bad * passes + mismatches)
    info.update(check_info)
    if not trace:
        values["dp_states"] = dp_states
    info.update(ops=attempted, ops_failed=failed, fail_frac=failed / attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units},
    }
    return info, result


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print(lines[-2])
        print(lines[-1])
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "stochmatch" / "__init__.py").is_file():
        print(f"error: {SRC / 'stochmatch'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        run_all(args)
        return 0
    sys.pycache_prefix = str(OUT / "no-pycache")
    import_fresh()  # untimed: loads the stdlib modules the package imports
    info, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    info.update(default_seed=DEFAULT_SEED, heldout_seed=HELDOUT_SEED, **machine_stamp())
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
