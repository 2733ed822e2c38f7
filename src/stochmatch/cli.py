"""Command-line front end.

Exit codes: 0 success, 1 property violation (a checked relation failed),
2 usage, parse or output-file error, a solve or tree past the state budget
(core.MAX_STATES; --force lifts it), recursion depth or memory run out, or a
standard output closed early (as in `stochmatch scan ... | head -1`).
Commands raise on every error, and main alone maps an exception to status 2
and one `error:` line; only argparse exits on its own, for a usage error.
argparse checks only syntax: the library code that uses a value judges it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time

from .core import InstanceError, SizeCapError, format_instance, parse_instance
from .generator import FAMILIES, GeneratorSpec, iter_instances
from .montecarlo import simulate
from .policy import build_tree, greedy_policy, tree_value
from .proofcheck import ChainReport, check_chain, factor2_slack, holds, opt_grd_ratio
from .solver import optimal_policy, optimal_value


def _fmt(value):
    return f"{value:.12f}"


def _load_instance(path):
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:  # parse_instance alone splits lines
            return parse_instance(f.read())
    except (UnicodeDecodeError, InstanceError) as exc:
        raise InstanceError(f"{path}: {exc}") from exc


def cmd_eval(args):
    inst = _load_instance(args.instance)
    if args.policy == "greedy":
        value = tree_value(build_tree(inst, greedy_policy(inst), force=args.force))
    else:
        value, _ = optimal_value(inst, force=args.force)
    print(_fmt(value))
    return 0


def cmd_ratio(args):
    inst = _load_instance(args.instance)
    e_opt, _ = optimal_value(inst, force=args.force)
    e_grd = tree_value(build_tree(inst, greedy_policy(inst), force=args.force))
    print(f"opt {_fmt(e_opt)}")
    print(f"grd {_fmt(e_grd)}")
    print(f"ratio {_fmt(opt_grd_ratio(e_opt, e_grd))}")
    return 0 if holds(factor2_slack(e_opt, e_grd)) else 1  # check's final relation


def cmd_check(args):
    inst = _load_instance(args.instance)
    report = check_chain(inst, instance_id=args.instance, force=args.force)
    rows = csv.writer(sys.stdout, lineterminator="\n")
    rows.writerows([ChainReport.csv_header(), report.csv_row()])
    for name, ok in report.verdicts.items():
        print(f"{name} {'PASS' if ok else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_scan(args):
    spec = GeneratorSpec(
        family=args.family,
        n=args.n,
        density=args.density,
        p_grid=not args.puniform,
        t_max=args.tmax,
        seed=args.seed,
    )
    instances = iter_instances(spec, args.count)  # judges count; draws as the loop asks
    start = time.monotonic()
    failures = []
    worst_ratio = 0.0
    worst_inst = None
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        rows = csv.writer(f, lineterminator="\n")
        rows.writerow(ChainReport.csv_header())
        for i, inst in enumerate(instances):
            report = check_chain(inst, f"{args.family}-{args.seed}-{i}", args.force)
            rows.writerow(report.csv_row())
            if not report.passed:
                failures.append(report.instance_id)
            if report.ratio > worst_ratio:
                worst_ratio = report.ratio
                worst_inst = inst
    elapsed = time.monotonic() - start
    print(f"instances {args.count}")
    print(f"failures {len(failures)}" + (f" ({', '.join(failures)})" if failures else ""))
    if worst_inst is not None:
        print(f"worst_ratio {_fmt(worst_ratio)}")
        print("worst_instance:")
        sys.stdout.write(format_instance(worst_inst))
    print(f"wall_time_s {elapsed:.3f}")
    return 1 if failures else 0


def cmd_simulate(args):
    inst = _load_instance(args.instance)
    if args.policy == "greedy":
        pol = greedy_policy(inst)
    else:
        pol = optimal_policy(inst, force=args.force)
    result = simulate(inst, pol, args.trials, args.seed)
    print(f"trials {result.trials}")
    print(f"mean {_fmt(result.mean)}")
    print(f"stddev {_fmt(result.stddev)}")
    print(f"ci95_halfwidth {_fmt(result.ci95_halfwidth)}")
    print(f"seed {result.seed}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stochmatch",
        description="Exact evaluation and proof-chain checking for stochastic "
        "matching with patience numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_force(p):
        p.add_argument("--force", action="store_true", help="lift the state budget (MAX_STATES)")

    p_eval = sub.add_parser("eval", help="print a policy's exact expected value")
    p_eval.add_argument("--instance", required=True)
    p_eval.add_argument("--policy", choices=["greedy", "optimal"], default="greedy")
    add_force(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_ratio = sub.add_parser("ratio", help="print optimal and greedy values and their ratio")
    p_ratio.add_argument("--instance", required=True)
    add_force(p_ratio)
    p_ratio.set_defaults(func=cmd_ratio)

    p_check = sub.add_parser("check", help="verify the full proof chain on one instance")
    p_check.add_argument("--instance", required=True)
    add_force(p_check)
    p_check.set_defaults(func=cmd_check)

    p_scan = sub.add_parser("scan", help="generate instances, check each, write CSV")
    p_scan.add_argument("--family", choices=FAMILIES, default="gnp")
    p_scan.add_argument("--count", type=int, default=100)
    p_scan.add_argument("--n", type=int, default=5)
    p_scan.add_argument("--density", type=float, default=0.5)
    p_scan.add_argument("--tmax", type=int, default=3)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--puniform", action="store_true",
                        help="edge probabilities uniform in (0, 1]; default: the 0.1..1.0 grid")
    p_scan.add_argument("--out", required=True)
    add_force(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimate of a policy's value")
    p_sim.add_argument("--instance", required=True)
    p_sim.add_argument("--policy", choices=["greedy", "optimal"], default="greedy")
    p_sim.add_argument("--trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=0)
    add_force(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)  # argparse exits 2 on usage errors
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush of what is
        # still buffered cannot raise again (the recipe in Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except SizeCapError as exc:
        print(f"error: {exc} (use --force to override)", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: instance too large to evaluate ({type(exc).__name__})", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
