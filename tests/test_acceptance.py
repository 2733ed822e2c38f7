"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools

import pytest

from conftest import (
    brute_force_greedy,
    brute_force_optimal,
    path_sum_value,
    random_instances,
)

from stochmatch.cli import main
from stochmatch.core import Instance
from stochmatch.generator import GeneratorSpec, generate_instances
from stochmatch.montecarlo import simulate
from stochmatch.policy import build_tree, greedy_policy, policy_value, tree_value
from stochmatch.proofcheck import (
    check_chain,
    check_key_lemma,
    check_lemma31,
    check_subtree_optimality,
)
from stochmatch.solver import optimal_policy, optimal_value

STAR2 = Instance(n=3, edges=((0, 1, 0.5), (0, 2, 0.5)), patience=(2, 1, 1))
P4 = Instance(
    n=4, edges=((0, 1, 0.5), (1, 2, 0.51), (2, 3, 0.5)), patience=(2, 2, 2, 2)
)


def verdict(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


@pytest.fixture(scope="module")
def chain_500():
    """check_chain on 500 seeded random instances, shared by criteria 3-5."""
    instances = random_instances(seed=500, count=500, n_max=6, m_max=8, t_max=3)
    return [
        (inst, check_chain(inst, f"acc-{i}")) for i, inst in enumerate(instances)
    ]


def test_criterion_1_evaluator_agreement():
    ok = True
    for inst in random_instances(seed=100, count=200, n_max=6, m_max=8, t_max=3):
        for pol in (greedy_policy(inst), optimal_policy(inst)):
            t = build_tree(inst, pol)
            if abs(tree_value(t) - path_sum_value(t)) > 1e-12:
                ok = False
    verdict("criterion 1: tree_value vs path-sum oracle on 200 random instances", ok)


def test_criterion_2_two_approximation():
    def ratio_ok(inst):
        e_opt, _ = optimal_value(inst)
        e_grd = policy_value(inst, greedy_policy(inst))
        ratio = e_opt / e_grd
        return 1.0 - 1e-12 <= ratio <= 2.0 + 1e-9

    ok = True
    # 2,000 seeded instances drawn across the scan families.
    per_family = 500
    for family, n in (("gnp", 5), ("path", 5), ("star", 5), ("complete", 4)):
        spec = GeneratorSpec(family=family, n=n, t_max=3, seed=200)
        for inst in generate_instances(spec, per_family):
            if not ratio_ok(inst):
                ok = False
    # Exhaustive: all graphs on <= 4 vertices (as edge subsets of K4), edge
    # probabilities from a 4-value grid, patience 1 or 2 per vertex.
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    pgrid = (0.25, 0.5, 0.75, 1.0)
    for k in range(1, 7):
        for subset in itertools.combinations(range(6), k):
            base = [pairs[i] for i in subset]
            for ps in itertools.product(pgrid, repeat=k):
                edges = tuple((u, v, p) for (u, v), p in zip(base, ps))
                for ts in itertools.product((1, 2), repeat=4):
                    if not ratio_ok(Instance(n=4, edges=edges, patience=ts)):
                        ok = False
    verdict("criterion 2: 1 <= OPT/GRD <= 2 on 2000 random + exhaustive n<=4", ok)


def test_criterion_3_proof_chain(chain_500):
    ok = all(report.passed for _, report in chain_500)
    verdict("criterion 3: full proof chain passes on 500 random instances", ok)


def test_criterion_4_subtree_lemma(chain_500):
    ok = True
    for inst, _ in chain_500:
        t = build_tree(inst, optimal_policy(inst))
        if not check_lemma31(t).ok:
            ok = False
    verdict("criterion 4: per-node one-plus-left bound on 500 optimal trees", ok)


def test_criterion_5_key_lemma(chain_500):
    ok = all(
        report.keylem_alpha.ok and report.keylem_beta.ok for _, report in chain_500
    )
    # lhs is exactly zero whenever the top edge is certain.
    certain = Instance(n=3, edges=((0, 1, 1.0), (1, 2, 0.5)), patience=(2, 2, 2))
    if any(result.lhs != 0.0 for result in check_key_lemma(certain, 0)):
        ok = False
    verdict("criterion 5: key lemma and corollary on 500 instances", ok)


def test_criterion_6_closed_form_oracles():
    ok = True
    single = Instance(n=2, edges=((0, 1, 0.7),), patience=(1, 1))
    for pol_maker in (greedy_policy, optimal_policy):
        if policy_value(single, pol_maker(single)) != 0.7:
            ok = False
    if abs(policy_value(STAR2, greedy_policy(STAR2)) - 0.75) > 1e-12:
        ok = False
    if abs(optimal_value(STAR2)[0] - 0.75) > 1e-12:
        ok = False
    # P4: compare the solver against the independent brute-force oracle
    # before trusting either.
    edges = list(P4.edges)
    patience = dict(enumerate(P4.patience))
    oracle_opt = brute_force_optimal(edges, patience)
    oracle_grd = brute_force_greedy(edges, patience)
    if abs(oracle_opt - 1.1275) > 1e-9 or abs(oracle_grd - 1.0) > 1e-9:
        ok = False
    if abs(optimal_value(P4)[0] - oracle_opt) > 1e-9:
        ok = False
    if abs(policy_value(P4, greedy_policy(P4)) - oracle_grd) > 1e-9:
        ok = False
    verdict("criterion 6: closed-form oracles (single edge, star, P4)", ok)


def test_criterion_7_suboptimality_witness():
    greedy_report = check_subtree_optimality(P4, build_tree(P4, greedy_policy(P4)))
    optimal_report = check_subtree_optimality(P4, build_tree(P4, optimal_policy(P4)))
    root_fails = any(path == "" for path, _, _ in greedy_report.violations)
    ok = (not greedy_report.ok) and root_fails and optimal_report.ok
    verdict("criterion 7: greedy tree fails subtree optimality at P4 root", ok)


def test_criterion_8_monte_carlo():
    a = simulate(STAR2, greedy_policy(STAR2), trials=100_000, seed=42)
    b = simulate(STAR2, greedy_policy(STAR2), trials=100_000, seed=42)
    ok = abs(a.mean - 0.75) < 0.01 and a == b
    verdict("criterion 8: Monte Carlo cross-check and seed reproducibility", ok)


def test_criterion_9_scan_determinism(tmp_path, capsys):
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    main(["scan", "--count", "40", "--n", "5", "--seed", "9", "--out", str(out1)])
    main(["scan", "--count", "40", "--n", "5", "--seed", "9", "--out", str(out2)])
    capsys.readouterr()
    ok = out1.read_bytes() == out2.read_bytes()
    verdict("criterion 9: scan output byte-identical for a fixed seed", ok)
