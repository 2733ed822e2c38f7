"""The chain's relations catch a wrong walk: a mutation test of proofcheck.

A user's `check` has no reference to compare the walk with; it relies on the
nine relations alone to catch a wrong walk.  Each mutant below replaces one
text of proofcheck.py's _walk or check_chain with a plausible mistake, execs
the mutated source into a fresh module, and must fail the chain on at least
one of a fixed set of instances: the first 200 of the certify workload (scan's
defaults) at seed 1.  A refactor that moves a mutated text fails
test_each_old_text_occurs_once; rewrite that pair to match the new code.
"""

import types
from pathlib import Path

import pytest

from stochmatch import proofcheck
from stochmatch.generator import GeneratorSpec, generate_instances

SOURCE = Path(proofcheck.__file__).read_text(encoding="utf-8")

# name: (old text, new text)
MUTANTS = {
    # _walk
    "leaf_mass_to_other_side": ("probe[never] += prob", "probe[not never] += prob"),
    "kth_outcome_swapped": ("acc_a[1 if took_a else 2]", "acc_a[2 if took_a else 1]"),
    "ab_never_ends_never": ("never = never and not is_ab", "never = never"),
    "kth_touch_off_by_one": ("if ca == k_alpha:", "if ca == k_alpha + 1:"),
    "algr_kth_touch_off_by_one": (
        "touch_a and ca == k_alpha or", "touch_a and ca == k_alpha + 1 or"
    ),
    "earlier_take_counted_as_kth": ("if ca == k_alpha:", "if took_a or ca == k_alpha:"),
    "success_branch_weighted_q": ("prob * p, never,", "prob * (1.0 - p), never,"),
    "took_set_on_failure": ("ca, took_a, cb, took_b)\n", "ca, took_a or touch_a, cb, took_b)\n"),
    "optprime_drops_p_ab": ("opt, alg_l = p + opt_l, alg_l_l", "opt, alg_l = opt_l, alg_l_l"),
    "algl_mutes_nothing": ("if not (touch_a or touch_b):", "if True:"),
    "algr_mutes_nothing": (
        "if not (is_ab or (never and (touch_a and ca == k_alpha or touch_b and cb == k_beta))):",
        "if True:",
    ),
    # check_chain
    "r_without_division": ("r = (1.0 - p_ab) / p_ab", "r = 1.0 - p_ab"),
    "conditionals_undivided": ("m / p_never if p_never", "m if p_never"),
    "rl_drops_beta": (
        "e_RL = p_probe * p_ab + w * c_take_a + w * c_take_b",
        "e_RL = p_probe * p_ab + w * c_take_a",
    ),
    "rr_uses_take_masses": (
        "e_RR = p_probe * p_ab + w * c_take_a_kth + w * c_take_b_kth",
        "e_RR = p_probe * p_ab + w * c_take_a + w * c_take_b",
    ),
    "induction_right_reads_left": (
        "opt_right = memo[grd_tree.right.state][0]",
        "opt_right = memo[grd_tree.left.state][0]",
    ),
    "combined_drops_factor_2": ("+ 2.0 * p_ab) - e_opt", "+ p_ab) - e_opt"),
}

# Mutants no relation can catch, with the reason; they are not asserted.
EQUIVALENT = {
    # 1 - P(ab probed) and the walk's leaf sum P(ab never probed) are equal in
    # exact arithmetic and differ in float only by rounding, so no verdict
    # can tell the two weights apart.
    "pnot_as_p_never": ("pnot = 1.0 - p_probe", "pnot = p_never"),
    # Every edge alive after ab succeeds avoids ab's endpoints, so it is alive
    # after ab fails too, with the same patience at its ends: the optimum
    # after the failure is no smaller and still bounds ALG_L.
    "induction_left_reads_right": (
        "opt_left = memo[grd_tree.left.state][0]",
        "opt_left = memo[grd_tree.right.state][0]",
    ),
}


@pytest.fixture(scope="module")
def certify_200():
    return generate_instances(GeneratorSpec(seed=1), 200)


def _mutant(old, new):
    module = types.ModuleType("stochmatch._mutant")
    module.__package__ = "stochmatch"  # its relative imports bind the real package
    exec(compile(SOURCE.replace(old, new), proofcheck.__file__, "exec"), module.__dict__)
    return module


def test_each_old_text_occurs_once():
    for old, _ in [*MUTANTS.values(), *EQUIVALENT.values()]:
        assert SOURCE.count(old) == 1, old


def test_unmutated_copy_passes(certify_200):
    check_chain = _mutant("", "").check_chain
    assert all(check_chain(inst).passed for inst in certify_200)


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_is_caught(name, certify_200):
    check_chain = _mutant(*MUTANTS[name]).check_chain
    assert any(not check_chain(inst).passed for inst in certify_200)
