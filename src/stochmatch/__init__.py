"""Stochastic matching with patience numbers: exact evaluation, optimal DP,
and numerical certification of the greedy 2-approximation."""

from .core import (
    Instance,
    InstanceError,
    SizeCapError,
    apply_failure,
    apply_success,
    format_instance,
    initial_state,
    kernel,
    parse_instance,
    probeable_edges,
)
from .generator import GeneratorSpec, generate_instances
from .montecarlo import SimResult, simulate
from .policy import (
    build_tree,
    greedy_policy,
    policy_value,
    tree_value,
)
from .proofcheck import (
    ChainReport,
    check_chain,
    check_lemma31,
    check_subtree_optimality,
)
from .solver import optimal_policy, optimal_value

__all__ = [
    "ChainReport",
    "GeneratorSpec",
    "Instance",
    "InstanceError",
    "SimResult",
    "SizeCapError",
    "apply_failure",
    "apply_success",
    "build_tree",
    "check_chain",
    "check_lemma31",
    "check_subtree_optimality",
    "format_instance",
    "generate_instances",
    "greedy_policy",
    "initial_state",
    "kernel",
    "optimal_policy",
    "optimal_value",
    "parse_instance",
    "policy_value",
    "probeable_edges",
    "simulate",
    "tree_value",
]
