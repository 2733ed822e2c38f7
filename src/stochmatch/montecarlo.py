"""Seeded Monte Carlo estimation of a policy's expected matched count.

Uses a splitmix64 stream so results are bit-reproducible for a fixed
(instance, policy, trials, seed) across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import apply_failure, apply_success, initial_state

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 PRNG; uniform floats use the top 53 bits of each output."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self):
        """Uniform in [0, 1)."""
        return (self.next_u64() >> 11) / 9007199254740992.0  # 2**53


@dataclass(frozen=True)
class SimResult:
    trials: int
    mean: float
    stddev: float
    ci95_halfwidth: float
    seed: int


def simulate(inst, pol, trials, seed):
    """Run independent trajectories of a policy and summarize matched counts.

    Success of a probe is drawn strictly (u < p), so p = 1 always succeeds.
    Raises RuntimeError if a trajectory's matched edges are not a matching.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = SplitMix64(seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        s = initial_state(inst)
        matched_vertices = set()
        matched = 0
        while True:
            e = pol(s)
            if e is None:
                break
            u, v, p = inst.edges[e]
            if rng.next_float() < p:
                if u in matched_vertices or v in matched_vertices:
                    raise RuntimeError(f"edge {e} matched an already matched vertex")
                matched_vertices.add(u)
                matched_vertices.add(v)
                matched += 1
                s = apply_success(inst, s, e)
            else:
                s = apply_failure(inst, s, e)
        total += matched
        total_sq += matched * matched
    mean = total / trials
    variance = max(total_sq / trials - mean * mean, 0.0)
    stddev = math.sqrt(variance)
    return SimResult(
        trials=trials,
        mean=mean,
        stddev=stddev,
        ci95_halfwidth=1.96 * stddev / math.sqrt(trials),
        seed=seed,
    )
