"""Deterministic random-instance generators for scans and tests."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import Instance

FAMILIES = ("gnp", "path", "star", "complete")

P_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))

# gnp redraws an empty graph, so a spec whose draw is nonempty with a smaller
# chance than this is rejected: it would take over 1,000 draws per instance.
MIN_NONEMPTY_CHANCE = 1e-3


@dataclass(frozen=True)
class GeneratorSpec:
    family: str = "gnp"
    n: int = 5
    density: float = 0.5
    p_grid: bool = True  # False: uniform in (0, 1]
    t_max: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must be in (0, 1]")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.family == "gnp" and self.density < 1.0:
            pairs = self.n * (self.n - 1) // 2
            nonempty = -math.expm1(pairs * math.log1p(-self.density))
            if nonempty < MIN_NONEMPTY_CHANCE:
                raise ValueError(
                    f"gnp with n={self.n} and density {self.density} draws an edge with "
                    f"chance {nonempty:.3g}, below {MIN_NONEMPTY_CHANCE}"
                )


def _edge_prob(rng, spec):
    if spec.p_grid:
        return rng.choice(P_GRID)
    return 1.0 - rng.random()  # in (0, 1]


def _edge_pairs(spec, rng):
    n = spec.n
    if spec.family == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if spec.family == "star":
        return [(0, i) for i in range(1, n)]
    if spec.family == "complete":
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < spec.density
    ]


def generate_instance(spec, rng):
    """One instance drawn from the family; gnp resamples until nonempty."""
    while True:
        pairs = _edge_pairs(spec, rng)
        if pairs:
            break
    edges = tuple((u, v, _edge_prob(rng, spec)) for u, v in pairs)
    patience = tuple(rng.randint(1, spec.t_max) for _ in range(spec.n))
    return Instance(n=spec.n, edges=edges, patience=patience)


def generate_instances(spec, count):
    """Deterministic stream of `count` instances for a fixed spec."""
    rng = random.Random(spec.seed)
    return [generate_instance(spec, rng) for _ in range(count)]
