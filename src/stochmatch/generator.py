"""Deterministic random-instance generators for scans and tests."""

from __future__ import annotations

import math
import random

from .core import Instance

FAMILIES = ("gnp", "path", "star", "complete")

P_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))

# gnp redraws an empty graph, so a spec whose draw is nonempty with a smaller
# chance than this is rejected: it would take over 1,000 draws per instance.
MIN_NONEMPTY_CHANCE = 1e-3


class GeneratorSpec:
    """Family, size and seed of a deterministic instance stream; immutable.

    p_grid False draws each p uniformly from (0, 1] instead of P_GRID.
    """

    def __init__(self, family="gnp", n=5, density=0.5, p_grid=True, t_max=3, seed=0):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(n) is not int or n < 2:
            raise ValueError(f"n must be an int >= 2, got {n!r}")
        try:
            in_range = 0.0 < density <= 1.0
        except TypeError:
            in_range = False
        if not in_range:
            raise ValueError(f"density must be a real in (0, 1], got {density!r}")
        if type(t_max) is not int or t_max < 1:
            raise ValueError(f"t_max must be an int >= 1, got {t_max!r}")
        if type(p_grid) is not bool:
            raise ValueError(f"p_grid must be a bool, got {p_grid!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        if family == "gnp" and density < 1.0:
            pairs = n * (n - 1) // 2
            nonempty = -math.expm1(pairs * math.log1p(-density))
            if nonempty < MIN_NONEMPTY_CHANCE:
                raise ValueError(
                    f"gnp with n={n} and density {density} draws an edge with "
                    f"chance {nonempty:.3g}, below {MIN_NONEMPTY_CHANCE}"
                )
        self.__dict__.update(
            family=family, n=n, density=density, p_grid=p_grid, t_max=t_max, seed=seed
        )

    __setattr__ = Instance.__setattr__
    __delattr__ = Instance.__delattr__


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


def iter_instances(spec, count):
    """Deterministic stream of `count` instances for a fixed spec, made lazily;
    ValueError at the call, before any draw, unless count is an int >= 0."""
    if type(count) is not int or count < 0:
        raise ValueError(f"count must be an int >= 0, got {count!r}")
    rng = random.Random(spec.seed)
    return (generate_instance(spec, rng) for _ in range(count))


def generate_instances(spec, count):
    """The instances of iter_instances(spec, count), as a list."""
    return list(iter_instances(spec, count))
