import pytest

from stochmatch.generator import (
    MIN_NONEMPTY_CHANCE,
    P_GRID,
    GeneratorSpec,
    generate_instances,
    iter_instances,
)


def test_deterministic_for_fixed_seed():
    spec = GeneratorSpec(family="gnp", n=5, seed=7)
    assert generate_instances(spec, 20) == generate_instances(spec, 20)


def test_stream_is_lazy_and_matches_the_list():
    spec = GeneratorSpec(family="gnp", n=5, seed=7)
    stream = iter_instances(spec, 10**18)  # a list this long could not be built
    assert [next(stream) for _ in range(20)] == generate_instances(spec, 20)


def test_invalid_count_rejected_when_the_stream_is_made():
    # A negative count gave no instances and True gave one; 2.5 failed in range().
    spec = GeneratorSpec(seed=7)
    for count in (-3, 2.5, True):
        with pytest.raises(ValueError, match="count must be an int >= 0"):
            generate_instances(spec, count)
        with pytest.raises(ValueError, match="count must be an int >= 0"):
            iter_instances(spec, count)  # before the first draw


def test_path_family():
    spec = GeneratorSpec(family="path", n=5, seed=1)
    (inst,) = generate_instances(spec, 1)
    assert [(u, v) for u, v, _ in inst.edges] == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_star_family():
    spec = GeneratorSpec(family="star", n=4, seed=1)
    (inst,) = generate_instances(spec, 1)
    assert [(u, v) for u, v, _ in inst.edges] == [(0, 1), (0, 2), (0, 3)]


def test_complete_family():
    spec = GeneratorSpec(family="complete", n=4, seed=1)
    (inst,) = generate_instances(spec, 1)
    assert inst.m == 6


def test_gnp_nonempty_and_valid():
    spec = GeneratorSpec(family="gnp", n=5, density=0.3, seed=3)
    for inst in generate_instances(spec, 30):
        assert inst.m >= 1
        for u, v, p in inst.edges:
            assert 0 <= u < v < inst.n
            assert 0.0 < p <= 1.0
        assert all(t >= 1 for t in inst.patience)


def test_grid_probabilities():
    spec = GeneratorSpec(family="complete", n=4, p_grid=True, seed=5)
    for inst in generate_instances(spec, 10):
        for _, _, p in inst.edges:
            assert p in P_GRID


def test_uniform_probabilities_in_range():
    spec = GeneratorSpec(family="complete", n=4, p_grid=False, seed=5)
    for inst in generate_instances(spec, 10):
        for _, _, p in inst.edges:
            assert 0.0 < p <= 1.0


def test_patience_range():
    spec = GeneratorSpec(family="gnp", n=5, t_max=2, seed=9)
    for inst in generate_instances(spec, 20):
        assert all(1 <= t <= 2 for t in inst.patience)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        GeneratorSpec(family="tree")
    with pytest.raises(ValueError):
        GeneratorSpec(n=1)
    with pytest.raises(ValueError):
        GeneratorSpec(t_max=0)
    for density in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError):
            GeneratorSpec(density=density)
    # Accepted, a non-int n or t_max failed only when an instance was drawn,
    # a None seed drew a different stream on every call, and a string density
    # raised a bare TypeError.
    for field, value in (
        ("n", 2.5), ("n", True), ("t_max", 1.5), ("t_max", True),
        ("seed", 1.5), ("seed", None), ("seed", "7"), ("seed", True),
    ):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            GeneratorSpec(**{field: value})
    for density in ("x", None, 1j):
        with pytest.raises(ValueError, match="density"):
            GeneratorSpec(density=density)
    # Accepted, None and 0 drew uniform p while "no" and 2 drew the grid.
    for p_grid in (None, 0, "no", 2):
        with pytest.raises(ValueError, match="p_grid must be a bool"):
            GeneratorSpec(p_grid=p_grid)
    assert GeneratorSpec(density=1.0).density == 1.0


def test_spec_immutable():
    spec = GeneratorSpec("path", 4, seed=3)
    assert (spec.family, spec.n, spec.density, spec.p_grid, spec.t_max, spec.seed) == (
        "path", 4, 0.5, True, 3, 3
    )
    with pytest.raises(AttributeError):
        spec.seed = 4
    with pytest.raises(AttributeError):
        del spec.family
    assert spec.seed == 3


def test_gnp_density_too_low_to_draw_an_edge_rejected():
    # gnp redraws an empty graph: a draw that is almost never nonempty would
    # loop for ever, so the spec is refused up front.
    with pytest.raises(ValueError, match="below"):
        GeneratorSpec(family="gnp", n=2, density=1e-300)
    with pytest.raises(ValueError):
        GeneratorSpec(family="gnp", n=10, density=MIN_NONEMPTY_CHANCE / 100)
    # Just above the floor: n=2 draws its one edge with chance = density.
    spec = GeneratorSpec(family="gnp", n=2, density=2 * MIN_NONEMPTY_CHANCE, seed=4)
    assert all(inst.m == 1 for inst in generate_instances(spec, 3))
    # Families that never draw an empty graph ignore the density.
    assert GeneratorSpec(family="path", n=2, density=1e-300).density == 1e-300
