import pytest

from stochmatch.generator import P_GRID, GeneratorSpec, generate_instances


def test_deterministic_for_fixed_seed():
    spec = GeneratorSpec(family="gnp", n=5, seed=7)
    assert generate_instances(spec, 20) == generate_instances(spec, 20)


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
    assert GeneratorSpec(density=1.0).density == 1.0
