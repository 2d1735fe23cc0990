import numpy as np
import pytest

from wavebound import ConfigError, Rng


def test_same_seed_same_stream():
    a = Rng(123).normal(size=50)
    b = Rng(123).normal(size=50)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = Rng(1).normal(size=50)
    b = Rng(2).normal(size=50)
    assert not np.array_equal(a, b)


def test_split_is_independent_of_parent_draws():
    parent = Rng(9)
    child_before = parent.split("task").normal(size=10)
    parent.normal(size=100)  # consume from the parent
    child_after = parent.split("task").normal(size=10)
    assert np.array_equal(child_before, child_after)


def test_split_keys_distinguish_streams():
    r = Rng(5)
    assert not np.array_equal(r.split(0).normal(size=8), r.split(1).normal(size=8))
    assert not np.array_equal(r.split("a").normal(size=8), r.split("b").normal(size=8))


def test_string_keys_are_stable_across_instances():
    a = Rng(7, ("shuffle", 3)).normal(size=4)
    b = Rng(7).split("shuffle", 3).normal(size=4)
    assert np.array_equal(a, b)


def test_nested_splits():
    r = Rng(11)
    assert np.array_equal(
        r.split("x").split(2).normal(size=3),
        Rng(11, ("x", 2)).normal(size=3),
    )


@pytest.mark.parametrize("seed", [-1, -(2**70)])
def test_negative_seed_rejected(seed):
    with pytest.raises(ConfigError, match=f"seed must be a non-negative integer, got {seed}"):
        Rng(seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(3.0), "4"])
def test_non_integral_seed_rejected(seed):
    # int(seed) would run 1.5 as seed 1 and True as seed 1
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got "):
        Rng(seed)


def test_numpy_integer_seed_is_that_seed():
    for seed in (np.int64(9), np.uint32(9), np.int8(9)):
        assert np.array_equal(Rng(seed).normal(size=4), Rng(9).normal(size=4))
        assert type(Rng(seed).seed) is int


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        Rng(1).split(-4)


def test_permutation_and_integers_reproducible():
    assert np.array_equal(Rng(3).permutation(20), Rng(3).permutation(20))
    assert Rng(3).integers(0, 100) == Rng(3).integers(0, 100)
