import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        Rng(1).split(-4)


def test_permutation_and_integers_reproducible():
    assert np.array_equal(Rng(3).permutation(20), Rng(3).permutation(20))
    assert Rng(3).integers(0, 100) == Rng(3).integers(0, 100)


# Spawn-key parts: text (hashed to 64 bits) or integers of one, two or three words.
key_part = (
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5)
    | st.integers(0, 2**70)
    | st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1])
)


@st.composite
def index_ranges(draw):
    """Up to 4 consecutive indices, often the first or the last that fit a uint32 word."""
    count = draw(st.integers(0, 4))
    top = 2**32 - count
    lo = draw(st.sampled_from([0, top]) | st.integers(0, top))
    return range(lo, lo + count)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**70) | st.sampled_from([0, 2**32 - 1, 2**32]),
    prefix=st.lists(key_part, max_size=3),
    key=key_part,
    indices=index_ranges(),
    size=st.integers(0, 9),
)
def test_split_normals_rows_are_the_split_streams(seed, prefix, key, indices, size):
    rng = Rng(seed, tuple(prefix))
    rows = rng.split_normals(key, indices, size)
    assert rows.shape[0] == len(indices)
    for row, i in zip(rows, indices):
        assert row.tobytes() == rng.split(key, i).normal(size=size).tobytes()


def test_one_split_normals_row_is_two_consecutive_draws():
    # The oracle takes x and the noise, two `normal` calls in `sample`, from one row.
    rng = Rng(2024, ("oracle",))
    rows = rng.split_normals("trial", range(3), 2 * 25 * 6)
    for t in range(3):
        stream = rng.split("trial", t)
        want = np.concatenate([stream.normal(size=(25, 3, 2)), stream.normal(size=(25, 3, 2))])
        assert rows[t].tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [[2**32], [0, 2**32 + 5], [2**64], [-1]])
def test_split_normals_rejects_indices_beyond_one_word(bad):
    with pytest.raises(ValueError, match="indices"):
        Rng(1).split_normals("trial", bad, 3)
