import tracemalloc

import numpy as np
import pytest

from wavebound import ConfigError, ModelParams, Rng, ema_init, ema_update, new_forecaster
from wavebound.ema import EmaMirror
from wavebound.nn import BLOCK

BLOCK_SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7)
OBJECTS = 16 * 1024  # headroom for the Python objects and array headers a call makes


def two_models(seed=0):
    rng = Rng(seed)
    a = new_forecaster(3, 2, 1, 4, rng.split(0))
    b = new_forecaster(3, 2, 1, 4, rng.split(1))
    return a, b


def test_init_is_exact_copy():
    source, _ = two_models()
    mirror = ema_init(source, 0.99)
    for t, s in zip(mirror.target.tensors(), source.tensors()):
        assert np.array_equal(t, s)
        assert t is not s


def test_decay_validation():
    source, _ = two_models()
    with pytest.raises(ConfigError):
        ema_init(source, -0.01)
    with pytest.raises(ConfigError):
        ema_init(source, 1.01)


def test_alpha_one_never_changes_target():
    source, moved = two_models()
    mirror = ema_init(source, 1.0)
    for _ in range(5):
        mirror = ema_update(mirror, moved)
    for t, s in zip(mirror.target.tensors(), source.tensors()):
        assert np.array_equal(t, s)


def test_alpha_zero_copies_source():
    source, moved = two_models()
    mirror = ema_update(ema_init(source, 0.0), moved)
    for t, s in zip(mirror.target.tensors(), moved.tensors()):
        assert np.array_equal(t, s)


def test_midpoint():
    source, _ = two_models()
    mirror = ema_init(source, 0.5)
    doubled = source.with_flat(2.0 * source.flat)
    mirror = ema_update(mirror, doubled)
    for t, s in zip(mirror.target.tensors(), source.tensors()):
        assert np.allclose(t, 1.5 * s, rtol=0, atol=0)


def test_update_stays_between_old_target_and_source():
    source, moved = two_models()
    mirror = ema_init(source, 0.7)
    before = mirror.target.copy()
    updated = ema_update(mirror, moved)
    for new, old, src in zip(updated.target.tensors(), before.tensors(), moved.tensors()):
        lo = np.minimum(old, src)
        hi = np.maximum(old, src)
        assert (new >= lo - 1e-15).all() and (new <= hi + 1e-15).all()


def test_fixed_point_under_frozen_source():
    source, _ = two_models()
    mirror = ema_init(source, 0.99)
    for _ in range(10):
        mirror = ema_update(mirror, source)
    for t, s in zip(mirror.target.tensors(), source.tensors()):
        assert np.array_equal(t, s)


def test_geometric_convergence_rate():
    source, moved = two_models()
    alpha = 0.9
    mirror = ema_init(source, alpha)
    gap0 = max(
        np.abs(t - s).max() for t, s in zip(mirror.target.tensors(), moved.tensors())
    )
    n = 12
    for _ in range(n):
        mirror = ema_update(mirror, moved)
    gap_n = max(
        np.abs(t - s).max() for t, s in zip(mirror.target.tensors(), moved.tensors())
    )
    assert gap_n == pytest.approx(alpha**n * gap0, rel=1e-12)


def test_shape_mismatch_rejected():
    source, _ = two_models()
    other = new_forecaster(3, 2, 1, 5, Rng(3))
    mirror = ema_init(source, 0.5)
    with pytest.raises(ConfigError):
        ema_update(mirror, other)


def flat_model(flat: np.ndarray) -> ModelParams:
    """One identity layer (1, n-1) whose buffer is exactly `flat`."""
    n = flat.size
    return ModelParams.from_flat(flat, [(1, n - 1)], ("identity",), (n - 1, 1), (1, 1))


def random_pair(n: int, decay: float = 0.99):
    rng = np.random.default_rng(n)
    return EmaMirror(flat_model(rng.normal(size=n)), decay), flat_model(rng.normal(size=n))


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("decay", (0.99, 0.3))
def test_blocked_blend_matches_expression_bit_for_bit(n, decay):
    mirror, source = random_pair(n, decay)
    want = decay * mirror.target.flat + (1.0 - decay) * source.flat
    assert ema_update(mirror, source).target.flat.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_blend_updates_in_place_and_leaves_source_unchanged(n):
    mirror, source = random_pair(n)
    target, tau = mirror.target, mirror.target.flat
    before = [a.copy() for a in (tau, source.flat)]
    updated = ema_update(mirror, source)
    assert updated is mirror and updated.target is target and target.flat is tau
    assert tau.tobytes() != before[0].tobytes()
    assert source.flat.tobytes() == before[1].tobytes()


def test_blend_peak_memory_is_its_result_plus_one_block():
    # The result goes into the target's own buffer, so only one block of
    # scratch is new; a fresh result would add 8n bytes, and the
    # expression form holds two parameter-sized temporaries at its peak.
    mirror, source = random_pair(4 * BLOCK + 7)
    tracemalloc.start()
    try:
        updated = ema_update(mirror, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert updated.decay == mirror.decay
    assert peak <= BLOCK * 8 + OBJECTS
