import numpy as np
import pytest

from wavebound import ConfigError, Rng, ema_init, ema_update, new_forecaster


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
    updated = ema_update(mirror, moved)
    for new, old, src in zip(updated.target.tensors(), mirror.target.tensors(), moved.tensors()):
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
