import math
import tracemalloc

import numpy as np
import pytest

from wavebound import (
    ConfigError,
    ModelParams,
    NumericError,
    Rng,
    adam_init,
    adam_step,
    new_forecaster,
)
from wavebound.adam import BETA1, BETA2, EPS, AdamState
from wavebound.nn import BLOCK

BLOCK_SIZES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7)
OBJECTS = 16 * 1024  # headroom for the Python objects and array headers a call makes


def scalar_model(value: float) -> ModelParams:
    return ModelParams(
        weights=[np.array([[value]])],
        biases=[np.array([0.0])],
        activations=("identity",),
        input_shape=(1, 1),
        output_shape=(1, 1),
    )


def scalar_grads(wg: float, bg: float = 0.0):
    """Flat gradient of scalar_model: (dw, db)."""
    return np.array([wg, bg])


def test_first_step_hand_trace():
    # m = 0.1*0.3, v = 0.001*0.09; bias-corrected: mhat = 0.3, vhat = 0.09
    # step = 0.01 * 0.3 / (0.3 + 1e-8)
    model = scalar_model(1.0)
    new, state = adam_step(model, scalar_grads(0.3), adam_init(model), lr=0.01)
    assert new.weights[0][0, 0] == pytest.approx(0.9900000003333334, abs=1e-15)
    assert state.step_count == 1


def test_second_step_hand_trace():
    model = scalar_model(1.0)
    model, state = adam_step(model, scalar_grads(0.3), adam_init(model), lr=0.01)
    model, state = adam_step(model, scalar_grads(0.3), state, lr=0.01)
    assert model.weights[0][0, 0] == pytest.approx(0.9800000006666667, abs=1e-15)
    assert state.step_count == 2


def test_constant_gradient_step_magnitude_is_lr():
    # with a constant gradient, the bias-corrected update is ~lr regardless
    # of the gradient's scale (up to the 1e-8 denominator floor)
    for g in (0.01, 1.0, 1e6):
        model = scalar_model(0.0)
        new, _ = adam_step(model, scalar_grads(g), adam_init(model), lr=0.5)
        assert new.weights[0][0, 0] == pytest.approx(-0.5, rel=1e-5)


def test_zero_learning_rate_is_identity():
    rng = Rng(0)
    model = new_forecaster(3, 2, 1, 4, rng.split("init"))
    grads = np.concatenate([rng.normal(size=t.shape).ravel() for t in model.tensors()])
    before = model.copy()
    new, _ = adam_step(model, grads, adam_init(model), lr=0.0)
    for a, b in zip(new.tensors(), before.tensors()):
        assert np.array_equal(a, b)


def test_rejected_step_leaves_params_and_state_unchanged():
    model = scalar_model(1.0)
    state = AdamState(np.array([0.5, 0.25]), np.array([1.0, 2.0]), 4)
    with pytest.raises(NumericError):
        adam_step(model, scalar_grads(np.nan), state, lr=0.1)
    with pytest.raises(ConfigError):
        adam_step(model, np.zeros(3), state, lr=0.1)
    for lr in (np.nan, np.inf, -1.0):
        with pytest.raises(ConfigError, match="learning rate"):
            adam_step(model, scalar_grads(0.3), state, lr=lr)
    assert model.flat.tolist() == [1.0, 0.0]
    assert (state.first_moment.tolist(), state.second_moment.tolist()) == ([0.5, 0.25], [1.0, 2.0])
    assert state.step_count == 4


def test_shape_mismatch_rejected():
    model = scalar_model(1.0)
    with pytest.raises(ConfigError):
        adam_step(model, np.zeros(5), adam_init(model), lr=0.1)
    with pytest.raises(ConfigError):
        adam_step(model, np.zeros(1), adam_init(model), lr=0.1)
    with pytest.raises(ConfigError):
        adam_step(model, np.zeros((1, 2)), adam_init(model), lr=0.1)


def test_non_finite_gradient_rejected():
    model = scalar_model(1.0)
    with pytest.raises(NumericError):
        adam_step(model, scalar_grads(np.inf), adam_init(model), lr=0.1)


def test_descends_a_simple_quadratic():
    # minimize (w - 3)^2 by feeding its gradient
    model = scalar_model(0.0)
    state = adam_init(model)
    for _ in range(2000):
        w = model.weights[0][0, 0]
        model, state = adam_step(model, scalar_grads(2 * (w - 3.0)), state, lr=0.01)
    assert model.weights[0][0, 0] == pytest.approx(3.0, abs=1e-2)


def flat_model(flat: np.ndarray) -> ModelParams:
    """One identity layer (1, n-1) whose buffer is exactly `flat`."""
    n = flat.size
    return ModelParams.from_flat(flat, [(1, n - 1)], ("identity",), (n - 1, 1), (1, 1))


def random_step_inputs(n: int, step_count: int):
    rng = np.random.default_rng(n)
    model = flat_model(rng.normal(size=n))
    state = AdamState(rng.normal(size=n), rng.random(n), step_count)
    return model, rng.normal(size=n), state


def expression_step(p, g, m, v, t, lr):
    """Kingma & Ba's folded Adam update, one whole-array expression per line."""
    root_bc2 = math.sqrt(1.0 - BETA2**t)
    alpha = lr * root_bc2 / (1.0 - BETA1**t)
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * g * g
    step = alpha * m / (np.sqrt(v) + EPS * root_bc2)
    return p - step, m, v


def textbook_step(p, g, m, v, t, lr):
    """The textbook Adam update, one whole-array expression per line."""
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    m = BETA1 * m + (1.0 - BETA1) * g
    v = BETA2 * v + (1.0 - BETA2) * g * g
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    return p - step, m, v


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("t", (1, 10_000))
def test_blocked_step_matches_expression_bit_for_bit(n, t):
    model, grads, state = random_step_inputs(n, t - 1)
    want = expression_step(model.flat, grads, state.first_moment, state.second_moment, t, 1e-3)
    new, after = adam_step(model, grads, state, lr=1e-3)
    for got, ref in zip((new.flat, after.first_moment, after.second_moment), want):
        assert got.tobytes() == ref.tobytes()
    assert after.step_count == t


def test_folded_step_tracks_the_textbook_form():
    # The folded form moves the bias corrections into scalars, so the
    # parameters may differ from the textbook's in the last bits; the
    # moments are formed by the same expressions and stay byte-equal.
    n = 2 * BLOCK + 7
    model = random_step_inputs(n, 0)[0]
    state = adam_init(model)
    p, m, v = model.flat.copy(), np.zeros(n), np.zeros(n)
    rng, grads = np.random.default_rng(2), np.empty(n)
    for t in range(1, 2001):
        rng.random(out=grads)  # uniform draws: a fraction of the cost of normal ones
        grads -= 0.5
        p, m, v = textbook_step(p, grads, m, v, t, 1e-3)
        adam_step(model, grads, state, lr=1e-3)
    assert state.first_moment.tobytes() == m.tobytes()
    assert state.second_moment.tobytes() == v.tobytes()
    assert np.abs(model.flat - p).max() <= 1e-14 * np.abs(p).max()


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_blocked_step_updates_in_place_and_leaves_gradient_unchanged(n):
    model, grads, state = random_step_inputs(n, 3)
    buffers = (model.flat, state.first_moment, state.second_moment)
    before = [a.copy() for a in (*buffers, grads)]
    new, after = adam_step(model, grads, state, lr=1e-3)
    assert new is model and after is state
    for got, buffer, old in zip((new.flat, after.first_moment, after.second_moment), buffers, before):
        assert got is buffer
        assert got.tobytes() != old.tobytes()
    assert grads.tobytes() == before[-1].tobytes()


def test_step_peak_memory_is_two_blocks_of_scratch():
    # Two blocks of scratch and the isfinite mask; no parameter-sized
    # buffer.  Returning fresh params and moments would add 3 * 8n bytes.
    n = 4 * BLOCK + 7
    model, grads, state = random_step_inputs(n, 0)
    tracemalloc.start()
    try:
        result = adam_step(model, grads, state, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[1].step_count == 1
    assert peak <= 2 * BLOCK * 8 + n + OBJECTS
