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
    new, _ = adam_step(model, grads, adam_init(model), lr=0.0)
    for a, b in zip(new.tensors(), model.tensors()):
        assert np.array_equal(a, b)


def test_step_is_pure():
    model = scalar_model(1.0)
    state = adam_init(model)
    before = [t.copy() for t in model.tensors()]
    m_before = state.first_moment.copy()
    adam_step(model, scalar_grads(0.3), state, lr=0.1)
    for t, b in zip(model.tensors(), before):
        assert np.array_equal(t, b)
    assert np.array_equal(state.first_moment, m_before)
    assert state.step_count == 0


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
