import pickle

import numpy as np
import pytest

from wavebound import (
    ConfigError,
    ModelParams,
    Rng,
    mlp_backward_batch,
    mlp_forward_batch,
    new_forecaster,
)
from wavebound.nn import _backward_from, _forward_flat


def forward_one(model, window):
    """Single-window forward through the batched path."""
    return mlp_forward_batch(model, np.asarray(window)[None])[0]


def linear_model(weight, bias, input_shape, output_shape) -> ModelParams:
    return ModelParams(
        weights=[np.asarray(weight, dtype=float)],
        biases=[np.asarray(bias, dtype=float)],
        activations=("identity",),
        input_shape=input_shape,
        output_shape=output_shape,
    )


def test_forward_single_affine_layer():
    model = linear_model([[2.0]], [0.5], (1, 1), (1, 1))
    assert forward_one(model, np.array([[3.0]])) == pytest.approx(6.5)


def test_forward_flattening_is_time_major():
    # identity weights: output window must equal the input window, which
    # pins down that (t, k) flattens to t*K + k on both sides
    model = linear_model(np.eye(4), np.zeros(4), (2, 2), (2, 2))
    window = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(forward_one(model, window), window)
    # selector for flat index 1 must pick entry (t=0, k=1)
    selector = linear_model([[0.0, 1.0, 0.0, 0.0]], [0.0], (2, 2), (1, 1))
    assert forward_one(selector, window)[0, 0] == 2.0


def test_forward_batch_matches_single():
    rng = Rng(0)
    model = new_forecaster(5, 3, 2, 7, rng.split("init"))
    batch = rng.normal(size=(6, 5, 2))
    stacked = np.stack([forward_one(model, w) for w in batch])
    # matmul accumulation order differs between batch sizes; allow rounding
    assert np.allclose(mlp_forward_batch(model, batch), stacked, rtol=1e-12, atol=1e-14)


def test_new_forecaster_has_three_layers_tanh_tanh_identity():
    model = new_forecaster(4, 2, 3, 8, Rng(1))
    assert model.n_layers == 3
    assert model.activations == ("tanh", "tanh", "identity")
    assert model.weights[0].shape == (8, 12)
    assert model.weights[2].shape == (6, 8)
    bound = 1.0 / np.sqrt(12)
    assert np.abs(model.weights[0]).max() <= bound


def test_new_forecaster_deterministic():
    a = new_forecaster(4, 2, 1, 8, Rng(5))
    b = new_forecaster(4, 2, 1, 8, Rng(5))
    for ta, tb in zip(a.tensors(), b.tensors()):
        assert np.array_equal(ta, tb)


def test_tensor_order_roundtrip():
    model = new_forecaster(3, 2, 1, 4, Rng(2))
    rebound = model.with_flat(model.flat)
    assert rebound.flat is model.flat
    for ta, tb in zip(model.tensors(), rebound.tensors()):
        assert np.shares_memory(ta, tb) and ta.shape == tb.shape
    rebuilt = model.with_tensors(model.tensors())
    assert np.array_equal(rebuilt.flat, model.flat)
    assert not np.shares_memory(rebuilt.flat, model.flat)
    copied = model.copy()
    assert all(np.array_equal(a, b) for a, b in zip(model.tensors(), copied.tensors()))
    assert copied.tensors()[0] is not model.tensors()[0]


def test_tensors_view_the_flat_buffer():
    model = new_forecaster(3, 2, 1, 4, Rng(2))
    flat_copy = model.flat.copy()
    for params in (
        model,
        model.copy(),
        model.with_flat(flat_copy),
        model.with_tensors(model.tensors()),
        pickle.loads(pickle.dumps(model)),
    ):
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
        assert params.flat.size == sum(t.size for t in params.tensors())
        for t in params.tensors():
            assert np.shares_memory(t, params.flat)
        assert np.array_equal(params.flat, model.flat)
        assert params.layer_dims == model.layer_dims
    assert not np.shares_memory(model.copy().flat, model.flat)
    assert model.with_flat(flat_copy).flat is flat_copy
    # the buffer is in (w0, b0, w1, b1, ...) order, each tensor row-major
    assert np.array_equal(model.flat, np.concatenate([t.ravel() for t in model.tensors()]))
    model.weights[1][0, 0] = 7.0
    assert model.flat[model.weights[0].size + model.biases[0].size] == 7.0


def test_with_flat_rejects_wrong_length():
    model = new_forecaster(3, 2, 1, 4, Rng(2))
    for bad in (model.flat[:-1], np.zeros(model.flat.size + 1), model.flat.reshape(1, -1)):
        with pytest.raises(ConfigError, match="flat buffer"):
            model.with_flat(bad)


def test_shape_validation():
    with pytest.raises(ConfigError):
        ModelParams(
            weights=[np.zeros((2, 3)), np.zeros((4, 99))],
            biases=[np.zeros(2), np.zeros(4)],
            activations=("tanh", "identity"),
            input_shape=(3, 1),
            output_shape=(4, 1),
        )
    model = new_forecaster(4, 2, 1, 8, Rng(0))
    with pytest.raises(ConfigError):
        forward_one(model, np.zeros((5, 1)))
    with pytest.raises(ConfigError):
        mlp_forward_batch(model, np.zeros((2, 4, 2)))
    with pytest.raises(ConfigError):
        mlp_backward_batch(model, np.zeros((2, 4, 1)), np.zeros((2, 3, 1)))


def test_non_finite_input_rejected():
    model = new_forecaster(2, 1, 1, 3, Rng(0))
    bad = np.array([[np.nan], [0.0]])
    with pytest.raises(ConfigError):
        forward_one(model, bad)


def numeric_gradient(model, x, upstream, h=1e-6):
    """Central finite differences of sum(upstream * forward(x))."""

    def value(m):
        return float(np.sum(upstream * mlp_forward_batch(m, x)))

    grads = []
    for ti, tensor in enumerate(model.tensors()):
        g = np.zeros_like(tensor)
        for idx in np.ndindex(tensor.shape):
            bumped = [t.copy() for t in model.tensors()]
            bumped[ti][idx] += h
            up = value(model.with_tensors(bumped))
            bumped[ti][idx] -= 2 * h
            down = value(model.with_tensors(bumped))
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_finite_differences(seed):
    rng = Rng(seed)
    model = new_forecaster(3, 2, 2, 4, rng.split("init"))
    x = rng.normal(size=(4, 3, 2))
    upstream = rng.normal(size=(4, 2, 2))
    analytic = model.with_flat(mlp_backward_batch(model, x, upstream)).tensors()
    numeric = numeric_gradient(model, x, upstream)
    for a, n in zip(analytic, numeric):
        assert np.allclose(a, n, rtol=1e-5, atol=1e-7)


def test_backward_single_window_matches_batch():
    # the batch gradient is the sum of the one-window gradients
    rng = Rng(3)
    model = new_forecaster(3, 2, 1, 4, rng.split("init"))
    x = rng.normal(size=(5, 3, 1))
    upstream = rng.normal(size=(5, 2, 1))
    singles = [mlp_backward_batch(model, x[i : i + 1], upstream[i : i + 1]) for i in range(5)]
    batched = mlp_backward_batch(model, x, upstream)
    for i, b in enumerate(batched):
        assert np.allclose(sum(s[i] for s in singles), b, rtol=1e-12, atol=1e-14)


def test_backward_is_linear_in_upstream():
    rng = Rng(4)
    model = new_forecaster(3, 2, 1, 4, rng.split("init"))
    x = rng.normal(size=(5, 3, 1))
    u1 = rng.normal(size=(5, 2, 1))
    u2 = rng.normal(size=(5, 2, 1))
    combined = mlp_backward_batch(model, x, 2.0 * u1 + u2)
    parts = [
        2.0 * a + b
        for a, b in zip(mlp_backward_batch(model, x, u1), mlp_backward_batch(model, x, u2))
    ]
    for c, p in zip(combined, parts):
        assert np.allclose(c, p, rtol=1e-12, atol=1e-12)


def test_backward_gradient_order_matches_tensors():
    model = new_forecaster(3, 2, 1, 4, Rng(6))
    grad = mlp_backward_batch(model, np.zeros((1, 3, 1)), np.ones((1, 2, 1)))
    assert grad.shape == model.flat.shape
    # zero input: dw0 is zero and db0 is not, which pins w0 ahead of b0
    n_w0 = model.weights[0].size
    assert not grad[:n_w0].any()
    assert grad[n_w0 : n_w0 + model.biases[0].size].all()


def recomputing_backward(params, inputs, upstream):
    """The backward as it was before `_backward_from`: it makes its own
    forward and multiplies the output layer's delta by np.ones_like."""
    n = inputs.shape[0]
    states = _forward_flat(params, inputs.reshape(n, -1))
    delta = upstream.reshape(n, -1) * np.ones_like(states[-1])
    grad = np.empty_like(params.flat)
    views = params.with_flat(grad)
    for i in range(params.n_layers - 1, -1, -1):
        np.sum(delta, axis=0, out=views.biases[i])
        np.matmul(delta.T, states[i], out=views.weights[i])
        if i > 0:
            delta = (delta @ params.weights[i]) * (1.0 - states[i] * states[i])
    return grad


@pytest.mark.parametrize("hidden,n", [(4, 1), (16, 7), (256, 32)])
def test_backward_from_forward_states_is_bit_identical(hidden, n):
    rng = Rng(8, (hidden,))
    model = new_forecaster(12, 6, 2, hidden, rng.split("init"))
    x = rng.normal(size=(n, 12, 2))
    upstream = rng.normal(size=(n, 6, 2))
    states = _forward_flat(model, x.reshape(n, -1))
    got = _backward_from(model, states, upstream.reshape(n, -1), model.copy())
    want = recomputing_backward(model, x, upstream)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == mlp_backward_batch(model, x, upstream).tobytes()


def test_backward_from_leaves_its_arguments_alone():
    rng = Rng(9)
    model = new_forecaster(5, 3, 1, 8, rng.split("init"))
    x = rng.normal(size=(4, 5))
    upstream = rng.normal(size=(4, 3))
    states = _forward_flat(model, x)
    before = [s.copy() for s in states], upstream.copy(), model.flat.copy()
    _backward_from(model, states, upstream, model.copy())
    assert all(np.array_equal(a, b) for a, b in zip(before[0], states))
    assert np.array_equal(before[1], upstream) and np.array_equal(before[2], model.flat)


@pytest.mark.parametrize("output_act", ["identity", "tanh"])
def test_backward_from_overwrites_every_entry_of_its_buffer(output_act):
    rng = Rng(10)
    base = new_forecaster(5, 3, 2, 6, rng.split("init"))
    model = ModelParams(base.weights, base.biases, ("tanh", "tanh", output_act), (5, 2), (3, 2))
    x = rng.normal(size=(4, 10))
    upstream = rng.normal(size=(4, 6))
    states = _forward_flat(model, x)
    stale = model.with_flat(np.full_like(model.flat, np.nan))
    got = _backward_from(model, states, upstream, stale)
    assert got is stale.flat
    want = mlp_backward_batch(model, x.reshape(4, 5, 2), upstream.reshape(4, 3, 2))
    assert got.tobytes() == want.tobytes()
