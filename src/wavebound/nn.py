"""Dense MLP forecaster with hand-written backpropagation.

The forecaster maps a past window of shape (L, K) to a future window of
shape (M, K).  Windows are flattened row-major (time-major, feature-minor):
entry (t, k) lands at flat index t*K + k, and the output vector of length
M*K is reshaped back the same way.

Layers are affine maps with weights of shape (out, in) and biases of shape
(out,).  The standard forecaster has exactly three linear layers, tanh on
the two hidden layers and identity on the output; the structures below also
admit other depths/activations for probing and diagnostics.

A model's parameters live in one contiguous float64 buffer, `flat`, in
(w0, b0, w1, b1, ...) order, each tensor row-major; the per-layer weights
and biases are views into it.  Gradients, Adam moments, the EMA target and
the checkpoint payload share this layout, so each is a single array.
Elementwise passes over that buffer (the Adam and EMA updates) walk it in
`blocks` of BLOCK elements, so each block's operands stay in L2 cache.

The public functions are pure: they never mutate their arguments.  The
forward pass applies each layer's bias and activation in place on the fresh
matmul result, so a layer costs one allocation.  The public
`mlp_forward_batch` and `mlp_backward_batch` check their inputs and then
run the unchecked `_forward_flat` and `_backward_from`.  `_backward_from`
writes the gradient into a buffer its caller passes in and owns:
`mlp_backward_batch` passes a fresh one per call, and the trainer, which
checks its window sets once, passes the same one at every step and
backpropagates through the hidden states of the forward it has already made.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .rng import Rng

ACTIVATIONS = ("tanh", "identity")

# float64 elements per block of an elementwise pass over a flat buffer:
# 256 KiB per operand, so the 7-8 operands of an Adam block fit in L2.
BLOCK = 32768


def blocks(size: int) -> list[slice]:
    """Consecutive slices of at most BLOCK elements covering range(size)."""
    return [slice(start, min(start + BLOCK, size)) for start in range(0, size, BLOCK)]


def _geometry(layer_dims, activations, input_shape, output_shape):
    """Checked (layer_dims, activations, input_shape, output_shape) tuples."""
    dims = tuple((int(out_dim), int(in_dim)) for out_dim, in_dim in layer_dims)
    if len(dims) != len(activations):
        raise ConfigError("weights, biases and activations must have equal length")
    if not dims:
        raise ConfigError("model needs at least one layer")
    for act in activations:
        if act not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {act!r}")
    for i, ((_, in_dim), (prev_out, _)) in enumerate(zip(dims[1:], dims), start=1):
        if in_dim != prev_out:
            raise ConfigError(f"layer {i}: input dim {in_dim} != previous output {prev_out}")
    lin, lout = tuple(input_shape), tuple(output_shape)
    if dims[0][1] != lin[0] * lin[1]:
        raise ConfigError(
            f"first layer expects {dims[0][1]} inputs, window {lin} flattens to {lin[0] * lin[1]}"
        )
    if dims[-1][0] != lout[0] * lout[1]:
        raise ConfigError(
            f"last layer emits {dims[-1][0]} outputs, window {lout} needs {lout[0] * lout[1]}"
        )
    return dims, tuple(activations), lin, lout


class ModelParams:
    """Weights/biases of a dense MLP plus its window geometry.

    `flat` holds every parameter; weights[i] (shape (out_i, in_i)) and
    biases[i] (shape (out_i,)) are views into it, and layer_dims[i] is
    (out_i, in_i).  activations[i] is applied after layer i.  input_shape =
    (L, K), output_shape = (M, K); weights[0].shape[1] == L*K and
    weights[-1].shape[0] == M*K.  The constructor copies the given tensors.
    """

    def __init__(self, weights, biases, activations, input_shape, output_shape):
        if len(weights) != len(biases):
            raise ConfigError("weights, biases and activations must have equal length")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if np.ndim(w) != 2 or np.ndim(b) != 1 or np.shape(w)[0] != np.shape(b)[0]:
                raise ConfigError(f"layer {i}: weight {np.shape(w)} / bias {np.shape(b)} mismatch")
        geometry = _geometry([np.shape(w) for w in weights], activations, input_shape, output_shape)
        tensors = [np.ravel(t) for pair in zip(weights, biases) for t in pair]
        self._bind(np.concatenate(tensors, dtype=np.float64), geometry)

    @classmethod
    def from_flat(cls, flat, layer_dims, activations, input_shape, output_shape) -> "ModelParams":
        """Params of the given geometry, viewing `flat`."""
        geometry = _geometry(layer_dims, activations, input_shape, output_shape)
        return cls.__new__(cls)._bind(flat, geometry)

    def _bind(self, flat, geometry) -> "ModelParams":
        self._geometry = geometry
        self.layer_dims, self.activations, self.input_shape, self.output_shape = geometry
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        size = sum(out_dim * in_dim + out_dim for out_dim, in_dim in self.layer_dims)
        if self.flat.shape != (size,):
            raise ConfigError(f"expected a flat buffer of {size} parameters, got {self.flat.shape}")
        self.weights, self.biases, pos = [], [], 0
        for out_dim, in_dim in self.layer_dims:
            end = pos + out_dim * in_dim
            self.weights.append(self.flat[pos:end].reshape(out_dim, in_dim))
            self.biases.append(self.flat[end : end + out_dim])
            pos = end + out_dim
        return self

    def __reduce__(self):
        # Pickle the buffer once; the views are rebuilt on load.
        return (ModelParams.from_flat, (self.flat, *self._geometry))

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims)

    def tensors(self) -> list[np.ndarray]:
        """Views of the parameter tensors in buffer order: w0, b0, w1, b1, ..."""
        return [t for pair in zip(self.weights, self.biases) for t in pair]

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """Same geometry, viewing another buffer of the same length."""
        return ModelParams.__new__(ModelParams)._bind(flat, self._geometry)

    def with_tensors(self, tensors: list[np.ndarray]) -> "ModelParams":
        """Same geometry, holding copies of the given tensors."""
        return ModelParams(tensors[0::2], tensors[1::2], *self._geometry[1:])

    def copy(self) -> "ModelParams":
        return self.with_flat(self.flat.copy())


def new_forecaster(
    input_len: int,
    output_len: int,
    n_features: int,
    hidden_dim: int,
    rng: Rng,
) -> ModelParams:
    """Three-layer MLP, tanh hidden / identity output.

    Weights and biases are initialized uniformly in
    [-1/sqrt(fan_in), +1/sqrt(fan_in)] from the given stream.
    """
    dims = [input_len * n_features, hidden_dim, hidden_dim, output_len * n_features]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=(fan_out,)))
    return ModelParams(
        weights=weights,
        biases=biases,
        activations=("tanh", "tanh", "identity"),
        input_shape=(input_len, n_features),
        output_shape=(output_len, n_features),
    )


def _times_activate_grad(name: str, delta: np.ndarray, h: np.ndarray) -> np.ndarray:
    """delta times the activation's derivative, expressed through its output h.

    The product is written into `delta`, which must be the caller's own
    array.  The identity's derivative is 1 and x * 1.0 == x exactly, so
    delta is returned unchanged.
    """
    if name == "tanh":
        slope = h * h
        np.subtract(1.0, slope, out=slope)
        np.multiply(delta, slope, out=delta)
    return delta


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise ConfigError("input contains non-finite values")


def _check_shape(params: ModelParams, x: np.ndarray) -> None:
    want = params.input_shape
    if x.ndim != 3 or x.shape[1:] != want:
        raise ConfigError(f"expected batched input (n, {want[0]}, {want[1]}), got {x.shape}")


def _check_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    _check_shape(params, x)
    _check_finite(x)
    return x


def _forward_flat(params: ModelParams, flat: np.ndarray) -> list[np.ndarray]:
    """Hidden states [h0=input, h1, ..., hD] with hD the flat output."""
    states = [flat]
    h = flat
    for w, b, act in zip(params.weights, params.biases, params.activations):
        h = h @ w.T
        h += b
        if act == "tanh":
            np.tanh(h, out=h)
        states.append(h)
    return states


def _backward_from(
    params: ModelParams, states: list[np.ndarray], upstream: np.ndarray, grads: ModelParams
) -> np.ndarray:
    """Flat gradient of sum_i <upstream_i, states[-1]_i>, unchecked, into `grads`.

    `states` is `_forward_flat(params, ...)`'s list and `upstream` an
    (n, M*K) array; callers have checked both.  `grads` has params'
    geometry; every entry of its buffer is overwritten, and `grads.flat` is
    returned.  Neither `states` nor `upstream` is changed.
    """
    delta = upstream
    if params.activations[-1] != "identity":
        delta = _times_activate_grad(params.activations[-1], upstream.copy(), states[-1])
    for i in range(params.n_layers - 1, -1, -1):
        np.add.reduce(delta, axis=0, out=grads.biases[i])
        np.matmul(delta.T, states[i], out=grads.weights[i])
        if i > 0:
            delta = _times_activate_grad(
                params.activations[i - 1], delta @ params.weights[i], states[i]
            )
    return grads.flat


def mlp_forward_batch(params: ModelParams, inputs: np.ndarray) -> np.ndarray:
    """(n, L, K) -> (n, M, K)."""
    inputs = _check_input(params, inputs)
    n = inputs.shape[0]
    flat = inputs.reshape(n, -1)
    out = _forward_flat(params, flat)[-1]
    m, k = params.output_shape
    return out.reshape(n, m, k)


def mlp_backward_batch(
    params: ModelParams, inputs: np.ndarray, upstream: np.ndarray
) -> np.ndarray:
    """Gradient of sum_i <upstream_i, forward(inputs_i)> w.r.t. parameters.

    inputs (n, L, K), upstream (n, M, K); returns one flat gradient in the
    layout of params.flat.  Each dW and db is written through a view of it.
    """
    inputs = _check_input(params, inputs)
    upstream = np.asarray(upstream, dtype=np.float64)
    n = inputs.shape[0]
    m, k = params.output_shape
    if upstream.shape != (n, m, k):
        raise ConfigError(f"expected upstream of shape ({n}, {m}, {k}), got {upstream.shape}")
    if not np.isfinite(upstream).all():
        raise ConfigError("upstream contains non-finite values")
    states = _forward_flat(params, inputs.reshape(n, -1))
    grads = params.with_flat(np.empty_like(params.flat))
    return _backward_from(params, states, upstream.reshape(n, -1), grads)
