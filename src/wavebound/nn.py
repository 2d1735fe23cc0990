"""Dense MLP forecaster with hand-written backpropagation.

The forecaster maps a past window of shape (L, K) to a future window of
shape (M, K).  Windows are flattened row-major (time-major, feature-minor):
entry (t, k) lands at flat index t*K + k, and the output vector of length
M*K is reshaped back the same way.

Layers are affine maps with weights of shape (out, in) and biases of shape
(out,).  The standard forecaster has exactly three linear layers, tanh on
the two hidden layers and identity on the output; the structures below also
admit other depths/activations for probing and diagnostics.

All functions are pure: they never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import Rng

ACTIVATIONS = ("tanh", "identity")


@dataclass
class ModelParams:
    """Weights/biases of a dense MLP plus its window geometry.

    weights[i] has shape (out_i, in_i); biases[i] has shape (out_i,).
    activations[i] is applied after layer i.  input_shape = (L, K),
    output_shape = (M, K); weights[0].shape[1] == L*K and
    weights[-1].shape[0] == M*K.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: tuple[str, ...]
    input_shape: tuple[int, int]
    output_shape: tuple[int, int]

    def __post_init__(self):
        self.activations = tuple(self.activations)
        self.input_shape = tuple(self.input_shape)
        self.output_shape = tuple(self.output_shape)
        if len(self.weights) != len(self.biases) or len(self.weights) != len(self.activations):
            raise ConfigError("weights, biases and activations must have equal length")
        if not self.weights:
            raise ConfigError("model needs at least one layer")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ConfigError(f"unknown activation {act!r}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ConfigError(f"layer {i}: weight {w.shape} / bias {b.shape} mismatch")
            if i > 0 and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ConfigError(
                    f"layer {i}: input dim {w.shape[1]} != previous output "
                    f"{self.weights[i - 1].shape[0]}"
                )
        lin, lout = self.input_shape, self.output_shape
        if self.weights[0].shape[1] != lin[0] * lin[1]:
            raise ConfigError(
                f"first layer expects {self.weights[0].shape[1]} inputs, "
                f"window {lin} flattens to {lin[0] * lin[1]}"
            )
        if self.weights[-1].shape[0] != lout[0] * lout[1]:
            raise ConfigError(
                f"last layer emits {self.weights[-1].shape[0]} outputs, "
                f"window {lout} needs {lout[0] * lout[1]}"
            )

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def tensors(self) -> list[np.ndarray]:
        """Parameter tensors in a fixed order: w0, b0, w1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def with_tensors(self, tensors: list[np.ndarray]) -> "ModelParams":
        """New params with the same geometry and the given tensors."""
        if len(tensors) != 2 * self.n_layers:
            raise ConfigError(f"expected {2 * self.n_layers} tensors, got {len(tensors)}")
        return ModelParams(
            weights=[np.asarray(t) for t in tensors[0::2]],
            biases=[np.asarray(t) for t in tensors[1::2]],
            activations=self.activations,
            input_shape=self.input_shape,
            output_shape=self.output_shape,
        )

    def copy(self) -> "ModelParams":
        return self.with_tensors([t.copy() for t in self.tensors()])


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


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    return np.tanh(z) if name == "tanh" else z


def _activate_grad(name: str, h: np.ndarray) -> np.ndarray:
    # derivative expressed through the activation output h
    return 1.0 - h * h if name == "tanh" else np.ones_like(h)


def _check_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    want = params.input_shape
    if x.ndim != 3 or x.shape[1:] != want:
        raise ConfigError(f"expected batched input (n, {want[0]}, {want[1]}), got {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError("input contains non-finite values")
    return x


def _forward_flat(params: ModelParams, flat: np.ndarray) -> list[np.ndarray]:
    """Hidden states [h0=input, h1, ..., hD] with hD the flat output."""
    states = [flat]
    h = flat
    for w, b, act in zip(params.weights, params.biases, params.activations):
        h = _activate(act, h @ w.T + b)
        states.append(h)
    return states


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
) -> list[np.ndarray]:
    """Gradient of sum_i <upstream_i, forward(inputs_i)> w.r.t. parameters.

    inputs (n, L, K), upstream (n, M, K); returns tensors in
    ModelParams.tensors() order: [dw0, db0, dw1, db1, ...].
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
    delta = upstream.reshape(n, -1) * _activate_grad(params.activations[-1], states[-1])
    grads: list[np.ndarray] = []
    for i in range(params.n_layers - 1, -1, -1):
        grads.append(delta.sum(axis=0))       # db_i
        grads.append(delta.T @ states[i])     # dw_i
        if i > 0:
            delta = (delta @ params.weights[i]) * _activate_grad(
                params.activations[i - 1], states[i]
            )
    grads.reverse()
    return grads
