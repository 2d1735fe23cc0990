"""Forecast metrics and 1-D loss-landscape slices.

Everything here is read-only over immutable params and window tensors.
Squared-error metrics decompose per (horizon step, feature); the grand mean
of the per-element matrix is the reported MSE, and the per-step curve is its
mean over features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .nn import ModelParams, _check_finite, _check_shape, _forward_flat
from .rng import Rng

# Windows per chunk of `evaluate`.
CHUNK = 512


@dataclass
class MetricRecord:
    mse: float
    mae: float
    per_step_mse: np.ndarray  # (M,)
    per_element_mse: np.ndarray  # (M, K)
    sample_count: int


def evaluate(params: ModelParams, past: np.ndarray, future: np.ndarray) -> MetricRecord:
    """Average squared and absolute error of params over a window set.

    The windows are forwarded CHUNK at a time, so the temporaries stay a
    chunk in size; only |err| is kept for the whole set.  The results are
    bit for bit those of one forward over the whole set:

    - squared errors go into rows 1.. of a scratch array whose row 0 holds
      the running total, and one reduction over its rows continues that
      total, in the sequential order of `(err * err).mean(axis=0)`;
    - the mean absolute error is the mean of the whole |err| buffer, with
      numpy's pairwise summation over the same n*M*K values;
    - a matmul over a few rows takes another BLAS kernel (numpy's gemv for
      one row, OpenBLAS's small-matrix kernel for a few) than the same rows
      inside a matmul over many, and rounds differently.  So a short last
      chunk is forwarded over the last CHUNK windows and keeps only its
      new rows.
    """
    past = np.asarray(past, dtype=np.float64)
    future = np.asarray(future, dtype=np.float64)
    if past.ndim != 3 or future.ndim != 3 or past.shape[0] != future.shape[0]:
        raise ConfigError(
            f"expected (n, L, K) past and (n, M, K) future, got {past.shape} and {future.shape}"
        )
    if future.shape[1:] != params.output_shape:
        raise ConfigError(
            f"future windows of shape {future.shape[1:]} do not match the model's "
            f"output shape {params.output_shape}"
        )
    n = past.shape[0]
    if n < 1:
        raise DataError("empty window set")
    _check_shape(params, past)

    width = future.shape[1] * future.shape[2]
    rows = np.zeros((min(n, CHUNK) + 1, width))
    abs_err = np.empty((n, width))
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        count = stop - start
        first = start if start == 0 or count == CHUNK else stop - CHUNK
        chunk = past[first:stop]
        _check_finite(chunk)
        err = _forward_flat(params, chunk.reshape(stop - first, -1))[-1][start - first :]
        err -= future[start:stop].reshape(count, width)
        np.abs(err, out=abs_err[start:stop])
        np.multiply(err, err, out=rows[1 : count + 1])
        rows[0] = np.add.reduce(rows[: count + 1], axis=0)
    per_element = (rows[0] / n).reshape(params.output_shape)
    return MetricRecord(
        mse=float(per_element.mean()),
        mae=float(abs_err.mean()),
        per_step_mse=per_element.mean(axis=1),
        per_element_mse=per_element,
        sample_count=n,
    )


def generalization_gap(log) -> np.ndarray:
    """Per-epoch (test MSE - train MSE) series from a training log."""
    records = log.records
    if not records:
        raise ConfigError("empty training log")
    return np.array([r.test_mse - r.train_mse for r in records])


def _slice_direction(params: ModelParams, rng: Rng) -> np.ndarray:
    """Random direction in the layout of params.flat, rescaled rowwise.

    For a weight matrix, each output row of the direction is scaled to the
    norm of the matching weight row; bias entries are scaled to their own
    magnitudes.  Rows (or entries) of norm zero get a zero direction, so the
    perturbation never leaves the model's own scale.
    """
    direction = []
    for tensor in params.tensors():
        d = rng.normal(size=tensor.shape)
        if tensor.ndim == 2:
            d_norm = np.linalg.norm(d, axis=1, keepdims=True)
            t_norm = np.linalg.norm(tensor, axis=1, keepdims=True)
        else:
            d_norm = np.abs(d)
            t_norm = np.abs(tensor)
        safe = np.where(d_norm > 0, d_norm, 1.0)
        direction.append((d * np.where(d_norm > 0, t_norm / safe, 0.0)).ravel())
    return np.concatenate(direction)


def loss_slice(
    params: ModelParams,
    direction_seed: int,
    radius: float,
    steps: int,
    past: np.ndarray,
    future: np.ndarray,
) -> list[tuple[float, float]]:
    """MSE along theta + t*d for t in [-radius, radius], t=0 sampled exactly.

    steps must be odd and >= 3 so the center point is on the grid; the
    center loss equals evaluate(params).mse exactly because the unperturbed
    parameters are reused there.
    """
    if steps < 3 or steps % 2 == 0:
        raise ConfigError("steps must be an odd integer >= 3")
    if radius <= 0:
        raise ConfigError("radius must be > 0")
    direction = _slice_direction(params, Rng(direction_seed, ("slice-direction",)))
    half = steps // 2
    offsets = np.arange(1, half + 1) * (radius / half)
    ts = np.concatenate([-offsets[::-1], [0.0], offsets])
    out = []
    for t in ts:
        probe = params if t == 0.0 else params.with_flat(params.flat + t * direction)
        out.append((float(t), evaluate(probe, past, future).mse))
    return out
