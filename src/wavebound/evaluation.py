"""Forecast metrics.

Nothing here writes to the params or window tensors it is given.
Squared-error metrics decompose per (horizon step, feature); the grand mean
of the per-element matrix is the reported MSE, and the per-step curve is its
mean over features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import checked_windows
from .errors import ConfigError
from .nn import ModelParams, _forward_flat

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

    `checked_windows` checks the whole set, as the "evaluation set", before
    the first chunk.  The windows are then forwarded CHUNK at a time, so the
    temporaries stay a chunk in size; only |err| is kept for the whole set.
    The results are bit for bit those of one forward over the whole set:

    - squared errors go into rows 1.. of a scratch array whose row 0 holds
      the running total, and one reduction over its rows continues that
      total, in the sequential order of `(err * err).mean(axis=0)`;
    - the mean absolute error is the mean of the whole |err| buffer, with
      numpy's pairwise summation over the same n*M*K values;
    - each chunk is forwarded from a contiguous (rows, L*K) array, a copy
      when its windows are not contiguous.  Windows from `windowize` overlap
      in memory, and a reshape of them has overlapping rows, which some
      numpy versions multiply outside BLAS, slower and with other rounding;
    - a matmul over a few rows takes another BLAS kernel (numpy's gemv for
      one row, OpenBLAS's small-matrix kernel for a few) than the same rows
      inside a matmul over many, and rounds differently.  So a short last
      chunk is forwarded over the last CHUNK windows and keeps only its
      new rows.
    """
    shapes = params.input_shape, params.output_shape
    past, future = checked_windows("evaluation", past, future, *shapes)
    n = past.shape[0]
    width = future.shape[1] * future.shape[2]
    rows = np.zeros((min(n, CHUNK) + 1, width))
    abs_err = np.empty((n, width))
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        count = stop - start
        first = start if start == 0 or count == CHUNK else stop - CHUNK
        chunk = np.ascontiguousarray(past[first:stop]).reshape(stop - first, -1)
        err = _forward_flat(params, chunk)[-1][start - first :]
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
