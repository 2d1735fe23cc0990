"""Forecast metrics.

Nothing here writes to the params or window tensors it is given.
Both error metrics decompose per (horizon step, feature): the reported MSE
is the grand mean of the per-element mean squared errors, and the MAE the
grand mean of the per-element mean absolute errors; the per-step curve is
the per-element MSE's mean over features.  `evaluate` walks a window set
CHUNK windows at a time and keeps no whole-set array, yet every figure it
returns is bit for bit that of one forward over the whole set: both
per-element sums continue numpy's sequential `mean(axis=0)` chunk by chunk.
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
    the first chunk.  The windows are then forwarded CHUNK at a time, and
    every array made here is a chunk in size.  The results are bit for bit
    those of one forward over the whole set with err = pred - future:
    per_element_mse = (err * err).mean(axis=0), mse its mean, and
    mae = np.abs(err).mean(axis=0).mean().

    - a chunk's squared errors go into rows 1.. of a scratch array whose
      row 0 holds the running total, and one reduction over its rows
      continues that total in the sequential order of `mean(axis=0)`; its
      |err| goes the same way through a second such array;
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
    squares = np.zeros((min(n, CHUNK) + 1, width))
    absolutes = np.zeros_like(squares)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        count = stop - start
        first = start if start == 0 or count == CHUNK else stop - CHUNK
        chunk = np.ascontiguousarray(past[first:stop]).reshape(stop - first, -1)
        err = _forward_flat(params, chunk)[-1][start - first :]
        err -= future[start:stop].reshape(count, width)
        np.multiply(err, err, out=squares[1 : count + 1])
        np.abs(err, out=absolutes[1 : count + 1])
        squares[0] = np.add.reduce(squares[: count + 1], axis=0)
        absolutes[0] = np.add.reduce(absolutes[: count + 1], axis=0)
        del chunk, err  # so the next chunk's copy and forward do not coexist with these
    per_element = (squares[0] / n).reshape(params.output_shape)
    return MetricRecord(
        mse=float(per_element.mean()),
        mae=float((absolutes[0] / n).mean()),
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
