"""Forecast metrics.

Nothing here writes to the params or window tensors it is given.
Squared-error metrics decompose per (horizon step, feature); the grand mean
of the per-element matrix is the reported MSE, and the per-step curve is its
mean over features.  `evaluate` walks a window set CHUNK windows at a time
and keeps no whole-set array, yet every figure it returns is bit for bit that
of one forward over the whole set: the MSE continues numpy's sequential
`mean(axis=0)` chunk by chunk, and the MAE follows the pairwise tree by which
numpy's `np.add.reduce` sums a contiguous float64 array (`_sum_plan`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import checked_windows
from .errors import ConfigError
from .nn import ModelParams, _forward_flat

# Windows per chunk of `evaluate`.
CHUNK = 512
# numpy's pairwise summation sums a range of at most this many values in one
# unrolled loop, and splits a longer range in two.
PAIRWISE = 128


@dataclass
class MetricRecord:
    mse: float
    mae: float
    per_step_mse: np.ndarray  # (M,)
    per_element_mse: np.ndarray  # (M, K)
    sample_count: int


@functools.lru_cache(maxsize=16)
def _sum_plan(size: int, step: int) -> tuple[tuple, tuple]:
    """How to sum `size` values that arrive `step` at a time, as np.add.reduce does.

    numpy sums a contiguous float64 range pairwise: a range of more than
    PAIRWISE values is split at half = size // 2, rounded down to a multiple
    of 8, and the two halves' sums are added.  Any node of that tree whose
    values all sit in one part, or that holds at most PAIRWISE values, is a
    leaf, summed by one np.add.reduce over its own range, which is its
    subtree bit for bit.  Each part is read from a buffer whose first
    PAIRWISE values are the previous part's last ones, so a small leaf that
    straddles two parts is contiguous there.

    Returns (leaves, order).  leaves[p] lists the (lo, hi) buffer ranges of
    the leaves that part p completes, left to right.  order is the tree in
    post-order: True takes the next leaf's sum, False adds the last two sums.
    """
    leaves = [[] for _ in range(-(-size // step))]
    order = []

    def walk(lo, hi):
        part = (hi - 1) // step
        if hi - lo <= PAIRWISE or lo // step == part:
            base = part * step - PAIRWISE
            leaves[part].append((lo - base, hi - base))
            order.append(True)
            return
        half = (hi - lo) // 2
        half -= half % 8
        walk(lo, lo + half)
        walk(lo + half, hi)
        order.append(False)

    walk(0, size)
    return tuple(map(tuple, leaves)), tuple(order)


def _tree_sum(sums, order) -> float:
    """The root of `_sum_plan`'s tree, from its leaves' sums in order."""
    leaf = iter(sums)
    stack = []
    for take in order:
        if take:
            stack.append(next(leaf))
        else:
            right = stack.pop()
            stack[-1] = stack[-1] + right
    return stack[0]


def evaluate(params: ModelParams, past: np.ndarray, future: np.ndarray) -> MetricRecord:
    """Average squared and absolute error of params over a window set.

    `checked_windows` checks the whole set, as the "evaluation set", before
    the first chunk.  The windows are then forwarded CHUNK at a time, and
    every array made here is a chunk in size.  The results are bit for bit
    those of one forward over the whole set, whose MAE is the mean of one
    (n, M*K) |err| array:

    - squared errors go into rows 1.. of a scratch array whose row 0 holds
      the running total, and one reduction over its rows continues that
      total, in the sequential order of `(err * err).mean(axis=0)`;
    - a chunk's |err| goes into a scratch buffer after the last PAIRWISE
      values of the chunk before, and the sums of the leaves of numpy's
      pairwise tree over all n*M*K values (`_sum_plan`) are taken from it;
      the tree is then summed in numpy's order;
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
    abs_err = np.empty(PAIRWISE + min(n, CHUNK) * width)
    leaves, order = _sum_plan(n * width, CHUNK * width)
    sums = []
    for part, start in enumerate(range(0, n, CHUNK)):
        stop = min(start + CHUNK, n)
        count = stop - start
        first = start if start == 0 or count == CHUNK else stop - CHUNK
        chunk = np.ascontiguousarray(past[first:stop]).reshape(stop - first, -1)
        err = _forward_flat(params, chunk)[-1][start - first :]
        err -= future[start:stop].reshape(count, width)
        if part:
            abs_err[:PAIRWISE] = abs_err[-PAIRWISE:]  # every chunk but the last is full
        np.abs(err, out=abs_err[PAIRWISE : PAIRWISE + count * width].reshape(count, width))
        sums.extend(np.add.reduce(abs_err[lo:hi]) for lo, hi in leaves[part])
        np.multiply(err, err, out=rows[1 : count + 1])
        rows[0] = np.add.reduce(rows[: count + 1], axis=0)
        del chunk, err  # so the next chunk's copy and forward do not coexist with these
    per_element = (rows[0] / n).reshape(params.output_shape)
    return MetricRecord(
        mse=float(per_element.mean()),
        mae=float(_tree_sum(sums, order) / (n * width)),
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
