"""Adam optimizer over a model's flat parameter buffer.

Bias-corrected first/second moments, one shared step counter.  The moments
and the gradient share the layout of ModelParams.flat, so a step is one
vectorised update.  Pure functional style: `adam_step` returns fresh params
and state, leaving its inputs untouched, so snapshots taken during training
stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .nn import ModelParams


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0


def adam_init(params: ModelParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0)


def adam_step(
    params: ModelParams,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ModelParams, AdamState]:
    """One Adam update on a flat gradient; returns (new params, new state)."""
    if np.shape(grads) != params.flat.shape:
        raise ConfigError(f"gradient shape {np.shape(grads)} != parameters {params.flat.shape}")
    if not np.isfinite(grads).all():
        raise NumericError("non-finite gradient; training aborted")
    if state.step_count < 0:
        raise ConfigError("step_count must be >= 0")

    t = state.step_count + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    m = beta1 * state.first_moment + (1.0 - beta1) * grads
    v = beta2 * state.second_moment + (1.0 - beta2) * grads * grads
    step = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return params.with_flat(params.flat - step), AdamState(m, v, t)
