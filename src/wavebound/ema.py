"""Exponential-moving-average mirror of a source network.

The target network supplies per-output error bounds during training and
receives no gradients.  Its parameters track the source as
tau <- decay*tau + (1-decay)*theta, applied once per optimizer step,
immediately after the step, as one blend of the two flat parameter
buffers.  The target is initialized as an exact copy of the source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .nn import ModelParams


@dataclass
class EmaMirror:
    target: ModelParams
    decay: float


def ema_init(source: ModelParams, decay: float) -> EmaMirror:
    if not 0.0 <= decay <= 1.0:
        raise ConfigError(f"decay must lie in [0, 1], got {decay}")
    return EmaMirror(target=source.copy(), decay=decay)


def ema_update(mirror: EmaMirror, source: ModelParams) -> EmaMirror:
    """New mirror with every entry moved to decay*tau + (1-decay)*theta."""
    a = mirror.decay
    if mirror.target.layer_dims != source.layer_dims:
        raise ConfigError("target and source parameter shapes differ")
    blended = a * mirror.target.flat + (1.0 - a) * source.flat
    return EmaMirror(target=mirror.target.with_flat(blended), decay=a)
