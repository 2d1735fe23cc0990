"""Exponential-moving-average mirror of a source network.

The target network supplies per-output error bounds during training and
receives no gradients.  Its parameters track the source as
tau <- decay*tau + (1-decay)*theta, applied once per optimizer step,
immediately after the step, as one blend of the two flat parameter
buffers.  The blend writes into the target's own buffer, one cache-sized
block at a time (`nn.blocks`) with one block of scratch, bit for bit equal
to the expression form.  The target is initialized as an exact copy of the
source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .nn import BLOCK, ModelParams, blocks


@dataclass
class EmaMirror:
    target: ModelParams
    decay: float


def ema_init(source: ModelParams, decay: float) -> EmaMirror:
    if not 0.0 <= decay <= 1.0:
        raise ConfigError(f"decay must lie in [0, 1], got {decay}")
    return EmaMirror(target=source.copy(), decay=decay)


def ema_update(mirror: EmaMirror, source: ModelParams) -> EmaMirror:
    """Move every target entry to decay*tau + (1-decay)*theta, in place; returns mirror."""
    a = mirror.decay
    if mirror.target.layer_dims != source.layer_dims:
        raise ConfigError("target and source parameter shapes differ")
    tau, theta = mirror.target.flat, source.flat
    scratch = np.empty(min(BLOCK, tau.size))
    for s in blocks(tau.size):
        out, tmp = tau[s], scratch[: s.stop - s.start]
        np.multiply(a, out, out=out)
        np.multiply(1.0 - a, theta[s], out=tmp)
        np.add(out, tmp, out=out)
    return mirror
