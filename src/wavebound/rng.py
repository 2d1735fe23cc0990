"""Seeded, splittable random number generation.

Every stochastic component in the package draws from an `Rng`, which wraps
numpy's PCG64 bit generator keyed by a 64-bit seed plus a spawn key.  PCG64
produces the same stream for the same key on every platform, so a run is
reproducible bit-for-bit from its seed alone.  Independent substreams are
derived with `split`, never by reusing or offsetting seeds; split keys may
be integers or descriptive strings (hashed to stable 64-bit integers).

A stream hands out its numbers in order whatever the shape asked for: one
`normal(size=(T, D))` holds exactly the numbers of T successive
`normal(size=D)` calls, row by row.  The oracle relies on this to draw
many trials in one call without changing any trial.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .config import TRAIN


def _key_part(part) -> int:
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    value = int(part)
    if value < 0:
        raise ValueError(f"spawn key parts must be non-negative, got {part!r}")
    return value


class Rng:
    """Deterministic random stream: PCG64 keyed by (seed, spawn_key)."""

    def __init__(self, seed: int, spawn_key: tuple = ()):
        self.seed = int(TRAIN["seed"].check(seed))
        self.spawn_key = tuple(_key_part(k) for k in spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def split(self, *key) -> "Rng":
        """Child stream keyed by `key`; independent of the parent's draws."""
        return Rng(self.seed, self.spawn_key + tuple(_key_part(k) for k in key))

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, size=None) -> np.ndarray:
        """Standard normal draws: `Generator.standard_normal`, the values of `normal(0, 1)`."""
        return self._gen.standard_normal(size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"
