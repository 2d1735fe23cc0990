"""Seeded, splittable random number generation.

Every stochastic component in the package draws from an `Rng`, which wraps
numpy's PCG64 bit generator keyed by a 64-bit seed plus a spawn key.  PCG64
produces the same stream for the same key on every platform, so a run is
reproducible bit-for-bit from its seed alone.  Independent substreams are
derived with `split`, never by reusing or offsetting seeds; split keys may
be integers or descriptive strings (hashed to stable 64-bit integers).

`split_normals` draws the normals of many sibling streams at once.  It
derives each child's PCG64 state by numpy's documented SeedSequence and
PCG64 seeding algorithms, without building either object, so its rows are
exactly the streams `split` gives.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: a pool of 4 uint32 words and its hash constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix while mixing in entropy
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix in generate_state
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """value's uint32 words, least significant first, [0] for 0: SeedSequence's coercion."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of an int or uint64 array: (result, next constant)."""
    after = const * mult & _MASK32
    value = (value ^ const) * after & _MASK32
    return value ^ value >> _XSHIFT, after


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _pcg64_seeds(entropy: list[int], last: list[int]) -> list[list[int]]:
    """`SeedSequence(entropy + [w]).generate_state(4, uint64)` for each w in last, as 4 lists.

    `entropy` holds at least the pool's 4 words, so each word of `last` is
    mixed in after all of them.  The shared words are therefore mixed once,
    with Python ints, and only the last word's four mixes and the eight
    output hashes run over all of `last`, as uint64 arrays masked to 32 bits.
    """
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    words = np.array(last, dtype=np.uint64)
    for word in entropy[_POOL:] + [words]:
        for dst in range(_POOL):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state(4, uint64): 8 uint32 words cycling over the pool, paired low word first.
    const, state = _INIT_B, []
    for i in range(8):
        word, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        state.append(word)
    return [(state[2 * i] | state[2 * i + 1] << 32).tolist() for i in range(4)]


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

    ALGORITHM = "pcg64"

    def __init__(self, seed: int, spawn_key: tuple = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(_key_part(k) for k in spawn_key)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(seq))

    def split(self, *key) -> "Rng":
        """Child stream keyed by `key`; independent of the parent's draws."""
        return Rng(self.seed, self.spawn_key + tuple(_key_part(k) for k in key))

    def split_normals(self, key, indices, size: int) -> np.ndarray:
        """Normals of many child streams: row r is `self.split(key, indices[r]).normal(size)`.

        Each child's PCG64 state comes from `_pcg64_seeds` and is set on one
        reused generator.  Indices must be integers in [0, 2**32), so that
        each is the last uint32 word of its child's entropy.
        """
        indices = [operator.index(i) for i in indices]
        bad = [i for i in indices if not 0 <= i <= _MASK32]
        if bad:
            raise ValueError(f"split_normals indices must lie in [0, 2**32), got {bad[0]}")
        # SeedSequence's entropy: the seed's words, zero-padded to the pool
        # size because a spawn key follows, then each spawn-key part's words.
        entropy = _words(self.seed)
        entropy += [0] * (_POOL - len(entropy))
        for part in self.spawn_key + (_key_part(key),):
            entropy += _words(part)

        out = np.empty((len(indices), size))
        bitgen = np.random.PCG64(0)
        gen = np.random.Generator(bitgen)
        for row, w0, w1, w2, w3 in zip(out, *_pcg64_seeds(entropy, indices)):
            # PCG64 seeding: inc = seq << 1 | 1; state = (inc + seed) * MULT + inc.
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            start = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": start, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            gen.standard_normal(out=row)
        return out

    def uniform(self, low: float, high: float, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, spawn_key={self.spawn_key})"
