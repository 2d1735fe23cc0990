"""Binary checkpoints for model parameters and their averaged mirror.

Format (all integers little-endian):

  magic    8 bytes  b"WBCHKPT\\x00"
  version  uint32   currently 1
  header   uint32 x 5: input_len, input_features, output_len,
                       output_features, n_layers
  layers   per layer uint32 x 3: out_dim, in_dim, activation code
                       (index into nn.ACTIVATIONS)
  mirror   uint32 has_mirror (0/1), float64 decay (in [0, 1] when present)
  payload  the source network's ModelParams.flat as little-endian float64,
           i.e. the tensors in (w0, b0, w1, b1, ...) order, row-major;
           then the mirror target's flat buffer if present

The byte count is fully determined by the header, so truncation and
trailing garbage are both detected.  Round-trips are bit-exact.  A save
goes through `data.atomic_open`, so an interrupted save never leaves a
half-written checkpoint.
"""

from __future__ import annotations

import struct

import numpy as np

from .data import atomic_open
from .ema import EmaMirror
from .errors import ConfigError, DataError
from .nn import ACTIVATIONS, ModelParams

MAGIC = b"WBCHKPT\x00"
VERSION = 1


def checkpoint_save(path, params: ModelParams, mirror: EmaMirror | None = None) -> None:
    """Write params (and optionally its mirror) to path in one blob."""
    head = [MAGIC, struct.pack("<I", VERSION)]
    head.append(struct.pack("<5I", *params.input_shape, *params.output_shape, params.n_layers))
    for (out_dim, in_dim), act in zip(params.layer_dims, params.activations):
        head.append(struct.pack("<3I", out_dim, in_dim, ACTIVATIONS.index(act)))
    if mirror is None:
        head.append(struct.pack("<Id", 0, 0.0))
        nets = [params]
    else:
        head.append(struct.pack("<Id", 1, mirror.decay))
        nets = [params, mirror.target]
    blob = b"".join(head) + b"".join(p.flat.astype("<f8", copy=False).tobytes() for p in nets)
    try:
        with atomic_open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise DataError(f"cannot write checkpoint {path}: {exc}") from None


class _Cursor:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def checkpoint_load(path) -> tuple[ModelParams, EmaMirror | None]:
    """Read a checkpoint; errors name the path and what was wrong."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    cur = _Cursor(blob, path)
    if cur.take(len(MAGIC)) != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = cur.unpack("<I")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    in_len, in_feat, out_len, out_feat, n_layers = cur.unpack("<5I")
    layers = [cur.unpack("<3I") for _ in range(n_layers)]
    for _, _, act_code in layers:
        if act_code >= len(ACTIVATIONS):
            raise DataError(f"{path}: unknown activation code {act_code}")
    has_mirror, decay = cur.unpack("<Id")
    corrupt = f"{path}: corrupt checkpoint header"
    if has_mirror not in (0, 1):
        raise DataError(f"{corrupt}: has_mirror is {has_mirror}, not 0 or 1")
    if has_mirror and not 0.0 <= decay <= 1.0:  # NaN fails too
        raise DataError(f"{corrupt}: mirror decay {decay!r} is not in [0, 1]")
    size = sum(out_dim * in_dim + out_dim for out_dim, in_dim, _ in layers)
    nets = [np.frombuffer(cur.take(8 * size), dtype="<f8").astype(np.float64)]
    if has_mirror:
        nets.append(np.frombuffer(cur.take(8 * size), dtype="<f8").astype(np.float64))
    if cur.pos != len(blob):
        raise DataError(f"{path}: {len(blob) - cur.pos} trailing bytes after checkpoint payload")
    try:
        params = ModelParams.from_flat(
            nets[0],
            [(out_dim, in_dim) for out_dim, in_dim, _ in layers],
            [ACTIVATIONS[act_code] for _, _, act_code in layers],
            (in_len, in_feat),
            (out_len, out_feat),
        )
    except ConfigError as exc:
        raise DataError(f"{corrupt}: {exc}") from None
    mirror = EmaMirror(target=params.with_flat(nets[1]), decay=decay) if has_mirror else None
    return params, mirror
