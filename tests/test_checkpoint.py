import os
import struct

import numpy as np
import pytest

from wavebound import (
    DataError,
    EmaMirror,
    ModelParams,
    Rng,
    checkpoint_load,
    checkpoint_save,
    ema_init,
    mlp_forward_batch,
    new_forecaster,
)
from wavebound.checkpoint import MAGIC


def params_equal(a, b):
    return (
        a.input_shape == b.input_shape
        and a.output_shape == b.output_shape
        and a.activations == b.activations
        and all(np.array_equal(x, y) for x, y in zip(a.tensors(), b.tensors()))
    )


@pytest.fixture
def model():
    return new_forecaster(8, 4, 2, 6, Rng(13))


class TestRoundTrip:
    def test_params_bit_exact(self, tmp_path, model):
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model)
        loaded, mirror = checkpoint_load(path)
        assert mirror is None
        assert params_equal(loaded, model)

    def test_with_mirror(self, tmp_path, model):
        mirror = ema_init(model, 0.99)
        mirror.target.weights[0][0, 0] += 0.125  # make mirror differ from source
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model, mirror)
        loaded, loaded_mirror = checkpoint_load(path)
        assert params_equal(loaded, model)
        assert loaded_mirror is not None
        assert loaded_mirror.decay == 0.99
        assert params_equal(loaded_mirror.target, mirror.target)

    def test_save_load_save_byte_identical(self, tmp_path, model):
        mirror = ema_init(model, 0.5)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        checkpoint_save(p1, model, mirror)
        loaded, loaded_mirror = checkpoint_load(p1)
        checkpoint_save(p2, loaded, loaded_mirror)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_agreement(self, tmp_path, model):
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model)
        loaded, _ = checkpoint_load(path)
        x = Rng(4).normal(size=(3, 8, 2))
        assert np.array_equal(mlp_forward_batch(loaded, x), mlp_forward_batch(model, x))

    def test_extreme_values_survive(self, tmp_path, model):
        model.weights[0][0, 0] = np.nextafter(1.0, 2.0)
        model.biases[-1][0] = -1e-300
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model)
        loaded, _ = checkpoint_load(path)
        assert params_equal(loaded, model)


class TestLayout:
    """Byte layout checks that hold on any host (the goldens are host-gated)."""

    def test_v1_blob_assembled_by_hand(self, tmp_path):
        # every value is exact in binary, so the expected bytes need no rounding
        model = ModelParams(
            weights=[np.array([[0.5, -1.25]])],
            biases=[np.array([2.0])],
            activations=("identity",),
            input_shape=(2, 1),
            output_shape=(1, 1),
        )
        mirror = EmaMirror(target=model.with_flat(np.array([0.25, 4.0, -0.75])), decay=0.5)
        blob = (
            MAGIC
            + struct.pack("<I", 1)
            + struct.pack("<5I", 2, 1, 1, 1, 1)
            + struct.pack("<3I", 1, 2, 1)  # out_dim, in_dim, activation "identity"
            + struct.pack("<Id", 1, 0.5)
            + struct.pack("<3d", 0.5, -1.25, 2.0)
            + struct.pack("<3d", 0.25, 4.0, -0.75)
        )
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model, mirror)
        assert path.read_bytes() == blob
        hand = tmp_path / "hand.ckpt"
        hand.write_bytes(blob)
        loaded, loaded_mirror = checkpoint_load(hand)
        assert params_equal(loaded, model)
        assert loaded_mirror.decay == 0.5
        assert params_equal(loaded_mirror.target, mirror.target)

    def test_loaded_tensors_view_one_buffer(self, tmp_path, model):
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model, ema_init(model, 0.9))
        loaded, mirror = checkpoint_load(path)
        for params in (loaded, mirror.target):
            assert params.flat.flags.c_contiguous and params.flat.flags.writeable
            assert all(np.shares_memory(t, params.flat) for t in params.tensors())
        assert not np.shares_memory(loaded.flat, mirror.target.flat)

    def test_save_is_atomic(self, tmp_path, model, monkeypatch):
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(DataError, match="cannot write checkpoint"):
            checkpoint_save(path, new_forecaster(8, 4, 2, 6, Rng(14)))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.ckpt"]


class TestCorruption:
    def saved(self, tmp_path, model, mirror=None):
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, model, mirror)
        return path

    def test_truncation_every_prefix_errors(self, tmp_path, model):
        path = self.saved(tmp_path, model, ema_init(model, 0.9))
        blob = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in (0, 4, len(MAGIC), 20, len(blob) // 2, len(blob) - 1):
            bad.write_bytes(blob[:cut])
            with pytest.raises(DataError):
                checkpoint_load(bad)

    def test_trailing_garbage(self, tmp_path, model):
        path = self.saved(tmp_path, model)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            checkpoint_load(path)

    def test_bad_magic(self, tmp_path, model):
        path = self.saved(tmp_path, model)
        blob = path.read_bytes()
        path.write_bytes(b"X" + blob[1:])
        with pytest.raises(DataError, match="magic"):
            checkpoint_load(path)

    def test_unsupported_version(self, tmp_path, model):
        path = self.saved(tmp_path, model)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC)] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            checkpoint_load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            checkpoint_load(tmp_path / "nope.ckpt")

    def test_error_names_path(self, tmp_path, model):
        path = self.saved(tmp_path, model)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(DataError, match="m.ckpt"):
            checkpoint_load(path)

    def test_corrupt_geometry_is_data_error(self, tmp_path, model):
        # patch input_len 8 -> 9: the header no longer matches layer 0's width
        path = self.saved(tmp_path, model)
        blob = bytearray(path.read_bytes())
        offset = len(MAGIC) + 4
        assert struct.unpack_from("<I", blob, offset) == (8,)
        struct.pack_into("<I", blob, offset, 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=r"m\.ckpt.*first layer expects 16 inputs"):
            checkpoint_load(path)
