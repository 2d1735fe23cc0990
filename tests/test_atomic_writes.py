"""Every file the package writes goes through `data.atomic_open`.

A write that fails part way leaves the earlier file at its path and no
`<path>.tmp` beside it.
"""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import wavebound
from wavebound.checkpoint import checkpoint_save
from wavebound.cli import _write_text
from wavebound.data import atomic_open, save_csv, synth_series, write_rows
from wavebound.ema import ema_init
from wavebound.errors import DataError
from wavebound.nn import new_forecaster
from wavebound.rng import Rng
from wavebound.theorem import reference_instance, run_estimator_experiment
from wavebound.trainer import EpochRecord, TrainLog

SOURCE = Path(wavebound.__file__).parent
EARLIER = b"earlier contents\n"


class TestAtomicOpen:
    def test_text_mode_writes_utf8_with_bare_newlines(self, tmp_path):
        path = tmp_path / "out.txt"
        with atomic_open(path) as fh:
            fh.write("café\nrow\n")
        assert path.read_bytes() == "café\nrow\n".encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_binary_mode(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_open(path, "wb") as fh:
            fh.write(b"\x00\r\n\xff")
        assert path.read_bytes() == b"\x00\r\n\xff"

    def test_target_unchanged_until_the_block_ends(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(EARLIER)
        with atomic_open(path) as fh:
            fh.write("new\n")
            fh.flush()
            assert path.read_bytes() == EARLIER
        assert path.read_bytes() == b"new\n"

    def test_exception_keeps_target_and_removes_tmp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(EARLIER)
        with pytest.raises(KeyError):
            with atomic_open(path) as fh:
                fh.write("partial")
                raise KeyError("boom")
        assert path.read_bytes() == EARLIER
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        real = tmp_path / "real.txt"
        real.write_bytes(EARLIER)
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        with atomic_open(link) as fh:
            fh.write("new\n")
        assert not link.is_symlink()
        assert link.read_bytes() == b"new\n"
        assert real.read_bytes() == EARLIER


def _writes_outside_atomic_open(path: Path) -> list[str]:
    """`open(...)` calls in a mode that can write, outside `atomic_open`'s body.

    A mode that is not a string literal counts as writing.  So do
    `Path.write_text` and `Path.write_bytes` calls.
    """
    found = []

    def visit(node, inside):
        if isinstance(node, ast.FunctionDef) and node.name == "atomic_open":
            inside = True
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                literal = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                if not literal or set(mode.value) & set("wax+"):
                    found.append(f"{path.name}:{node.lineno}")
            elif name in ("write_text", "write_bytes"):
                found.append(f"{path.name}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_every_write_goes_through_atomic_open():
    sources = sorted(SOURCE.glob("*.py"))
    assert len(sources) > 10
    found = [site for path in sources for site in _writes_outside_atomic_open(path)]
    assert found == []


def test_guard_sees_a_bare_write(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(
        "def f(p, m):\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    open(p, 'w')\n"
        "    open(p, mode='ab')\n"
        "    open(p, m)\n"
        "    p.write_text('x')\n"
    )
    assert _writes_outside_atomic_open(path) == [f"bad.py:{n}" for n in (4, 5, 6, 7)]


class _FullDisk:
    """A file whose first write lands half its data and then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _params():
    return new_forecaster(4, 2, 1, 3, Rng(0))


def _log():
    records = [EpochRecord(e, 1.0, 0.5, 0.6, 0.7, np.array([0.7, 0.7]), 0.0) for e in range(2)]
    return TrainLog(records=records)


WRITERS = {
    "checkpoint_save": (lambda p: checkpoint_save(p, _params(), ema_init(_params(), 0.9)),
                        DataError),
    "save_csv": (lambda p: save_csv(synth_series(20, 0.3, 1), p), OSError),
    "write_rows": (lambda p: write_rows(p, ("a", "b"), [(1, 2.0), (3, 4.0)]), OSError),
    "TrainLog.to_jsonl": (lambda p: _log().to_jsonl(p), OSError),
    "OracleReport.to_json": (
        lambda p: run_estimator_experiment(reference_instance(trials=5)).to_json(p), OSError),
    "cli._write_text": (lambda p: _write_text(p, "key=value\nother=1\n"), OSError),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writer_writes_its_file(tmp_path, writer):
    write, _ = WRITERS[writer]
    path = tmp_path / "target"
    path.write_bytes(EARLIER)
    write(path)
    assert path.read_bytes() not in (b"", EARLIER)
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_the_earlier_file(tmp_path, monkeypatch, writer):
    write, error = WRITERS[writer]
    path = tmp_path / "target"
    path.write_bytes(EARLIER)
    real_open = builtins.open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if set(mode) & set("wax+") else fh

    monkeypatch.setattr(builtins, "open", full_disk_open)
    with pytest.raises(error, match="No space left"):
        write(path)
    monkeypatch.undo()
    assert path.read_bytes() == EARLIER
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
