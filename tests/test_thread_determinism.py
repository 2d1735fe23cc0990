"""A run's output bytes do not depend on the BLAS thread count.

The golden fingerprints hold only on the host they were recorded on.  This
test compares two runs instead of a stored hash, so it runs on every host:
the same `wavebound train` in two fresh processes, one with OpenBLAS and
OpenMP on 1 thread and one on 2, with different hash seeds, must write the
same files.  Its train set (769 windows) spans more than one chunk of
`evaluate` and ends in a short one.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import wavebound
from wavebound.evaluation import CHUNK

SRC = Path(wavebound.__file__).resolve().parents[1]
ARGS = [
    "--set", "length=1400",
    "--set", "input_len=48",
    "--set", "output_len=24",
    "--set", "hidden_dim=64",
    "--set", "max_epochs=2",
    "--set", "objective=wave_indiv",
]


def _train(out: Path, threads: int, hash_seed: int) -> dict:
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "PYTHONHASHSEED": str(hash_seed),
        "PYTHONPATH": str(SRC),
    })
    code = "import sys; from wavebound.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run(
        [sys.executable, "-c", code, "train", "--out", str(out), *ARGS],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def test_one_and_two_blas_threads_write_the_same_bytes(tmp_path):
    one = _train(tmp_path / "one", threads=1, hash_seed=1)
    two = _train(tmp_path / "two", threads=2, hash_seed=2)
    rows = (tmp_path / "one" / "metrics.csv").read_text(encoding="utf-8").splitlines()
    train_windows = int(next(r for r in rows if r.startswith("train,")).split(",")[-1])
    assert CHUNK < train_windows < 2 * CHUNK
    assert {"train_log.csv", "metrics.csv", "model.ckpt"} <= set(one)
    assert one == two
