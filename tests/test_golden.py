"""Golden fingerprints: sha256 of the CLI's output files from short runs.

Criterion 7 reruns computations inside one process, so a change that moves
output bits the same way on every run still passes it.  These hashes were
recorded once and committed; a refactor that claims to keep the outputs must
leave them unchanged.  Re-record them only together with a declared output
change (noted in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py

BLAS kernels and SIMD `tanh` round differently across builds and CPUs, so
the hashes hold only on the host they were recorded on.  Elsewhere every
test here skips and names what differs.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from wavebound.cli import main
from wavebound.objectives import OBJECTIVE_KINDS

GOLDEN_PATH = Path(__file__).with_name("golden_fingerprints.json")

TRAIN_ARGS = [
    "--set", "length=400",
    "--set", "input_len=16",
    "--set", "output_len=8",
    "--set", "hidden_dim=16",
    "--set", "max_epochs=3",
    "--set", "b=0.05",
    "--set", "epsilon=0.01",
]
TRAIN_FILES = ("train_log.csv", "train_log.jsonl", "metrics.csv", "model.ckpt")
EVAL_NETWORKS = ("source", "target")


def host() -> dict:
    """What decides the low bits of the outputs besides the code."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
        simd = config["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        blas_build, simd = "unknown", []
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"numpy": np.__version__, "blas": blas_build, "cpu": cpu, "simd": simd}


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, f"wavebound {argv[0]} exited {code}"


def _digest(out: Path, names) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _every_file(root: Path) -> dict:
    """Hashes of all files under root by relative path, so a stray file fails too."""
    return _digest(root, sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()))


def _train_case(objective: str, network: str, *extra: str):
    def run(tmp: Path) -> dict:
        _cli("train", "--out", tmp, *TRAIN_ARGS,
             "--set", f"objective={objective}", "--set", f"eval_network={network}", *extra)
        return _digest(tmp, TRAIN_FILES)

    return run


def _multifeature_case(tmp: Path) -> dict:
    """K=3 windows end to end: guards the feature axis of the window layout."""
    path = tmp / "series.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date,a,b,c\n")
        for t in range(400):
            row = (math.sin(2 * math.pi * t / 32), math.cos(2 * math.pi * t / 48),
                   (t * 13 % 17) / 17 - 0.5)
            fh.write(f"{t}," + ",".join(repr(v) for v in row) + "\n")
    _cli("train", "--out", tmp / "run", *TRAIN_ARGS, "--set", "data=csv",
         "--set", f"csv_path={path}", "--set", "univariate=false",
         "--set", "objective=wave_indiv")
    return _digest(tmp / "run", ("train_log.csv", "metrics.csv", "model.ckpt"))


def _multiblock_case(tmp: Path) -> dict:
    """72 200 parameters: two full blocks of the Adam and EMA updates plus a
    ragged tail, where every other case fits inside one block."""
    _cli("train", "--out", tmp, *TRAIN_ARGS, "--set", "hidden_dim=256",
         "--set", "objective=wave_indiv")
    return _digest(tmp, ("train_log.csv", "metrics.csv", "model.ckpt"))


def _criterion5_case(objective: str):
    """The criterion-5 shape: 96->96 windows, hidden 256, 115 296 parameters
    (three full update blocks plus a tail), 1 009 train windows, so the
    evaluation spans more than one chunk."""

    def run(tmp: Path) -> dict:
        _cli("train", "--out", tmp, *TRAIN_ARGS, "--set", "length=2000",
             "--set", "input_len=96", "--set", "output_len=96", "--set", "hidden_dim=256",
             "--set", f"objective={objective}")
        return _digest(tmp, ("train_log.csv", "metrics.csv", "model.ckpt"))

    return run


def _sweep_case(tmp: Path) -> dict:
    _cli("sweep", "--out", tmp, *TRAIN_ARGS, "--set", "objective=wave_indiv",
         "--param", "learning_rate", "--values", "0.0001,0.0003,0.001")
    return _digest(tmp, ["sweep.csv"])


def _eval_case(tmp: Path) -> dict:
    _cli("train", "--out", tmp / "run", *TRAIN_ARGS, "--set", "objective=wave_avg")
    _cli("eval", "--out", tmp / "eval", *TRAIN_ARGS,
         "--checkpoint", tmp / "run" / "model.ckpt", "--split", "test")
    return _digest(tmp / "eval", ["metrics.csv"])


def _theorem_case(tmp: Path) -> dict:
    _cli("theorem", "--out", tmp, "--set", "trials=500", "--set", "jensen_draws=3")
    return _digest(tmp, ["report.json"])


def _synth_case(tmp: Path) -> dict:
    _cli("synth", "--length", 400, "--sigma", 0.5, "--seed", 7, "--out", tmp / "series.csv")
    return _digest(tmp, ["series.csv"])


def _every_file_case(command: str):
    """Every file a command leaves behind: the logs, config and reports too."""
    extra = {
        "train": ("--set", "objective=wave_indiv"),
        "sweep": ("--set", "objective=wave_indiv", "--param", "learning_rate",
                  "--values", "0.0001,0.001"),
        "theorem": ("--set", "trials=500", "--set", "jensen_draws=3"),
    }

    def run(tmp: Path) -> dict:
        if command == "eval":
            _eval_case(tmp)
        elif command == "theorem":
            _cli("theorem", "--out", tmp, *extra["theorem"])
        else:
            _cli(command, "--out", tmp, *TRAIN_ARGS, *extra[command])
        return _every_file(tmp)

    return run


CASES = {
    **{f"train/{o}/{n}": _train_case(o, n) for o in OBJECTIVE_KINDS for n in EVAL_NETWORKS},
    # Batch risks here sit near 1.0, far above b=0.05, so the runs above
    # never reflect a flooded risk; at b=1.0 both flooding objectives do.
    **{f"train/{o}/b=1.0": _train_case(o, "target", "--set", "b=1.0")
       for o in ("flooding", "constant_flooding")},
    "train/wave_indiv/csv_k3": _multifeature_case,
    "train/wave_indiv/hidden256": _multiblock_case,
    **{f"train/{o}/criterion5": _criterion5_case(o) for o in ("plain", "wave_indiv")},
    "sweep/learning_rate": _sweep_case,
    "eval/test": _eval_case,
    "theorem": _theorem_case,
    "synth": _synth_case,
    **{f"every_file/{c}": _every_file_case(c) for c in ("train", "eval", "sweep", "theorem")},
}


def _host_difference(recorded: dict) -> str | None:
    here = host()
    diffs = [f"{key}: recorded {recorded.get(key)!r}, here {here[key]!r}"
             for key in here if recorded.get(key) != here[key]]
    return "; ".join(diffs) or None


@pytest.fixture(scope="module")
def golden() -> dict:
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    difference = _host_difference(recorded["host"])
    if difference:
        pytest.skip(f"golden fingerprints were recorded on another host ({difference})")
    return recorded["hashes"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_fingerprints(case, golden, tmp_path):
    assert CASES[case](tmp_path) == golden[case]


def record() -> None:
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            case_dir = Path(tmp) / name.replace("/", "-")
            case_dir.mkdir()
            hashes[name] = CASES[name](case_dir)
    payload = {"host": host(), "hashes": hashes}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} fingerprints to {GOLDEN_PATH}")


if __name__ == "__main__":
    sys.exit(record())
