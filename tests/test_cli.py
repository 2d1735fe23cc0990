import json
import math
import os

import pytest

from wavebound.cli import main
from wavebound.errors import ConfigError, DataError, NumericError, WaveboundError

SMALL = [
    "--set", "length=120",
    "--set", "input_len=8",
    "--set", "output_len=4",
    "--set", "hidden_dim=8",
    "--set", "max_epochs=2",
    "--set", "batch_size=16",
    "--set", "patience=5",
]


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_dir(path):
    return {name: (path / name).read_bytes() for name in os.listdir(path)}


class TestSynth:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code, stdout, _ = run_cli(capsys, "synth", "--length", "50", "--out", str(out))
        assert code == 0
        assert "rows=50 features=1" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) == 51  # header + 50 rows

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "synth", "--length", "40", "--seed", "3", "--out", str(a))
        run_cli(capsys, "synth", "--length", "40", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_length_is_config_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "synth", "--length", "0", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "length" in stderr


class TestTrain:
    def test_writes_all_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(capsys, "train", "--out", str(out), *SMALL)
        assert code == 0
        # exactly the outputs: no staging directory or temporary file is left
        assert sorted(os.listdir(out)) == [
            "generalization_gap.csv",
            "metrics.csv",
            "model.ckpt",
            "per_step_test_mse.csv",
            "resolved_config.txt",
            "train_log.csv",
            "train_log.jsonl",
        ]
        assert "val_mse=" in stdout and "test_mse=" in stdout
        # wall clock goes to stderr only
        assert "seconds=" not in stdout
        assert "seconds=" in stderr

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "train", "--out", str(a), *SMALL)
        run_cli(capsys, "train", "--out", str(b), *SMALL)
        assert read_dir(a) == read_dir(b)

    def test_rerun_into_non_empty_out_replaces_its_files(self, tmp_path, capsys):
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        out.mkdir()
        (out / "notes.txt").write_bytes(b"kept\n")
        run_cli(capsys, "train", "--out", str(out), *SMALL, "--set", "seed=1")
        code, _, _ = run_cli(capsys, "train", "--out", str(out), *SMALL, "--set", "seed=2")
        assert code == 0
        run_cli(capsys, "train", "--out", str(fresh), *SMALL, "--set", "seed=2")
        assert read_dir(out) == {**read_dir(fresh), "notes.txt": b"kept\n"}

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nseed=3\nmax_epochs=1\n")
        out = tmp_path / "run"
        code, _, _ = run_cli(
            capsys, "train", "--config", str(cfg), "--out", str(out),
            "--set", "seed=4", *SMALL,
        )
        assert code == 0
        resolved = (out / "resolved_config.txt").read_text()
        assert "seed=4" in resolved
        assert "max_epochs=2" in resolved  # SMALL's --set wins over the file

    def test_resolved_config_is_sorted(self, tmp_path, capsys):
        out = tmp_path / "run"
        run_cli(capsys, "train", "--out", str(out), *SMALL)
        keys = [line.split("=")[0] for line in (out / "resolved_config.txt").read_text().splitlines()]
        assert keys == sorted(keys)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"), "--set", "warp_factor=9"
        )
        assert code == 2
        assert "warp_factor" in stderr

    def test_missing_config_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(missing), "--out", str(tmp_path / "x")
        )
        assert code == 2
        assert "nope.cfg" in stderr

    def test_malformed_set_flag(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"), "--set", "seed"
        )
        assert code == 2
        assert "KEY=VALUE" in stderr

    def test_csv_round_trip_matches_synth(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        run_cli(
            capsys, "synth", "--length", "120", "--sigma", "0.5", "--seed", "7",
            "--out", str(series),
        )
        a, b = tmp_path / "from_synth", tmp_path / "from_csv"
        run_cli(capsys, "train", "--out", str(a), *SMALL)
        code, _, _ = run_cli(
            capsys, "train", "--out", str(b),
            "--set", "data=csv", "--set", f"csv_path={series}", *SMALL,
        )
        assert code == 0
        assert (a / "train_log.csv").read_bytes() == (b / "train_log.csv").read_bytes()

    def test_bad_objective_value(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"),
            "--set", "objective=wavy", *SMALL,
        )
        assert code == 2
        assert "objective" in stderr

    def test_csv_without_path_is_config_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"), "--set", "data=csv", *SMALL
        )
        assert code == 2

    def test_missing_csv_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"),
            "--set", "data=csv", "--set", f"csv_path={tmp_path / 'no.csv'}", *SMALL,
        )
        assert code == 3

    def test_non_finite_csv_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "series.csv"
        rows = [f"{i},{math.sin(i / 5.0)!r}" for i in range(120)]
        rows[50] = "50,nan"
        path.write_text("date,x\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code, _, stderr = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"),
            "--set", "data=csv", "--set", f"csv_path={path}", *SMALL,
        )
        assert code == 3
        assert "row 52, column 2: non-finite value nan" in stderr

    @pytest.mark.parametrize(
        "objective,key,value,message",
        [
            pytest.param("flooding", "b", "nan", "b must be >= 0, got nan", id="flooding-b"),
            pytest.param(
                "wave_indiv", "epsilon", "nan", "epsilon must be >= 0, got nan",
                id="wave_indiv-epsilon",
            ),
            pytest.param(
                "plain", "learning_rate", "nan", "learning_rate must be >= 0, got nan",
                id="plain-learning_rate",
            ),
            pytest.param("flooding", "b", "inf", "b must be finite, got inf", id="flooding-b-inf"),
            pytest.param(
                "plain", "learning_rate", "inf", "learning_rate must be finite, got inf",
                id="plain-learning_rate-inf",
            ),
            pytest.param("plain", "sigma", "nan", "sigma must be finite", id="plain-sigma-nan"),
            pytest.param("plain", "sigma", "inf", "sigma must be finite", id="plain-sigma-inf"),
            pytest.param(
                "plain", "ratios", "nan:1:1", "got 'nan:1:1'", id="plain-ratios-nan"
            ),
            pytest.param(
                "plain", "ratios", "1:1:inf", "got '1:1:inf'", id="plain-ratios-inf"
            ),
        ],
    )
    def test_nan_hyperparameter_is_config_error(
        self, tmp_path, capsys, objective, key, value, message
    ):
        # Non-finite settings are config errors (exit 2), not numeric or data
        # failures later in the run; epsilon = inf is the legal -inf-bound sentinel.
        code, _, stderr = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"), *SMALL,
            "--set", f"objective={objective}", "--set", f"{key}={value}",
        )
        assert code == 2
        assert message in stderr

    def test_window_longer_than_segment_is_data_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--out", str(tmp_path / "x"),
            "--set", "length=120", "--set", "input_len=96", "--set", "output_len=96",
        )
        assert code == 3
        assert "windows" in stderr


def parse_metrics(path):
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        split, mse, mae, samples = line.split(",")
        rows[split] = (float(mse), float(mae), int(samples))
    return rows


class TestEval:
    def test_matches_training_metrics(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--out", str(run_dir), *SMALL)
        eval_dir = tmp_path / "eval"
        code, stdout, _ = run_cli(
            capsys, "eval", "--checkpoint", str(run_dir / "model.ckpt"),
            "--split", "test", "--out", str(eval_dir), *SMALL,
        )
        assert code == 0
        trained = parse_metrics(run_dir / "metrics.csv")["test"]
        evaled = parse_metrics(eval_dir / "metrics.csv")["test"]
        assert trained == evaled
        assert (eval_dir / "per_step_mse.csv").exists()

    @pytest.mark.parametrize("output_len", ["1", "4"])
    def test_output_len_unlike_the_checkpoint_is_config_error(self, tmp_path, capsys, output_len):
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--out", str(run_dir), *SMALL, "--set", "output_len=8")
        assert code == 0
        eval_dir = tmp_path / "eval"
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(run_dir / "model.ckpt"),
            "--out", str(eval_dir), *SMALL, "--set", f"output_len={output_len}",
        )
        assert code == 2
        assert stderr.startswith("error: ")
        assert f"({output_len}, 1)" in stderr and "(8, 1)" in stderr
        assert stdout == ""
        assert os.listdir(eval_dir) == []

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "eval", "--checkpoint", str(tmp_path / "no.ckpt"),
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 3


class TestSweep:
    def test_singleton_matches_train(self, tmp_path, capsys):
        run_dir, sweep_dir = tmp_path / "run", tmp_path / "sweep"
        run_cli(capsys, "train", "--out", str(run_dir), *SMALL)
        code, stdout, _ = run_cli(
            capsys, "sweep", "--param", "learning_rate", "--values", "0.0001",
            "--out", str(sweep_dir), *SMALL,
        )
        assert code == 0
        header, row = (sweep_dir / "sweep.csv").read_text().splitlines()
        assert header == "rank,param,value,val_mse,test_mse,train_mse,best_epoch"
        val_mse = float(row.split(",")[3])
        assert val_mse == parse_metrics(run_dir / "metrics.csv")["val"][0]

    def test_rows_ranked(self, tmp_path, capsys):
        sweep_dir = tmp_path / "sweep"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--param", "learning_rate", "--values", "0.001,0.00001",
            "--out", str(sweep_dir), *SMALL,
        )
        assert code == 0
        lines = (sweep_dir / "sweep.csv").read_text().splitlines()[1:]
        vals = [float(line.split(",")[3]) for line in lines]
        assert vals == sorted(vals)
        assert "grid_points=2" in stdout

    def test_bad_values_string(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--param", "learning_rate", "--values", "a,b",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2

    def test_b_sweep_requires_flooding(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--param", "b", "--values", "0.0,0.1",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2


class TestTheorem:
    ARGS = ["--set", "trials=200", "--set", "jensen_draws=2"]

    def test_report_files_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        code, stdout, _ = run_cli(capsys, "theorem", "--out", str(out), *self.ARGS)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["trials"] == 200
        assert report["mse_wave"] <= report["mse_plain"]
        assert "mse_plain" in stdout and "theorem_bound" in stdout
        assert (out / "report.txt").exists()

    def test_rerun_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "theorem", "--out", str(a), *self.ARGS)
        run_cli(capsys, "theorem", "--out", str(b), *self.ARGS)
        assert read_dir(a) == read_dir(b)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("epsilon", "nan"),
            ("margin_alpha", "nan"),
            ("margin_alpha", "inf"),
            ("input_std", "nan"),
            ("input_std", "inf"),
            ("g_offset", "nan"),
            ("g_star_offset", "inf"),
            ("rows", "0"),
            ("cols", "-1"),
            ("jensen_draws", "-1"),
        ],
    )
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, key, value):
        # report.json would otherwise carry NaN, which is not valid JSON; an
        # empty or negative shape and a negative audit count fail the same way
        code, _, stderr = run_cli(
            capsys, "theorem", "--out", str(tmp_path / "x"), *self.ARGS, "--set", f"{key}={value}",
        )
        assert code == 2
        assert not (tmp_path / "x" / "report.json").exists()

    def test_invalid_population_is_config_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "theorem", "--out", str(tmp_path / "x"),
            "--set", "noise_std=-1.0", *self.ARGS,
        )
        assert code == 2


class TestExitCodes:
    @pytest.mark.parametrize("error,code", [
        (ConfigError, 2), (DataError, 3), (OSError, 3), (NumericError, 4), (WaveboundError, 1),
    ])
    def test_each_error_kind_maps_to_its_code(self, tmp_path, capsys, monkeypatch, error, code):
        def fail(args):
            raise error("injected")

        monkeypatch.setattr("wavebound.cli.cmd_synth", fail)
        got, stdout, stderr = run_cli(capsys, "synth", "--length", "5", "--out", str(tmp_path / "x"))
        assert (got, stdout, stderr) == (code, "", "error: injected\n")

    def test_other_exceptions_propagate(self, tmp_path, monkeypatch):
        def fail(args):
            raise ValueError("a bug")

        monkeypatch.setattr("wavebound.cli.cmd_synth", fail)
        with pytest.raises(ValueError, match="a bug"):
            main(["synth", "--length", "5", "--out", str(tmp_path / "x")])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_training_is_numeric_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "train", "--out", str(tmp_path / "run"), *SMALL,
                                  "--set", "learning_rate=1e300")
        assert code == 4
        assert stderr.startswith("error: non-finite")


class TestUnwritableOutput:
    """An output path that cannot be created or written exits 3, not a traceback."""

    def test_train_out_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        code, _, stderr = run_cli(capsys, "train", "--out", str(tmp_path / "f" / "run"), *SMALL)
        assert code == 3
        assert stderr.startswith("error: ")

    def test_synth_out_under_a_regular_file(self, tmp_path, capsys):
        (tmp_path / "f").write_text("")
        code, _, stderr = run_cli(
            capsys, "synth", "--length", "10", "--out", str(tmp_path / "f" / "x.csv")
        )
        assert code == 3
        assert stderr.startswith("error: ")

    def test_train_log_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "run" / "train_log.csv").mkdir(parents=True)
        code, _, stderr = run_cli(capsys, "train", "--out", str(tmp_path / "run"), *SMALL)
        assert code == 3
        assert stderr.startswith("error: ") and "train_log.csv" in stderr
        # all or nothing: no resolved_config.txt, no staging directory
        assert os.listdir(tmp_path / "run") == ["train_log.csv"]


def _fail(*args, **kwargs):
    raise OSError("injected write failure")


class TestAllOrNothingOutputs:
    """A run that fails after writing some outputs adds no file to --out."""

    @pytest.mark.parametrize(
        "command,target,args",
        [
            ("train", "wavebound.cli.checkpoint_save", SMALL),
            ("sweep", "wavebound.cli.write_rows",
             ["--param", "learning_rate", "--values", "0.0001", *SMALL]),
            ("eval", "wavebound.cli.write_rows", ["--checkpoint", "CKPT", *SMALL]),
            ("theorem", "wavebound.theorem.OracleReport.to_json",
             ["--set", "trials=200", "--set", "jensen_draws=2"]),
        ],
        ids=["train", "sweep", "eval", "theorem"],
    )
    def test_injected_failure_leaves_out_unchanged(
        self, tmp_path, capsys, monkeypatch, command, target, args
    ):
        ckpt = tmp_path / "trained" / "model.ckpt"
        if command == "eval":
            run_cli(capsys, "train", "--out", str(ckpt.parent), *SMALL)
        out = tmp_path / "out"
        out.mkdir()
        # an earlier output under a name this run writes too
        (out / "metrics.csv").write_bytes(b"split,mse,mae,samples\nold,1.0,1.0,1\n")
        monkeypatch.setattr(target, _fail)
        argv = [str(ckpt) if a == "CKPT" else a for a in args]
        code, _, stderr = run_cli(capsys, command, "--out", str(out), *argv)
        assert code == 3
        assert "injected write failure" in stderr
        assert read_dir(out) == {"metrics.csv": b"split,mse,mae,samples\nold,1.0,1.0,1\n"}
