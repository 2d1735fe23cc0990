import json
import math
import os

import pytest

from wavebound.cli import main

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
        for name in (
            "resolved_config.txt",
            "train_log.csv",
            "train_log.jsonl",
            "generalization_gap.csv",
            "metrics.csv",
            "per_step_test_mse.csv",
            "model.ckpt",
        ):
            assert (out / name).exists(), name
        assert "val_mse=" in stdout and "test_mse=" in stdout
        # wall clock goes to stderr only
        assert "seconds=" not in stdout
        assert "seconds=" in stderr

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "train", "--out", str(a), *SMALL)
        run_cli(capsys, "train", "--out", str(b), *SMALL)
        assert read_dir(a) == read_dir(b)

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
        ],
    )
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, key, value):
        # report.json would otherwise carry NaN, which is not valid JSON
        code, _, stderr = run_cli(
            capsys, "theorem", "--out", str(tmp_path / "x"), "--set", f"{key}={value}", *self.ARGS,
        )
        assert code == 2
        assert not (tmp_path / "x" / "report.json").exists()

    def test_invalid_population_is_config_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "theorem", "--out", str(tmp_path / "x"),
            "--set", "noise_std=-1.0", *self.ARGS,
        )
        assert code == 2
