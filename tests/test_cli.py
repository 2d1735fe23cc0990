import json
import math
import os
import struct

import pytest

from wavebound import cli
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

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, stderr = run_cli(
            capsys, "synth", "--length", "10", "--seed", "-1", "--out", str(out)
        )
        assert (code, stdout, stderr) == (
            2, "", "error: --seed must be a non-negative integer, got '-1'\n")
        assert os.listdir(tmp_path) == []

    def test_foreign_tmp_file_survives(self, tmp_path, capsys):
        out, notes = tmp_path / "x.csv", tmp_path / "x.csv.tmp"
        notes.write_bytes(b"my notes\n")
        code, _, _ = run_cli(capsys, "synth", "--length", "10", "--out", str(out))
        assert code == 0
        assert notes.read_bytes() == b"my notes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv", "x.csv.tmp"]


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

    def test_reports_the_metrics_measured_in_training(self, tmp_path, capsys, monkeypatch):
        # metrics.csv and per_step_test_mse.csv come from `train`, not a second evaluation
        evaluate, calls = cli.evaluate, []

        def spy(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(cli, "evaluate", spy)
        code, _, _ = run_cli(capsys, "train", "--out", str(tmp_path / "run"), *SMALL)
        assert code == 0
        assert len(calls) == 0

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
        assert not (tmp_path / "x").exists()

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

    def test_csv_that_is_not_utf8_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"date,x\n0,1.0\n1,\xff\n")
        out = tmp_path / "x"
        code, stdout, stderr = run_cli(
            capsys, "train", "--out", str(out),
            "--set", "data=csv", "--set", f"csv_path={path}", *SMALL,
        )
        assert (code, stdout) == (3, "")
        assert stderr == f"error: {path}: row 3: cannot decode b'\\xff' as utf-8\n"
        assert not out.exists()

    def test_csv_cell_over_the_field_limit_is_data_error(self, tmp_path, capsys):
        # The quote sends the file to the csv.reader loop, whose field limit
        # is 131 072 characters.
        path = tmp_path / "long.csv"
        rows = [f"{i},{math.sin(i / 5.0)!r}" for i in range(120)]
        rows[4] = '4,"' + "1" * 200_000 + '"'
        path.write_text("date,x\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "x"
        code, stdout, stderr = run_cli(
            capsys, "train", "--out", str(out),
            "--set", "data=csv", "--set", f"csv_path={path}", *SMALL,
        )
        assert (code, stdout) == (3, "")
        assert stderr == f"error: {path}: row 6: field larger than field limit (131072)\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("settings,shapes", [
        pytest.param(["output_len=1"], "(8, 1) -> (1, 1)", id="1"),
        pytest.param(["output_len=4"], "(8, 1) -> (4, 1)", id="4"),
        pytest.param(["input_len=6"], "(6, 1) -> (8, 1)", id="input_len"),
        pytest.param(["data=csv", "csv_path=CSV", "univariate=false"], "(8, 2) -> (8, 2)", id="two_features"),
    ])
    def test_output_len_unlike_the_checkpoint_is_config_error(self, tmp_path, capsys, settings, shapes):
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--out", str(run_dir), *SMALL, "--set", "output_len=8")
        assert code == 0
        series = tmp_path / "two.csv"
        series.write_text("date,a,b\n" + "".join(f"{i},{math.sin(i)},{math.cos(i)}\n" for i in range(120)))
        eval_dir = tmp_path / "eval"
        ckpt = run_dir / "model.ckpt"
        sets = [a for setting in settings for a in ("--set", setting.replace("CSV", str(series)))]
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt),
            "--out", str(eval_dir), *SMALL, "--set", "output_len=8", *sets,
        )
        assert code == 2
        assert stderr.startswith(f"error: checkpoint {ckpt} maps (8, 1) -> (8, 1) windows")
        assert "input_len=" in stderr and "output_len=" in stderr
        assert stderr.endswith(f" give {shapes}\n")
        assert stdout == ""
        assert not eval_dir.exists()

    def test_corrupt_mirror_header_is_data_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_cli(capsys, "train", "--out", str(run_dir), *SMALL)
        ckpt = run_dir / "model.ckpt"
        blob = bytearray(ckpt.read_bytes())
        (n_layers,) = struct.unpack_from("<I", blob, 28)  # after magic, version, 4 shape fields
        offset = 32 + 12 * n_layers
        assert struct.unpack_from("<Id", blob, offset) == (1, 0.99)
        struct.pack_into("<Id", blob, offset, 7, math.nan)
        ckpt.write_bytes(bytes(blob))
        eval_dir = tmp_path / "eval"
        code, stdout, stderr = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--out", str(eval_dir), *SMALL,
        )
        assert (code, stdout) == (3, "")
        assert stderr == f"error: {ckpt}: corrupt checkpoint header: has_mirror is 7, not 0 or 1\n"
        assert not eval_dir.exists()

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "eval", "--checkpoint", str(tmp_path / "no.ckpt"),
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 3
        assert not (tmp_path / "x").exists()


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
        assert not (tmp_path / "x").exists()

    def test_b_sweep_requires_flooding(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--param", "b", "--values", "0.0,0.1",
            "--out", str(tmp_path / "x"), *SMALL,
        )
        assert code == 2


    def test_two_workers_write_the_serial_bytes_on_csv_data(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        assert run_cli(capsys, "synth", "--length", "120", "--out", str(csv_path))[0] == 0
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers_{workers}"
            code, _, _ = run_cli(
                capsys, "sweep", "--param", "learning_rate", "--values", "0.001,0.0001",
                "--workers", workers, "--out", str(out), *SMALL,
                "--set", "data=csv", "--set", f"csv_path={csv_path}",
            )
            assert code == 0
            outputs.append(read_dir(out))
        assert sorted(outputs[0]) == ["resolved_config.txt", "sweep.csv"]
        assert outputs[0] == outputs[1]

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


class TestMalformedConfig:
    """Every key is parsed before --out is touched, even one the command ignores."""

    @pytest.mark.parametrize(
        "command,setting,message",
        [
            ("train", "batch_size=x", "config key batch_size must be an integer, got 'x'"),
            ("train", "learning_rate=fast", "config key learning_rate must be a number, got 'fast'"),
            ("train", "univariate=maybe", "config key univariate must be true/false, got 'maybe'"),
            ("train", "ratios=1:x:1", "cannot parse split ratios '1:x:1'"),
            ("sweep", "standardize=2", "config key standardize must be true/false, got '2'"),
            ("eval", "learning_rate=x", "config key learning_rate must be a number, got 'x'"),
            ("theorem", "trials=many", "config key trials must be an integer, got 'many'"),
            ("theorem", "seed=-1", "config key seed must be a non-negative integer, got '-1'"),
            ("train", "seed=-1", "config key seed must be a non-negative integer, got '-1'"),
            ("train", "data_seed=-1",
             "config key data_seed must be a non-negative integer, got '-1'"),
            ("sweep", "seed=x", "config key seed must be a non-negative integer, got 'x'"),
        ],
    )
    def test_exits_2_and_leaves_no_out(self, tmp_path, capsys, command, setting, message):
        extra = {
            "sweep": ["--param", "learning_rate", "--values", "0.001"],
            "eval": ["--checkpoint", str(tmp_path / "no.ckpt")],
        }.get(command, [])
        out = tmp_path / "fresh"
        code, stdout, stderr = run_cli(
            capsys, command, "--out", str(out), *extra, "--set", setting,
        )
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
        assert not out.exists()


    @pytest.mark.parametrize("command", ["train", "theorem"])
    def test_config_file_not_utf8_names_file_and_line(self, tmp_path, capsys, command):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"# comment\r\nseed=1\nseed=\xff\n")
        out = tmp_path / "fresh"
        code, stdout, stderr = run_cli(capsys, command, "--config", str(config), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {config}:3: cannot decode b'\\xff' as utf-8\n"
        assert not out.exists()


    @pytest.mark.parametrize("command", ["train", "theorem"])
    def test_config_file_with_a_bom_parses(self, tmp_path, capsys, command):
        config = tmp_path / "bom.cfg"
        config.write_bytes(b"\xef\xbb\xbfseed=3\n")
        out = tmp_path / "out"
        args = [*SMALL, "--set", "max_epochs=1"] if command == "train" else ["--set", "trials=10"]
        code, _, stderr = run_cli(capsys, command, "--config", str(config), "--out", str(out), *args)
        assert code == 0, stderr
        assert "seed=3\n" in (out / "resolved_config.txt").read_text(encoding="utf-8")

    def test_config_file_with_a_bom_not_utf8_names_line_and_bytes(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xef\xbb\xbf# comment\nseed=1\nseed=\xff\xfe\n")
        out = tmp_path / "fresh"
        code, stdout, stderr = run_cli(capsys, "train", "--config", str(config), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {config}:3: cannot decode b'\\xff' as utf-8\n"
        assert not out.exists()


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_epoch_mse_is_numeric_error(self, tmp_path, capsys):
        # 61 train windows in one batch: each epoch is one step, so only the
        # evaluation after it can see the overflow.
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(capsys, "train", "--out", str(out), *SMALL,
                                       "--set", "batch_size=64", "--set", "learning_rate=1e300")
        assert (code, stdout) == (4, "")
        assert stderr == "error: non-finite train MSE inf at epoch 0\n"
        assert not out.exists()


class TestUnwritableOutput:
    """An output path that cannot be created or written exits 3, not a traceback."""

    def test_synth_failing_write_names_out_and_removes_the_directories_it_made(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run_cli(capsys, "synth", "--length", "10", "--out", "newdir/sub/")
        assert (code, stdout) == (3, "")
        assert stderr == "error: cannot write newdir/sub/: No such file or directory\n"
        assert os.listdir(tmp_path) == []

    def test_train_failing_run_removes_the_nested_out_it_made(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("date,x\n0,1.0\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "train", "--out", str(tmp_path / "a" / "b" / "run"), *SMALL,
                             "--set", "data=csv", "--set", f"csv_path={tmp_path / 'bad.csv'}")
        assert code == 3
        assert os.listdir(tmp_path) == ["bad.csv"]

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


TRAIN_OUTPUTS = 7  # resolved_config.txt, two logs, the gap, metrics, per-step MSE, checkpoint


class TestFailedCommitMove:
    """A failed move into --out puts back what the earlier moves replaced."""

    @staticmethod
    def _fail_move(monkeypatch, out, k):
        real = os.replace
        moves = []

        def replace(src, dst, *args, **kwargs):
            src, dst = os.fspath(src), os.fspath(dst)
            staged = os.path.basename(os.path.dirname(src)).startswith(".partial-")
            if staged and os.path.dirname(dst) == os.fspath(out):
                moves.append(dst)
                if len(moves) == k + 1:
                    raise OSError(28, "No space left on device")
            return real(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", replace)
        return moves

    @pytest.mark.parametrize("k", range(TRAIN_OUTPUTS))
    def test_into_a_fresh_out(self, tmp_path, capsys, monkeypatch, k):
        out = tmp_path / "fresh" / "run"
        moves = self._fail_move(monkeypatch, out, k)
        code, _, stderr = run_cli(capsys, "train", "--out", str(out), *SMALL)
        assert (code, len(moves)) == (3, k + 1)
        assert "No space left on device" in stderr
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("links", ["linked", "copied"])
    @pytest.mark.parametrize("k", range(TRAIN_OUTPUTS))
    def test_into_an_out_with_an_earlier_run(self, tmp_path, capsys, monkeypatch, k, links):
        if links == "copied":  # a file system that refuses hard links
            monkeypatch.setattr(os, "link", _fail)
        out = tmp_path / "run"
        assert run_cli(capsys, "train", "--out", str(out), "--set", "seed=1", *SMALL)[0] == 0
        # Two outputs of this run are new, the others replace the earlier run's.
        os.remove(out / "metrics.csv")
        os.remove(out / "train_log.csv")
        (out / "notes.txt").write_bytes(b"kept\n")
        before = read_dir(out)
        moves = self._fail_move(monkeypatch, out, k)
        code, _, stderr = run_cli(capsys, "train", "--out", str(out), "--set", "seed=2", *SMALL)
        assert (code, len(moves)) == (3, k + 1)
        assert "No space left on device" in stderr
        assert read_dir(out) == before


class TestSweepGridCheckedFirst:
    """A bad grid or worker count exits 2 before any data is read or --out made."""

    @pytest.mark.parametrize("args", [
        ["--param", "b", "--values", "0.1", "--set", "objective=plain"],
        ["--param", "epsilon", "--values", "0.1", "--set", "objective=flooding"],
        ["--param", "learning_rate", "--values", "0.001,-1"],
        ["--param", "learning_rate", "--values", "0.001", "--workers", "0"],
    ], ids=["b-on-plain", "epsilon-on-flooding", "negative-rate", "no-workers"])
    def test_fails_before_the_data(self, tmp_path, capsys, monkeypatch, args):
        loads = []
        monkeypatch.setattr("wavebound.cli._segments", lambda cfg: loads.append(cfg))
        out = tmp_path / "sweep"
        code, stdout, stderr = run_cli(capsys, "sweep", "--out", str(out), *args, *SMALL)
        assert (code, stdout, loads) == (2, "", [])
        assert stderr.startswith("error: ")
        assert not out.exists()


class TestEmaDecayCheckedFirst:
    """A decay outside [0, 1] exits 2 and names ema_decay before the data is read."""

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("decay", ["1.5", "-0.5", "nan"])
    def test_fails_before_the_data(self, tmp_path, capsys, command, decay):
        extra = ["--param", "learning_rate", "--values", "0.001"] if command == "sweep" else []
        out = tmp_path / "fresh"
        code, stdout, stderr = run_cli(
            capsys, command, "--out", str(out), *extra, *SMALL, "--set", f"ema_decay={decay}",
            "--set", "data=csv", "--set", f"csv_path={tmp_path / 'no.csv'}",
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: ema_decay must lie in [0, 1], got {float(decay)!r}\n"
        assert not out.exists()


class TestSegmentWithoutWindows:
    """A segment shorter than input_len + output_len exits 3 before any output."""

    @pytest.mark.filterwarnings("ignore:segment of length 6 shorter than")
    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    def test_short_validation_segment(self, tmp_path, capsys, command):
        extra = {
            "train": [],
            "sweep": ["--param", "learning_rate", "--values", "0.001,0.0001"],
            "eval": ["--checkpoint", str(tmp_path / "run" / "model.ckpt")],
        }[command]
        if command == "eval":
            assert run_cli(capsys, "train", "--out", str(tmp_path / "run"), *SMALL)[0] == 0
        out = tmp_path / "out"
        # 120 rows split 16:1:3 leave 96, 6 and 18; 6 is short of 8 + 4
        code, stdout, stderr = run_cli(
            capsys, command, "--out", str(out), *extra, *SMALL, "--set", "ratios=16:1:3"
        )
        assert (code, stdout) == (3, "")
        assert "error: segment of length 6 yields no windows for 8+4\n" in stderr
        assert not out.exists()


class TestFeatureSelection:
    """`feature` names a column of the data whatever its width, and needs univariate=true."""

    @staticmethod
    def one_column_csv(tmp_path):
        path = tmp_path / "series.csv"
        rows = [f"{i},{math.sin(i / 5.0)!r}" for i in range(120)]
        path.write_text("date,x\n" + "\n".join(rows) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def earlier_run(tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "metrics.csv").write_text("earlier\n", encoding="utf-8")
        return out

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_unknown_feature_of_one_column_is_data_error(self, tmp_path, capsys, command):
        extra = ["--param", "learning_rate", "--values", "0.001"] if command == "sweep" else []
        csv, out = self.one_column_csv(tmp_path), self.earlier_run(tmp_path)
        code, stdout, stderr = run_cli(
            capsys, command, "--out", str(out), *extra, *SMALL,
            "--set", "data=csv", "--set", f"csv_path={csv}", "--set", "feature=nope",
        )
        assert (code, stdout) == (3, "")
        assert stderr == "error: unknown feature 'nope'; available: ['x']\n"
        assert read_dir(out) == {"metrics.csv": b"earlier\n"}

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("data", ["synth", "csv"])
    def test_feature_without_univariate_is_config_error(self, tmp_path, capsys, command, data):
        extra = ["--param", "learning_rate", "--values", "0.001"] if command == "sweep" else []
        csv, out = self.one_column_csv(tmp_path), self.earlier_run(tmp_path)
        code, stdout, stderr = run_cli(
            capsys, command, "--out", str(out), *extra, *SMALL, "--set", f"data={data}",
            "--set", f"csv_path={csv}", "--set", "feature=x", "--set", "univariate=false",
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: feature=x selects one column; it needs univariate=true\n"
        assert read_dir(out) == {"metrics.csv": b"earlier\n"}

    def test_matching_feature_of_one_column_writes_the_same_bytes(self, tmp_path, capsys):
        csv = self.one_column_csv(tmp_path)
        outputs = []
        for feature in ("", "x"):
            out = tmp_path / f"feature-{feature}"
            code, _, _ = run_cli(
                capsys, "train", "--out", str(out), *SMALL,
                "--set", "data=csv", "--set", f"csv_path={csv}", "--set", f"feature={feature}",
            )
            assert code == 0
            files = read_dir(out)
            del files["resolved_config.txt"]  # it records the feature key as given
            outputs.append(files)
        assert outputs[0] == outputs[1]
