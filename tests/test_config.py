"""The one declaration of the config keys, and the rules every entry point takes from it.

Each integer field refuses a float and a bool and takes a numpy integer, and
each number field refuses a bool and a string, with a `ConfigError` that
names the field, whether the value comes through the library or through
`--set`.  README's key tables list exactly the declared keys and defaults.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from wavebound import (
    ConfigError,
    LinearGaussianPopulation,
    ObjectiveKind,
    OracleInstance,
    SeriesDataset,
    SplitSpec,
    TrainConfig,
    batch_indices,
    reference_instance,
    run_full_oracle,
    synth_series,
    windowize,
)
from wavebound import cli
from wavebound.config import THEOREM, TRAIN
from wavebound.data import WindowSet
from wavebound.trainer import train

README = Path(__file__).resolve().parents[1] / "README.md"
SHAPE = (3, 2)


def train_config(**kw):
    return TrainConfig(**{"input_len": 4, "output_len": 2, "objective": ObjectiveKind.plain(), **kw})


def population(**kw):
    return LinearGaussianPopulation(**{"true_map": np.ones(SHAPE), "noise_std": np.full(SHAPE, 0.5), **kw})


def oracle_instance(**kw):
    return OracleInstance(**{
        "population": population(), "g": np.full(SHAPE, 1.5), "g_star": np.ones(SHAPE),
        "epsilon": 0.01, "n_samples": 5, "trials": 10, "margin_alpha": 0.05, **kw,
    })


def run_oracle(jensen_draws):
    return run_full_oracle(reference_instance(trials=5), jensen_draws=jensen_draws)


# field -> (command, library call taking the value)
INTEGER_FIELDS = {
    "input_len": ("train", lambda v: train_config(input_len=v)),
    "output_len": ("train", lambda v: train_config(output_len=v)),
    "batch_size": ("train", lambda v: train_config(batch_size=v)),
    "max_epochs": ("train", lambda v: train_config(max_epochs=v)),
    "patience": ("train", lambda v: train_config(patience=v)),
    "hidden_dim": ("train", lambda v: train_config(hidden_dim=v)),
    "seed": ("train", lambda v: train_config(seed=v)),
    "n_samples": ("theorem", lambda v: oracle_instance(n_samples=v)),
    "trials": ("theorem", lambda v: oracle_instance(trials=v)),
    "theorem seed": ("theorem", lambda v: oracle_instance(seed=v)),
    "jensen_draws": ("theorem", run_oracle),
}

NUMBER_FIELDS = {
    "learning_rate": ("train", lambda v: train_config(learning_rate=v)),
    "ema_decay": ("train", lambda v: train_config(ema_decay=v)),
    "b": ("train", lambda v: ObjectiveKind("flooding", b=v)),
    "epsilon": ("train", lambda v: ObjectiveKind("wave_indiv", epsilon=v)),
    "theorem epsilon": ("theorem", lambda v: oracle_instance(epsilon=v)),
    "margin_alpha": ("theorem", lambda v: oracle_instance(margin_alpha=v)),
    "input_std": ("theorem", lambda v: population(input_std=v)),
}


def key_name(field):
    return field.split()[-1]


class TestIntegerFields:
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    def test_library_refuses_a_float_or_a_bool(self, field, value):
        _, make = INTEGER_FIELDS[field]
        with pytest.raises(ConfigError, match=rf"^{key_name(field)} must be .*integer, got {value!r}$"):
            make(value)

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_library_takes_a_numpy_integer(self, field):
        _, make = INTEGER_FIELDS[field]
        make(np.int64(4))

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    @pytest.mark.parametrize("text", ["2.5", "True"])
    def test_set_refuses_a_float_or_a_bool(self, tmp_path, capsys, field, text):
        command, _ = INTEGER_FIELDS[field]
        key = key_name(field)
        out = tmp_path / "fresh"
        code = cli.main([command, "--out", str(out), "--set", f"{key}={text}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: config key {key} must be ")
        assert captured.err.endswith(f"integer, got {text!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_set_takes_an_integer(self, field):
        command, _ = INTEGER_FIELDS[field]
        key = key_name(field)
        _, values = cli._resolve(THEOREM if command == "theorem" else TRAIN, None, [f"{key}=4"])
        assert values[key] == 4 and type(values[key]) is int

    def test_numpy_integer_config_trains_like_the_int_one(self):
        rng = np.random.default_rng(0)
        past, future = rng.normal(size=(12, 4, 1)), rng.normal(size=(12, 2, 1))
        sets = [(past, future)] * 3
        fields = dict(batch_size=4, max_epochs=2, patience=2, hidden_dim=3, seed=1)
        want = train(train_config(**fields), *sets)
        got = train(train_config(**{k: np.int64(v) for k, v in fields.items()}), *sets)
        assert np.array_equal(got.final_source.flat, want.final_source.flat)


class TestNumberFields:
    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    @pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "str"])
    def test_library_refuses_a_bool_or_a_string(self, field, value):
        _, make = NUMBER_FIELDS[field]
        with pytest.raises(ConfigError, match=rf"^{key_name(field)} must be a number, got {value!r}$"):
            make(value)

    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    def test_library_takes_numpy_and_python_numbers(self, field):
        _, make = NUMBER_FIELDS[field]
        for value in (np.float64(0.5), np.float32(0.5), 1):
            make(value)

    @pytest.mark.parametrize("field", NUMBER_FIELDS)
    def test_set_refuses_a_bool(self, tmp_path, capsys, field):
        command, _ = NUMBER_FIELDS[field]
        key = key_name(field)
        code = cli.main([command, "--out", str(tmp_path / "x"), "--set", f"{key}=True"])
        assert code == 2
        assert capsys.readouterr().err == f"error: config key {key} must be a number, got 'True'\n"


class TestOneMessage:
    """A value out of bound gives the same message through the library and through --set."""

    @pytest.mark.parametrize("command,key,text,make", [
        ("train", "batch_size", "0", lambda v: train_config(batch_size=v)),
        ("train", "ema_decay", "1.5", lambda v: train_config(ema_decay=v)),
        ("train", "learning_rate", "-1", lambda v: train_config(learning_rate=v)),
        ("train", "b", "inf", lambda v: ObjectiveKind("flooding", b=v)),
        ("theorem", "trials", "0", lambda v: oracle_instance(trials=v)),
        ("theorem", "margin_alpha", "0", lambda v: oracle_instance(margin_alpha=v)),
        ("theorem", "input_std", "nan", lambda v: population(input_std=v)),
    ])
    def test_library_and_set_agree(self, tmp_path, capsys, command, key, text, make):
        keys = THEOREM if command == "theorem" else TRAIN
        value = keys[key].kind.parse(text)
        with pytest.raises(ConfigError) as library:
            make(value)
        out = tmp_path / "fresh"
        assert cli.main([command, "--out", str(out), "--set", f"{key}={text}"]) == 2
        assert capsys.readouterr().err == f"error: {library.value}\n"
        assert not out.exists()


class TestDataArguments:
    """The integer arguments of the data functions take the same rule as the keys they serve."""

    @staticmethod
    def segment():
        return SeriesDataset(np.arange(20.0)[:, None], ["x"])

    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    @pytest.mark.parametrize("call,name", [
        (lambda v: synth_series(v, 0.5, 7), "length"),
        (lambda v: windowize(TestDataArguments.segment(), v, 3), "input_len"),
        (lambda v: windowize(TestDataArguments.segment(), 3, v), "output_len"),
        (lambda v: batch_indices(10, v), "batch_size"),
    ], ids=["synth_series", "windowize-input", "windowize-output", "batch_indices"])
    def test_non_integer_refused(self, call, name, value):
        with pytest.raises(ConfigError, match=rf"^{name} must be an integer, got {value!r}$"):
            call(value)

    def test_numpy_integers_run_as_their_values(self):
        windows = windowize(self.segment(), np.int64(4), np.int32(3))
        assert isinstance(windows, WindowSet)
        assert np.array_equal(windows.past, windowize(self.segment(), 4, 3).past)
        assert [len(b) for b in batch_indices(10, np.int64(4))] == [4, 4, 2]
        assert synth_series(np.int64(5), 0.5, 7).length == 5


class TestSplitRatios:
    def test_overflowing_sum_names_the_text(self):
        with pytest.raises(ConfigError, match=r"got '1e308:1e308:1'$"):
            SplitSpec.parse("1e308:1e308:1")

    def test_overflowing_sum_exits_2(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert cli.main(["train", "--out", str(out), "--set", "ratios=1e308:1e308:1"]) == 2
        assert capsys.readouterr().err.endswith("got '1e308:1e308:1'\n")
        assert not out.exists()


def readme_table(heading: str) -> dict[str, str]:
    """key -> default of the README table under the line that starts with heading."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    table = {}
    for line in lines[start + 4:]:
        if not line.startswith("|"):
            break
        keys, defaults = line.split(" | ")[:2]
        names = re.findall(r"`([^`]+)`", keys)
        values = [""] if defaults == "(empty)" else re.findall(r"`([^`]*)`", defaults)
        assert len(names) == len(values), line
        table.update(zip(names, values))
    return table


class TestReadmeTables:
    @pytest.mark.parametrize("heading,keys", [
        ("Training keys and defaults", TRAIN), ("Theorem keys and defaults", THEOREM),
    ], ids=["train", "theorem"])
    def test_rows_match_the_declaration(self, heading, keys):
        assert readme_table(heading) == {name: key.default for name, key in keys.items()}


class TestHelp:
    @pytest.mark.parametrize("command,keys", [("train", TRAIN), ("theorem", THEOREM)])
    def test_help_lists_every_key(self, capsys, command, keys):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        text = capsys.readouterr().out
        for key in keys.values():
            assert f"  {key.name} ({key.default!r})  {key.help}" in text
