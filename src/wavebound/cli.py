"""Command-line surface: data generation, training, sweeps, eval, oracle.

Configuration is a flat key=value text file (blank lines and '#' comments
ignored); any key can be overridden on the command line with repeated
`--set KEY=VALUE` flags, and flags win.  Every run writes the fully
resolved configuration next to its outputs, and all output files are
byte-identical across reruns with the same inputs (wall-clock timing goes
to stderr only).  A run's files appear in --out together or not at all:
they are written into a `.partial-*` directory inside it and renamed into
place only when the whole run has succeeded.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from .checkpoint import checkpoint_load, checkpoint_save
from .data import (
    SplitSpec,
    atomic_open,
    load_csv,
    save_csv,
    select_feature,
    split_and_standardize,
    stack_windows,
    synth_series,
    windowize,
    write_rows,
)
from .errors import ConfigError, DataError, NumericError, WaveboundError
from .evaluation import evaluate, generalization_gap
from .objectives import ObjectiveKind
from .theorem import LinearGaussianPopulation, OracleInstance, run_full_oracle
from .trainer import SWEEP_PARAMS, TrainConfig, sweep, train

TRAIN_DEFAULTS = {
    "data": "synth",  # synth | csv
    "length": "2000",  # synth series length
    "sigma": "0.5",  # synth noise level
    "data_seed": "7",  # synth noise seed
    "csv_path": "",
    "feature": "",  # univariate column name; empty = last column
    "univariate": "true",
    "ratios": "6:2:2",
    "standardize": "true",
    "input_len": "96",
    "output_len": "96",
    "hidden_dim": "64",
    "objective": "plain",
    "b": "0.0",
    "epsilon": "0.01",
    "batch_size": "32",
    "learning_rate": "0.0001",
    "ema_decay": "0.99",
    "max_epochs": "30",
    "patience": "3",
    "seed": "0",
    "eval_network": "target",
}

THEOREM_DEFAULTS = {
    "rows": "3",
    "cols": "2",
    "true_coeff": "1.0",
    "noise_std": "0.5",
    "input_std": "1.0",
    "g_offset": "0.5",  # evaluated predictor = truth + offset
    "g_star_offset": "0.0",  # reference predictor = truth + offset
    "epsilon": "0.01",
    "n_samples": "25",
    "trials": "20000",
    "margin_alpha": "0.05",
    "seed": "2024",
    "jensen_draws": "10",
}

SPLITS = ("train", "val", "test")
METRICS_HEADER = ("split", "mse", "mae", "samples")


def _split_pair(text: str, where: str) -> tuple[str, str]:
    if "=" not in text:
        raise ConfigError(f"{where} KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def _load_config_file(path) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(n, raw.strip()) for n, raw in enumerate(fh, start=1)]
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return dict(
        _split_pair(line, f"{path}:{n}: expected")
        for n, line in lines
        if line and not line.startswith("#")
    )


def _resolve(defaults: dict[str, str], config_path, sets) -> dict[str, str]:
    cfg = dict(defaults)
    overrides = _load_config_file(config_path) if config_path else {}
    overrides.update(_split_pair(pair, "--set expects") for pair in sets or [])
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    cfg.update(overrides)
    return cfg


def _as_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}") from None


def _as_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be a number, got {cfg[key]!r}") from None


def _as_bool(cfg: dict[str, str], key: str) -> bool:
    value = cfg[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key} must be true/false, got {cfg[key]!r}")


def _write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _outputs(out_dir, cfg: dict[str, str]):
    """Stage a run's files and move them into out_dir together on success.

    Yields `path(name)`, the staged location of output `name`.  The stage is
    made before any work, so a bad --out fails first, and is removed on
    every exit; nothing under an output's name changes unless the block
    succeeds.
    """
    if not out_dir:
        raise ConfigError("--out is required")
    os.makedirs(out_dir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".partial-", dir=out_dir)
    try:
        _write_text(os.path.join(stage, "resolved_config.txt"),
                    "".join(f"{key}={cfg[key]}\n" for key in sorted(cfg)))
        yield lambda name: os.path.join(stage, name)
        moves = [(os.path.join(stage, n), os.path.join(out_dir, n)) for n in sorted(os.listdir(stage))]
        for _, target in moves:
            if os.path.isdir(target):
                raise DataError(f"cannot write {target}: it is a directory")
        for staged, target in moves:
            os.replace(staged, target)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _train_config(cfg: dict[str, str]) -> TrainConfig:
    return TrainConfig(
        input_len=_as_int(cfg, "input_len"),
        output_len=_as_int(cfg, "output_len"),
        objective=ObjectiveKind(
            cfg["objective"], b=_as_float(cfg, "b"), epsilon=_as_float(cfg, "epsilon")
        ),
        batch_size=_as_int(cfg, "batch_size"),
        learning_rate=_as_float(cfg, "learning_rate"),
        ema_decay=_as_float(cfg, "ema_decay"),
        max_epochs=_as_int(cfg, "max_epochs"),
        patience=_as_int(cfg, "patience"),
        seed=_as_int(cfg, "seed"),
        hidden_dim=_as_int(cfg, "hidden_dim"),
        eval_network=cfg["eval_network"],
    )


def _oracle_instance(cfg: dict[str, str]) -> OracleInstance:
    shape = (_as_int(cfg, "rows"), _as_int(cfg, "cols"))
    if min(shape) < 1:
        raise ConfigError(f"rows and cols must be >= 1, got {shape}")
    population = LinearGaussianPopulation(
        true_map=np.full(shape, _as_float(cfg, "true_coeff")),
        noise_std=np.full(shape, _as_float(cfg, "noise_std")),
        input_std=_as_float(cfg, "input_std"),
    )
    return OracleInstance(
        population=population,
        g=population.true_map + _as_float(cfg, "g_offset"),
        g_star=population.true_map + _as_float(cfg, "g_star_offset"),
        epsilon=_as_float(cfg, "epsilon"),
        n_samples=_as_int(cfg, "n_samples"),
        trials=_as_int(cfg, "trials"),
        margin_alpha=_as_float(cfg, "margin_alpha"),
        seed=_as_int(cfg, "seed"),
    )


def _prepare_data(cfg: dict[str, str]):
    """Config -> stacked (past, future) tuples for train/val/test."""
    source = cfg["data"]
    if source == "synth":
        dataset = synth_series(
            _as_int(cfg, "length"), _as_float(cfg, "sigma"), _as_int(cfg, "data_seed")
        )
    elif source == "csv":
        if not cfg["csv_path"]:
            raise ConfigError("csv data needs csv_path")
        dataset = load_csv(cfg["csv_path"])
    else:
        raise ConfigError(f"data must be 'synth' or 'csv', got {source!r}")
    if _as_bool(cfg, "univariate") and dataset.n_features > 1:
        dataset = select_feature(dataset, cfg["feature"] or None)
    spec = SplitSpec.parse(cfg["ratios"])
    segments = split_and_standardize(dataset, spec, standardize=_as_bool(cfg, "standardize"))
    input_len = _as_int(cfg, "input_len")
    output_len = _as_int(cfg, "output_len")
    sets = []
    for segment in segments:
        windows = windowize(segment, input_len, output_len)
        if not windows:
            raise DataError(
                f"segment of length {segment.length} yields no windows for "
                f"{input_len}+{output_len}"
            )
        sets.append(stack_windows(windows))
    return tuple(sets)


def cmd_synth(args) -> int:
    dataset = synth_series(args.length, args.sigma, args.seed)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    save_csv(dataset, args.out)
    print(f"rows={dataset.length} features={dataset.n_features}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve(TRAIN_DEFAULTS, args.config, args.set)
    with _outputs(args.out, cfg) as path:
        config = _train_config(cfg)
        sets = _prepare_data(cfg)
        started = time.perf_counter()
        result = train(config, *sets)
        elapsed = time.perf_counter() - started

        result.log.to_csv(path("train_log.csv"))
        result.log.to_jsonl(path("train_log.jsonl"))
        gap = generalization_gap(result.log)
        write_rows(path("generalization_gap.csv"), ("epoch", "gap"),
                   ((record.epoch, value) for record, value in zip(result.log.records, gap)))
        metrics = {name: evaluate(result.params, *s) for name, s in zip(SPLITS, sets)}
        write_rows(path("metrics.csv"), METRICS_HEADER,
                   ((name, m.mse, m.mae, m.sample_count) for name, m in metrics.items()))
        write_rows(path("per_step_test_mse.csv"), ("step", "mse"),
                   enumerate(metrics["test"].per_step_mse))
        checkpoint_save(path("model.ckpt"), result.params, result.mirror)

    print(f"objective={config.objective.describe()}")
    print(f"eval_network={config.eval_network}")
    print(f"epochs_run={len(result.log.records)} best_epoch={result.best_epoch}")
    print(f"val_mse={metrics['val'].mse!r} test_mse={metrics['test'].mse!r}")
    print(f"seconds={elapsed:.1f}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolve(TRAIN_DEFAULTS, args.config, args.set)
    with _outputs(args.out, cfg) as path:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise ConfigError(f"--values must be comma-separated numbers, got {args.values!r}") from None
        if not values:
            raise ConfigError("sweep needs a non-empty --values list")
        config = _train_config(cfg)
        started = time.perf_counter()
        rows = sweep(config, args.param, values, *_prepare_data(cfg), workers=args.workers)
        elapsed = time.perf_counter() - started
        header = ("rank", "param", "value", "val_mse", "test_mse", "train_mse", "best_epoch")
        write_rows(path("sweep.csv"), header, (
            (rank, r.param, r.value, r.val_mse, r.test_mse, r.train_mse, r.best_epoch)
            for rank, r in enumerate(rows)
        ))
    print(f"grid_points={len(rows)} best_{args.param}={rows[0].value!r} "
          f"best_val_mse={rows[0].val_mse!r}")
    print(f"seconds={elapsed:.1f}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    cfg = _resolve(TRAIN_DEFAULTS, args.config, args.set)
    with _outputs(args.out, cfg) as path:
        params, _mirror = checkpoint_load(args.checkpoint)
        sets = dict(zip(SPLITS, _prepare_data(cfg)))
        m = evaluate(params, *sets[args.split])
        write_rows(path("metrics.csv"), METRICS_HEADER, [(args.split, m.mse, m.mae, m.sample_count)])
        write_rows(path("per_step_mse.csv"), ("step", "mse"), enumerate(m.per_step_mse))
    print(f"split={args.split} mse={m.mse!r} mae={m.mae!r}")
    return 0


def cmd_theorem(args) -> int:
    cfg = _resolve(THEOREM_DEFAULTS, args.config, args.set)
    with _outputs(args.out, cfg) as path:
        instance = _oracle_instance(cfg)
        started = time.perf_counter()
        report = run_full_oracle(instance, jensen_draws=_as_int(cfg, "jensen_draws"))
        elapsed = time.perf_counter() - started
        report.to_json(path("report.json"))
        _write_text(path("report.txt"), report.table() + "\n")
    print(report.table())
    print(f"seconds={elapsed:.1f}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebound",
        description="Training laboratory for dynamic per-output error-bound regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic series CSV")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    for name, func, extra in (
        ("train", cmd_train, ()),
        ("sweep", cmd_sweep, ("param", "values", "workers")),
        ("eval", cmd_eval, ("checkpoint", "split")),
        ("theorem", cmd_theorem, ()),
    ):
        p = sub.add_parser(name, help=f"run the {name} command")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable; wins over the file)")
        p.add_argument("--out", required=True, help="output directory")
        if "param" in extra:
            p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
            p.add_argument("--values", required=True, help="comma-separated grid values")
            p.add_argument("--workers", type=int, default=1)
        if "checkpoint" in extra:
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--split", default="test", choices=SPLITS)
        p.set_defaults(func=func)
    return parser


EXIT_CODES = ((ConfigError, 2), (DataError, 3), (OSError, 3), (NumericError, 4), (WaveboundError, 1))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WaveboundError, OSError) as exc:  # OSError: an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
