"""Command-line surface: data generation, training, sweeps, eval, oracle.

Configuration is a flat key=value text file (blank lines and '#' comments
ignored); any key can be overridden on the command line with repeated
`--set KEY=VALUE` flags, and flags win.  Every key is parsed by its type
before --out is touched, so a malformed value creates nothing.  Every run
writes the fully resolved configuration next to its outputs, and all
output files are byte-identical across reruns with the same inputs
(wall-clock timing goes to stderr only).  A run's files appear in --out
together or not at all: they are written into a `.partial-*` directory
inside it and renamed into place only when the whole run has succeeded.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
    utf8_error_line,
    windowize,
    write_rows,
)
from .errors import ConfigError, DataError, NumericError, WaveboundError
from .evaluation import evaluate, generalization_gap
from .objectives import ObjectiveKind
from .theorem import LinearGaussianPopulation, OracleInstance, run_full_oracle
from .trainer import SWEEP_PARAMS, TrainConfig, sweep, sweep_configs, train


def _boolean(text: str) -> bool:
    value = text.lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


# key -> (default text, parser); a parser's ValueError is reported with EXPECTED
TRAIN_DEFAULTS = {
    "data": ("synth", str),  # synth | csv
    "length": ("2000", int),  # synth series length
    "sigma": ("0.5", float),  # synth noise level
    "data_seed": ("7", _seed),  # synth noise seed
    "csv_path": ("", str),
    "feature": ("", str),  # univariate column name; empty = last column
    "univariate": ("true", _boolean),
    "ratios": ("6:2:2", SplitSpec.parse),
    "standardize": ("true", _boolean),
    "input_len": ("96", int),
    "output_len": ("96", int),
    "hidden_dim": ("64", int),
    "objective": ("plain", str),
    "b": ("0.0", float),
    "epsilon": ("0.01", float),
    "batch_size": ("32", int),
    "learning_rate": ("0.0001", float),
    "ema_decay": ("0.99", float),
    "max_epochs": ("30", int),
    "patience": ("3", int),
    "seed": ("0", _seed),
    "eval_network": ("target", str),
}

THEOREM_DEFAULTS = {
    "rows": ("3", int),
    "cols": ("2", int),
    "true_coeff": ("1.0", float),
    "noise_std": ("0.5", float),
    "input_std": ("1.0", float),
    "g_offset": ("0.5", float),  # evaluated predictor = truth + offset
    "g_star_offset": ("0.0", float),  # reference predictor = truth + offset
    "epsilon": ("0.01", float),
    "n_samples": ("25", int),
    "trials": ("20000", int),
    "margin_alpha": ("0.05", float),
    "seed": ("2024", _seed),
    "jensen_draws": ("10", int),
}

EXPECTED = {
    int: "an integer", _seed: "a non-negative integer", float: "a number", _boolean: "true/false",
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
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        n, bad = utf8_error_line(raw, exc)
        raise ConfigError(f"{path}:{n}: cannot decode {bad!r} as utf-8") from None
    # Lines end where a text-mode open would end them: \n, \r\n or a lone \r.
    lines = [(n, line.strip()) for n, line in enumerate(io.StringIO(text, newline=None), start=1)]
    return dict(
        _split_pair(line, f"{path}:{n}: expected")
        for n, line in lines
        if line and not line.startswith("#")
    )


def _resolve(defaults: dict, config_path, sets) -> tuple[dict[str, str], dict]:
    """Resolved text of every key, as resolved_config.txt keeps it, and its parsed value."""
    text = {key: default for key, (default, _) in defaults.items()}
    overrides = _load_config_file(config_path) if config_path else {}
    overrides.update(_split_pair(pair, "--set expects") for pair in sets or [])
    unknown = sorted(set(overrides) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    text.update(overrides)
    values = {}
    for key, (_, parse) in defaults.items():
        try:
            values[key] = parse(text[key])
        except ValueError:
            raise ConfigError(
                f"config key {key} must be {EXPECTED[parse]}, got {text[key]!r}") from None
    return text, values


def _write_text(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _directory(path):
    """Make directory path and its missing parents; if the block fails, remove those still empty."""
    made = []  # deepest first
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(path, exist_ok=True)
        yield
    except BaseException:
        for directory in made:
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise


@contextlib.contextmanager
def _outputs(out_dir, text: dict[str, str]):
    """Stage a run's files and move them into out_dir together on success.

    Yields `path(name)`, the staged location of output `name`.  The stage is
    made before any work, so a bad --out fails first, and is removed on
    every exit; nothing under an output's name changes unless the block
    succeeds, and the directories this call made for out_dir are removed
    again if the block fails and they are still empty.
    """
    if not out_dir:
        raise ConfigError("--out is required")
    with _directory(out_dir):
        stage = tempfile.mkdtemp(prefix=".partial-", dir=out_dir)
        try:
            _write_text(os.path.join(stage, "resolved_config.txt"),
                        "".join(f"{key}={text[key]}\n" for key in sorted(text)))
            yield lambda name: os.path.join(stage, name)
            _commit(stage, out_dir)
        finally:
            shutil.rmtree(stage, ignore_errors=True)


def _commit(stage, out_dir) -> None:
    """Move every file of the stage into out_dir, all or none.

    Each file that a move will replace is first hard-linked (or, where links
    are refused, copied) into `stage/.backup`.  If a move fails, the files
    already moved are put back, each to its backup or, if it is new, away,
    and the error is raised: out_dir holds exactly what it held before.
    """
    moves = [(os.path.join(stage, n), os.path.join(out_dir, n)) for n in sorted(os.listdir(stage))]
    for _, target in moves:
        if os.path.isdir(target):
            raise DataError(f"cannot write {target}: it is a directory")
    backups = os.path.join(stage, ".backup")
    os.mkdir(backups)
    saved = {}
    for _, target in moves:
        if os.path.lexists(target):
            saved[target] = os.path.join(backups, os.path.basename(target))
            try:
                os.link(target, saved[target], follow_symlinks=False)
            except OSError:
                shutil.copy2(target, saved[target], follow_symlinks=False)
    done = []
    try:
        for staged, target in moves:
            os.replace(staged, target)
            done.append(target)
    except BaseException:
        for target in reversed(done):
            with contextlib.suppress(OSError):
                if target in saved:
                    os.replace(saved[target], target)
                else:
                    os.unlink(target)
        raise


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        input_len=cfg["input_len"],
        output_len=cfg["output_len"],
        objective=ObjectiveKind(cfg["objective"], b=cfg["b"], epsilon=cfg["epsilon"]),
        batch_size=cfg["batch_size"],
        learning_rate=cfg["learning_rate"],
        ema_decay=cfg["ema_decay"],
        max_epochs=cfg["max_epochs"],
        patience=cfg["patience"],
        seed=cfg["seed"],
        hidden_dim=cfg["hidden_dim"],
        eval_network=cfg["eval_network"],
    )


def _oracle_instance(cfg: dict) -> OracleInstance:
    shape = (cfg["rows"], cfg["cols"])
    if min(shape) < 1:
        raise ConfigError(f"rows and cols must be >= 1, got {shape}")
    population = LinearGaussianPopulation(
        true_map=np.full(shape, cfg["true_coeff"]),
        noise_std=np.full(shape, cfg["noise_std"]),
        input_std=cfg["input_std"],
    )
    return OracleInstance(
        population=population,
        g=population.true_map + cfg["g_offset"],
        g_star=population.true_map + cfg["g_star_offset"],
        epsilon=cfg["epsilon"],
        n_samples=cfg["n_samples"],
        trials=cfg["trials"],
        margin_alpha=cfg["margin_alpha"],
        seed=cfg["seed"],
    )


def _segments(cfg: dict):
    """Config -> the standardized train/val/test segments, each long enough for one window."""
    source = cfg["data"]
    if source == "synth":
        dataset = synth_series(cfg["length"], cfg["sigma"], cfg["data_seed"])
    elif source == "csv":
        if not cfg["csv_path"]:
            raise ConfigError("csv data needs csv_path")
        dataset = load_csv(cfg["csv_path"])
    else:
        raise ConfigError(f"data must be 'synth' or 'csv', got {source!r}")
    if cfg["univariate"] and dataset.n_features > 1:
        dataset = select_feature(dataset, cfg["feature"] or None)
    segments = split_and_standardize(dataset, cfg["ratios"], standardize=cfg["standardize"])
    for segment in segments:
        if not windowize(segment, cfg["input_len"], cfg["output_len"]):
            raise DataError(
                f"segment of length {segment.length} yields no windows for "
                f"{cfg['input_len']}+{cfg['output_len']}"
            )
    return segments


def _windows(cfg: dict):
    """Config -> stacked (past, future) tuples for train/val/test."""
    lengths = cfg["input_len"], cfg["output_len"]
    return tuple(stack_windows(windowize(s, *lengths)) for s in _segments(cfg))


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got '{args.seed}'")
    dataset = synth_series(args.length, args.sigma, args.seed)
    try:
        with _directory(os.path.dirname(os.path.abspath(args.out))):
            save_csv(dataset, args.out)
    except OSError as exc:
        raise DataError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(f"rows={dataset.length} features={dataset.n_features}")
    return 0


def cmd_train(args) -> int:
    text, cfg = _resolve(TRAIN_DEFAULTS, args.config, args.set)
    config = _train_config(cfg)
    with _outputs(args.out, text) as path:
        sets = _windows(cfg)
        started = time.perf_counter()
        result = train(config, *sets)
        elapsed = time.perf_counter() - started

        result.log.to_csv(path("train_log.csv"))
        result.log.to_jsonl(path("train_log.jsonl"))
        gap = generalization_gap(result.log)
        write_rows(path("generalization_gap.csv"), ("epoch", "gap"),
                   ((record.epoch, value) for record, value in zip(result.log.records, gap)))
        metrics = dict(zip(SPLITS, result.metrics))
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
    text, cfg = _resolve(TRAIN_DEFAULTS, args.config, args.set)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values must be comma-separated numbers, got {args.values!r}") from None
    if not values:
        raise ConfigError("sweep needs a non-empty --values list")
    config = _train_config(cfg)
    sweep_configs(config, args.param, values, args.workers)  # a bad grid fails before any data
    with _outputs(args.out, text) as path:
        started = time.perf_counter()
        rows = sweep(config, args.param, values, *_segments(cfg), workers=args.workers)
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
    text, cfg = _resolve(TRAIN_DEFAULTS, args.config, args.set)
    with _outputs(args.out, text) as path:
        params, _mirror = checkpoint_load(args.checkpoint)
        sets = dict(zip(SPLITS, _windows(cfg)))
        n_features = sets["train"][0].shape[2]
        shapes = (cfg["input_len"], n_features), (cfg["output_len"], n_features)
        if (params.input_shape, params.output_shape) != shapes:
            raise ConfigError(
                f"checkpoint {args.checkpoint} maps {params.input_shape} -> {params.output_shape} "
                f"windows, but input_len={cfg['input_len']}, output_len={cfg['output_len']} "
                f"and {n_features} feature(s) give {shapes[0]} -> {shapes[1]}"
            )
        m = evaluate(params, *sets[args.split])
        write_rows(path("metrics.csv"), METRICS_HEADER, [(args.split, m.mse, m.mae, m.sample_count)])
        write_rows(path("per_step_mse.csv"), ("step", "mse"), enumerate(m.per_step_mse))
    print(f"split={args.split} mse={m.mse!r} mae={m.mae!r}")
    return 0


def cmd_theorem(args) -> int:
    text, cfg = _resolve(THEOREM_DEFAULTS, args.config, args.set)
    instance = _oracle_instance(cfg)
    with _outputs(args.out, text) as path:
        started = time.perf_counter()
        report = run_full_oracle(instance, jensen_draws=cfg["jensen_draws"])
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
