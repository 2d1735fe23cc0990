"""Mini-batched training loop for all risk objectives, with early stopping.

Each iteration, on a batch of n windows with (M, K) outputs:

1. forward the source network and form the error err = pred - future once;
2. reduce err to the per-element risks r; for the bound objectives, forward
   the target network on the same batch and reduce its error the same way;
3. fold r against the bound once, which gives both the objective value and
   the descent pattern (see `objectives`);
4. turn err, in place, into the upstream gradient 2*err/(n*M*K), and
   multiply it by the +-1 sign mask only when some element is in ascent
   (multiplying by +1.0 is exact, so skipping it keeps the bits);
5. backpropagate it through the hidden states of the source forward;
6. take one Adam step, then fold the new source parameters into the
   exponential-moving-average target.  The optimizer step always precedes
   the EMA update.

Every update writes in place, so the source, its Adam moments, the target
and the gradient each keep one buffer for the whole run.  `train` is the
only code that keeps earlier state: it allocates the best-epoch snapshot
once, as copies of the initial networks, and refreshes it with `np.copyto`
at every epoch whose validation MSE improves, and keeps beside it the three
`MetricRecord`s that epoch measured, so the best epoch is measured once.
After each epoch's evaluations a train, validation or test MSE that is not
finite stops the run with `NumericError`.

A single gradient path serves every objective (they differ only in the
mask), so trajectories that are mathematically equal (e.g. flood level 0 vs
the plain objective) are bit-identical under the same seed.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .adam import adam_init, adam_step
from .config import TRAIN
from .data import (
    SeriesDataset,
    atomic_open,
    batch_indices,
    checked_windows,
    stack_windows,
    windowize,
    write_rows,
)
from .ema import EmaMirror, ema_init, ema_update
from .errors import ConfigError, NumericError
from .evaluation import MetricRecord, evaluate
from .nn import ModelParams, _backward_from, _forward_flat, new_forecaster

# Not called here (`train` runs the unchecked forward, backward, risk and
# fold), but perfbench/tracing.py wraps these names in this module, so they
# stay bound.
from .nn import mlp_backward_batch, mlp_forward_batch  # noqa: F401
from .objectives import ObjectiveKind, RiskMatrix, _risk, _signs, _value_and_descent
from .objectives import objective_mask, objective_value, per_element_risk  # noqa: F401
from .rng import Rng


@dataclass
class TrainConfig:
    input_len: int
    output_len: int
    objective: ObjectiveKind
    batch_size: int = TRAIN["batch_size"].value
    learning_rate: float = TRAIN["learning_rate"].value
    ema_decay: float = TRAIN["ema_decay"].value
    max_epochs: int = TRAIN["max_epochs"].value
    patience: int = TRAIN["patience"].value
    seed: int = TRAIN["seed"].value
    hidden_dim: int = TRAIN["hidden_dim"].value
    eval_network: str = TRAIN["eval_network"].value
    # Diagnostic: replace the target network's risk with this constant, so
    # bound objectives can be driven with a frozen bound.
    frozen_target_risk: float | None = None

    def __post_init__(self):
        if not isinstance(self.objective, ObjectiveKind):
            raise ConfigError("objective must be an ObjectiveKind")
        for key in CONFIG_KEYS:
            key.check(getattr(self, key.name))
        if self.frozen_target_risk is not None and not np.isfinite(self.frozen_target_risk):
            raise ConfigError(f"frozen_target_risk must be finite, got {self.frozen_target_risk!r}")


# TrainConfig's declared keys; its `objective` holds an ObjectiveKind, which checks its own.
CONFIG_KEYS = tuple(TRAIN[f.name] for f in dataclasses.fields(TrainConfig)
                    if f.name in TRAIN and f.name != "objective")


@dataclass
class EpochRecord:
    epoch: int
    train_objective: float
    train_mse: float
    val_mse: float
    test_mse: float
    per_step_test_mse: np.ndarray
    seconds: float


@dataclass
class TrainLog:
    """Per-epoch training history.

    Wall-clock seconds are kept in memory only; the file exports leave them
    out so identical runs write identical bytes.
    """

    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self, path) -> None:
        if not self.records:
            raise ConfigError("empty training log")
        n_steps = len(self.records[0].per_step_test_mse)
        cols = ["epoch", "train_objective", "train_mse", "val_mse", "test_mse"]
        cols += [f"test_mse_step_{j}" for j in range(n_steps)]
        write_rows(path, cols, (
            [r.epoch, r.train_objective, r.train_mse, r.val_mse, r.test_mse, *r.per_step_test_mse]
            for r in self.records
        ))

    def to_jsonl(self, path) -> None:
        with atomic_open(path) as fh:
            for r in self.records:
                rec = {
                    "epoch": r.epoch,
                    "train_objective": r.train_objective,
                    "train_mse": r.train_mse,
                    "val_mse": r.val_mse,
                    "test_mse": r.test_mse,
                    "per_step_test_mse": [float(v) for v in r.per_step_test_mse],
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


@dataclass
class TrainResult:
    """What `train` returns.

    `metrics` holds the (train, validation, test) `MetricRecord`s measured at
    the best epoch, i.e. `evaluate(params, *set)` of each set, bit for bit;
    `log.records[best_epoch]` holds the same MSEs.
    """

    params: ModelParams  # evaluated network at the best-validation epoch
    mirror: EmaMirror  # mirror snapshot at that same epoch
    log: TrainLog
    best_epoch: int
    final_source: ModelParams
    final_mirror: EmaMirror
    metrics: tuple[MetricRecord, MetricRecord, MetricRecord]


def train(config: TrainConfig, train_set, val_set, test_set, init_params: ModelParams | None = None) -> TrainResult:
    """Run the loop; return best-validation parameters, mirror, metrics and log.

    The three stacked (past, future) sets are checked once, by `checked_windows`,
    so the steps skip the public forward and backward's per-call checks.
    """
    for name, window_set in (("train", train_set), ("validation", val_set), ("test", test_set)):
        if not isinstance(window_set, tuple) or len(window_set) != 2:
            raise ConfigError(f"{name} set must be a stacked (past, future) tuple")
    # K is read off the train past; a past that is not (n, L, K) fails the check.
    k = np.shape(train_set[0])[-1:]
    shapes = (config.input_len, *k), (config.output_len, *k)
    train_past, train_future = checked_windows("train", *train_set, *shapes)
    val_past, val_future = checked_windows("validation", *val_set, *shapes)
    test_past, test_future = checked_windows("test", *test_set, *shapes)
    n_features = train_past.shape[2]

    rng = Rng(config.seed)
    if init_params is None:
        params = new_forecaster(
            config.input_len, config.output_len, n_features, config.hidden_dim, rng.split("init")
        )
    else:
        if (init_params.input_shape, init_params.output_shape) != shapes:
            raise ConfigError(
                f"init params map input {init_params.input_shape} to output "
                f"{init_params.output_shape}; config and data need {shapes[0]} to {shapes[1]}"
            )
        params = init_params.copy()
    mirror = ema_init(params, config.ema_decay)
    adam_state = adam_init(params)
    grads = params.with_flat(np.empty_like(params.flat))
    log = TrainLog()

    frozen_risk = None
    if config.frozen_target_risk is not None:
        frozen_risk = RiskMatrix(np.full((config.output_len, n_features), config.frozen_target_risk))
    target_forward = config.objective.needs_target and frozen_risk is None

    best_mirror = EmaMirror(mirror.target.copy(), mirror.decay)
    best_params = params.copy() if config.eval_network == "source" else best_mirror.target
    best_val = np.inf
    best_epoch = 0
    best_metrics = None
    epochs_since_best = 0

    for epoch in range(config.max_epochs):
        started = time.perf_counter()
        order = batch_indices(
            train_past.shape[0], config.batch_size, rng.split("shuffle", epoch), shuffle=True
        )
        objective_sum = 0.0
        sample_sum = 0
        for idx in order:
            n = len(idx)
            x = train_past[idx].reshape(n, -1)
            y = train_future[idx]
            states = _forward_flat(params, x)
            err = states[-1].reshape(y.shape) - y
            risk = _risk(err)
            target_risk = frozen_risk
            if target_forward:
                target_err = _forward_flat(mirror.target, x)[-1].reshape(y.shape)
                target_err -= y
                target_risk = _risk(target_err)
            value, descent = _value_and_descent(config.objective, risk, target_risk)
            if not math.isfinite(value):
                raise NumericError(f"non-finite objective {value!r} at iteration {adam_state.step_count}")
            err *= 2.0
            err /= n * config.output_len * n_features
            if not descent.all():
                err *= _signs(descent)
            _backward_from(params, states, err.reshape(n, -1), grads)
            try:
                adam_step(params, grads.flat, adam_state, config.learning_rate)
            except NumericError as exc:
                raise NumericError(f"{exc} (iteration {adam_state.step_count})") from None
            ema_update(mirror, params)
            objective_sum += value * n
            sample_sum += n

        eval_params = params if config.eval_network == "source" else mirror.target
        train_metrics = evaluate(eval_params, train_past, train_future)
        val_metrics = evaluate(eval_params, val_past, val_future)
        test_metrics = evaluate(eval_params, test_past, test_future)
        metrics = train_metrics, val_metrics, test_metrics
        for name, m in zip(("train", "validation", "test"), metrics):
            if not math.isfinite(m.mse):
                raise NumericError(f"non-finite {name} MSE {m.mse!r} at epoch {epoch}")
        log.records.append(
            EpochRecord(
                epoch=epoch,
                train_objective=objective_sum / sample_sum,
                train_mse=train_metrics.mse,
                val_mse=val_metrics.mse,
                test_mse=test_metrics.mse,
                per_step_test_mse=test_metrics.per_step_mse,
                seconds=time.perf_counter() - started,
            )
        )
        if val_metrics.mse < best_val:
            best_val = val_metrics.mse
            np.copyto(best_params.flat, eval_params.flat)
            if config.eval_network == "source":
                np.copyto(best_mirror.target.flat, mirror.target.flat)
            best_epoch = epoch
            best_metrics = metrics
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    return TrainResult(
        params=best_params,
        mirror=best_mirror,
        log=log,
        best_epoch=best_epoch,
        final_source=params,
        final_mirror=mirror,
        metrics=best_metrics,
    )


SWEEP_PARAMS = ("b", "epsilon", "learning_rate")


@dataclass
class SweepRow:
    param: str
    value: float
    val_mse: float
    test_mse: float
    train_mse: float
    best_epoch: int
    result: TrainResult


def _config_with(config: TrainConfig, param: str, value: float) -> TrainConfig:
    if param == "learning_rate":
        return dataclasses.replace(config, learning_rate=value)
    if param == "b":
        if config.objective.kind not in ("flooding", "constant_flooding"):
            raise ConfigError("sweeping b requires a flooding objective")
        return dataclasses.replace(
            config, objective=ObjectiveKind(config.objective.kind, b=value)
        )
    if param == "epsilon":
        if not config.objective.needs_target:
            raise ConfigError("sweeping epsilon requires a wave objective")
        return dataclasses.replace(
            config, objective=ObjectiveKind(config.objective.kind, epsilon=value)
        )
    raise ConfigError(f"unknown sweep parameter {param!r}; choose from {SWEEP_PARAMS}")


def _sweep_point(job) -> TrainResult:
    """Train one grid point's config on the windows of the three segments its job carries."""
    config, *segments = job
    lengths = config.input_len, config.output_len
    return train(config, *(stack_windows(windowize(s, *lengths)) for s in segments))


def sweep_configs(config: TrainConfig, param: str, values, workers: int = 1) -> list[TrainConfig]:
    """The checked config of every grid value; no data is needed to check a grid.

    Raises ConfigError for an empty grid, a value the config rejects, a
    parameter the objective lacks, or fewer than one worker.
    """
    values = list(values)
    if not values:
        raise ConfigError("sweep grid must be non-empty")
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    return [_config_with(config, param, v) for v in values]


def sweep(
    config: TrainConfig,
    param: str,
    values,
    train_segment: SeriesDataset,
    val_segment: SeriesDataset,
    test_segment: SeriesDataset,
    workers: int = 1,
) -> list[SweepRow]:
    """One full train per grid value, same seed; rows ranked by val MSE.

    Each job is a grid point's config and the three segments that
    `split_and_standardize` returns; `_sweep_point` windows them with that
    config's lengths, in this process for one worker or one job and in a
    process pool of at most one worker per job otherwise, so a pool pickles
    the segments and never their windows.
    """
    values = list(values)
    configs = sweep_configs(config, param, values, workers)
    segments = train_segment, val_segment, test_segment
    if not all(isinstance(s, SeriesDataset) for s in segments):
        raise ConfigError("sweep takes the three SeriesDataset segments of split_and_standardize")
    jobs = [(c, *segments) for c in configs]
    workers = min(workers, len(jobs))  # a pool forks all its workers at the first submit
    if workers == 1:
        results = [_sweep_point(j) for j in jobs]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_point, jobs))
    rows = []
    for value, result in zip(values, results):
        train_metrics, val_metrics, test_metrics = result.metrics
        rows.append(
            SweepRow(
                param=param,
                value=float(value),
                val_mse=val_metrics.mse,
                test_mse=test_metrics.mse,
                train_mse=train_metrics.mse,
                best_epoch=result.best_epoch,
                result=result,
            )
        )
    rows.sort(key=lambda r: r.val_mse)
    return rows
