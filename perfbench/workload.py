"""Run one benchmark workload in this process and print its result.

Start it through `perfbench/run.py`, which pins the BLAS and OpenMP pools to
one thread before this process imports numpy.  A run makes its inputs from
`--seed`, checks them, runs one warm-up round and then whole rounds until
`--seconds` have passed, checking every round's outputs.  Timed set-up
passes are spread among the rounds.  Every round and set-up pass is timed
by a `hostspeed.Clock`, which rates it against the host's speed of the
moment.  With `--trace 1` it alternates untraced and traced rounds and
reports per-layer figures from the traced ones instead.
"""

import os
import sys

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if any(os.environ.get(var) != "1" for var in PINNED):
    sys.exit("perfbench/workload.py: start it through perfbench/run.py, which pins BLAS threads")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import wavebound  # noqa: E402
from wavebound import data, theorem, trainer  # noqa: E402
from wavebound.nn import ModelParams  # noqa: E402
from wavebound.objectives import ObjectiveKind  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"

# Tolerances of the output checks.
PARAM_ATOL = 1e-9  # trained parameters vs the numpy re-implementation (entries ~0.1)
MSE_RTOL = 1e-9  # reported MSE vs an independent forward
WINDOW_ATOL = 1e-12  # standardised windows vs sliding_window_view (entries ~1)


class Ops:
    """Attempted and failed operations: input checks and checked rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, checks: list[tuple[str, bool, str]]) -> None:
        """One operation; it fails if any of its (name, ok, detail) checks fails."""
        self.attempted += 1
        bad = [f"{check}: {detail}" for check, ok, detail in checks if not ok]
        if bad:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(bad))


def _layers(params: ModelParams):
    return list(zip(params.weights, params.biases))


def _model(layers, input_len: int, output_len: int, k: int) -> ModelParams:
    return ModelParams(
        weights=[w for w, _ in layers],
        biases=[b for _, b in layers],
        activations=("tanh", "tanh", "identity"),
        input_shape=(input_len, k),
        output_shape=(output_len, k),
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """Defaults shared by the workloads."""

    setup_calls = 1  # `setup` calls per timed set-up pass
    setup_every = 1  # rounds between set-up passes

    def probe(self):
        """The `hostspeed` probe that rates the host for this workload."""
        raise NotImplementedError

    def check_inputs(self, inputs, ops: Ops) -> None:
        pass

    def cleanup(self) -> None:
        pass


class TrainWorkload(Workload):
    """A training run with early stopping off; one round = one `train` epoch."""

    input_len = output_len = 96
    k = 1
    epochs = 1
    batch_size = 32
    ema_decay = 0.99

    def __init__(self, seed: int):
        self.seed = seed
        dims = [self.input_len * self.k, self.hidden, self.hidden, self.output_len * self.k]
        self.init_layers = reference.init_params(seed, dims)
        self.init = _model(self.init_layers, self.input_len, self.output_len, self.k)

    def config(self, epochs: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(
            input_len=self.input_len,
            output_len=self.output_len,
            objective=self.objective,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            ema_decay=self.ema_decay,
            max_epochs=epochs,
            patience=epochs,
            seed=self.seed,
            hidden_dim=self.hidden,
            eval_network=self.eval_network,
        )

    def windows(self, dataset):
        segments = data.split_and_standardize(dataset, data.SplitSpec.parse("6:2:2"))
        return tuple(
            data.stack_windows(data.windowize(s, self.input_len, self.output_len))
            for s in segments
        )

    def round(self, sets):
        return trainer.train(self.config(self.epochs), *sets, init_params=self.init)

    def check_round(self, sets, result, first):
        (_, _), (val_past, val_future), (test_past, test_future) = sets
        record = result.log.records[result.best_epoch]
        layers = _layers(result.params)
        val = reference.mse(layers, val_past, val_future)
        test = reference.mse(layers, test_past, test_future)
        untrained = reference.mse(self.init_layers, test_past, test_future)
        last, ref = result.log.records[-1], first.log.records[-1]
        return [
            ("reported MSE",
             _rel(record.val_mse, val) <= MSE_RTOL and _rel(record.test_mse, test) <= MSE_RTOL,
             f"val {record.val_mse!r} vs {val!r}, test {record.test_mse!r} vs {test!r}"),
            ("beats untrained", test < untrained, f"test MSE {test!r} vs {untrained!r}"),
            ("reproducible",
             (last.train_objective, last.test_mse) == (ref.train_objective, ref.test_mse),
             "a rerun of the same round differs"),
        ]

    def throughput(self, sets, seconds: float) -> dict[str, float]:
        n = sets[0][0].shape[0]
        return {
            "samples_per_s": self.epochs * n / seconds,
            "trials_per_s": self.epochs * math.ceil(n / self.batch_size) / seconds,
        }


class C5Wave(TrainWorkload):
    """Acceptance-criterion-5 shape: synth 2000 rows, hidden 256, wave_indiv."""

    hidden = 256
    learning_rate = 1e-3
    objective = ObjectiveKind.wave_indiv(0.01)
    eval_network = "target"

    def probe(self):
        # One step and its share of the evaluation: 1 427 windows / 32 steps.
        return hostspeed.train_probe(self.hidden, 1, 45, self.objective.epsilon)

    def setup(self):
        return self.windows(data.synth_series(2000, 0.5, self.seed))

    def check_inputs(self, sets, ops: Ops) -> None:
        """One epoch of `train` vs the numpy re-implementation of its step."""
        result = trainer.train(self.config(1), *sets, init_params=self.init)
        past, future = sets[0]
        order = data.batch_indices(
            past.shape[0], self.batch_size, wavebound.Rng(self.seed).split("shuffle", 0),
            shuffle=True,
        )
        src, tgt = reference.train_epoch(
            self.init_layers, past, future, order,
            self.learning_rate, self.ema_decay, self.objective.epsilon,
        )
        checks = []
        for name, got, want in (
            ("source", result.final_source, src),
            ("target", result.final_mirror.target, tgt),
        ):
            diff = max(
                float(np.max(np.abs(g - w)))
                for g, w in zip(got.tensors(), [p for pair in want for p in pair])
            )
            checks.append((name, diff <= PARAM_ATOL, f"max abs difference {diff:.3e}"))
        ops.record("first epoch vs numpy re-implementation", checks)


class CsvPlain(TrainWorkload):
    """`wavebound train` on a long ETT-shaped CSV, plain objective, hidden 64."""

    hidden = 64
    learning_rate = 1e-4
    objective = ObjectiveKind.plain()
    eval_network = "source"
    setup_every = 3  # a pass takes most of a round

    def probe(self):
        # Seven steps and their share of the evaluation: 69 427 windows / 1 307 steps.
        return hostspeed.train_probe(self.hidden, 7, 372)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.values = reference.csv_values(seed)
        self.path = OUT / f"ett-{seed}.csv"
        self.names = reference.write_csv(self.path, self.values)

    def setup(self):
        return self.windows(data.select_feature(data.load_csv(self.path)))

    def check_inputs(self, sets, ops: Ops) -> None:
        loaded = data.load_csv(self.path)
        exact = np.array_equal(loaded.values, self.values) and loaded.feature_names == self.names
        ops.record("load_csv", [("returns the written array", exact, "values or names differ")])
        want = reference.reference_windows(
            self.values[:, -1:], self.input_len, self.output_len
        )
        a, b = reference.split_bounds(self.values.shape[0])
        lengths = (a, b - a, self.values.shape[0] - b)
        for name, (past, future), (ref_past, ref_future), length in zip(
            ("train", "validation", "test"), sets, want, lengths
        ):
            count = length - self.input_len - self.output_len + 1
            shapes = past.shape == ref_past.shape == (count, self.input_len, 1) and (
                future.shape == ref_future.shape
            )
            ok = shapes and max(
                float(np.max(np.abs(past - ref_past))), float(np.max(np.abs(future - ref_future)))
            ) <= WINDOW_ATOL
            ops.record(f"{name} windows", [(
                "sliding_window_view", ok,
                f"{past.shape[0]} windows (want {count}) or values off by > {WINDOW_ATOL}",
            )])

    def cleanup(self) -> None:
        self.path.unlink(missing_ok=True)


class OracleC4(Workload):
    """Criterion-4 oracle, `run_full_oracle(..., jensen_draws=10)`.

    The 20 000-trial oracle runs once per run, untimed, and must show every
    criterion-4 property.  Timed rounds run the same oracle at 2 000 trials
    (≈0.2 s), so that a run holds about a hundred rounds, each rated by
    probes that ran within a second of it (see README).
    """

    setup_calls = 200  # one construction takes tens of microseconds
    full_trials = 20000
    round_trials = 2000

    def __init__(self, seed: int):
        self.seed = seed

    def probe(self):
        return hostspeed.oracle_probe(75)

    def setup(self):
        return theorem.reference_instance(trials=self.round_trials, seed=self.seed)

    def round(self, instance):
        return theorem.run_full_oracle(instance, jensen_draws=10)

    def check_inputs(self, instance, ops: Ops) -> None:
        full = theorem.reference_instance(trials=self.full_trials, seed=self.seed)
        report = theorem.run_full_oracle(full, jensen_draws=10)
        ops.record(f"{self.full_trials}-trial oracle", self._checks(full, report) + [
            ("mse_diff above 3 se", report.mse_diff > 3 * report.se_mse_diff,
             f"{report.mse_diff:.3e} (se {report.se_mse_diff:.2e})"),
            ("bound_slack above 3 se", report.bound_slack > 3 * report.se_bound_slack,
             f"{report.bound_slack:.3e} (se {report.se_bound_slack:.2e})"),
        ])

    def check_round(self, instance, report, first):
        return self._checks(instance, report) + [
            ("reproducible", report.to_dict() == first.to_dict(), "a rerun differs"),
        ]

    @staticmethod
    def _checks(instance, report):
        pop = instance.population
        variance = ((instance.g - pop.true_map) * pop.input_std) ** 2 + pop.noise_std**2
        mean, sd = reference.plain_risk_moments(
            float(variance.flat[0]), instance.n_samples * variance.size
        )
        se = sd / math.sqrt(instance.trials)
        return [
            ("uniform error variance", bool(np.all(variance == variance.flat[0])), ""),
            ("mse_plain within 4 se of closed form",
             abs(report.mse_plain - mean) <= 4 * se,
             f"{report.mse_plain:.6e} vs {mean:.6e} (se {se:.2e})"),
            ("condition (b) violations <= 1%", report.condition_b_violation_rate <= 0.01,
             f"{report.condition_b_violation_rate:.4%}"),
            ("no Jensen violations", report.jensen_violations == 0,
             f"{report.jensen_violations}"),
            ("trials", report.trials == instance.trials, f"{report.trials}"),
        ]

    def throughput(self, instance, seconds: float) -> dict[str, float]:
        return {
            "trials_per_s": self.round_trials / seconds,
            "samples_per_s": self.round_trials * instance.n_samples / seconds,
        }


WORKLOADS = {"train_c5_wave": C5Wave, "train_csv_plain": CsvPlain, "oracle_c4": OracleC4}

def metric_units(section: str) -> dict[str, str]:
    """Metric names and units of one section of BENCHMARK.json."""
    with open(OUT.parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def host_record() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    blas = {}
    with contextlib.suppress(TypeError, KeyError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads_env": {var: os.environ[var] for var in PINNED},
    }


def traced(tracer, name: str, fn):
    """fn, run in a span `name` with the layer wrappers installed when tracing.

    The wrappers stay out of the `Clock`'s probes, which run after fn returns.
    """
    if tracer is None:
        return fn

    def call(*args):
        with tracer.installed(), tracer.span(name):
            return fn(*args)

    return call


def timed_round(clock, workload, inputs, tracer=None):
    return clock.time(traced(tracer, "round", workload.round), inputs)


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list[str]]:
    """Set up, check and time one workload; return (result, raw times, failures)."""
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None
    ops = Ops()
    setup_units = []

    def setup_pass():
        for _ in range(workload.setup_calls):
            inputs = workload.setup()
        return inputs

    def set_up():
        inputs, unit = clock.time(traced(tracer, "setup", setup_pass))
        setup_units.append(unit)
        return inputs

    clock = hostspeed.Clock(workload.probe())
    try:
        inputs = set_up()
        workload.check_inputs(inputs, ops)
        first, _ = timed_round(clock, workload, inputs)  # warm-up, not reported
        ops.record("warm-up round", workload.check_round(inputs, first, first))
        round_units, traced_units = [], []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            for out, tr in [(round_units, None)] + ([(traced_units, tracer)] if trace else []):
                tag = f"round {ops.attempted}"
                try:
                    result, unit = timed_round(clock, workload, inputs, tr)
                except wavebound.WaveboundError as exc:
                    ops.record(tag, [("raised", False, f"{type(exc).__name__}: {exc}")])
                    continue
                ops.record(tag, workload.check_round(inputs, result, first))
                out.append(unit)
            # Set-up passes are spread over the run, like the rounds.
            if len(round_units) % workload.setup_every == 0:
                inputs = None  # release the old inputs first: peak memory stays one set
                inputs = set_up()
    finally:
        workload.cleanup()

    rounds = [clock.nominal(u) for u in round_units]
    traced_rounds = [clock.nominal(u) for u in traced_units]
    setup_times = [clock.nominal(u) / workload.setup_calls for u in setup_units]
    info = {
        "nominal_round_s": rounds, "nominal_traced_round_s": traced_rounds,
        "nominal_setup_s": setup_times,
        "round_units": round_units, "traced_units": traced_units, "setup_units": setup_units,
        "units": clock.units, "probes": clock.probes,
        "probe_median_s": statistics.median(seconds for _, seconds in clock.probes),
    }
    if not rounds or (trace and not traced_rounds):
        metrics = {}
    elif trace:
        metrics = tracing.layer_metrics(tracer.spans)
        plain, with_spans = statistics.median(rounds), statistics.median(traced_rounds)
        metrics["trace.overhead_s"] = with_spans - plain
        metrics["trace.overhead_pct"] = 100.0 * (with_spans - plain) / plain
        tracer.write(OUT / f"{name}-spans.csv")
        info["spans"] = len(tracer.spans)
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        metrics.update(workload.throughput(inputs, statistics.median(rounds)))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = metric_units("per_layer" if trace else "end_to_end")
    return {
        "correct": ops.failed == 0 and set(metrics) == set(units),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items() if k in metrics},
    }, info, ops.failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    host = host_record()
    result, info, failures = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("runs " + json.dumps({k: len(v) for k, v in info.items() if isinstance(v, list)}))
    print(f"probe median {info['probe_median_s'] * 1e3:.3f} ms "
          f"(nominal {hostspeed.NOMINAL_S * 1e3:g} ms)")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"operations attempted {result['attempted']} failed {result['failed']}")
    for line in failures:
        print(f"FAILED {line}")
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed, "host": host, "runs": info,
             "failures": failures, "result": result},
            fh, indent=2, sort_keys=True,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
