"""Spans around the calls into wavebound's layers, for the traced run only.

`Tracer.installed()` replaces, for the duration of a `with` block, the names
through which the benchmark, `trainer` and `theorem` call each layer with
wrappers that record one span per call: (parent, name,
start_ns, end_ns, size).  `size` is the work a call did, computed from its
arguments or result: windows, floating-point operations or bytes.  Spans
stay in memory and are written out once, by `write`.  Nothing inside
`src/wavebound` is edited; outside the block the original functions are
back in place, so untraced code runs unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import wavebound.data
import wavebound.rng
import wavebound.theorem
import wavebound.trainer


def _matmul_flops(params) -> int:
    """Multiply-add flops of one forward pass of one window: 2 sum(in*out)."""
    return sum(2 * w.shape[0] * w.shape[1] for w in params.weights)


def _backward_flops(params) -> int:
    """Flops of one window's backward matmuls: dW for every layer, delta for all but the first."""
    dims = [w.shape[0] * w.shape[1] for w in params.weights]
    return 2 * sum(dims) + 2 * sum(dims[1:])


def _param_bytes(params) -> int:
    return sum(t.nbytes for t in params.tensors())


class Tracer:
    """Span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list = []  # index = span id; (parent, name, t0, t1, size)
        self._stack: list[int] = []
        self._target = None  # parameters of the current EMA target network

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _record(self, name, fn, args, kwargs, size):
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (parent, name, t0, t1, 0)
        if size is not None:
            self.spans[sid] = (parent, name, t0, t1, size(args, result))
        return result

    def _wrap(self, name, fn, size=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, args, kwargs, size)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one timed round."""
        sid, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid] = (parent, name, t0, time.perf_counter_ns(), 0)

    def _forward(self, fn):
        def size(args, result):
            return args[1].shape[0] * _matmul_flops(args[0])

        source = self._wrap("nn.forward", fn, size)
        target = self._wrap("nn.target_forward", fn, size)

        @functools.wraps(fn)
        def wrapper(params, inputs):
            return (target if params is self._target else source)(params, inputs)

        return wrapper

    def _mirror(self, name, fn, size=None):
        inner = self._wrap(name, fn, size)

        @functools.wraps(fn)
        def wrapper(*args):
            mirror = inner(*args)
            self._target = mirror.target
            return mirror

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        tr, th, da = wavebound.trainer, wavebound.theorem, wavebound.data
        plan = [
            (da, "load_csv", self._wrap("data.load_csv", da.load_csv)),
            (da, "split_and_standardize",
             self._wrap("data.split_standardize", da.split_and_standardize)),
            (da, "windowize", self._wrap("data.windowize", da.windowize, lambda a, r: len(r))),
            (da, "stack_windows", self._wrap("data.stack_windows", da.stack_windows)),
            (tr, "train", self._wrap("trainer.train", tr.train)),
            (tr, "batch_indices", self._wrap("data.batch_indices", tr.batch_indices)),
            (tr, "mlp_forward_batch", self._forward(tr.mlp_forward_batch)),
            (tr, "mlp_backward_batch", self._wrap(
                "nn.backward", tr.mlp_backward_batch,
                lambda a, r: a[1].shape[0] * _backward_flops(a[0]))),
            (tr, "per_element_risk", self._wrap("objectives.risk", tr.per_element_risk)),
            (tr, "objective_value", self._wrap("objectives.value", tr.objective_value)),
            (tr, "objective_mask", self._wrap("objectives.mask", tr.objective_mask)),
            (tr, "adam_init", self._wrap("adam.init", tr.adam_init)),
            # Compulsory traffic of one step: read p, g, m, v; write p, m, v.
            (tr, "adam_step", self._wrap(
                "adam.step", tr.adam_step, lambda a, r: 7 * _param_bytes(a[0]))),
            (tr, "ema_init", self._mirror("ema.init", tr.ema_init)),
            # Compulsory traffic of one update: read target and source; write target.
            (tr, "ema_update", self._mirror(
                "ema.update", tr.ema_update, lambda a, r: 3 * _param_bytes(a[1]))),
            (tr, "evaluate", self._wrap(
                "evaluation.evaluate", tr.evaluate, lambda a, r: a[1].shape[0])),
            (th, "run_full_oracle", self._wrap("theorem.run_full_oracle", th.run_full_oracle)),
            (th, "run_estimator_experiment",
             self._wrap("theorem.estimator", th.run_estimator_experiment)),
            (th, "sample", self._wrap("theorem.sample", th.sample)),
            (th, "wave_elementwise",
             self._wrap("objectives.wave_elementwise", th.wave_elementwise)),
            (wavebound.rng.Rng, "split", self._wrap("rng.split", wavebound.rng.Rng.split)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan]
        try:
            for owner, attr, wrapper in plan:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)
            self._target = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns,size\n")
            for sid, (parent, name, t0, t1, size) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{t0},{t1},{size}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer figures from a span list, keyed by per-layer metric name.

    Data figures are medians over the "setup" spans the benchmark opened;
    everything else comes from spans under its "round" spans.  Per-step
    figures divide by the optimizer steps (backward calls) and counts are
    per round.  A layer that was never called reads 0.
    """
    root = [0] * len(spans)
    child_ns = [0] * len(spans)
    dur, calls, size = {}, {}, {}
    per_setup: dict[int, dict[str, int]] = {}
    rounds = 0
    for sid, (parent, name, t0, t1, work) in enumerate(spans):
        root[sid] = sid if parent < 0 else root[parent]
        if parent >= 0:
            child_ns[parent] += t1 - t0
        scope = spans[root[sid]][1]
        if scope == "setup":
            group = per_setup.setdefault(root[sid], {})
            group[name] = group.get(name, 0) + t1 - t0
            group["windows"] = group.get("windows", 0) + (work if name == "data.windowize" else 0)
        elif scope == "round":
            rounds += parent < 0
            dur[name] = dur.get(name, 0) + t1 - t0
            calls[name] = calls.get(name, 0) + 1
            size[name] = size.get(name, 0) + work

    def total(name):
        return dur.get(name, 0)

    def mean_per_call(name, scale):
        return _ratio(total(name) * scale, calls.get(name, 0))

    def setup_median(key, scale=1e-9):
        if not per_setup:
            return 0.0
        return statistics.median(g.get(key, 0) for g in per_setup.values()) * scale

    def self_ns(name):
        return sum(
            t1 - t0 - child_ns[sid]
            for sid, (_, n, t0, t1, _) in enumerate(spans)
            if n == name and spans[root[sid]][1] == "round"
        )

    steps = calls.get("nn.backward", 0)
    epochs = calls.get("evaluation.evaluate", 0) / 3  # train, validation, test
    nn_names = ("nn.forward", "nn.target_forward", "nn.backward")
    ms = 1e-6
    return {
        "data.load_csv_s": setup_median("data.load_csv"),
        "data.split_standardize_s": setup_median("data.split_standardize"),
        "data.windowize_s": setup_median("data.windowize"),
        "data.stack_windows_s": setup_median("data.stack_windows"),
        "data.windows": setup_median("windows", scale=1),
        "nn.forward_ms_per_step": _ratio(total("nn.forward") * ms, steps),
        "nn.target_forward_ms_per_step": _ratio(total("nn.target_forward") * ms, steps),
        "nn.backward_ms_per_step": _ratio(total("nn.backward") * ms, steps),
        # flops per nanosecond = GFLOP/s
        "nn.gflop_per_s": _ratio(
            sum(size.get(n, 0) for n in nn_names), sum(total(n) for n in nn_names)
        ),
        "objectives.risk_ms_per_step": _ratio(total("objectives.risk") * ms, steps),
        "objectives.mask_ms_per_step": _ratio(
            (total("objectives.value") + total("objectives.mask")) * ms, steps
        ),
        "adam.step_ms": mean_per_call("adam.step", ms),
        "adam.gb_per_s": _ratio(size.get("adam.step", 0), total("adam.step")),
        "ema.update_ms": mean_per_call("ema.update", ms),
        "ema.gb_per_s": _ratio(size.get("ema.update", 0), total("ema.update")),
        "evaluation.ms_per_epoch": _ratio(total("evaluation.evaluate") * ms, epochs),
        "evaluation.windows_per_s": _ratio(
            size.get("evaluation.evaluate", 0) * 1e9, total("evaluation.evaluate")
        ),
        "trainer.self_ms_per_step": _ratio(self_ns("trainer.train") * ms, steps),
        "trainer.steps": _ratio(steps, rounds),
        "theorem.estimator_s": mean_per_call("theorem.estimator", 1e-9),
        # run_full_oracle minus its estimator child: the Jensen audits.
        "theorem.jensen_s": _ratio(
            (total("theorem.run_full_oracle") - total("theorem.estimator")) * 1e-9,
            calls.get("theorem.run_full_oracle", 0),
        ),
        "theorem.sample_us": mean_per_call("theorem.sample", 1e-3),
        "objectives.wave_elementwise_us": mean_per_call("objectives.wave_elementwise", 1e-3),
        "rng.split_us": mean_per_call("rng.split", 1e-3),
        "rng.split_calls": _ratio(calls.get("rng.split", 0), rounds),
    }
