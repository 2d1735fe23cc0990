import dataclasses
import pickle

import numpy as np
import pytest

import wavebound.trainer as trainer_module
from wavebound import (
    ConfigError,
    DataError,
    NumericError,
    ObjectiveKind,
    Rng,
    SeriesDataset,
    SplitSpec,
    TrainConfig,
    evaluate,
    split_and_standardize,
    stack_windows,
    sweep,
    train,
    windowize,
)
from wavebound.evaluation import CHUNK

L, M, K = 6, 3, 1


def make_sets(seed=0):
    rng = Rng(seed)

    def mk(n):
        past = rng.normal(size=(n, L, K))
        future = past[:, :M, :] * 0.5 + 0.1 * rng.normal(size=(n, M, K))
        return past, future

    return mk(24), mk(8), mk(8)


SETS = make_sets()


def make_config(objective, **kw):
    base = dict(
        input_len=L,
        output_len=M,
        objective=objective,
        batch_size=8,
        learning_rate=1e-3,
        ema_decay=0.9,
        max_epochs=3,
        patience=10,
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def assert_same_trajectory(r1, r2):
    for a, b in zip(r1.final_source.tensors(), r2.final_source.tensors()):
        assert np.array_equal(a, b)
    for a, b in zip(r1.final_mirror.target.tensors(), r2.final_mirror.target.tensors()):
        assert np.array_equal(a, b)
    for ra, rb in zip(r1.log.records, r2.log.records):
        assert ra.train_objective == rb.train_objective
        assert ra.val_mse == rb.val_mse


class TestConfigValidation:
    def test_bad_values_rejected(self):
        plain = ObjectiveKind.plain()
        with pytest.raises(ConfigError):
            make_config(plain, batch_size=0)
        with pytest.raises(ConfigError):
            make_config(plain, learning_rate=-1e-4)
        with pytest.raises(ConfigError):
            make_config(plain, patience=0)
        with pytest.raises(ConfigError):
            make_config(plain, max_epochs=0)
        with pytest.raises(ConfigError):
            make_config(plain, eval_network="both")
        with pytest.raises(ConfigError):
            make_config("plain")

    def test_zero_learning_rate_allowed(self):
        make_config(ObjectiveKind.plain(), learning_rate=0.0)

    @pytest.mark.parametrize("risk", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_frozen_target_risk_rejected(self, risk):
        # a config error, not "non-finite objective" at iteration 0
        with pytest.raises(ConfigError, match="frozen_target_risk must be finite"):
            make_config(ObjectiveKind.wave_indiv(0.01), frozen_target_risk=risk)

    @pytest.mark.parametrize("decay", [-0.1, 1.5, float("nan")])
    def test_ema_decay_outside_unit_interval_rejected(self, decay):
        with pytest.raises(ConfigError, match=r"^ema_decay must lie in \[0, 1\], got "):
            make_config(ObjectiveKind.plain(), ema_decay=decay)

    @pytest.mark.parametrize("decay", [0.0, 1.0])
    def test_ema_decay_at_either_end_allowed(self, decay):
        make_config(ObjectiveKind.plain(), ema_decay=decay)

    def test_negative_frozen_target_risk_allowed(self):
        # bounds may be negative (objectives.py), so a negative frozen risk is legal
        make_config(ObjectiveKind.wave_indiv(0.01), frozen_target_risk=-0.5)

    def test_empty_validation_set_rejected(self):
        cfg = make_config(ObjectiveKind.plain())
        empty = (np.zeros((0, L, K)), np.zeros((0, M, K)))
        with pytest.raises(DataError, match="validation set is empty"):
            train(cfg, SETS[0], empty, SETS[2])

    def test_window_length_mismatch_rejected(self):
        cfg = make_config(ObjectiveKind.plain(), input_len=L + 1)
        with pytest.raises(ConfigError, match="window lengths"):
            train(cfg, *SETS)

    @pytest.mark.parametrize("part", [0, 1])  # past, future
    @pytest.mark.parametrize("index,name", [(0, "train"), (1, "validation"), (2, "test")])
    def test_non_finite_window_rejected_before_the_first_step(self, index, name, part, monkeypatch):
        # Unchecked, a NaN future window would surface mid-run as a NumericError.
        sets = [tuple(a.copy() for a in s) for s in SETS]
        sets[index][part][-1, 0, 0] = np.nan
        monkeypatch.setattr(trainer_module, "_forward_flat", None)  # no step may run
        with pytest.raises(ConfigError, match=f"^{name} set contains non-finite values$"):
            train(make_config(ObjectiveKind.wave_indiv(0.01)), *sets)

    def test_future_of_another_feature_count_rejected_before_the_first_step(self, monkeypatch):
        # Unchecked, the step's reshape of the K=1 prediction raised a bare ValueError.
        past, future = SETS[0]
        sets = [(past, np.concatenate([future, future], axis=2)), SETS[1], SETS[2]]
        monkeypatch.setattr(trainer_module, "_forward_flat", None)  # no step may run
        with pytest.raises(ConfigError, match=r"^train set .*\(6, 1\)/\(3, 2\) do not match \(6, 1\)/\(3, 1\)$"):
            train(make_config(ObjectiveKind.plain()), *sets)

    def test_validation_set_of_another_feature_count_rejected_before_the_first_step(self, monkeypatch):
        # Unchecked, it was rejected by `evaluate` only after a whole epoch.
        sets = [SETS[0], tuple(np.concatenate([a, a], axis=2) for a in SETS[1]), SETS[2]]
        monkeypatch.setattr(trainer_module, "_forward_flat", None)  # no step may run
        with pytest.raises(ConfigError, match=r"^validation set .*\(6, 2\)/\(3, 2\) do not match \(6, 1\)/\(3, 1\)$"):
            train(make_config(ObjectiveKind.plain()), *sets)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_epoch_mse_is_numeric_error(self):
        # One step per epoch, so the objective stays finite and only the
        # evaluation sees the overflow; unchecked, the untrained network was
        # returned as the best epoch.
        sets = [tuple(a[:8] for a in SETS[0]), SETS[1], SETS[2]]
        cfg = make_config(
            ObjectiveKind.plain(), hidden_dim=4, learning_rate=1e300, max_epochs=1, eval_network="source"
        )
        with pytest.raises(NumericError, match=r"^non-finite train MSE inf at epoch 0$"):
            train(cfg, *sets)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            train(make_config(ObjectiveKind.plain(), seed=-1), *SETS)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integral_seed_rejected_by_the_config(self, seed):
        with pytest.raises(ConfigError, match=f"seed must be a non-negative integer, got {seed}"):
            make_config(ObjectiveKind.plain(), seed=seed)


class TestTrajectoryIdentities:
    def test_zero_learning_rate_freezes_params(self):
        cfg = make_config(ObjectiveKind.plain(), learning_rate=0.0, eval_network="source")
        init = trainer_module.new_forecaster(L, M, K, cfg.hidden_dim, Rng(5))
        result = train(cfg, *SETS, init_params=init)
        for a, b in zip(result.final_source.tensors(), init.tensors()):
            assert np.array_equal(a, b)

    def test_flood_level_zero_equals_plain(self):
        r_plain = train(make_config(ObjectiveKind.plain()), *SETS)
        r_flood = train(make_config(ObjectiveKind.flooding(0.0)), *SETS)
        assert_same_trajectory(r_plain, r_flood)

    def test_infinite_epsilon_wave_equals_plain(self):
        r_plain = train(make_config(ObjectiveKind.plain()), *SETS)
        r_wave = train(make_config(ObjectiveKind.wave_indiv(np.inf)), *SETS)
        assert_same_trajectory(r_plain, r_wave)

    def test_frozen_wave_bound_equals_constant_flooding(self):
        b, eps = 0.25, 0.0625  # dyadic so (b + eps) - eps == b bitwise
        r_wave = train(
            make_config(ObjectiveKind.wave_indiv(eps), frozen_target_risk=b + eps), *SETS
        )
        r_flood = train(make_config(ObjectiveKind.constant_flooding(b)), *SETS)
        assert_same_trajectory(r_wave, r_flood)

    def test_mirror_with_zero_decay_tracks_source(self):
        cfg = make_config(ObjectiveKind.plain(), ema_decay=0.0)
        result = train(cfg, *SETS)
        for a, b in zip(result.final_mirror.target.tensors(), result.final_source.tensors()):
            assert np.array_equal(a, b)


class TestLoopMechanics:
    def test_optimizer_step_precedes_mirror_update(self, monkeypatch):
        calls = []
        real_adam = trainer_module.adam_step
        real_ema = trainer_module.ema_update

        def spy_adam(params, grads, state, lr, **kw):
            new_params, new_state = real_adam(params, grads, state, lr, **kw)
            calls.append(("adam", new_params))
            return new_params, new_state

        def spy_ema(mirror, source):
            calls.append(("ema", source))
            return real_ema(mirror, source)

        monkeypatch.setattr(trainer_module, "adam_step", spy_adam)
        monkeypatch.setattr(trainer_module, "ema_update", spy_ema)
        cfg = make_config(ObjectiveKind.wave_indiv(0.01), max_epochs=1)
        train(cfg, *SETS)
        assert len(calls) == 2 * 3  # 24 windows / batch 8, one adam+ema pair each
        assert [k for k, _ in calls] == ["adam", "ema"] * 3
        for (_, stepped), (_, folded) in zip(calls[0::2], calls[1::2]):
            assert folded is stepped  # mirror folds in the freshly stepped params

    @pytest.mark.parametrize("objective,per_step", [
        (ObjectiveKind.plain(), 1), (ObjectiveKind.wave_indiv(0.01), 2),
    ])
    def test_one_source_forward_per_step(self, objective, per_step, monkeypatch):
        # The backward reuses the source forward's hidden states; only the
        # wave objectives add a target forward.  The checked public
        # wrappers are not called at all.
        sources, targets, mirror_targets = [], [], []
        real_forward = trainer_module._forward_flat

        def spy_forward(params, flat):
            (targets if any(params is t for t in mirror_targets) else sources).append(params)
            return real_forward(params, flat)

        def spy_mirror(real):
            def spy(*args):
                mirror = real(*args)
                mirror_targets.append(mirror.target)
                return mirror

            return spy

        def refuse(*args):
            raise AssertionError("train() called a checked public wrapper")

        monkeypatch.setattr(trainer_module, "_forward_flat", spy_forward)
        for name in ("ema_init", "ema_update"):
            monkeypatch.setattr(trainer_module, name, spy_mirror(getattr(trainer_module, name)))
        monkeypatch.setattr(trainer_module, "mlp_forward_batch", refuse)
        monkeypatch.setattr(trainer_module, "mlp_backward_batch", refuse)
        train(make_config(objective, max_epochs=2), *SETS)
        steps = 2 * 3  # 2 epochs of 24 windows / batch 8
        assert len(sources) == steps
        assert len(targets) == (per_step - 1) * steps

    def test_same_seed_same_log(self):
        cfg = make_config(ObjectiveKind.wave_indiv(0.01))
        r1 = train(cfg, *SETS)
        r2 = train(cfg, *SETS)
        assert_same_trajectory(r1, r2)
        for a, b in zip(r1.log.records, r2.log.records):
            assert (a.epoch, a.train_mse, a.test_mse) == (b.epoch, b.train_mse, b.test_mse)
            assert np.array_equal(a.per_step_test_mse, b.per_step_test_mse)

    def test_different_seed_different_trajectory(self):
        r1 = train(make_config(ObjectiveKind.plain(), seed=1), *SETS)
        r2 = train(make_config(ObjectiveKind.plain(), seed=2), *SETS)
        assert not np.array_equal(
            r1.final_source.weights[0], r2.final_source.weights[0]
        )

    def test_window_list_input_rejected(self):
        windows = windowize(SeriesDataset(Rng(8).normal(size=(30, 1)), ["x"]), L, M)
        with pytest.raises(ConfigError, match=r"stacked \(past, future\) tuple"):
            train(make_config(ObjectiveKind.plain()), windows, SETS[1], SETS[2])

    def test_eval_network_changes_metrics_not_trajectory(self):
        r_src = train(make_config(ObjectiveKind.plain(), eval_network="source"), *SETS)
        r_tgt = train(make_config(ObjectiveKind.plain(), eval_network="target"), *SETS)
        for a, b in zip(r_src.final_source.tensors(), r_tgt.final_source.tensors()):
            assert np.array_equal(a, b)
        # decay 0.9 leaves the mirror lagging, so logged metrics differ
        assert r_src.log.records[0].val_mse != r_tgt.log.records[0].val_mse


class TestEarlyStopping:
    def test_flat_validation_stops_after_patience(self):
        cfg = make_config(
            ObjectiveKind.plain(),
            learning_rate=0.0,
            max_epochs=10,
            patience=2,
            eval_network="source",
        )
        result = train(cfg, *SETS)
        # epoch 0 sets the best; two non-improving epochs then stop
        assert len(result.log.records) == 3
        assert result.best_epoch == 0

    def test_patient_run_reaches_max_epochs(self):
        cfg = make_config(ObjectiveKind.plain(), max_epochs=3, patience=10)
        result = train(cfg, *SETS)
        assert len(result.log.records) == 3

    def test_best_epoch_minimizes_validation(self):
        result = train(make_config(ObjectiveKind.plain(), max_epochs=5), *SETS)
        vals = [r.val_mse for r in result.log.records]
        assert result.log.records[result.best_epoch].val_mse == min(vals)

    def test_returned_params_come_from_best_epoch(self):
        cfg = make_config(ObjectiveKind.plain(), max_epochs=5, eval_network="source")
        result = train(cfg, *SETS)
        val_past, val_future = SETS[1]
        got = evaluate(result.params, val_past, val_future).mse
        assert got == result.log.records[result.best_epoch].val_mse


# Runs whose best epoch is neither the first nor the last.
BEST_EPOCH_INSIDE = pytest.mark.parametrize("eval_network,objective,lr,epochs", [
    ("source", ObjectiveKind.plain(), 0.1, 6),
    ("target", ObjectiveKind.wave_indiv(0.01), 0.03, 5),
])


class TestBestEpochSnapshot:
    @BEST_EPOCH_INSIDE
    def test_snapshot_is_the_state_of_a_run_stopped_at_the_best_epoch(
        self, eval_network, objective, lr, epochs
    ):
        # Adam and EMA update in place, so the snapshot must be a copy that
        # later epochs leave alone.
        cfg = make_config(
            objective, learning_rate=lr, max_epochs=epochs, eval_network=eval_network
        )
        result = train(cfg, *SETS)
        assert 0 < result.best_epoch < len(result.log.records) - 1
        stopped = train(dataclasses.replace(cfg, max_epochs=result.best_epoch + 1), *SETS)
        evaluated = stopped.final_source if eval_network == "source" else stopped.final_mirror.target
        assert result.params.flat.tobytes() == evaluated.flat.tobytes()
        assert result.mirror.target.flat.tobytes() == stopped.final_mirror.target.flat.tobytes()
        assert (result.params is result.mirror.target) == (eval_network == "target")
        assert result.final_source.flat.tobytes() != stopped.final_source.flat.tobytes()

    @BEST_EPOCH_INSIDE
    def test_metrics_are_the_evaluation_of_the_returned_params(self, eval_network, objective, lr, epochs):
        cfg = make_config(
            objective, learning_rate=lr, max_epochs=epochs, eval_network=eval_network
        )
        result = train(cfg, *SETS)
        assert 0 < result.best_epoch < len(result.log.records) - 1
        assert len(result.metrics) == 3
        for got, window_set in zip(result.metrics, SETS):
            want = evaluate(result.params, *window_set)
            assert np.float64(got.mse).tobytes() == np.float64(want.mse).tobytes()
            assert np.float64(got.mae).tobytes() == np.float64(want.mae).tobytes()
            assert got.per_step_mse.tobytes() == want.per_step_mse.tobytes()
            assert got.sample_count == want.sample_count

    def test_init_params_left_unchanged(self):
        init = trainer_module.new_forecaster(L, M, K, 64, Rng(5))
        before = init.flat.copy()
        result = train(make_config(ObjectiveKind.wave_indiv(0.01)), *SETS, init_params=init)
        assert init.flat.tobytes() == before.tobytes()
        assert result.final_source.flat.tobytes() != before.tobytes()

    @pytest.mark.parametrize("input_len, output_len", [(L, 4), (5, M)])
    def test_init_params_of_another_window_shape_rejected(self, input_len, output_len):
        # the config is 6 -> 3; an output mismatch used to fail mid-step in a reshape
        init = trainer_module.new_forecaster(input_len, output_len, K, 4, Rng(5))
        with pytest.raises(
            ConfigError,
            match=rf"^init params map input \({input_len}, 1\) to output \({output_len}, 1\); "
            r"config and data need \(6, 1\) to \(3, 1\)$",
        ):
            train(make_config(ObjectiveKind.plain()), *SETS, init_params=init)


def metric_bytes(m):
    return (np.float64(m.mse).tobytes(), np.float64(m.mae).tobytes(), m.per_step_mse.tobytes(),
            m.per_element_mse.tobytes(), m.sample_count)


class TestWindowLayout:
    """`windowize` gives overlapping read-only views; contiguous copies of them give the same bytes."""

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("objective", [ObjectiveKind.plain(), ObjectiveKind.wave_indiv(0.01)],
                             ids=["plain", "wave_indiv"])
    def test_views_and_contiguous_copies_agree_bit_for_bit(self, k, objective):
        values = Rng(7).normal(size=(CHUNK + 200, k)).cumsum(axis=0)
        series = SeriesDataset(values, [f"f{i}" for i in range(k)])
        views = [stack_windows(windowize(s, 8, 4)) for s in split_and_standardize(series, SplitSpec())]
        copies = [tuple(np.ascontiguousarray(a) for a in window_set) for window_set in views]
        assert not any(past.flags.c_contiguous or past.flags.writeable for past, _ in views)
        config = TrainConfig(input_len=8, output_len=4, objective=objective, batch_size=16,
                             learning_rate=1e-3, max_epochs=3, patience=5, seed=3, hidden_dim=16)
        a, b = train(config, *views), train(config, *copies)
        assert len(a.log.records) == len(b.log.records) == 3
        for ra, rb in zip(a.log.records, b.log.records):
            assert np.array([ra.train_objective, ra.train_mse, ra.val_mse, ra.test_mse]).tobytes() == (
                np.array([rb.train_objective, rb.train_mse, rb.val_mse, rb.test_mse]).tobytes())
            assert ra.per_step_test_mse.tobytes() == rb.per_step_test_mse.tobytes()
        assert a.best_epoch == b.best_epoch
        assert a.final_source.flat.tobytes() == b.final_source.flat.tobytes()
        assert a.final_mirror.target.flat.tobytes() == b.final_mirror.target.flat.tobytes()
        assert [metric_bytes(m) for m in a.metrics] == [metric_bytes(m) for m in b.metrics]
        # a set of more than one chunk, with a short last chunk
        whole = stack_windows(windowize(series, 8, 4))
        assert CHUNK < len(whole[0]) < 2 * CHUNK
        got = evaluate(a.params, *whole)
        want = evaluate(a.params, *(np.ascontiguousarray(x) for x in whole))
        assert metric_bytes(got) == metric_bytes(want)


class TestLogExport:
    def test_csv_and_jsonl_are_deterministic(self, tmp_path):
        result = train(make_config(ObjectiveKind.plain()), *SETS)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        result.log.to_csv(a)
        result.log.to_csv(b)
        assert a.read_bytes() == b.read_bytes()
        ja, jb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        result.log.to_jsonl(ja)
        result.log.to_jsonl(jb)
        assert ja.read_bytes() == jb.read_bytes()

    def test_timing_excluded_by_default(self, tmp_path):
        result = train(make_config(ObjectiveKind.plain(), max_epochs=1), *SETS)
        bare = tmp_path / "bare.csv"
        result.log.to_csv(bare)
        assert "seconds" not in bare.read_text()

    def test_csv_has_per_step_columns(self, tmp_path):
        result = train(make_config(ObjectiveKind.plain(), max_epochs=1), *SETS)
        path = tmp_path / "log.csv"
        result.log.to_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[:5] == ["epoch", "train_objective", "train_mse", "val_mse", "test_mse"]
        assert sum(c.startswith("test_mse_step_") for c in header) == M


SEGMENTS = split_and_standardize(SeriesDataset(Rng(4).normal(size=(400, 1)), ["x"]), SplitSpec())


def segment_windows(segments):
    return [stack_windows(windowize(s, L, M)) for s in segments]


def same_metrics(r1, r2):
    return [(m.mse, m.mae) for m in r1.metrics] == [(m.mse, m.mae) for m in r2.metrics]


class TestSweep:
    def test_singleton_sweep_matches_direct_train(self):
        cfg = make_config(ObjectiveKind.plain())
        rows = sweep(cfg, "learning_rate", [cfg.learning_rate], *SEGMENTS)
        direct = train(cfg, *segment_windows(SEGMENTS))
        assert len(rows) == 1
        assert rows[0].val_mse == direct.log.records[direct.best_epoch].val_mse
        assert_same_trajectory(rows[0].result, direct)
        assert same_metrics(rows[0].result, direct)

    def test_worker_processes_match_serial(self):
        # workers > 1 pickles every TrainResult; the params must come back
        # bit-identical and still viewing one buffer each
        cfg = make_config(ObjectiveKind.wave_indiv(0.01), max_epochs=2)
        serial = sweep(cfg, "learning_rate", [1e-3, 1e-4], *SEGMENTS)
        parallel = sweep(cfg, "learning_rate", [1e-3, 1e-4], *SEGMENTS, workers=2)
        for a, b in zip(serial, parallel):
            assert_same_trajectory(a.result, b.result)
            assert same_metrics(a.result, b.result)
            for params in (b.result.params, b.result.final_mirror.target):
                assert all(np.shares_memory(t, params.flat) for t in params.tensors())

    def test_worker_jobs_carry_segments_not_window_copies(self, monkeypatch):
        # Each job is pickled, as a process pool does, and run from its copy.
        sizes = []

        class PicklingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                for job in jobs:
                    blob = pickle.dumps(job)
                    sizes.append(len(blob))
                    yield fn(pickle.loads(blob))

        monkeypatch.setattr(trainer_module.concurrent.futures, "ProcessPoolExecutor", PicklingPool)
        cfg = make_config(ObjectiveKind.plain(), max_epochs=2)
        serial = sweep(cfg, "learning_rate", [1e-3, 1e-4], *SEGMENTS)
        pooled = sweep(cfg, "learning_rate", [1e-3, 1e-4], *SEGMENTS, workers=2)
        for a, b in zip(serial, pooled):
            assert_same_trajectory(a.result, b.result)
            assert same_metrics(a.result, b.result)
        segment_bytes = sum(s.values.nbytes for s in SEGMENTS)
        window_bytes = sum(p.size * 8 + f.size * 8 for p, f in segment_windows(SEGMENTS))
        assert len(sizes) == 2 and max(sizes) < segment_bytes + 4096 < window_bytes, sizes

    def test_pool_has_at_most_one_worker_per_job(self, monkeypatch):
        # A pool forks all of its workers at the first submit, so asking for
        # more workers than grid points must not ask the pool for them.
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(trainer_module.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = make_config(ObjectiveKind.plain(), max_epochs=1)
        assert len(sweep(cfg, "learning_rate", [1e-3, 1e-4], *SEGMENTS, workers=3)) == 2
        assert pools == [2]
        assert len(sweep(cfg, "learning_rate", [1e-3], *SEGMENTS, workers=3)) == 1
        assert pools == [2]  # one job runs in this process, with no pool

    def test_window_sets_rejected(self):
        cfg = make_config(ObjectiveKind.plain())
        with pytest.raises(ConfigError, match="^sweep takes the three SeriesDataset segments"):
            sweep(cfg, "learning_rate", [1e-3], *segment_windows(SEGMENTS))

    def test_rows_ranked_by_validation_mse(self):
        cfg = make_config(ObjectiveKind.plain(), max_epochs=2)
        rows = sweep(cfg, "learning_rate", [1e-5, 1e-3, 1e-4], *SEGMENTS)
        assert [r.val_mse for r in rows] == sorted(r.val_mse for r in rows)
        assert {r.value for r in rows} == {1e-5, 1e-3, 1e-4}

    def test_row_metrics_come_from_best_epoch(self):
        cfg = make_config(ObjectiveKind.flooding(0.05), max_epochs=3)
        rows = sweep(cfg, "b", [0.0, 0.05], *SEGMENTS)
        for row in rows:
            rec = row.result.log.records[row.result.best_epoch]
            assert (row.val_mse, row.test_mse, row.train_mse) == (
                rec.val_mse,
                rec.test_mse,
                rec.train_mse,
            )

    def test_param_objective_compatibility(self):
        plain_cfg = make_config(ObjectiveKind.plain())
        with pytest.raises(ConfigError):
            sweep(plain_cfg, "b", [0.1], *SEGMENTS)
        with pytest.raises(ConfigError):
            sweep(plain_cfg, "epsilon", [0.01], *SEGMENTS)
        with pytest.raises(ConfigError):
            sweep(plain_cfg, "hidden_dim", [8], *SEGMENTS)
        with pytest.raises(ConfigError):
            sweep(plain_cfg, "learning_rate", [], *SEGMENTS)

    def test_epsilon_sweep_updates_objective(self):
        cfg = make_config(ObjectiveKind.wave_indiv(0.01), max_epochs=1)
        rows = sweep(cfg, "epsilon", [0.01, 0.001], *SEGMENTS)
        assert len(rows) == 2
