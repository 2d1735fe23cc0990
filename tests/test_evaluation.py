import tracemalloc

import numpy as np
import pytest

import wavebound.evaluation as evaluation_module
from wavebound import (
    ConfigError,
    DataError,
    ModelParams,
    Rng,
    SeriesDataset,
    evaluate,
    generalization_gap,
    mlp_forward_batch,
    new_forecaster,
    windowize,
)
from wavebound.ema import ema_init, ema_update
from wavebound.evaluation import CHUNK, MetricRecord


def linear_model(weight, bias, input_shape, output_shape):
    return ModelParams(
        weights=[np.asarray(weight, dtype=np.float64)],
        biases=[np.asarray(bias, dtype=np.float64)],
        activations=["identity"],
        input_shape=input_shape,
        output_shape=output_shape,
    )


def copy_model(n):
    # identity map from n inputs to n outputs
    return linear_model(np.eye(n), np.zeros(n), (n, 1), (n, 1))


class TestEvaluate:
    def test_perfect_predictor(self):
        params = copy_model(3)
        past = Rng(0).normal(size=(5, 3, 1))
        record = evaluate(params, past, past)
        assert record.mse == 0.0
        assert record.mae == 0.0
        assert record.sample_count == 5

    def test_single_window_hand_case(self):
        # constant predictor outputs bias; target differs by 2 everywhere
        params = linear_model(np.zeros((2, 2)), [1.0, 1.0], (2, 1), (2, 1))
        past = np.zeros((1, 2, 1))
        future = np.full((1, 2, 1), 3.0)
        record = evaluate(params, past, future)
        assert record.mse == pytest.approx(4.0, abs=1e-15)
        assert record.mae == pytest.approx(2.0, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = Rng(5)
        params = new_forecaster(4, 3, 2, 8, rng)
        past = rng.normal(size=(6, 4, 2))
        future = rng.normal(size=(6, 3, 2))
        record = evaluate(params, past, future)

        preds = mlp_forward_batch(params, past)
        se = 0.0
        ae = 0.0
        for i in range(6):
            for j in range(3):
                for k in range(2):
                    d = preds[i, j, k] - future[i, j, k]
                    se += d * d
                    ae += abs(d)
        count = 6 * 3 * 2
        assert record.mse == pytest.approx(se / count, rel=1e-12)
        assert record.mae == pytest.approx(ae / count, rel=1e-12)

    def test_per_step_hand_case(self):
        # step 0 error 1, step 1 error 3 across a single feature
        params = linear_model(np.zeros((2, 1)), [0.0, 0.0], (1, 1), (2, 1))
        past = np.zeros((1, 1, 1))
        future = np.array([[[1.0], [3.0]]])
        record = evaluate(params, past, future)
        assert record.per_step_mse == pytest.approx([1.0, 9.0], abs=1e-15)
        assert record.per_element_mse.shape == (2, 1)

    def test_per_step_mean_equals_mse(self):
        rng = Rng(9)
        params = new_forecaster(6, 4, 1, 8, rng)
        past = rng.normal(size=(11, 6, 1))
        future = rng.normal(size=(11, 4, 1))
        record = evaluate(params, past, future)
        assert record.per_step_mse.mean() == pytest.approx(record.mse, rel=1e-12)
        assert record.per_element_mse.mean() == pytest.approx(record.mse, rel=1e-12)

    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_future_of_another_horizon_rejected(self, steps):
        params = new_forecaster(4, 3, 1, 8, Rng(2))
        past = np.zeros((5, 4, 1))
        with pytest.raises(ConfigError, match=rf"\({steps}, 1\).*\(3, 1\)"):
            evaluate(params, past, np.zeros((5, steps, 1)))

    def test_future_of_another_feature_count_rejected(self):
        params = new_forecaster(4, 3, 1, 8, Rng(2))
        with pytest.raises(ConfigError, match=r"^evaluation set .*\(4, 1\)/\(3, 2\) do not match \(4, 1\)/\(3, 1\)$"):
            evaluate(params, np.zeros((5, 4, 1)), np.zeros((5, 3, 2)))

    def test_empty_rejected(self):
        params = copy_model(2)
        with pytest.raises(DataError):
            evaluate(params, np.zeros((0, 2, 1)), np.zeros((0, 2, 1)))


def full_set_evaluate(params, past, future):
    """The reference: one forward over the whole set, whole-set error arrays."""
    pred = mlp_forward_batch(params, past)
    err = pred - future
    per_element = (err * err).mean(axis=0)
    return MetricRecord(
        mse=float(per_element.mean()),
        mae=float(np.abs(err).mean(axis=0).mean()),
        per_step_mse=per_element.mean(axis=1),
        per_element_mse=per_element,
        sample_count=past.shape[0],
    )


def chunk_test_model(k: int, hidden: int, network: str):
    """A fresh forecaster ("source"), or the EMA target of one after a few
    perturbed updates ("target"), on 96 -> 96 windows of k features."""
    rng = Rng(11, ("chunk", k, hidden))
    source = new_forecaster(96, 96, k, hidden, rng.split("init"))
    if network == "source":
        return source
    mirror = ema_init(source, 0.9)
    for step in range(3):
        noise = rng.split("step", step).normal(size=source.flat.shape)
        mirror = ema_update(mirror, source.with_flat(source.flat + 0.05 * noise))
    return mirror.target


class TestChunkedEvaluate:
    # A short last chunk is where a forward of its own rows alone would
    # round differently (numpy's gemv for one row, OpenBLAS's small-matrix
    # kernel for a few); hidden 64 and 256 are the two benchmark shapes.
    @pytest.mark.parametrize("network", ["source", "target"])
    @pytest.mark.parametrize("hidden", [64, 256])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7])
    def test_bit_identical_to_one_full_forward(self, n, k, hidden, network):
        params = chunk_test_model(k, hidden, network)
        rng = Rng(12, (n, k))
        past = rng.normal(size=(n, 96, k))
        future = rng.normal(size=(n, 96, k))
        got = evaluate(params, past, future)
        want = full_set_evaluate(params, past, future)
        assert np.float64(got.mse).tobytes() == np.float64(want.mse).tobytes()
        assert np.float64(got.mae).tobytes() == np.float64(want.mae).tobytes()
        for name in ("per_step_mse", "per_element_mse"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert got.sample_count == n

    def test_bit_identical_on_a_long_set(self):
        # 40 chunks: the running totals cross 39 chunk boundaries
        n = 20_000
        params = chunk_test_model(1, 16, "target")
        rng = Rng(14)
        past = rng.normal(size=(n, 96, 1))
        future = rng.normal(size=(n, 96, 1))
        got = evaluate(params, past, future)
        want = full_set_evaluate(params, past, future)
        assert np.float64(got.mse).tobytes() == np.float64(want.mse).tobytes()
        assert np.float64(got.mae).tobytes() == np.float64(want.mae).tobytes()
        assert got.per_element_mse.tobytes() == want.per_element_mse.tobytes()

    def test_peak_memory_does_not_grow_with_n(self):
        # On windowize views, which cost their segment's memory, evaluate
        # allocates one chunk's arrays whatever the set's size.
        hidden, width = 64, 96
        params = chunk_test_model(1, hidden, "source")
        segment = SeriesDataset(Rng(13).normal(size=(16 * CHUNK + 2 * width, 1)), ["x"])
        windows = windowize(segment, width, width)
        # one chunk's arrays: the contiguous past, the two hidden states and
        # the output, the squared- and absolute-error rows; then 64 KiB for
        # numpy's 8192-element ufunc buffer and 64 KiB for small objects
        bound = 8 * (CHUNK * (2 * width + 2 * hidden) + 2 * (CHUNK + 1) * width) + 2**17
        for n in (2 * CHUNK + 5, 16 * CHUNK + 5):
            past, future = windows.past[:n], windows.future[:n]
            evaluate(params, past, future)  # one-time allocations
            tracemalloc.start()
            try:
                evaluate(params, past, future)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, (n, peak, bound)

    def test_non_finite_past_in_a_later_chunk_rejected(self):
        params = chunk_test_model(1, 64, "source")
        past = np.zeros((CHUNK + 3, 96, 1))
        past[CHUNK + 1, 5, 0] = np.nan
        with pytest.raises(ConfigError, match="^evaluation set contains non-finite values$"):
            evaluate(params, past, np.zeros((CHUNK + 3, 96, 1)))

    def test_non_finite_future_rejected(self, monkeypatch):
        # Unchecked, the NaN would come out as a NaN MSE.
        params = chunk_test_model(1, 64, "source")
        future = np.zeros((CHUNK + 3, 96, 1))
        future[CHUNK + 2, 95, 0] = np.nan
        monkeypatch.setattr(evaluation_module, "_forward_flat", None)  # the check comes first
        with pytest.raises(ConfigError, match="^evaluation set contains non-finite values$"):
            evaluate(params, np.zeros((CHUNK + 3, 96, 1)), future)

    def test_past_of_another_shape_rejected_with_its_shape(self):
        params = chunk_test_model(1, 64, "source")
        with pytest.raises(ConfigError, match=r"^evaluation set .*\(90, 1\)/\(96, 1\) do not match \(96, 1\)/\(96, 1\)$"):
            evaluate(params, np.zeros((4, 90, 1)), np.zeros((4, 96, 1)))


class _FakeRecord:
    def __init__(self, train_mse, test_mse):
        self.train_mse = train_mse
        self.test_mse = test_mse


class _FakeLog:
    def __init__(self, records):
        self.records = records


class TestGeneralizationGap:
    def test_positive_gap(self):
        log = _FakeLog([_FakeRecord(0.1, 0.5), _FakeRecord(0.05, 0.4)])
        assert generalization_gap(log) == pytest.approx([0.4, 0.35])

    def test_negative_gap_allowed(self):
        log = _FakeLog([_FakeRecord(0.5, 0.3)])
        assert generalization_gap(log) == pytest.approx([-0.2])

    def test_empty_log_rejected(self):
        with pytest.raises(ConfigError):
            generalization_gap(_FakeLog([]))

