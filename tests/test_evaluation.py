import numpy as np
import pytest

from wavebound import (
    ConfigError,
    DataError,
    ModelParams,
    Rng,
    evaluate,
    generalization_gap,
    loss_slice,
    mlp_forward_batch,
    new_forecaster,
)


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
        with pytest.raises(ConfigError, match="output shape"):
            evaluate(params, np.zeros((5, 4, 1)), np.zeros((5, 3, 2)))

    def test_empty_rejected(self):
        params = copy_model(2)
        with pytest.raises(DataError):
            evaluate(params, np.zeros((0, 2, 1)), np.zeros((0, 2, 1)))


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


class TestLossSlice:
    def quadratic_setup(self):
        # single identity layer: loss along any direction is exactly quadratic
        params = linear_model([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0], (2, 1), (2, 1))
        rng = Rng(4)
        past = rng.normal(size=(16, 2, 1))
        future = rng.normal(size=(16, 2, 1))
        return params, past, future

    def test_center_matches_unperturbed(self):
        params, past, future = self.quadratic_setup()
        points = loss_slice(params, 0, 0.5, 5, past, future)
        center = [loss for t, loss in points if t == 0.0]
        assert len(center) == 1
        assert center[0] == evaluate(params, past, future).mse

    def test_grid_symmetric(self):
        params, past, future = self.quadratic_setup()
        ts = [t for t, _ in loss_slice(params, 0, 1.0, 7, past, future)]
        assert ts[0] == -1.0 and ts[-1] == 1.0
        assert all(a + b == 0.0 for a, b in zip(ts, ts[::-1]))

    def test_quadratic_second_differences_constant(self):
        params, past, future = self.quadratic_setup()
        losses = np.array([l for _, l in loss_slice(params, 3, 0.8, 9, past, future)])
        second = np.diff(losses, 2)
        assert second.max() - second.min() <= 1e-6 * max(abs(second).max(), 1e-12)

    def test_direction_seed_reproducible(self):
        params, past, future = self.quadratic_setup()
        a = loss_slice(params, 7, 0.5, 5, past, future)
        b = loss_slice(params, 7, 0.5, 5, past, future)
        assert a == b
        c = loss_slice(params, 8, 0.5, 5, past, future)
        assert a != c

    def test_steps_validation(self):
        params, past, future = self.quadratic_setup()
        for bad in (2, 4, 1, 0, -3):
            with pytest.raises(ConfigError):
                loss_slice(params, 0, 0.5, bad, past, future)

    def test_radius_validation(self):
        params, past, future = self.quadratic_setup()
        with pytest.raises(ConfigError):
            loss_slice(params, 0, 0.0, 5, past, future)
