import numpy as np
import pytest

from wavebound import (
    ConfigError,
    ObjectiveKind,
    RiskMatrix,
    Rng,
    flood_elementwise,
    objective_mask,
    objective_value,
    per_element_risk,
    wave_elementwise,
)


def risk(values):
    return RiskMatrix(np.asarray(values, dtype=float))


class TestPerElementRisk:
    def test_zero_when_pred_equals_target(self):
        x = Rng(0).normal(size=(4, 3, 2))
        assert (per_element_risk(x, x).values == 0).all()

    def test_single_square(self):
        r = per_element_risk(np.full((1, 1, 1), 2.0), np.zeros((1, 1, 1)))
        assert r.values[0, 0] == 4.0

    def test_matches_triple_loop_oracle(self):
        rng = Rng(3)
        pred = rng.normal(size=(5, 3, 2))
        target = rng.normal(size=(5, 3, 2))
        got = per_element_risk(pred, target)
        expected = np.zeros((3, 2))
        for j in range(3):
            for k in range(2):
                acc = 0.0
                for i in range(5):
                    acc += (pred[i, j, k] - target[i, j, k]) ** 2
                expected[j, k] = acc / 5
        assert np.allclose(got.values, expected, rtol=0, atol=1e-15)

    def test_mean_equals_overall_mse(self):
        rng = Rng(8)
        pred = rng.normal(size=(7, 4, 3))
        target = rng.normal(size=(7, 4, 3))
        mse = float(((pred - target) ** 2).mean())
        assert abs(per_element_risk(pred, target).mean - mse) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            per_element_risk(np.zeros((2, 3, 1)), np.zeros((2, 3, 2)))


def value(kind, source, target=None):
    return objective_value(kind, risk(source), None if target is None else risk(target))


class TestFlooding:
    def test_above_flood_level(self):
        assert value(ObjectiveKind.flooding(0.1), [[0.5]]) == 0.5

    def test_reflection_below(self):
        assert value(ObjectiveKind.flooding(0.1), [[0.05]]) == pytest.approx(0.15, abs=1e-15)

    def test_b_zero_is_identity(self):
        for v in (0.0, 0.3, 1.7):
            assert value(ObjectiveKind.flooding(0.0), [[v]]) == v

    def test_matches_absolute_value_form(self):
        rng = Rng(1)
        for _ in range(200):
            v = float(rng.uniform(0.0, 2.0))
            b = float(rng.uniform(0.0, 1.0))
            assert value(ObjectiveKind.flooding(b), [[v]]) == pytest.approx(
                abs(v - b) + b, rel=1e-15
            )


class TestConstantFlooding:
    def test_all_above_equals_plain_mean(self):
        r = risk([[0.5, 0.7], [0.9, 0.6]])
        assert objective_value(ObjectiveKind.constant_flooding(0.1), r) == r.mean

    def test_scalar_reduction(self):
        assert value(ObjectiveKind.constant_flooding(0.1), [[0.05]]) == value(
            ObjectiveKind.flooding(0.1), [[0.05]]
        )

    def test_hand_case(self):
        assert value(ObjectiveKind.constant_flooding(0.1), [[0.05], [0.5]]) == pytest.approx(
            0.325, abs=1e-15
        )


class TestWaveObjectives:
    def test_equal_risks_bound_inactive(self):
        r = risk([[0.3, 0.2], [0.1, 0.4]])
        assert objective_value(ObjectiveKind.wave_indiv(0.01), r, r) == r.mean

    def test_hand_case_indiv(self):
        got = value(ObjectiveKind.wave_indiv(0.05), [[0.1]], [[0.3]])
        assert got == pytest.approx(0.40, abs=1e-15)

    def test_huge_epsilon_reduces_to_plain(self):
        rng = Rng(2)
        src = risk(rng.uniform(0, 1, size=(3, 2)))
        tgt = risk(rng.uniform(0, 1, size=(3, 2)))
        assert objective_value(ObjectiveKind.wave_indiv(100.0), src, tgt) == src.mean
        assert objective_value(ObjectiveKind.wave_indiv(np.inf), src, tgt) == src.mean

    def test_hand_case_avg(self):
        assert value(ObjectiveKind.wave_avg(0.05), [[0.1]], [[0.3]]) == pytest.approx(
            0.40, abs=1e-15
        )

    def test_avg_bound_inactive(self):
        assert value(ObjectiveKind.wave_avg(0.05), [[0.5]], [[0.3]]) == 0.5
        assert value(ObjectiveKind.wave_avg(0.0), [[0.2]], [[0.2]]) == 0.2

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            value(ObjectiveKind.wave_indiv(0.01), [[0.1]], [[0.1, 0.2]])
        with pytest.raises(ConfigError):
            objective_mask(ObjectiveKind.wave_indiv(0.01), risk([[0.1]]), risk([[0.1, 0.2]]))


class TestSignMask:
    def test_all_above(self):
        r = risk([[0.3, 0.2]])
        assert (objective_mask(ObjectiveKind.wave_indiv(0.01), r, r) == 1.0).all()

    def test_all_below(self):
        src = risk(np.zeros((2, 2)))
        tgt = risk(np.ones((2, 2)))
        assert (objective_mask(ObjectiveKind.wave_indiv(0.1), src, tgt) == -1.0).all()

    def test_mixed_matches_hand_signs(self):
        src = risk([[0.10, 0.50], [0.20, 0.05]])
        tgt = risk([[0.30, 0.30], [0.20, 0.30]])
        got = objective_mask(ObjectiveKind.wave_indiv(0.05), src, tgt)
        # sign of src - (tgt - eps), ties resolve to +1
        expected = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert np.array_equal(got, expected)

    def test_tie_resolves_to_descent(self):
        src = risk([[0.25]])
        tgt = risk([[0.3125]])
        assert objective_mask(ObjectiveKind.wave_indiv(0.0625), src, tgt)[0, 0] == 1.0


class TestEquivalences:
    def test_wave_with_constant_target_is_constant_flooding(self):
        # dyadic constants so (b + eps) - eps == b exactly
        b, eps = 0.25, 0.0625
        rng = Rng(4)
        for _ in range(50):
            src = risk(rng.uniform(0, 1, size=(3, 2)))
            frozen = RiskMatrix(np.full((3, 2), b + eps))
            assert objective_value(
                ObjectiveKind.wave_indiv(eps), src, frozen
            ) == objective_value(ObjectiveKind.constant_flooding(b), src)
            wave_mask = objective_mask(ObjectiveKind.wave_indiv(eps), src, frozen)
            flood_mask = objective_mask(ObjectiveKind.constant_flooding(b), src)
            assert np.array_equal(wave_mask, flood_mask)

    def test_plain_value_is_risk_mean(self):
        rng = Rng(5)
        src = risk(rng.uniform(0, 1, size=(4, 3)))
        assert objective_value(ObjectiveKind.plain(), src) == src.mean


class TestDispatch:
    def test_values_route_to_the_right_formula(self):
        src = risk([[0.1]])
        tgt = risk([[0.3]])
        assert objective_value(ObjectiveKind.plain(), src) == 0.1
        assert objective_value(ObjectiveKind.flooding(0.2), src) == pytest.approx(0.3)
        assert objective_value(ObjectiveKind.constant_flooding(0.2), src) == pytest.approx(0.3)
        assert objective_value(ObjectiveKind.wave_indiv(0.05), src, tgt) == pytest.approx(0.40)
        assert objective_value(ObjectiveKind.wave_avg(0.05), src, tgt) == pytest.approx(0.40)

    def test_masks_route_to_the_right_shape_and_sign(self):
        src = risk([[0.1, 0.5]])
        tgt = risk([[0.3, 0.3]])
        assert (objective_mask(ObjectiveKind.plain(), src) == 1.0).all()
        # scalar mean 0.3 meets the flood level 0.3: tie resolves to +1
        assert (objective_mask(ObjectiveKind.flooding(0.3), src) == 1.0).all()
        assert (objective_mask(ObjectiveKind.flooding(0.5), src) == -1.0).all()
        assert np.array_equal(
            objective_mask(ObjectiveKind.constant_flooding(0.3), src),
            np.array([[-1.0, 1.0]]),
        )
        assert np.array_equal(
            objective_mask(ObjectiveKind.wave_indiv(0.05), src, tgt),
            np.array([[-1.0, 1.0]]),
        )
        # avg: source mean 0.3 >= target mean 0.3 - 0.05
        assert (objective_mask(ObjectiveKind.wave_avg(0.05), src, tgt) == 1.0).all()

    def test_wave_without_target_rejected(self):
        with pytest.raises(ConfigError):
            objective_value(ObjectiveKind.wave_indiv(0.01), risk([[0.1]]))
        with pytest.raises(ConfigError):
            objective_mask(ObjectiveKind.wave_avg(0.01), risk([[0.1]]))

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            ObjectiveKind("nonsense")
        with pytest.raises(ConfigError):
            ObjectiveKind.flooding(-0.1)
        with pytest.raises(ConfigError):
            ObjectiveKind.wave_indiv(-1e-9)


class TestJensenOnMiniBatches:
    def _batch_risks(self, pred, target, sizes):
        out = []
        start = 0
        for s in sizes:
            out.append(per_element_risk(pred[start : start + s], target[start : start + s]))
            start += s
        return out

    @pytest.mark.parametrize("sizes", [[4, 4, 4], [5, 3, 4], [1, 10, 1]])
    def test_scalar_flooding_bound(self, sizes):
        rng = Rng(6)
        n = sum(sizes)
        pred = rng.normal(size=(n, 2, 2))
        target = rng.normal(size=(n, 2, 2))
        b = 0.8
        pooled = per_element_risk(pred, target)
        weights = [s / n for s in sizes]
        flooding = ObjectiveKind.flooding(b)
        batchwise = sum(
            w * objective_value(flooding, r)
            for w, r in zip(weights, self._batch_risks(pred, target, sizes))
        )
        assert objective_value(flooding, pooled) <= batchwise + 1e-12

    @pytest.mark.parametrize("sizes", [[4, 4, 4], [5, 3, 4]])
    def test_per_element_wave_bound(self, sizes):
        rng = Rng(7)
        n = sum(sizes)
        src_pred = rng.normal(size=(n, 2, 2))
        tgt_pred = rng.normal(size=(n, 2, 2))
        target = rng.normal(size=(n, 2, 2))
        eps = 0.05
        weights = np.array([s / n for s in sizes])
        src_risks = np.stack(
            [r.values for r in self._batch_risks(src_pred, target, sizes)]
        )
        tgt_risks = np.stack(
            [r.values for r in self._batch_risks(tgt_pred, target, sizes)]
        )
        pooled_src = np.tensordot(weights, src_risks, axes=1)
        pooled_tgt = np.tensordot(weights, tgt_risks, axes=1)
        lhs = wave_elementwise(pooled_src, pooled_tgt, eps)
        rhs = np.tensordot(weights, wave_elementwise(src_risks, tgt_risks, eps), axes=1)
        assert (lhs <= rhs + 1e-12).all()


def test_flood_elementwise_matches_abs_form():
    rng = Rng(9)
    values = rng.uniform(-1, 2, size=(4, 3))
    b = 0.4
    assert np.allclose(
        flood_elementwise(values, b), np.abs(values - b) + b, rtol=0, atol=1e-15
    )
