import itertools
import tracemalloc

import numpy as np
import pytest

from wavebound import (
    ConfigError,
    LinearGaussianPopulation,
    OracleInstance,
    Rng,
    jensen_audit,
    jensen_violations,
    predict,
    reference_instance,
    run_estimator_experiment,
    run_full_oracle,
    sample,
    true_risk,
    wave_elementwise,
)
from wavebound.theorem import OracleReport


def make_population(m=2, k=2, coeff=1.0, noise=0.5):
    return LinearGaussianPopulation(
        true_map=np.full((m, k), coeff), noise_std=np.full((m, k), noise)
    )


class TestPopulation:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LinearGaussianPopulation(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ConfigError):
            LinearGaussianPopulation(np.ones((2, 2)), np.full((2, 2), -0.1))
        with pytest.raises(ConfigError):
            LinearGaussianPopulation(np.ones((2, 2)), np.ones((2, 2)), input_std=0.0)
        with pytest.raises(ConfigError):
            # one element with zero coefficient and zero noise has no variance
            LinearGaussianPopulation(np.zeros((1, 1)), np.zeros((1, 1)))
        with pytest.raises(ConfigError, match="non-empty"):
            LinearGaussianPopulation(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_true_risk_closed_form(self):
        pop = LinearGaussianPopulation(
            np.array([[1.0, 2.0]]), np.array([[0.5, 0.0]]), input_std=3.0
        )
        coeffs = np.array([[1.0, 1.0]])
        risk = true_risk(pop, coeffs)
        # unbiased element: pure noise variance; biased noiseless: bias^2 * input var
        assert risk[0, 0] == pytest.approx(0.25)
        assert risk[0, 1] == pytest.approx(9.0)

    def test_true_risk_of_zero_predictor(self):
        pop = make_population(coeff=2.0, noise=0.3)
        risk = true_risk(pop, np.zeros(pop.shape))
        assert np.allclose(risk, 4.0 + 0.09)

    def test_true_risk_matches_large_sample(self):
        pop = LinearGaussianPopulation(
            np.array([[0.7, -1.2], [2.0, 0.1]]), np.full((2, 2), 0.4), input_std=1.5
        )
        coeffs = np.array([[1.0, -1.0], [1.5, 0.0]])
        x, y = sample(pop, 400000, Rng(3))
        err = predict(coeffs, x) - y
        empirical = (err * err).mean(axis=0)
        expected = true_risk(pop, coeffs)
        # 3 MC standard errors of a squared-Gaussian mean
        se = expected * np.sqrt(2.0 / 400000) * 3
        assert (np.abs(empirical - expected) < 3 * se + 1e-3).all()

    def test_sample_shapes_and_determinism(self):
        pop = make_population(3, 2)
        x1, y1 = sample(pop, 7, Rng(1))
        x2, y2 = sample(pop, 7, Rng(1))
        assert x1.shape == (7, 3, 2) and y1.shape == (7, 3, 2)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


class TestEstimatorExperiment:
    def small_instance(self, **kw):
        pop = make_population()
        base = dict(
            population=pop,
            g=np.full(pop.shape, 1.5),
            g_star=np.ones(pop.shape),
            epsilon=0.01,
            n_samples=20,
            trials=300,
            margin_alpha=0.05,
            seed=7,
        )
        base.update(kw)
        return OracleInstance(**base)

    def test_identical_predictors_zero_epsilon_never_flood(self):
        pop = make_population()
        inst = self.small_instance(g=np.ones(pop.shape), g_star=np.ones(pop.shape), epsilon=0.0)
        report = run_estimator_experiment(inst)
        # risk_g == risk_gs, so nothing sits strictly below the bound
        assert report.flip_rate == 0.0
        assert report.mse_plain == report.mse_wave
        assert report.theorem_bound == 0.0

    def test_huge_epsilon_disables_flooding(self):
        inst = self.small_instance(epsilon=1e9)
        report = run_estimator_experiment(inst)
        assert report.flip_rate == 0.0
        assert report.mse_plain == report.mse_wave

    def test_reference_instance_satisfies_claim(self):
        report = run_estimator_experiment(reference_instance(trials=2000))
        assert report.condition_b_violation_rate <= 0.01
        assert report.mse_wave <= report.mse_plain
        assert report.mse_diff - 3 * report.se_mse_diff > 0
        assert report.bound_slack - 3 * report.se_bound_slack > 0

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            run_full_oracle(reference_instance(trials=10, seed=-1))

    def test_same_seed_reproducible(self):
        a = run_estimator_experiment(self.small_instance())
        b = run_estimator_experiment(self.small_instance())
        assert a.to_dict() == b.to_dict()
        c = run_estimator_experiment(self.small_instance(seed=8))
        assert a.to_dict() != c.to_dict()

    def test_bound_scales_with_margin_count_normalization(self):
        # every trial's bound is 4*alpha^2/(MK)^2 * count, so the mean bound
        # can never exceed 4*alpha^2/(MK)
        inst = self.small_instance()
        report = run_estimator_experiment(inst)
        m, k = inst.population.shape
        assert 0.0 <= report.theorem_bound <= 4 * inst.margin_alpha**2 / (m * k)

    def test_instance_validation(self):
        pop = make_population()
        good = dict(
            population=pop,
            g=np.ones(pop.shape),
            g_star=np.ones(pop.shape),
            epsilon=0.01,
            n_samples=5,
            trials=10,
            margin_alpha=0.05,
        )
        OracleInstance(**good)
        for bad in (
            {"g": np.ones((1, 1))},
            {"epsilon": -0.1},
            {"n_samples": 0},
            {"trials": 0},
            {"trials": 2**32 + 1},  # trial indices must fit one uint32 word
            {"margin_alpha": 0.0},
        ):
            with pytest.raises(ConfigError):
                OracleInstance(**{**good, **bad})
        OracleInstance(**{**good, "trials": 2**32})


def per_trial_estimator(instance: OracleInstance) -> OracleReport:
    """The estimator as one loop pass per trial, each from its own `Rng.split` stream.

    This is the form the chunked `run_estimator_experiment` replaced; it
    stays here as the reference that the chunked form must match bit for bit.
    """
    pop = instance.population
    m, k = pop.shape
    truth = float(true_risk(pop, instance.g).mean())
    true_g = true_risk(pop, instance.g)
    rng = Rng(instance.seed, ("oracle",))

    trials = instance.trials
    d_plain = np.empty(trials)
    d_wave = np.empty(trials)
    margin_counts = np.empty(trials)
    condition_b_violations = 0
    flips = 0

    def risks(pred, y):
        err = pred - y
        return (err * err).mean(axis=0)

    for t in range(trials):
        r = rng.split("trial", t)
        x, y = sample(pop, instance.n_samples, r)
        risk_g = risks(predict(instance.g, x), y)
        risk_gs = risks(predict(instance.g_star, x), y)
        plain_est = risk_g.mean()
        wave_est = wave_elementwise(risk_g, risk_gs, instance.epsilon).mean()
        d_plain[t] = (plain_est - truth) ** 2
        d_wave[t] = (wave_est - truth) ** 2
        flipped = risk_g < risk_gs - instance.epsilon
        if flipped.any():
            flips += 1
            if (risk_gs[flipped] >= true_g[flipped] + instance.epsilon).any():
                condition_b_violations += 1
        margin_counts[t] = np.count_nonzero(
            risk_gs - risk_g - instance.epsilon > instance.margin_alpha
        )

    scale = 4.0 * instance.margin_alpha**2 / (m * k) ** 2
    per_trial_bound = scale * margin_counts
    gap = d_plain - d_wave
    slack = gap - per_trial_bound

    def se(arr):
        if trials < 2:
            return 0.0
        return float(arr.std(ddof=1) / np.sqrt(trials))

    return OracleReport(
        mse_plain=float(d_plain.mean()),
        mse_wave=float(d_wave.mean()),
        theorem_bound=float(per_trial_bound.mean()),
        condition_b_violation_rate=condition_b_violations / trials,
        jensen_violations=0,
        mse_diff=float(gap.mean()),
        se_mse_diff=se(gap),
        bound_slack=float(slack.mean()),
        se_bound_slack=se(slack),
        flip_rate=flips / trials,
        trials=trials,
    )


def varied_instance(shape, epsilon, n_samples, trials, seed):
    """Unequal coefficients and noise, with a reference predictor near the truth."""
    size = shape[0] * shape[1]
    true_map = np.linspace(0.5, 1.5, size).reshape(shape)
    population = LinearGaussianPopulation(
        true_map=true_map, noise_std=np.linspace(0.2, 0.8, size).reshape(shape), input_std=1.3
    )
    return OracleInstance(
        population=population,
        g=true_map + np.linspace(0.3, -0.4, size).reshape(shape),
        g_star=true_map + 0.05,
        epsilon=epsilon,
        n_samples=n_samples,
        trials=trials,
        margin_alpha=0.05,
        seed=seed,
    )


def estimator_grid():
    """Every (seed, shape, epsilon, n_samples); nine of them, covering each pair of
    the first three factors once, run unmarked and the rest are marked slow."""
    seeds, shapes, epsilons = (0, 2024, 2**40 + 3), ((1, 1), (3, 2), (4, 5)), (0.0, 0.01, np.inf)
    for (i, seed), (j, shape), (e, epsilon), n in itertools.product(
        enumerate(seeds), enumerate(shapes), enumerate(epsilons), (1, 25)
    ):
        quick = e == (i + j) % 3 and n == (1, 25)[(i + j) % 2]
        yield pytest.param(seed, shape, epsilon, n, marks=() if quick else pytest.mark.slow)


class TestChunkedEstimator:
    """The chunked estimator reports exactly what the per-trial loop reports."""

    TRIALS = (1, 127, 128, 129, 500)  # around and across the chunk boundary

    @pytest.mark.parametrize("seed,shape,epsilon,n_samples", estimator_grid())
    def test_matches_per_trial_loop(self, seed, shape, epsilon, n_samples):
        for trials in self.TRIALS:
            instance = varied_instance(shape, epsilon, n_samples, trials, seed)
            want = per_trial_estimator(instance).to_dict()
            assert run_estimator_experiment(instance).to_dict() == want, trials

    def test_grid_exercises_every_branch(self):
        # The comparison above means something only if flips, condition-(b)
        # violations and margin counts occur in it.
        report = per_trial_estimator(varied_instance((3, 2), 0.01, 25, 500, 0))
        assert 0 < report.condition_b_violation_rate < report.flip_rate < 1
        assert report.theorem_bound > 0

    @pytest.mark.slow  # tracemalloc makes the run about ten times slower: 3 s
    def test_working_set_stays_one_chunk(self):
        # 20 000 trials at the reference shape peak near 1.2 MiB: the
        # per-trial results take 480 KB and one chunk's draws 300 KB.
        # Scoring every trial at once would need about 100 MB.
        instance = reference_instance(trials=20000)
        run_estimator_experiment(reference_instance(trials=1))  # one-time allocations
        tracemalloc.start()
        try:
            run_estimator_experiment(instance)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak


class TestJensenAudit:
    def setup_data(self, n=24, seed=5):
        pop = make_population()
        x, y = sample(pop, n, Rng(seed))
        g = np.full(pop.shape, 1.4)
        g_star = np.ones(pop.shape)
        return x, y, g, g_star

    def test_single_batch_is_equality(self):
        x, y, g, g_star = self.setup_data()
        assert jensen_audit(x, y, g, g_star, 0.01, batch_size=24) == 0

    def test_random_partitions_never_violate(self):
        x, y, g, g_star = self.setup_data()
        for batch in (1, 2, 3, 5, 7, 8, 24):
            for eps in (0.0, 0.01, 0.5):
                assert jensen_audit(x, y, g, g_star, eps, batch, flood_b=0.2) == 0

    def test_strict_inequality_occurs(self):
        # batches straddling the bound make the pooled flooded risk strictly
        # smaller; build one by hand with a per-element bound of 1.0
        source = np.array([[[0.0]], [[2.0]]])  # per-batch risks 0 and 4
        targets = np.zeros((2, 1, 1))
        target_pred = np.full((2, 1, 1), np.sqrt(1.5))  # both batch risks 1.5
        count = jensen_violations(source, target_pred, targets, [1, 1], 0.5, 0.1)
        assert count == 0  # inequality holds; this draw is strictly below

    def test_unequal_batch_sizes_use_weights(self):
        x, y, g, g_star = self.setup_data(n=25)
        # final short batch of 1 sample exercises the weighted form
        assert jensen_audit(x, y, g, g_star, 0.01, batch_size=8) == 0

    def test_bad_partition_rejected(self):
        x, y, g, g_star = self.setup_data(n=10)
        with pytest.raises(ConfigError):
            jensen_violations(predict(g, x), predict(g_star, x), y, [4, 4], 0.01, 0.1)
        with pytest.raises(ConfigError):
            jensen_audit(x, y, g, g_star, 0.01, batch_size=0)

    def test_manufactured_violation_detected(self):
        # feed mismatched pooled values by lying about the partition target:
        # a pooled-above / batch-below split cannot arise from the true mean,
        # so instead verify the counter by calling with tol < 0, which turns
        # exact equality for a single batch into a reported violation
        x, y, g, g_star = self.setup_data()
        count = jensen_violations(
            predict(g, x), predict(g_star, x), y, [24], 0.01, 0.1, tol=-1e-9
        )
        assert count > 0


class TestFullOracle:
    def test_full_oracle_populates_jensen_count(self):
        report = run_full_oracle(reference_instance(trials=50), jensen_draws=5)
        assert report.jensen_violations == 0
        assert report.trials == 50

    def test_report_json_round_trip(self, tmp_path):
        import json

        report = run_full_oracle(reference_instance(trials=20), jensen_draws=2)
        path = tmp_path / "report.json"
        report.to_json(path)
        loaded = json.loads(path.read_text())
        assert loaded == report.to_dict()
        assert set(loaded) == {
            "mse_plain",
            "mse_wave",
            "theorem_bound",
            "condition_b_violation_rate",
            "jensen_violations",
            "mse_diff",
            "se_mse_diff",
            "bound_slack",
            "se_bound_slack",
            "flip_rate",
            "trials",
        }

    def test_table_mentions_every_headline_number(self):
        report = run_estimator_experiment(reference_instance(trials=20))
        text = report.table()
        for name in ("mse_plain", "mse_wave", "theorem_bound", "bound_slack", "flip_rate"):
            assert name in text
