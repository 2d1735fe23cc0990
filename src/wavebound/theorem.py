"""Monte-Carlo oracle for the risk-estimator variance reduction claim.

The claim under test: flooding each per-element empirical risk at a
reference predictor's risk minus epsilon yields a pooled risk estimate
whose mean squared error (as an estimator of the true risk) is no larger
than the plain estimate's, provided (a) the per-element risks are
independent across elements and (b) the reference predictor's empirical
risk stays below the evaluated predictor's true risk plus epsilon wherever
the flooding actually flips an element.

Populations here are built so condition (a) holds exactly: each output
element (j, k) owns a private input coordinate x_jk ~ N(0, input_std^2)
and private noise, with y_jk = w_jk * x_jk + noise_std_jk * z_jk and
elementwise-coefficient predictors a_jk * x_jk.  Nothing is shared between
elements, and the true risk is closed-form:

    R_jk(a) = (a_jk - w_jk)^2 * input_std^2 + noise_std_jk^2.

Condition (b) is engineered (reference predictor near the truth) and its
empirical violation rate is always reported, so a failed precondition is
visible whenever the bound misses.

The reported lower bound on the MSE gap is
4 * margin_alpha^2 / (M*K)^2 * sum_jk Pr[margin_alpha < r*_jk - r_jk - eps],
stated for grand-mean (rather than summed) risk estimators; the (M*K)^-2
factor keeps both sides of the comparison in the same normalization.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data import atomic_open, batch_indices
from .errors import ConfigError
from .objectives import _mean_squares, flood_elementwise, wave_elementwise
from .rng import Rng

CHUNK = 128  # oracle trials drawn and scored together: bounds the working set


def _all_finite(*arrays: np.ndarray) -> bool:
    # A Python scan: on these few-entry matrices it costs half a ufunc
    # reduction, and instance construction is the oracle's set-up time.
    return all(math.isfinite(v) for a in arrays for v in a.ravel().tolist())


@dataclass
class LinearGaussianPopulation:
    """Elementwise linear map plus independent Gaussian noise."""

    true_map: np.ndarray  # (M, K)
    noise_std: np.ndarray  # (M, K)
    input_std: float = 1.0

    def __post_init__(self):
        self.true_map = np.asarray(self.true_map, dtype=np.float64)
        self.noise_std = np.asarray(self.noise_std, dtype=np.float64)
        if self.true_map.ndim != 2 or self.noise_std.shape != self.true_map.shape:
            raise ConfigError("true_map and noise_std must be matching (M, K) matrices")
        if self.true_map.size == 0:
            raise ConfigError(f"population matrices must be non-empty, got {self.true_map.shape}")
        if not _all_finite(self.true_map, self.noise_std):
            raise ConfigError("population parameters must be finite")
        if not 0 < self.input_std < np.inf:
            raise ConfigError(f"input_std must be finite and > 0, got {self.input_std!r}")
        if (self.noise_std < 0).any():
            raise ConfigError("noise_std entries must be >= 0")
        variance = (self.true_map * self.input_std) ** 2 + self.noise_std**2
        if (variance == 0).any():
            raise ConfigError("population has a zero-variance output element")

    @property
    def shape(self) -> tuple[int, int]:
        return self.true_map.shape


def _joint(population: LinearGaussianPopulation, x: np.ndarray, z: np.ndarray) -> None:
    """Standard normals to a joint sample in place: x *= input_std, z = true_map*x + noise_std*z."""
    x *= population.input_std
    z *= population.noise_std
    z += population.true_map * x


def sample(population: LinearGaussianPopulation, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw n joint samples; returns x and y, both (n, M, K)."""
    m, k = population.shape
    x = rng.normal(size=(n, m, k))
    y = rng.normal(size=(n, m, k))
    _joint(population, x, y)
    return x, y


def predict(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise predictor: output (j, k) depends only on x_jk."""
    return np.asarray(coeffs, dtype=np.float64)[None] * x


def true_risk(population: LinearGaussianPopulation, coeffs: np.ndarray) -> np.ndarray:
    """Closed-form expected squared error per element: bias^2 + noise var."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != population.shape:
        raise ConfigError(f"coeffs shape {coeffs.shape} != population {population.shape}")
    bias = (coeffs - population.true_map) * population.input_std
    return bias**2 + population.noise_std**2


@dataclass
class OracleInstance:
    population: LinearGaussianPopulation
    g: np.ndarray  # evaluated predictor's coefficients
    g_star: np.ndarray  # reference (bound-providing) predictor's coefficients
    epsilon: float
    n_samples: int  # training-set size per trial
    trials: int
    margin_alpha: float
    seed: int = 0

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=np.float64)
        self.g_star = np.asarray(self.g_star, dtype=np.float64)
        shape = self.population.shape
        if self.g.shape != shape or self.g_star.shape != shape:
            raise ConfigError("predictor coefficient shapes must match the population")
        if not _all_finite(self.g, self.g_star):
            raise ConfigError("predictor coefficients must be finite")
        if not self.epsilon >= 0:  # NaN fails too; epsilon = +inf stays legal
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if self.n_samples < 1:
            raise ConfigError("n_samples must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0 < self.margin_alpha < np.inf:
            raise ConfigError(f"margin_alpha must be finite and > 0, got {self.margin_alpha!r}")


@dataclass
class OracleReport:
    mse_plain: float
    mse_wave: float
    theorem_bound: float
    condition_b_violation_rate: float
    jensen_violations: int
    mse_diff: float
    se_mse_diff: float
    bound_slack: float  # mse_diff - theorem_bound
    se_bound_slack: float
    flip_rate: float  # fraction of trials where any element was flooded
    trials: int

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            out[key] = float(value) if isinstance(value, (float, np.floating)) else int(value)
        return out

    def to_json(self, path) -> None:
        with atomic_open(path) as fh:
            fh.write(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")

    def table(self) -> str:
        rows = [
            ("trials", f"{self.trials}"),
            ("mse_plain", f"{self.mse_plain:.6e}"),
            ("mse_wave", f"{self.mse_wave:.6e}"),
            ("mse_diff", f"{self.mse_diff:.6e} (se {self.se_mse_diff:.2e})"),
            ("theorem_bound", f"{self.theorem_bound:.6e}"),
            ("bound_slack", f"{self.bound_slack:.6e} (se {self.se_bound_slack:.2e})"),
            ("condition_b_violation_rate", f"{self.condition_b_violation_rate:.4%}"),
            ("flip_rate", f"{self.flip_rate:.4%}"),
            ("jensen_violations", f"{self.jensen_violations}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def _squares(values: np.ndarray) -> list[float]:
    """v ** 2 by libm's pow(), as a float64 scalar squares; an array's ** 2 is v * v.

    The two differ in the last bit for about 1 value in 1 000.
    """
    return [v**2 for v in values.tolist()]


def run_estimator_experiment(instance: OracleInstance) -> OracleReport:
    """Estimate MSEs of the plain and flooded risk estimators by simulation.

    Per trial: draw a fresh training set, form both pooled estimates, and
    accumulate squared deviations from the true risk.  Per-trial statistics
    feed the Monte-Carlo standard errors.  Trial t takes the t-th block of
    2*n*M*K normals of the one stream `Rng(seed, ("oracle",))`, x first and
    then the noise: what the t-th `sample(population, n, rng)` call draws.
    Trials run CHUNK at a time, one draw per chunk, each statistic reduced
    in the per-trial order.
    """
    pop = instance.population
    m, k = pop.shape
    n = instance.n_samples
    eps = instance.epsilon
    true_g = true_risk(pop, instance.g)
    truth = float(true_g.mean())
    rng = Rng(instance.seed, ("oracle",))

    trials = instance.trials
    d_plain = np.empty(trials)
    d_wave = np.empty(trials)
    margin_counts = np.empty(trials)
    condition_b_violations = 0
    flips = 0

    for lo in range(0, trials, CHUNK):
        hi = min(lo + CHUNK, trials)
        draws = rng.normal(size=(hi - lo, 2, n, m, k))
        x, y = draws[:, 0], draws[:, 1]  # views: y holds the noise z until it is scaled
        _joint(pop, x, y)  # in place, so one chunk holds one copy of its draws
        # (chunk, M*K): a row mean sums the M*K risks as a trial's .mean() does
        risk_g = _mean_squares(predict(instance.g, x) - y, axis=1).reshape(hi - lo, -1)
        risk_gs = _mean_squares(predict(instance.g_star, x) - y, axis=1).reshape(hi - lo, -1)
        wave = wave_elementwise(risk_g, risk_gs, eps)
        d_plain[lo:hi] = _squares(risk_g.mean(axis=1) - truth)
        d_wave[lo:hi] = _squares(wave.mean(axis=1) - truth)
        flipped = risk_g < risk_gs - eps
        flips += int(np.count_nonzero(flipped.any(axis=1)))
        violated = flipped & (risk_gs >= true_g.ravel() + eps)
        condition_b_violations += int(np.count_nonzero(violated.any(axis=1)))
        margin_counts[lo:hi] = np.count_nonzero(
            risk_gs - risk_g - eps > instance.margin_alpha, axis=1
        )

    scale = 4.0 * instance.margin_alpha**2 / (m * k) ** 2
    per_trial_bound = scale * margin_counts
    gap = d_plain - d_wave
    slack = gap - per_trial_bound

    def se(arr: np.ndarray) -> float:
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


def jensen_violations(
    source_pred: np.ndarray,
    target_pred: np.ndarray,
    targets: np.ndarray,
    sizes,
    epsilon: float,
    flood_b: float,
    tol: float = 1e-12,
) -> int:
    """Count batch-mean bound violations on one dataset and partition.

    Checks two convexity facts over the partition given by `sizes`
    (weighted by batch size, which reduces to the plain mean for equal
    batches): per output element, the pooled flooded risk must not exceed
    the weighted mean of per-batch flooded risks; and the pooled scalar
    risk flooded at flood_b must not exceed the weighted mean of per-batch
    flooded scalar risks.
    """
    sizes = [int(s) for s in sizes]
    if min(sizes, default=0) < 1 or sum(sizes) != source_pred.shape[0]:
        raise ConfigError(f"partition {sizes} does not cover {source_pred.shape[0]} samples")
    weights = np.array(sizes, dtype=np.float64) / sum(sizes)
    src, tgt = [], []
    start = 0
    for size in sizes:
        stop = start + size
        src.append(_mean_squares(source_pred[start:stop] - targets[start:stop]))
        tgt.append(_mean_squares(target_pred[start:stop] - targets[start:stop]))
        start = stop
    src = np.stack(src)  # (T, M, K)
    tgt = np.stack(tgt)
    pooled_src = np.tensordot(weights, src, axes=1)
    pooled_tgt = np.tensordot(weights, tgt, axes=1)

    lhs = wave_elementwise(pooled_src, pooled_tgt, epsilon)
    rhs = np.tensordot(weights, wave_elementwise(src, tgt, epsilon), axes=1)
    count = int(np.count_nonzero(lhs > rhs + tol))

    lhs_flood = float(flood_elementwise(pooled_src.mean(), flood_b))
    rhs_flood = float(
        sum(w * float(flood_elementwise(s.mean(), flood_b)) for w, s in zip(weights, src))
    )
    if lhs_flood > rhs_flood + tol:
        count += 1
    return count


def jensen_audit(
    x: np.ndarray,
    y: np.ndarray,
    g: np.ndarray,
    g_star: np.ndarray,
    epsilon: float,
    batch_size: int,
    flood_b: float = 0.1,
) -> int:
    """Audit the batch-mean bounds for coefficient predictors on (x, y)."""
    sizes = [len(b) for b in batch_indices(x.shape[0], batch_size)]
    return jensen_violations(
        predict(g, x), predict(g_star, x), y, sizes, epsilon, flood_b
    )


def reference_instance(trials: int = 20000, seed: int = 2024) -> OracleInstance:
    """Desk-scale instance with both preconditions engineered to hold.

    The reference predictor is the population truth; the evaluated
    predictor is a uniformly perturbed copy, so its true risk sits well
    above anything the reference's empirical risk typically reaches.
    """
    shape = (3, 2)
    population = LinearGaussianPopulation(
        true_map=np.ones(shape), noise_std=np.full(shape, 0.5), input_std=1.0
    )
    return OracleInstance(
        population=population,
        g=np.full(shape, 1.5),
        g_star=np.ones(shape),
        epsilon=0.01,
        n_samples=25,
        trials=trials,
        margin_alpha=0.05,
        seed=seed,
    )


def run_full_oracle(instance: OracleInstance, jensen_draws: int = 10) -> OracleReport:
    """Estimator experiment plus randomized batch-mean bound audits."""
    if jensen_draws < 0:
        raise ConfigError(f"jensen_draws must be >= 0, got {jensen_draws}")
    report = run_estimator_experiment(instance)
    rng = Rng(instance.seed, ("jensen",))
    violations = 0
    for i in range(jensen_draws):
        r = rng.split("draw", i)
        n = max(2 * instance.n_samples, 8)
        x, y = sample(instance.population, n, r)
        batch = int(r.integers(1, instance.n_samples + 1))
        flood_b = float(r.uniform(0.0, 1.0))
        violations += jensen_audit(
            x, y, instance.g, instance.g_star, instance.epsilon, batch, flood_b
        )
    report.jensen_violations = violations
    return report
