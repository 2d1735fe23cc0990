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
from dataclasses import dataclass, fields

import numpy as np

from .config import THEOREM
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
        THEOREM["input_std"].check(self.input_std)
        if (self.noise_std < 0).any():
            raise ConfigError("noise_std entries must be >= 0")
        variance = (self.true_map * self.input_std) ** 2 + self.noise_std**2
        if (variance == 0).any():
            raise ConfigError("population has a zero-variance output element")

    @property
    def shape(self) -> tuple[int, int]:
        return self.true_map.shape


def _joint(x: np.ndarray, z: np.ndarray, input_std, true_map, noise_std) -> None:
    """Standard normals to a joint sample in place: x *= input_std, z = true_map*x + noise_std*z."""
    x *= input_std
    z *= noise_std
    z += true_map * x


def sample(population: LinearGaussianPopulation, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw n joint samples; returns x and y, both (n, M, K)."""
    m, k = population.shape
    x = rng.normal(size=(n, m, k))
    y = rng.normal(size=(n, m, k))
    _joint(x, y, population.input_std, population.true_map, population.noise_std)
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
        for key in INSTANCE_KEYS:
            key.check(getattr(self, key.name))


INSTANCE_KEYS = tuple(THEOREM[f.name] for f in fields(OracleInstance) if f.name in THEOREM)


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


def _risk_rows(err: np.ndarray) -> np.ndarray:
    """(n, M*K, c) errors, trials last, to (c, M*K) contiguous rows of mean squares.

    Each sum over n runs in the order of one trial's (err * err).mean(axis=0)
    over its (n, M, K) block: row by row when M*K > 1, which a reduce over
    axis 0 repeats; pairwise along n when M*K == 1, which only a reduce along
    a contiguous axis repeats.
    """
    n, mk, c = err.shape
    if mk == 1:
        return _mean_squares(np.ascontiguousarray(err.reshape(n, c).T), axis=1)[:, None]
    return np.ascontiguousarray(_mean_squares(err, axis=0).T)


def run_estimator_experiment(instance: OracleInstance) -> OracleReport:
    """Estimate MSEs of the plain and flooded risk estimators by simulation.

    Per trial: draw a fresh training set, form both pooled estimates, and
    accumulate squared deviations from the true risk.  Per-trial statistics
    feed the Monte-Carlo standard errors.  Trial t takes the t-th block of
    2*n*M*K normals of the one stream `Rng(seed, ("oracle",))`, x first and
    then the noise: what the t-th `sample(population, n, rng)` call draws.
    Trials run CHUNK at a time, one draw per chunk, each statistic reduced
    in the per-trial order.

    The chunk's draw is copied once into a trials-last (2, n, M*K, chunk)
    layout, with the parameters as (M*K, 1) columns, so every ufunc up to
    the per-element risks runs over M*K*chunk-element inner loops.  Each
    sum over n keeps a trial's order (see `_risk_rows`), and the risks go
    back to one contiguous row per trial before the per-trial means,
    which numpy sums pairwise once M*K >= 8.
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

    # (M*K, 1) columns broadcast along the trial axis, which is innermost
    g, g_star, true_map, noise_std = (
        a.reshape(-1, 1) for a in (instance.g, instance.g_star, pop.true_map, pop.noise_std)
    )
    for lo in range(0, trials, CHUNK):
        hi = min(lo + CHUNK, trials)
        draws = rng.normal(size=(hi - lo, 2 * n * m * k))
        # one copy to (2, n, M*K, chunk); x and y are its halves, y holding the noise z
        x, y = draws.T.copy().reshape(2, n, m * k, hi - lo)
        del draws  # one copy of the chunk's draws at a time
        _joint(x, y, pop.input_std, true_map, noise_std)
        # (chunk, M*K): a row mean sums the M*K risks as a trial's .mean() does
        risk_g = _risk_rows(g * x - y)
        risk_gs = _risk_rows(g_star * x - y)
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


def _jensen_sides(source_pred, target_pred, targets, sizes: list[int], epsilon, flood_b):
    """Both sides of both batch-mean bounds: per element (lhs, rhs), then the flooded scalars."""
    weights = np.array(sizes, dtype=np.float64) / sum(sizes)
    src, tgt = [], []
    start = 0
    for size in sizes:
        stop = start + size
        src.append(_mean_squares(source_pred[start:stop] - targets[start:stop]))
        tgt.append(_mean_squares(target_pred[start:stop] - targets[start:stop]))
        start = stop
    src = np.stack(src).reshape(len(sizes), -1)  # (T, M*K): a row mean is one batch's .mean()
    tgt = np.stack(tgt).reshape(len(sizes), -1)
    pooled_src = np.dot(weights, src)

    lhs = wave_elementwise(pooled_src, np.dot(weights, tgt), epsilon)
    rhs = np.dot(weights, wave_elementwise(src, tgt, epsilon))
    lhs_flood = float(flood_elementwise(pooled_src.mean(), flood_b))
    flooded = flood_elementwise(src.mean(axis=1), flood_b)
    rhs_flood = sum(w * f for w, f in zip(weights.tolist(), flooded.tolist()))
    return lhs, rhs, lhs_flood, rhs_flood


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
    lhs, rhs, lhs_flood, rhs_flood = _jensen_sides(
        source_pred, target_pred, targets, sizes, epsilon, flood_b
    )
    return int(np.count_nonzero(lhs > rhs + tol)) + int(lhs_flood > rhs_flood + tol)


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
    THEOREM["jensen_draws"].check(jensen_draws)
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
