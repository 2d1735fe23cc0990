"""Per-output empirical risk and the training objectives built on it.

For a batch of N prediction/target pairs of shape (M, K), the per-element
risk matrix holds the batch mean of squared errors at each prediction step j
and feature k; its grand mean is the ordinary MSE.

Every objective is one fold, mean(|A - beta| + beta), of the per-element
risks r_jk (source) and, for the wavebound variants, the target network's
risks r*_jk.  A is r itself or its grand mean; beta is the bound:

  objective             A          beta
  plain                 r_jk       -inf
  flooding(b)           mean r     b
  constant_flooding(b)  r_jk       b
  wave_avg(eps)         mean r     mean r* - eps
  wave_indiv(eps)       r_jk       r*_jk - eps

The additive constant outside the absolute value does not change gradients;
it is kept so the reported value equals the raw risk whenever the risk sits
above its bound.  The fold is evaluated piecewise (A when A >= beta, else
2*beta - A), which makes the above-bound branch bit-exact and keeps an
infinite-epsilon sentinel (beta = -inf) from producing NaN.  Target
risks are constants under differentiation: no gradient flows into the
network that produced them.  Effective bounds may be negative; nothing is
clamped.

Gradient handling reduces to a sign mask: the derivative of each objective
w.r.t. r_jk is +1 when A sits at or above beta (descent) and -1 below it
(ascent).  Exact ties resolve to +1.  One `_fold` yields both the value and
this descent pattern (`_value_and_descent`); `objective_value`,
`objective_mask` and the trainer's step all read them from there, and the
risk matrix of an error array comes from `_risk`, which `per_element_risk`
and the step share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

OBJECTIVE_KINDS = ("plain", "flooding", "constant_flooding", "wave_avg", "wave_indiv")


@dataclass(frozen=True)
class ObjectiveKind:
    """Training objective selector with its constant (b or epsilon)."""

    kind: str
    b: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigError(f"objective must be one of {OBJECTIVE_KINDS}, got {self.kind!r}")
        # Written so that NaN fails too; epsilon = +inf stays legal (bound -inf).
        if not self.b >= 0.0:
            raise ConfigError(f"flood level b must be >= 0, got {self.b!r}")
        if not np.isfinite(self.b):
            raise ConfigError(f"flood level b must be finite, got {self.b!r}")
        if not self.epsilon >= 0.0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon!r}")

    @classmethod
    def plain(cls) -> "ObjectiveKind":
        return cls("plain")

    @classmethod
    def flooding(cls, b: float) -> "ObjectiveKind":
        return cls("flooding", b=b)

    @classmethod
    def constant_flooding(cls, b: float) -> "ObjectiveKind":
        return cls("constant_flooding", b=b)

    @classmethod
    def wave_avg(cls, epsilon: float) -> "ObjectiveKind":
        return cls("wave_avg", epsilon=epsilon)

    @classmethod
    def wave_indiv(cls, epsilon: float) -> "ObjectiveKind":
        return cls("wave_indiv", epsilon=epsilon)

    @property
    def needs_target(self) -> bool:
        return self.kind in ("wave_avg", "wave_indiv")

    def describe(self) -> str:
        if self.kind == "plain":
            return "plain"
        if self.kind in ("flooding", "constant_flooding"):
            return f"{self.kind}(b={self.b})"
        return f"{self.kind}(epsilon={self.epsilon})"


@dataclass
class RiskMatrix:
    """Batch-averaged squared error per (prediction step, feature)."""

    values: np.ndarray  # (M, K), entries >= 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ConfigError(f"risk matrix must be 2-D, got shape {self.values.shape}")

    @property
    def mean(self) -> float:
        # The sum and divide of ndarray.mean, without its Python wrapper.
        return float(np.add.reduce(self.values, axis=None) / self.values.size)


def _risk(err: np.ndarray) -> RiskMatrix:
    """RiskMatrix of an unchecked (N, M, K) error array, bit for bit (err * err).mean(axis=0)."""
    sums = np.add.reduce(err * err, axis=0)
    sums /= err.shape[0]
    return RiskMatrix(sums)


def per_element_risk(pred: np.ndarray, target: np.ndarray) -> RiskMatrix:
    """(N, M, K) pred/target -> RiskMatrix of batch-mean squared errors."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ConfigError(f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.ndim != 3 or pred.shape[0] < 1:
        raise ConfigError(f"expected (N, M, K) with N >= 1, got {pred.shape}")
    return _risk(pred - target)


def _flood(values, bound, descent):
    """The flooded values, given the descent pattern values >= bound."""
    return np.where(descent, values, 2.0 * np.asarray(bound) - values)


def flood_elementwise(values: np.ndarray, bound) -> np.ndarray:
    """|v - bound| + bound, piecewise: v at or above the bound, 2*bound - v below."""
    values = np.asarray(values, dtype=np.float64)
    return _flood(values, bound, values >= bound)


def wave_elementwise(source_values: np.ndarray, target_values: np.ndarray, epsilon: float) -> np.ndarray:
    """Element-wise risk flooded at the dynamic bound target - epsilon."""
    source_values = np.asarray(source_values, dtype=np.float64)
    target_values = np.asarray(target_values, dtype=np.float64)
    if source_values.shape != target_values.shape:
        raise ConfigError(
            f"source risk shape {source_values.shape} != target {target_values.shape}"
        )
    return flood_elementwise(source_values, target_values - epsilon)


def _fold(kind: ObjectiveKind, source: RiskMatrix, target: RiskMatrix | None):
    """(A, beta) such that the objective is mean(|A - beta| + beta).

    A is the risk matrix itself or its grand mean (a scalar); beta is a
    scalar or an (M, K) matrix of bounds.
    """
    if kind.kind == "plain":
        return source.values, -np.inf
    if kind.kind == "flooding":
        return source.mean, kind.b
    if kind.kind == "constant_flooding":
        return source.values, kind.b
    if target is None:
        raise ConfigError(f"{kind.kind} needs a target risk matrix")
    if kind.kind == "wave_avg":
        return source.mean, target.mean - kind.epsilon
    if source.values.shape != target.values.shape:
        raise ConfigError(
            f"source risk shape {source.values.shape} != target {target.values.shape}"
        )
    return source.values, target.values - kind.epsilon


def _value_and_descent(kind: ObjectiveKind, source: RiskMatrix, target: RiskMatrix | None):
    """(objective value, descent pattern A >= beta) from one `_fold`.

    The pattern is a numpy bool, or an (M, K) bool matrix for an
    element-wise fold.
    """
    folded, bound = _fold(kind, source, target)
    descent = np.greater_equal(folded, bound)
    flooded = _flood(folded, bound, descent)
    return float(np.add.reduce(flooded, axis=None) / flooded.size), descent


def _signs(descent) -> np.ndarray:
    """+1.0 where the pattern descends, -1.0 where it ascends."""
    return np.where(descent, 1.0, -1.0)


def objective_value(
    kind: ObjectiveKind, source: RiskMatrix, target: RiskMatrix | None = None
) -> float:
    """Scalar training objective for one batch."""
    return _value_and_descent(kind, source, target)[0]


def objective_mask(
    kind: ObjectiveKind, source: RiskMatrix, target: RiskMatrix | None = None
) -> np.ndarray:
    """(M, K) matrix of +-1: the objective's derivative w.r.t. each r_jk.

    A scalar fold (flooding, wave_avg) gives every element the same sign.
    """
    descent = _value_and_descent(kind, source, target)[1]
    return _signs(np.broadcast_to(descent, source.values.shape))
