"""Every configuration key, declared once.

A `Key` has a kind (how its text parses, which Python values it takes), a
default text, a help text and a bound: clauses checked in order.  The library
checks its values with `Key.check` and the CLI reads its text with `Key.read`,
so both raise the same `ConfigError` for the same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError

OBJECTIVE_KINDS = ("plain", "flooding", "constant_flooding", "wave_avg", "wave_indiv")
EVAL_NETWORKS = ("source", "target")


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/validation/test ratios, e.g. (0.6, 0.2, 0.2)."""

    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise ConfigError("need exactly three split ratios")
        if not all(0 < r < np.inf for r in self.ratios):
            raise ConfigError(f"split ratios must be positive and finite, got {self.ratios}")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {self.ratios}")

    @classmethod
    def parse(cls, text: str) -> "SplitSpec":
        """Parse colon-separated weights like "6:2:2" or "7:1:2"."""
        try:
            parts = [float(p) for p in text.split(":")]
        except ValueError:
            raise ConfigError(f"cannot parse split ratios {text!r}") from None
        total = sum(parts)
        if len(parts) != 3 or not all(p > 0 for p in parts) or not total < np.inf:
            raise ConfigError(f"split ratios need three positive parts with a finite sum, got {text!r}")
        return cls((parts[0] / total, parts[1] / total, parts[2] / total))

    def boundaries(self, total: int) -> tuple[int, int]:
        """Row indices ending the train and validation segments."""
        a = round(total * self.ratios[0])
        b = round(total * (self.ratios[0] + self.ratios[1]))
        a = min(max(a, 1), total)
        b = min(max(b, a), total)
        return a, b


_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class Kind(NamedTuple):
    text: str  # as a message names it: "must be {text}"
    accepts: Callable[[object], bool]  # whether a Python value is of this kind
    parse: Callable[[str], object]  # config text -> value; `Key.read` refuses a ValueError too


# A bool is an int to Python, but never a count, a seed or a number.
INTEGER = Kind("an integer", lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool), int)
NON_NEGATIVE = Kind("a non-negative integer", lambda v: INTEGER.accepts(v) and v >= 0, int)
NUMBER = Kind("a number", lambda v: isinstance(v, (int, float, np.integer, np.floating))
              and not isinstance(v, bool), float)
BOOLEAN = Kind("true/false", lambda v: isinstance(v, bool), lambda text: _BOOLEANS.get(text.lower()))
TEXT = Kind("text", lambda v: isinstance(v, str), str)
RATIOS = Kind("split ratios", lambda v: isinstance(v, SplitSpec), SplitSpec.parse)


def choice(options: tuple[str, ...]) -> Kind:
    return Kind(f"one of {options}", lambda v: v in options, str)


# Bound clauses: (what the value must do, the test).  Written so that NaN fails each.
AT_LEAST_1 = ("be >= 1", lambda v: v >= 1)
AT_LEAST_0 = ("be >= 0", lambda v: v >= 0)
FINITE = ("be finite", math.isfinite)
FINITE_AT_LEAST_0 = ("be finite and >= 0", lambda v: 0 <= v < math.inf)
FINITE_ABOVE_0 = ("be finite and > 0", lambda v: 0 < v < math.inf)
UNIT_INTERVAL = ("lie in [0, 1]", lambda v: 0 <= v <= 1)


class Key:
    """One config key: its kind, default text, help text and bound clauses."""

    def __init__(self, name: str, kind: Kind, default: str, help: str, *bound):
        self.name, self.kind, self.default, self.help = name, kind, default, help
        self.rules = ((f"be {kind.text}", kind.accepts), *bound)  # the kind, then the bound
        self.value = self.read(default, name)  # the default, parsed

    def check(self, value):
        """value, unless it is not of this key's kind or breaks its bound: then ConfigError."""
        for what, holds in self.rules:
            if not holds(value):
                raise ConfigError(f"{self.name} must {what}, got {value!r}")
        return value

    def read(self, text: str, label: str):
        """The checked value of text; ConfigError naming label if text is not of this kind."""
        try:
            value = self.kind.parse(text)
            ok = self.kind.accepts(value)
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(f"{label} must be {self.kind.text}, got {text!r}")
        return self.check(value)


EPSILON = Key("epsilon", NUMBER, "0.01", "bound slack below the reference risk; inf: no bound", AT_LEAST_0)

TRAIN = {key.name: key for key in (
    Key("data", choice(("synth", "csv")), "synth", "`synth` or `csv`"),
    Key("length", INTEGER, "2000", "synthetic series length", AT_LEAST_1),
    Key("sigma", NUMBER, "0.5", "synthetic noise level", FINITE_AT_LEAST_0),
    Key("data_seed", NON_NEGATIVE, "7", "synthetic noise seed"),
    Key("csv_path", TEXT, "", "input CSV when `data=csv`"),
    Key("feature", TEXT, "", "column to keep; empty keeps the last one"),
    Key("univariate", BOOLEAN, "true", "keep a single feature column"),
    Key("ratios", RATIOS, "6:2:2", "chronological train:val:test split"),
    Key("standardize", BOOLEAN, "true", "z-score with train-split statistics only"),
    Key("input_len", INTEGER, "96", "past window length", AT_LEAST_1),
    Key("output_len", INTEGER, "96", "forecast horizon", AT_LEAST_1),
    Key("hidden_dim", INTEGER, "64", "width of both hidden layers", AT_LEAST_1),
    Key("objective", choice(OBJECTIVE_KINDS), "plain", "training objective"),
    Key("b", NUMBER, "0.0", "flood level of the flooding objectives", AT_LEAST_0, FINITE),
    EPSILON,
    Key("batch_size", INTEGER, "32", "windows per step; the final short batch is kept", AT_LEAST_1),
    Key("learning_rate", NUMBER, "0.0001", "Adam step size", AT_LEAST_0, FINITE),
    Key("ema_decay", NUMBER, "0.99", "target update tau <- a*tau + (1-a)*theta", UNIT_INTERVAL),
    Key("max_epochs", INTEGER, "30", "epoch limit", AT_LEAST_1),
    Key("patience", INTEGER, "3", "epochs without a better validation MSE before a stop", AT_LEAST_1),
    Key("seed", NON_NEGATIVE, "0", "controls init and batch shuffling"),
    Key("eval_network", choice(EVAL_NETWORKS), "target", "report the EMA `target` or the `source`"),
)}

THEOREM = {key.name: key for key in (
    Key("rows", INTEGER, "3", "output steps M of the population", AT_LEAST_1),
    Key("cols", INTEGER, "2", "features K of the population", AT_LEAST_1),
    Key("true_coeff", NUMBER, "1.0", "every entry of the true map w"),
    Key("noise_std", NUMBER, "0.5", "every entry of the noise std"),
    Key("input_std", NUMBER, "1.0", "std of each input coordinate", FINITE_ABOVE_0),
    Key("g_offset", NUMBER, "0.5", "evaluated predictor g = truth + offset"),
    Key("g_star_offset", NUMBER, "0.0", "reference predictor g* = truth + offset"),
    EPSILON,
    Key("n_samples", INTEGER, "25", "training-set size per trial", AT_LEAST_1),
    Key("trials", INTEGER, "20000", "Monte-Carlo trials", AT_LEAST_1),
    Key("margin_alpha", NUMBER, "0.05", "margin of the theorem's bound", FINITE_ABOVE_0),
    Key("seed", NON_NEGATIVE, "2024", "oracle seed"),
    Key("jensen_draws", NON_NEGATIVE, "10", "randomized batch-mean bound audits"),
)}
