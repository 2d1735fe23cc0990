"""Timing against the shared host's speed of the moment.

The host's speed drifts by up to a half over seconds to minutes (see
README), so two runs of the same code can differ by more than any change
worth measuring.  A `Clock` therefore runs a *probe* between the units of
work it times: a small plain-numpy version of the workload's own kind of
work, which uses no wavebound code.  A unit's nominal time is

    wall time x NOMINAL_S / median time of the probes near it,

the time the unit would have taken on a host where the probe takes
NOMINAL_S.  A change to wavebound moves the unit's wall time and not the
probe's, so it moves the nominal time by the same factor; a slower or faster
host moves both.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

import reference

NOMINAL_S = 4e-3  # a probe's time at the nominal host speed; each is sized to about this here
PROBES_PER_GROUP = 3
WINDOW_S = 1.0  # probes that start this close to a unit rate the host during it


class Clock:
    """Times units of work in nominal seconds; see the module docstring.

    A group of PROBES_PER_GROUP probe calls runs when the clock is made and
    after every unit.  The host's speed during a unit is the median time of
    the probes that started within WINDOW_S of it.
    """

    def __init__(self, probe):
        self.probe = probe
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        self.units: list[tuple[float, float]] = []  # (start, end)
        self._probe_group()

    def _probe_group(self) -> None:
        for _ in range(PROBES_PER_GROUP):
            started = time.perf_counter()
            self.probe()
            self.probes.append((started, time.perf_counter() - started))

    def time(self, fn, *args):
        """(fn(*args), unit id) of one timed call."""
        started = time.perf_counter()
        result = fn(*args)
        self.units.append((started, time.perf_counter()))
        self._probe_group()
        return result, len(self.units) - 1

    def nominal(self, unit: int) -> float:
        """Nominal seconds of one unit."""
        start, end = self.units[unit]
        starts = [t for t, _ in self.probes]
        lo = bisect.bisect_left(starts, start - WINDOW_S)
        hi = bisect.bisect_right(starts, end + WINDOW_S)
        near = statistics.median(seconds for _, seconds in self.probes[lo:hi])
        return (end - start) * NOMINAL_S / near


def train_probe(hidden: int, steps: int, eval_windows: int, epsilon=None):
    """A training round in miniature: `steps` optimizer steps of batch 32 and
    a forward over `eval_windows` windows, by `reference` on fixed data.

    96 -> hidden -> hidden -> 96 MLP; `epsilon` None is the plain objective,
    else wave_indiv.
    """
    dims = [96, hidden, hidden, 96]
    layers = reference.init_params(0, dims)
    gen = np.random.default_rng([0, 3])
    past = gen.standard_normal((32 * steps, 96, 1))
    future = gen.standard_normal((32 * steps, 96, 1))
    order = [np.arange(i * 32, (i + 1) * 32) for i in range(steps)]
    eval_past = gen.standard_normal((eval_windows, 96, 1))
    eval_future = gen.standard_normal((eval_windows, 96, 1))

    def probe():
        reference.train_epoch(layers, past, future, order, 1e-3, 0.99, epsilon)
        reference.mse(layers, eval_past, eval_future)

    return probe


def oracle_probe(trials: int):
    """Oracle trials in miniature, by plain numpy: per trial a fresh PCG64
    stream, a (25, 3, 2) draw of x and y, the element-wise risks of two
    coefficient predictors, their wave-flooded mean, flips and margins.
    """
    g = np.full((3, 2), 1.5)
    g_star = np.ones((3, 2))
    noise_std = np.full((3, 2), 0.5)
    epsilon = 0.01

    def probe():
        for t in range(trials):
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0, spawn_key=(t,))))
            x = gen.normal(size=(25, 3, 2))
            y = x + noise_std[None] * gen.normal(size=(25, 3, 2))
            err, err_star = g[None] * x - y, g_star[None] * x - y
            risk, risk_star = (err * err).mean(axis=0), (err_star * err_star).mean(axis=0)
            flooded = np.where(risk >= risk_star - epsilon, risk, 2 * (risk_star - epsilon) - risk)
            flooded.mean()
            flipped = risk < risk_star - epsilon
            if flipped.any():
                (risk_star[flipped] >= 1.0).any()
            np.count_nonzero(risk_star - risk - epsilon > 0.05)

    return probe
