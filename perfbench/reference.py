"""Inputs the benchmark generates, and computations it makes apart from wavebound.

Nothing here imports wavebound: the output checks compare the program
against these plain-numpy versions of the documented behaviour.
"""

from __future__ import annotations

import numpy as np

# Shape of the generated ETT-like CSV.
CSV_ROWS = 70_000
CSV_COLUMNS = 7
DAY = 96  # 15-minute steps per day
WEEK = 7 * DAY


def csv_values(seed: int) -> np.ndarray:
    """(CSV_ROWS, CSV_COLUMNS) float64 series for column c = 0..6:

    x_c(t) = (1 + 0.25 c) sin(2 pi t / 96 + phi_c)
             + 0.5 sin(2 pi t / 672 + psi_c) + 0.3 z_{c,t},

    with phases phi_c, psi_c ~ U[0, 2 pi) and z ~ N(0, 1), all drawn from
    numpy's PCG64 keyed by (seed, 1).
    """
    gen = np.random.default_rng([seed, 1])
    phi = gen.uniform(0.0, 2.0 * np.pi, size=CSV_COLUMNS)
    psi = gen.uniform(0.0, 2.0 * np.pi, size=CSV_COLUMNS)
    noise = gen.standard_normal((CSV_ROWS, CSV_COLUMNS))
    t = np.arange(CSV_ROWS, dtype=np.float64)[:, None]
    amp = 1.0 + 0.25 * np.arange(CSV_COLUMNS)
    return (
        amp * np.sin(2.0 * np.pi * t / DAY + phi)
        + 0.5 * np.sin(2.0 * np.pi * t / WEEK + psi)
        + 0.3 * noise
    )


def write_csv(path, values: np.ndarray) -> list[str]:
    """Write an ETT-style CSV (timestamp column, then numeric columns) with repr."""
    names = [f"x{c}" for c in range(values.shape[1])]
    stamps = np.datetime64("2016-07-01T00:00") + np.arange(values.shape[0]) * np.timedelta64(15, "m")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for stamp, row in zip(stamps.astype(str), values.tolist()):
            fh.write(stamp + "," + ",".join(repr(v) for v in row) + "\n")
    return names


def split_bounds(total: int) -> tuple[int, int]:
    """End rows of the train and validation segments of a 6:2:2 split."""
    return total * 6 // 10, total * 8 // 10


def reference_windows(series: np.ndarray, input_len: int, output_len: int):
    """Standardised 6:2:2 windows of a (T, K) series via sliding_window_view.

    Returns [(past, future)] for train, validation and test; every segment
    is z-scored with the train segment's mean and population std.
    """
    a, b = split_bounds(series.shape[0])
    train = series[:a]
    mean, std = train.mean(axis=0), train.std(axis=0)
    out = []
    for seg in (series[:a], series[a:b], series[b:]):
        z = (seg - mean) / std
        view = np.lib.stride_tricks.sliding_window_view(z, input_len + output_len, axis=0)
        view = view.transpose(0, 2, 1)  # (n, L + M, K)
        out.append((view[:, :input_len], view[:, input_len:]))
    return out


def init_params(seed: int, dims: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layer (weight (out, in), bias (out,)) pairs, U[-1/sqrt(in), 1/sqrt(in)].

    Drawn from numpy's PCG64 keyed by (seed, 2), apart from wavebound's own
    initialiser.
    """
    gen = np.random.default_rng([seed, 2])
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        layers.append(
            (gen.uniform(-bound, bound, (fan_out, fan_in)), gen.uniform(-bound, bound, fan_out))
        )
    return layers


def forward(layers, x: np.ndarray) -> list[np.ndarray]:
    """Hidden states of the tanh-tanh-identity MLP on flat inputs (n, L*K)."""
    states = [x]
    for i, (w, b) in enumerate(layers):
        z = states[-1] @ w.T + b
        states.append(z if i == len(layers) - 1 else np.tanh(z))
    return states


def mse(layers, past: np.ndarray, future: np.ndarray) -> float:
    """Mean squared error of the MLP over a window set."""
    pred = forward(layers, past.reshape(past.shape[0], -1))[-1]
    err = pred - future.reshape(future.shape[0], -1)
    return float(np.mean(err * err))


def train_epoch(layers, past, future, order, lr, decay, epsilon=None):
    """One epoch of the documented training step, written out in numpy.

    Per batch, for wave_indiv (`epsilon` given): source and target forward,
    per-element risk (batch mean of squared errors per (step, feature)), the
    +-1 mask (+1 where the source risk is at or above target risk -
    epsilon), backprop of mask * 2 (pred - y) / (n M K), Adam (beta
    0.9/0.999, eps 1e-8, bias corrected), then target <- decay * target +
    (1 - decay) * source.  For the plain objective (`epsilon` None) the
    mask is 1 and there is no target forward.  Returns (source layers,
    target layers) after the epoch.
    """
    src = [(w.copy(), b.copy()) for w, b in layers]
    tgt = [(w.copy(), b.copy()) for w, b in layers]
    flat = [p for pair in src for p in pair]
    m1 = [np.zeros_like(p) for p in flat]
    m2 = [np.zeros_like(p) for p in flat]
    for t, idx in enumerate(order, start=1):
        n = len(idx)
        x = past[idx].reshape(n, -1)
        y = future[idx].reshape(n, -1)
        states = forward(src, x)
        pred = states[-1]
        delta = 2.0 * (pred - y) / (n * y.shape[1])
        if epsilon is not None:
            target_pred = forward(tgt, x)[-1]
            risk = ((pred - y) ** 2).mean(axis=0)
            target_risk = ((target_pred - y) ** 2).mean(axis=0)
            delta *= np.where(risk >= target_risk - epsilon, 1.0, -1.0)
        grads = []
        for i in range(len(src) - 1, -1, -1):
            w, _ = src[i]
            grads[:0] = [delta.T @ states[i], delta.sum(axis=0)]
            if i > 0:
                delta = (delta @ w) * (1.0 - states[i] ** 2)
        flat = [p for pair in src for p in pair]
        new = []
        for j, (p, g) in enumerate(zip(flat, grads)):
            m1[j] = 0.9 * m1[j] + 0.1 * g
            m2[j] = 0.999 * m2[j] + 0.001 * g * g
            mhat = m1[j] / (1.0 - 0.9**t)
            vhat = m2[j] / (1.0 - 0.999**t)
            new.append(p - lr * mhat / (np.sqrt(vhat) + 1e-8))
        src = list(zip(new[0::2], new[1::2]))
        tgt = [
            (decay * tw + (1.0 - decay) * sw, decay * tb + (1.0 - decay) * sb)
            for (tw, tb), (sw, sb) in zip(tgt, src)
        ]
    return src, tgt


def plain_risk_moments(variance: float, elements: int) -> tuple[float, float]:
    """Mean and std of (plain estimate - true risk)^2 for Gaussian errors.

    The plain estimate averages `elements` iid squared errors of variance
    `variance`, i.e. variance * chi2_nu / nu with nu = elements.  With the
    central moments mu2 = 2 nu and mu4 = 12 nu (nu + 4) of chi2_nu, the
    squared deviation has mean 2 variance^2 / nu and variance
    variance^4 (12 (nu + 4) / nu^3 - 4 / nu^2).
    """
    nu = float(elements)
    mean = 2.0 * variance**2 / nu
    var = variance**4 * (12.0 * (nu + 4.0) / nu**3 - 4.0 / nu**2)
    return mean, float(np.sqrt(var))
