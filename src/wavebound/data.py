"""Series generation, CSV ingestion and output, splitting, windowing, batching.

A series is a (T, K) float64 matrix: T time steps, K features.  A window
pairs L past rows with the M rows that follow immediately; stride is 1, so
a segment of length T' yields n = T' - L - M + 1 windows.  A segment's
windows are held as one `WindowSet`: a C-contiguous (n, L, K) `past` array
and an (n, M, K) `future` array, copied out of a single
`sliding_window_view` of the segment, so past[i] = segment[i : i+L] and
future[i] = segment[i+L : i+L+M].  Splits are chronological, applied to the
raw series before windowing, so windows never cross a split boundary.
Standardization statistics come from the train segment alone and are shared
by the validation and test segments.  Every file the package writes goes
through `atomic_open`, so no failed write leaves a partial file at its path.
"""

from __future__ import annotations

import contextlib
import csv
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError
from .rng import Rng


@dataclass
class SeriesDataset:
    """Immutable multivariate series plus the statistics used to scale it.

    mean/std record the affine map already applied to `values`
    (raw = values * std + mean); they stay at 0/1 until a split attaches
    train-segment statistics.
    """

    values: np.ndarray
    feature_names: list[str]
    mean: np.ndarray = field(default=None)  # type: ignore[assignment]
    std: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise DataError(f"series must be (T, K) with T >= 1, got shape {self.values.shape}")
        if len(self.feature_names) != self.values.shape[1]:
            raise DataError(
                f"{len(self.feature_names)} feature names for {self.values.shape[1]} columns"
            )
        k = self.values.shape[1]
        if self.mean is None:
            self.mean = np.zeros(k)
        if self.std is None:
            self.std = np.ones(k)
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != (k,) or self.std.shape != (k,):
            raise DataError("mean/std must be per-feature vectors")
        if not (self.std > 0).all():
            raise DataError("std entries must be positive")
        self.values.setflags(write=False)

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def destandardize(self, values: np.ndarray) -> np.ndarray:
        """Map scaled values back to the raw scale of the source series."""
        return np.asarray(values) * self.std + self.mean


@dataclass(frozen=True, eq=False)
class WindowSet:
    """All windows of one segment: past (n, L, K) and future (n, M, K).

    Both are C-contiguous float64 arrays that own their memory.
    """

    past: np.ndarray
    future: np.ndarray

    def __len__(self) -> int:
        return self.past.shape[0]


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
        if len(parts) != 3 or not all(0 < p < np.inf for p in parts):
            raise ConfigError(f"split ratios need three positive finite parts, got {text!r}")
        total = sum(parts)
        return cls((parts[0] / total, parts[1] / total, parts[2] / total))

    def boundaries(self, total: int) -> tuple[int, int]:
        """Row indices ending the train and validation segments."""
        a = round(total * self.ratios[0])
        b = round(total * (self.ratios[0] + self.ratios[1]))
        a = min(max(a, 1), total)
        b = min(max(b, a), total)
        return a, b


def synth_series(length: int, sigma: float, seed: int) -> SeriesDataset:
    """Two superposed sines (periods 32 and 48) plus N(0, sigma^2) noise.

    f(t) = 2*sin(2*pi*t/32) + sin(2*pi*t/48) + sigma*z_t for t = 0..length-1.
    The noiseless series is exactly periodic with period 96.
    """
    if length < 1:
        raise ConfigError("length must be >= 1")
    if not 0 <= sigma < np.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma!r}")
    t = np.arange(length, dtype=np.float64)
    clean = 2.0 * np.sin(2.0 * np.pi * t / 32.0) + np.sin(2.0 * np.pi * t / 48.0)
    noise = sigma * Rng(seed).normal(size=length)
    return SeriesDataset((clean + noise)[:, None], ["signal"])


def load_csv(path) -> SeriesDataset:
    """Read a series CSV: header row, timestamp first column, numeric rest.

    The timestamp column is ignored for modeling.  Rows are kept in file
    order.  Ragged rows, unparseable numeric cells and non-finite values
    (nan, inf) are hard errors that name the file row and column.
    """
    rows = []
    blank_lines = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset") from None
        if len(header) < 2:
            raise DataError(f"{path}: need a timestamp column plus at least one feature")
        width = len(header)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                blank_lines.append(lineno)
                continue
            if len(row) != width:
                raise DataError(f"{path}: row {lineno}: expected {width} columns, got {len(row)}")
            parsed = []
            for col, cell in enumerate(row[1:], start=2):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{path}: row {lineno}, column {col}: cannot parse {cell!r} as a number"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    values = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        index, col = np.argwhere(~finite)[0]
        lineno = index + 2
        for blank in blank_lines:  # ascending, so each shifts the later rows
            if blank <= lineno:
                lineno += 1
        bad = float(values[index, col])
        raise DataError(f"{path}: row {lineno}, column {col + 2}: non-finite value {bad!r}")
    return SeriesDataset(values, header[1:])


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open `<path>.tmp` for writing; it replaces path only if the block succeeds.

    Mode "w" writes utf-8 text with bare newline ends, "wb" bytes; there is
    no other mode.  On any exception the temporary file is removed and the
    exception re-raised, so path keeps its earlier content.  A symlink at
    path is replaced, not followed.
    """
    tmp = f"{os.fspath(path)}.tmp"
    text = {} if mode == "wb" else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_csv(dataset: SeriesDataset, path) -> None:
    """Write a dataset in the load_csv format, with row indices as timestamps.

    Rows stream to the file one at a time; `atomic_open` keeps an
    interrupted write from leaving a shorter series at path.
    """
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["date"] + list(dataset.feature_names))
        for i, row in enumerate(dataset.values):
            writer.writerow([i] + [repr(float(v)) for v in row])


def write_rows(path, header, rows) -> None:
    """Write a header and comma-joined rows as utf-8 lines with bare newline ends.

    Floats are written as repr(float(v)), so they round-trip exactly; every
    other field as str(v).
    """
    lines = [header] + [
        [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row]
        for row in rows
    ]
    with atomic_open(path) as fh:
        fh.writelines(",".join(line) + "\n" for line in lines)


def select_feature(dataset: SeriesDataset, name: str | None = None) -> SeriesDataset:
    """Univariate view of one column; defaults to the last (target) column."""
    if name is None:
        col = dataset.n_features - 1
    else:
        if name not in dataset.feature_names:
            raise DataError(f"unknown feature {name!r}; available: {dataset.feature_names}")
        col = dataset.feature_names.index(name)
    return SeriesDataset(
        dataset.values[:, col : col + 1].copy(),
        [dataset.feature_names[col]],
        mean=dataset.mean[col : col + 1].copy(),
        std=dataset.std[col : col + 1].copy(),
    )


def split_and_standardize(
    dataset: SeriesDataset, spec: SplitSpec, standardize: bool = True
) -> tuple[SeriesDataset, SeriesDataset, SeriesDataset]:
    """Chronological split; z-score all segments with train-segment stats.

    A constant feature would give std 0; it is clamped to 1 with a warning
    so the standardized column is all zeros instead of NaN.
    """
    a, b = spec.boundaries(dataset.length)
    segments = (dataset.values[:a], dataset.values[a:b], dataset.values[b:])
    if min(s.shape[0] for s in segments) < 1:
        raise DataError(
            f"series of length {dataset.length} too short for split {spec.ratios}"
        )
    if not standardize:
        return tuple(SeriesDataset(s.copy(), list(dataset.feature_names)) for s in segments)
    train = segments[0]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    degenerate = std == 0
    if degenerate.any():
        names = [n for n, d in zip(dataset.feature_names, degenerate) if d]
        warnings.warn(f"constant feature(s) {names}: std clamped to 1", stacklevel=2)
        std = np.where(degenerate, 1.0, std)
    return tuple(
        SeriesDataset((s - mean) / std, list(dataset.feature_names), mean.copy(), std.copy())
        for s in segments
    )


def windowize(segment: SeriesDataset, input_len: int, output_len: int) -> WindowSet:
    """All stride-1 windows of a segment: count = T' - L - M + 1."""
    if input_len < 1 or output_len < 1:
        raise ConfigError("window lengths must be >= 1")
    values = segment.values
    span = input_len + output_len
    if values.shape[0] < span:
        warnings.warn(
            f"segment of length {values.shape[0]} shorter than "
            f"{input_len}+{output_len}; no windows",
            stacklevel=2,
        )
        k = values.shape[1]
        return WindowSet(np.empty((0, input_len, k)), np.empty((0, output_len, k)))
    # (n, K, span) view of the segment, transposed to (n, span, K)
    view = sliding_window_view(values, span, axis=0).transpose(0, 2, 1)
    return WindowSet(view[:, :input_len].copy(), view[:, input_len:].copy())


def stack_windows(windows: WindowSet) -> tuple[np.ndarray, np.ndarray]:
    """The (n, L, K) past and (n, M, K) future tensors of a window set."""
    if not windows:
        raise DataError("empty window set")
    return windows.past, windows.future


def batch_indices(
    count: int, batch_size: int, rng: Rng | None = None, shuffle: bool = False
) -> list[np.ndarray]:
    """Index arrays covering range(count); the final short batch is kept."""
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    if count < 1:
        raise DataError("cannot batch an empty window set")
    if shuffle:
        if rng is None:
            raise ConfigError("shuffling requires an rng")
        order = rng.permutation(count)
    else:
        order = np.arange(count)
    return [order[i : i + batch_size] for i in range(0, count, batch_size)]
