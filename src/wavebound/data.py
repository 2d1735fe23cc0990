"""Series generation, CSV ingestion and output, splitting, windowing, batching.

A series is a (T, K) float64 matrix: T time steps, K features.  A window
pairs L past rows with the M rows that follow immediately; stride is 1, so
a segment of length T' yields n = T' - L - M + 1 windows.  A segment's
windows are held as one `WindowSet`: an (n, L, K) `past` and an (n, M, K)
`future`, the two halves of a single `sliding_window_view` of the segment,
so past[i] = segment[i : i+L] and future[i] = segment[i+L : i+L+M].  They
are read-only views of the segment's frozen values, not copies: a set costs
the segment's memory, not n*(L+M)*K floats.  Splits are chronological,
applied to the raw series before windowing, so windows never cross a split
boundary.  Standardization statistics come from the train segment alone and
are shared by the validation and test segments.  `checked_windows` decides
whether a stacked window set fits a model.  Every file the package writes
goes through `atomic_open`, so no failed write leaves a partial file at its
path.
"""

from __future__ import annotations

import contextlib
import csv
import os
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import TRAIN, SplitSpec
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

    def __reduce__(self):
        # Rebuild through the constructor, which checks and freezes the values.
        return (SeriesDataset, (self.values, self.feature_names, self.mean, self.std))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class WindowSet:
    """All windows of one segment: past (n, L, K) and future (n, M, K).

    Both are float64 read-only views of the segment's values (an empty set
    holds two empty arrays).  Consecutive windows overlap in memory, so code
    that needs contiguous rows copies the windows it uses, as `evaluate`
    does one chunk at a time.
    """

    past: np.ndarray
    future: np.ndarray

    def __len__(self) -> int:
        return self.past.shape[0]


def synth_series(length: int, sigma: float, seed: int) -> SeriesDataset:
    """Two superposed sines (periods 32 and 48) plus N(0, sigma^2) noise.

    f(t) = 2*sin(2*pi*t/32) + sin(2*pi*t/48) + sigma*z_t for t = 0..length-1.
    The noiseless series is exactly periodic with period 96.
    """
    TRAIN["length"].check(length)
    TRAIN["sigma"].check(sigma)
    t = np.arange(length, dtype=np.float64)
    clean = 2.0 * np.sin(2.0 * np.pi * t / 32.0) + np.sin(2.0 * np.pi * t / 48.0)
    noise = sigma * Rng(seed).normal(size=length)
    return SeriesDataset((clean + noise)[:, None], ["signal"])


# Where numpy's reader and csv.reader + float() can part: the csv quote, and
# the separators \x1c-\x1f, which numpy strips from a number as whitespace
# and float() does not.
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'


def load_csv(path) -> SeriesDataset:
    """Read a series CSV: header row, timestamp first column, numeric rest.

    The timestamp column is ignored for modeling.  Rows are kept in file
    order.  Ragged rows, unparseable numeric cells and non-finite values
    (nan, inf) are hard errors that name the file row and column; bytes
    that are not utf-8 are a hard error that names the file row.

    csv.reader reads the header, which must sit on one physical line, and
    numpy's C reader (`np.loadtxt`) reads the body in one call.  That result
    is kept when the body holds none of `_CSV_ONLY`, every row has the
    header's width, there is at least one row and every value is finite.
    Otherwise `_load_csv_rows`, a csv.reader loop that calls float() on each
    cell, reads the file again: it reports the error, or accepts what
    float() takes and numpy does not (`1_0`, Unicode digits, quoted cells).
    Both give the same values bit for bit.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader([fh.readline()], strict=True), [])
            body = _plain_body(fh)
    except (OSError, ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        body = None
    if (body is not None and body.shape[0] and body.shape[1] == len(header) > 1
            and np.isfinite(body).all()):
        return SeriesDataset(np.ascontiguousarray(body[:, 1:]), header[1:])
    try:
        return _load_csv_rows(path)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _plain_body(fh) -> np.ndarray | None:
    """The rest of fh parsed by np.loadtxt, or None if it holds any of `_CSV_ONLY`.

    Column 0, the timestamp, is never parsed.  No `usecols` is passed, so
    numpy rejects a row whose width differs from the first row's.
    """
    start = fh.tell()
    for chunk in iter(lambda: fh.read(1 << 20), ""):  # 1 MiB at a time keeps the peak low
        if any(char in chunk for char in _CSV_ONLY):
            return None
    fh.seek(start)
    with warnings.catch_warnings():  # an empty body is the loop's to report
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=np.float64,
                          converters={0: lambda cell: 0.0})


def utf8_error_line(raw: bytes, exc: UnicodeDecodeError) -> tuple[int, bytes]:
    """(line number, bytes) of the sequence that exc found not utf-8 in raw."""
    head = raw[: exc.start]  # lines end at \n, \r\n or a lone \r, as text-mode reads see them
    line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return line, raw[exc.start : exc.end]


def _not_utf8(path) -> DataError:
    """The error for a file that is not utf-8, naming the row of its first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row, bad = utf8_error_line(raw, exc)
        return DataError(f"{path}: row {row}: cannot decode {bad!r} as utf-8")
    return DataError(f"{path}: not utf-8")


def _csv_records(fh, path):
    """csv.reader over fh as (first file line, record) pairs.

    A quoted cell may hold newlines, so a record's first line is one past
    the reader's `line_num` after the record before.  A csv.Error is raised
    as a DataError that names the row.
    """
    reader = csv.reader(fh)
    try:
        first = 1
        for record in reader:
            yield first, record
            first = reader.line_num + 1
    except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
        raise DataError(f"{path}: row {reader.line_num}: {exc}") from None


def _load_csv_rows(path) -> SeriesDataset:
    """`load_csv` by csv.reader and float(), one cell at a time: its reference and fallback."""
    rows = []
    linenos = []  # file line of each parsed row; blank lines are skipped
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    with fh:
        reader = _csv_records(fh, path)
        try:
            _, header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty dataset") from None
        if len(header) < 2:
            raise DataError(f"{path}: need a timestamp column plus at least one feature")
        width = len(header)
        for lineno, row in reader:
            if not row:
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
            linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: empty dataset")
    values = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        index, col = np.argwhere(~finite)[0]
        bad = float(values[index, col])
        raise DataError(f"{path}: row {linenos[index]}, column {col + 2}: non-finite value {bad!r}")
    return SeriesDataset(values, header[1:])


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open `<path>.<pid>.tmp` for writing; it replaces path only if the block succeeds.

    Mode "w" writes utf-8 text with bare newline ends, "wb" bytes; there is
    no other mode.  The temporary file is created exclusively, so a file of
    that name which this call did not make is never truncated: the open
    fails instead.  On any exception after the open the temporary file is
    removed and the exception re-raised, so path keeps its earlier content.
    A symlink at path is replaced, not followed.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    text = {} if mode == "wb" else {"encoding": "utf-8", "newline": "\n"}
    fh = open(tmp, mode.replace("w", "x"), **text)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_csv(dataset: SeriesDataset, path) -> None:
    """Write a dataset in the load_csv format, with row indices as timestamps."""
    write_rows(path, ["date", *dataset.feature_names],
               ([i, *row] for i, row in enumerate(dataset.values)))


def write_rows(path, header, rows) -> None:
    """Write a header and rows as CSV: utf-8, bare newline ends, one row at a time.

    Floats are written as repr(float(v)), so they round-trip exactly; every
    other field as str(v).  A field holding the delimiter or a quote is
    quoted, as csv.writer does.  `atomic_open` keeps an interrupted write
    from leaving a shorter file at path.
    """
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row])


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
    """All stride-1 windows of a segment: count = T' - L - M + 1.

    The windows are read-only views of `segment.values`; nothing is copied.
    """
    TRAIN["input_len"].check(input_len)
    TRAIN["output_len"].check(output_len)
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
    return WindowSet(view[:, :input_len], view[:, input_len:])


def _all_finite(windows: np.ndarray) -> bool:
    """Whether every value of an (n, steps, K) array is finite, reading each value once.

    When the two leading strides are equal, as in `windowize` views and any
    contiguous (n, 1, K) array, element (i, t, k) shares memory with
    (i + t, 0, k) for i + t < n, and with (n - 1, i + t - n + 1, k) beyond:
    the first step of every window and the whole last window hold every
    value, so checking those n + steps rows is exact.  Any other array is
    scanned whole.
    """
    if windows.strides[0] == windows.strides[1] and windows.shape[1]:
        return bool(np.isfinite(windows[:, 0]).all() and np.isfinite(windows[-1]).all())
    return bool(np.isfinite(windows).all())


def checked_windows(name, past, future, input_shape, output_shape) -> tuple[np.ndarray, np.ndarray]:
    """The float64 (past, future) of a window set; the one check that a model can use it.

    past must be (n, *input_shape) and future (n, *output_shape), all finite;
    otherwise a ConfigError names the set.  An empty set is a DataError.
    The finiteness check of a set of sliding windows reads its segment, not
    its n*(L+M)*K window values (`_all_finite`).
    """
    past = np.asarray(past, dtype=np.float64)
    future = np.asarray(future, dtype=np.float64)
    if past.ndim != 3 or future.ndim != 3 or past.shape[0] != future.shape[0]:
        raise ConfigError(f"{name} set shapes {past.shape}/{future.shape} are not (n, steps, K)")
    if past.shape[0] < 1:
        raise DataError(f"{name} set is empty")
    want = (tuple(input_shape), tuple(output_shape))
    if (past.shape[1:], future.shape[1:]) != want:
        raise ConfigError(
            f"{name} set window lengths and features {past.shape[1:]}/{future.shape[1:]} "
            f"do not match {want[0]}/{want[1]}"
        )
    if not (_all_finite(past) and _all_finite(future)):
        raise ConfigError(f"{name} set contains non-finite values")
    return past, future


def stack_windows(windows: WindowSet) -> tuple[np.ndarray, np.ndarray]:
    """The (n, L, K) past and (n, M, K) future tensors of a window set."""
    if not windows:
        raise DataError("empty window set")
    return windows.past, windows.future


def batch_indices(
    count: int, batch_size: int, rng: Rng | None = None, shuffle: bool = False
) -> list[np.ndarray]:
    """Index arrays covering range(count); the final short batch is kept."""
    TRAIN["batch_size"].check(batch_size)
    if count < 1:
        raise DataError("cannot batch an empty window set")
    if shuffle:
        if rng is None:
            raise ConfigError("shuffling requires an rng")
        order = rng.permutation(count)
    else:
        order = np.arange(count)
    return [order[i : i + batch_size] for i in range(0, count, batch_size)]
