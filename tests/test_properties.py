"""Hypothesis property tests: the algebraic invariants of the fold, and the CSV reader."""

import csv
import io
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided

from wavebound import (
    ConfigError,
    DataError,
    SeriesDataset,
    SplitSpec,
    flood_elementwise,
    load_csv,
    save_csv,
    windowize,
)
from wavebound import data
from wavebound.data import checked_windows

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(finite, finite)
def test_fold_never_dips_below_level(x, b):
    assert flood_elementwise(x, b) >= b


@given(finite, finite)
def test_fold_matches_absolute_form(x, b):
    folded = float(flood_elementwise(x, b))
    expected = abs(x - b) + b
    assert abs(folded - expected) <= 1e-9 * max(1.0, abs(expected))


@given(finite, finite)
def test_fold_is_idempotent(x, b):
    once = float(flood_elementwise(x, b))
    assert float(flood_elementwise(once, b)) == once


@given(st.floats(0, 10), st.floats(0, 10), st.floats(0, 5), st.floats(0, 5))
def test_fold_monotone_in_bound_slack(source, target, e1, e2):
    # lowering the bound (larger slack) can only lower the folded value
    lo, hi = sorted((e1, e2))
    with_small = float(flood_elementwise(source, target - lo))
    with_large = float(flood_elementwise(source, target - hi))
    assert with_large <= with_small + 1e-9


@given(st.floats(0, 1), finite, finite)
def test_mirror_update_stays_between_endpoints(decay, target, source):
    new = decay * target + (1.0 - decay) * source
    lo, hi = min(target, source), max(target, source)
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))  # one-ulp rounding slack
    assert lo - pad <= new <= hi + pad


@given(st.integers(1, 2000))
def test_split_boundaries_partition_the_series(total):
    a, b = SplitSpec().boundaries(total)
    assert 0 <= a <= b <= total


@settings(max_examples=60)
@given(st.integers(1, 60), st.integers(1, 20), st.integers(1, 20))
def test_window_count_formula(total, input_len, output_len):
    segment = SeriesDataset(np.zeros((total, 1)), ["x"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        windows = windowize(segment, input_len, output_len)
    assert len(windows) == max(0, total - input_len - output_len + 1)


def window_layouts(values, input_len, output_len):
    """The same windows of a (T, K) segment in three layouts: windowize's views,
    their contiguous copies, and as_strided views with equal leading strides
    over a padded, column-major copy of the segment."""
    views = windowize(SeriesDataset(values.copy(), ["x"] * values.shape[1]), input_len, output_len)
    n = len(views)
    padded = np.asfortranarray(np.concatenate([values, np.zeros((3, values.shape[1]))]))
    row, col = padded.strides
    past = as_strided(padded, (n, input_len, values.shape[1]), (row, row, col))
    future = as_strided(padded[input_len:], (n, output_len, values.shape[1]), (row, row, col))
    return {
        "view": (views.past, views.future),
        "copy": (views.past.copy(), views.future.copy()),
        "as_strided": (past, future),
    }


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3), st.integers(1, 40),
       st.floats(0, 1, exclude_max=True), st.integers(0, 2),
       st.sampled_from([np.nan, np.inf, -np.inf]))
def test_window_check_rejects_any_non_finite_segment_value(
        input_len, output_len, k, n, where, column, bad):
    length = n + input_len + output_len - 1
    values = np.random.default_rng(length).normal(size=(length, k))
    shapes = (input_len, k), (output_len, k)
    for layout, windows in window_layouts(values, input_len, output_len).items():
        past, future = checked_windows("test", *windows, *shapes)
        assert past.tobytes() == windows[0].tobytes(), layout
        assert future.tobytes() == windows[1].tobytes(), layout
    values[int(where * length), column % k] = bad
    for layout, windows in window_layouts(values, input_len, output_len).items():
        with pytest.raises(ConfigError, match="^test set contains non-finite values$"):
            checked_windows("test", *windows, *shapes)


# any text without line breaks (or NUL and surrogates, which a utf-8 file
# cannot round-trip), with the CSV delimiter and quote made common
feature_name = st.text(
    st.sampled_from(',"') | st.characters(blacklist_categories=("Cs",),
                                          blacklist_characters="\r\n\x00"),
    max_size=6,
)
cell = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(feature_name, min_size=k, max_size=k),
    st.lists(st.lists(cell, min_size=k, max_size=k), min_size=1, max_size=5),
)))
def test_save_load_csv_round_trips_bit_for_bit(case):
    names, rows = case
    dataset = SeriesDataset(np.array(rows), names)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        save_csv(dataset, path)
        back = load_csv(path)
        # what save_csv writes is read by numpy alone, never by the loop
        with mock.patch.object(data, "_load_csv_rows", side_effect=AssertionError("loop ran")):
            fast = load_csv(path)
    for got in (back, fast):
        assert got.feature_names == names
        assert got.values.tobytes() == dataset.values.tobytes()


# Cells and lines on which numpy's reader and the csv.reader + float() loop
# could part: float-only syntax, quoting, blanks, ragged rows, line ends.
odd_cell = st.sampled_from([
    "-0.0", "5e-324", "1.7976931348623157e308", " 1.5", "1.5 ", "1_0", '"1.5"', "nan", "-inf",
    "", "\u0661\u0662", "0x10", "1e999", "\x1c1.5", "+.5",
])
number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
body_cell = st.one_of(number, number, number, odd_cell)
stamp = st.sampled_from(
    ["2020-01-01 00:00"] * 2 + ['"2020-01-01, 00:00"', '"x,1\n2"', "7", ""])
ending = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def messy_csv(draw):
    width = draw(st.integers(1, 3))  # numeric columns
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(ending)).writerow(
        ["date", *draw(st.lists(feature_name, min_size=width, max_size=width))])
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["row"] * 12 + ["ragged", "blank", "whitespace"]))
        if kind == "blank":
            line = ""
        elif kind == "whitespace":
            line = draw(st.sampled_from([" ", "\t"]))
        else:
            n = width if kind == "row" else draw(st.sampled_from([width - 1, width + 1]))
            line = ",".join([draw(stamp), *draw(st.lists(body_cell, min_size=n, max_size=n))])
        out.write(line + draw(ending))
    return draw(st.sampled_from(["", "\ufeff"])) + out.getvalue()


def read_outcome(read, path):
    try:
        got = read(path)
    except DataError as exc:
        return str(exc)
    return got.feature_names, got.values.shape, got.values.tobytes()


@settings(max_examples=80, deadline=None)
@given(messy_csv())
def test_load_csv_matches_the_reference_loop(text):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(load_csv, path) == read_outcome(data._load_csv_rows, path)
