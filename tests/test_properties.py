"""Hypothesis property tests for the algebraic invariants of the fold."""

import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wavebound import (
    SeriesDataset,
    SplitSpec,
    flood_elementwise,
    load_csv,
    save_csv,
    windowize,
)

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
    assert back.feature_names == names
    assert back.values.tobytes() == dataset.values.tobytes()
