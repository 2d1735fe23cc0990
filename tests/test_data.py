import csv
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from wavebound import (
    ConfigError,
    DataError,
    ObjectiveKind,
    Rng,
    SeriesDataset,
    SplitSpec,
    TrainConfig,
    batch_indices,
    evaluate,
    load_csv,
    new_forecaster,
    save_csv,
    select_feature,
    split_and_standardize,
    stack_windows,
    synth_series,
    train,
    windowize,
)
from wavebound import data
from wavebound.data import checked_windows, write_rows


class TestSynthSeries:
    def test_noiseless_values(self):
        ds = synth_series(10, 0.0, 0)
        assert ds.values[0, 0] == pytest.approx(0.0, abs=1e-15)
        # 2*sin(pi/2) + sin(pi/3)
        assert ds.values[8, 0] == pytest.approx(2 + np.sqrt(3) / 2, abs=1e-12)

    def test_noiseless_period_96(self):
        ds = synth_series(192, 0.0, 0)
        assert np.allclose(ds.values[:96], ds.values[96:], atol=1e-12)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
            synth_series(10, 0.5, -1)

    def test_seeded_noise_reproducible(self):
        a = synth_series(50, 0.5, 3)
        b = synth_series(50, 0.5, 3)
        assert np.array_equal(a.values, b.values)
        c = synth_series(50, 0.5, 4)
        assert not np.array_equal(a.values, c.values)

    def test_validation(self):
        with pytest.raises(ConfigError):
            synth_series(0, 0.5, 0)
        with pytest.raises(ConfigError):
            synth_series(10, -0.1, 0)


def test_pickled_dataset_keeps_its_values_frozen():
    # A sweep pool pickles its segments; the copy must be as read-only.
    ds = SeriesDataset(synth_series(10, 0.5, 1).values * 2.0 + 1.0, ["x"],
                       mean=np.array([1.0]), std=np.array([2.0]))
    copy = pickle.loads(pickle.dumps(ds))
    assert not copy.values.flags.writeable
    assert copy.values.tobytes() == ds.values.tobytes()
    assert copy.feature_names == ["x"]
    assert np.array_equal(copy.mean, ds.mean) and np.array_equal(copy.std, ds.std)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_well_formed(self, tmp_path):
        path = self.write(tmp_path, "date,a,b\n2020-01-01,1.0,2.0\nx,3.5,4\ny,5,6\n")
        ds = load_csv(path)
        assert ds.length == 3 and ds.n_features == 2
        assert ds.feature_names == ["a", "b"]
        assert ds.values[1, 0] == 3.5

    def test_header_only_is_empty(self, tmp_path):
        path = self.write(tmp_path, "date,a\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" stays inside
            with pytest.raises(DataError) as raised:
                load_csv(path)
        assert str(raised.value) == f"{path}: empty dataset"

    def test_plain_file_is_read_by_numpy_alone(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, "date,a,b\r\n2020-01-01,1.0,-0.0\r\n\r\nx, 3.5 ,5e-324\r\n")

        def no_loop(path):
            raise AssertionError("the csv.reader loop ran")

        monkeypatch.setattr(data, "_load_csv_rows", no_loop)
        ds = load_csv(path)
        assert ds.feature_names == ["a", "b"]
        assert ds.values.tobytes() == np.array([[1.0, -0.0], [3.5, 5e-324]]).tobytes()
        assert ds.values.flags.c_contiguous

    @pytest.mark.parametrize("text,values", [
        ('date,a\n"2020-01-01, 00:00",1.5\n', [[1.5]]),  # quoted timestamp holding a comma
        ('date,a\nx,"2.5"\n', [[2.5]]),
        ("date,a\nx,1_0\ny,\u0661\u0662\n", [[10.0], [12.0]]),
        ('date,a\n"x,1\n2",3\n', [[3.0]]),  # one quoted timestamp over two lines
    ], ids=["quoted-date", "quoted-cell", "float-only-syntax", "quoted-line-break"])
    def test_what_only_float_reads_falls_back_to_the_loop(self, tmp_path, text, values):
        ds = load_csv(self.write(tmp_path, text))
        assert ds.values.tolist() == values

    @pytest.mark.parametrize("text,message", [
        ("date,a\nx,1.5\x1c\n", "row 2, column 2: cannot parse '1.5\\x1c' as a number"),
        ("date,a\nx,\x1f2\n", "row 2, column 2: cannot parse '\\x1f2' as a number"),
        ("date,a,b\nx,1\ny,2\n", "row 2: expected 3 columns, got 2"),  # every row short
        ('date,"a\nx,1\n', "empty dataset"),  # the header's quote is never closed
    ], ids=["separator-after", "separator-before", "all-rows-short", "open-header-quote"])
    def test_what_numpy_alone_would_accept_is_still_an_error(self, tmp_path, text, message):
        path = self.write(tmp_path, text)
        with pytest.raises(DataError) as raised:
            load_csv(path)
        assert str(raised.value) == f"{path}: {message}"

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_bytes_that_are_not_utf8_name_the_row(self, tmp_path, ending):
        path = tmp_path / "series.csv"
        path.write_bytes(ending.join([b"date,a", b"x,1.0", b"", b"y,2\xff.0", b"z,3.0", b""]))
        with pytest.raises(DataError) as raised:
            load_csv(path)
        assert str(raised.value) == f"{path}: row 4: cannot decode b'\\xff' as utf-8"

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        path = self.write(tmp_path, "date,a,b\nx,1.0,2.0\ny,oops,4.0\n")
        with pytest.raises(DataError, match=r"row 3, column 2"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        # the blank line 3 is skipped, so the bad cell sits on file row 4
        path = self.write(tmp_path, f"date,a,b\nx,1.0,2.0\n\ny,3.0,{cell}\nz,5,6\n")
        with pytest.raises(
            DataError, match=rf"series\.csv: row 4, column 3: non-finite value {cell}$"
        ):
            load_csv(path)

    # A quoted cell holds a newline, so every record after it starts one
    # file line further on than its record count says.
    def test_unparseable_cell_after_a_quoted_newline_names_its_file_line(self, tmp_path):
        path = self.write(tmp_path, 'date,x\n"a\nb",1.0\n2,abc\n')
        with pytest.raises(DataError) as raised:
            load_csv(path)
        assert str(raised.value) == f"{path}: row 4, column 2: cannot parse 'abc' as a number"

    def test_non_finite_cell_after_a_quoted_newline_names_its_file_line(self, tmp_path):
        path = self.write(tmp_path, 'date,x\n"a\nb",1.0\n\n2,nan\n')
        with pytest.raises(DataError) as raised:
            load_csv(path)
        assert str(raised.value) == f"{path}: row 5, column 2: non-finite value nan"

    def test_ragged_row_rejected(self, tmp_path):
        path = self.write(tmp_path, "date,a,b\nx,1.0,2.0\ny,3.0\n")
        with pytest.raises(DataError, match="expected 3 columns"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "nope.csv")

    def test_save_load_round_trip(self, tmp_path):
        ds = synth_series(20, 0.3, 1)
        path = tmp_path / "out.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.values, ds.values)
        assert back.feature_names == ds.feature_names

    @pytest.mark.parametrize("existing", [None, b"date,x\n0,1.0\n"], ids=["new", "existing"])
    def test_save_failing_mid_write_leaves_path_untouched(self, tmp_path, monkeypatch, existing):
        path = tmp_path / "out.csv"
        if existing is not None:
            path.write_bytes(existing)
        real_writer = csv.writer

        class FailingWriter:
            def __init__(self, fh, **kwargs):
                self.inner, self.rows = real_writer(fh, **kwargs), 0

            def writerow(self, row):
                self.rows += 1
                if self.rows == 5:
                    raise OSError("No space left on device")
                self.inner.writerow(row)

        monkeypatch.setattr(csv, "writer", FailingWriter)
        with pytest.raises(OSError, match="No space"):
            save_csv(synth_series(20, 0.3, 1), path)
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_bytes() == existing


def test_write_rows_quotes_fields_holding_a_comma_or_quote(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, ("name", "value"),
               [("a,b", 1.5), ('say "hi"', np.float64(-0.0)), ("plain", 3)])
    assert path.read_bytes() == b'name,value\n"a,b",1.5\n"say ""hi""",-0.0\nplain,3\n'


class TestSplitAndStandardize:
    def test_exact_division(self):
        ds = SeriesDataset(np.arange(10, dtype=float)[:, None], ["x"])
        train, val, test = split_and_standardize(ds, SplitSpec((0.6, 0.2, 0.2)))
        assert (train.length, val.length, test.length) == (6, 2, 2)

    def test_train_segment_is_zscore(self):
        ds = SeriesDataset(Rng(0).normal(size=(100, 3)), ["a", "b", "c"])
        train, _, _ = split_and_standardize(ds, SplitSpec())
        assert np.abs(train.values.mean(axis=0)).max() < 1e-9
        assert np.abs(train.values.std(axis=0) - 1).max() < 1e-9

    def test_statistics_come_from_train_only(self):
        values = np.concatenate([np.zeros(60), np.full(40, 100.0)])[:, None]
        ds = SeriesDataset(values, ["x"])
        with pytest.warns(UserWarning):
            train, val, test = split_and_standardize(ds, SplitSpec())
        # train segment is constant zero -> clamped std 1, mean 0
        assert (train.values == 0).all()
        assert (val.values == 100.0).all()

    def test_constant_feature_warns_and_zeros(self):
        values = np.column_stack([np.ones(20), np.arange(20, dtype=float)])
        ds = SeriesDataset(values, ["const", "ramp"])
        with pytest.warns(UserWarning, match="const"):
            train, _, _ = split_and_standardize(ds, SplitSpec())
        assert (train.values[:, 0] == 0).all()

    def test_round_trip(self):
        ds = SeriesDataset(Rng(1).normal(size=(50, 2)) * 7 + 3, ["a", "b"])
        train, val, test = split_and_standardize(ds, SplitSpec())
        a, _ = SplitSpec().boundaries(50)
        assert np.allclose(train.values * train.std + train.mean, ds.values[:a], atol=1e-9)

    def test_standardize_off(self):
        ds = SeriesDataset(np.arange(10, dtype=float)[:, None] * 5, ["x"])
        train, _, _ = split_and_standardize(ds, SplitSpec(), standardize=False)
        assert np.array_equal(train.values, ds.values[:6])

    def test_ratio_parsing(self):
        assert SplitSpec.parse("6:2:2").ratios == pytest.approx((0.6, 0.2, 0.2))
        assert SplitSpec.parse("7:1:2").ratios == pytest.approx((0.7, 0.1, 0.2))
        with pytest.raises(ConfigError):
            SplitSpec.parse("1:2")
        with pytest.raises(ConfigError):
            SplitSpec.parse("a:b:c")

    def test_invalid_ratios(self):
        with pytest.raises(ConfigError):
            SplitSpec((0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            SplitSpec((1.0, -0.5, 0.5))


class TestWindowize:
    def segment(self, n, k=1):
        return SeriesDataset(np.arange(n * k, dtype=float).reshape(n, k), [f"f{i}" for i in range(k)])

    def test_count(self):
        windows = windowize(self.segment(10), 4, 2)
        assert len(windows) == 5

    def test_first_window_rows(self):
        windows = windowize(self.segment(10), 4, 2)
        assert np.array_equal(windows.past[0, :, 0], [0, 1, 2, 3])
        assert np.array_equal(windows.future[0, :, 0], [4, 5])

    def test_contiguity(self):
        seg = self.segment(15, k=2)
        for input_len, output_len in [(1, 1), (4, 2), (2, 5), (3, 3), (7, 1)]:
            windows = windowize(seg, input_len, output_len)
            assert windows.past.shape == (len(windows), input_len, 2)
            assert windows.future.shape == (len(windows), output_len, 2)
            for i in range(len(windows)):
                assert np.array_equal(windows.past[i], seg.values[i : i + input_len])
                assert np.array_equal(
                    windows.future[i], seg.values[i + input_len : i + input_len + output_len]
                )

    def test_windows_are_read_only_views_of_the_segment(self):
        seg = self.segment(12, k=2)
        windows = windowize(seg, 4, 3)
        for array in (windows.past, windows.future):
            assert array.dtype == np.float64
            assert np.shares_memory(array, seg.values)
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array += 1.0
        long = self.segment(10_000, k=3)
        tracemalloc.start()
        try:
            windows = windowize(long, 96, 96)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # copies of both halves would take n*(L+M)*K*8 bytes, about 45 MB
        assert len(windows) == 10_000 - 191
        assert peak < 64 * 1024, peak

    def test_count_formula_random_triples(self):
        rng = Rng(11)
        for _ in range(100):
            total = int(rng.integers(2, 60))
            input_len = int(rng.integers(1, 20))
            output_len = int(rng.integers(1, 20))
            seg = self.segment(max(total, 1))
            if total < input_len + output_len:
                with pytest.warns(UserWarning):
                    windows = windowize(seg, input_len, output_len)
                assert len(windows) == 0
            else:
                windows = windowize(seg, input_len, output_len)
                assert len(windows) == total - input_len - output_len + 1

    def test_too_short_warns_and_returns_empty(self):
        with pytest.warns(UserWarning, match="no windows"):
            windows = windowize(self.segment(3, k=2), 4, 2)
        assert len(windows) == 0
        assert windows.past.shape == (0, 4, 2) and windows.future.shape == (0, 2, 2)

    def test_stack_windows(self):
        windows = windowize(self.segment(10), 4, 2)
        past, future = stack_windows(windows)
        assert past is windows.past and future is windows.future
        assert past.shape == (5, 4, 1)
        assert future.shape == (5, 2, 1)
        with pytest.warns(UserWarning, match="no windows"):
            empty = windowize(self.segment(3), 4, 2)
        with pytest.raises(DataError, match="empty window set"):
            stack_windows(empty)

    def test_empty_set_is_a_data_error_everywhere(self):
        with pytest.warns(UserWarning, match="no windows"):
            empty = windowize(self.segment(3), 4, 2)
        full = stack_windows(windowize(self.segment(20), 4, 2))
        with pytest.raises(DataError, match="^empty window set$"):
            stack_windows(empty)
        with pytest.raises(DataError, match="^evaluation set is empty$"):
            evaluate(new_forecaster(4, 2, 1, 8, Rng(0)), empty.past, empty.future)
        config = TrainConfig(input_len=4, output_len=2, objective=ObjectiveKind.plain())
        with pytest.raises(DataError, match="^train set is empty$"):
            train(config, (empty.past, empty.future), full, full)

    def test_checked_windows(self):
        past, future = np.zeros((3, 4, 2), dtype=np.float32), np.zeros((3, 2, 2), dtype=int)
        got = checked_windows("test", past, future, (4, 2), (2, 2))
        assert [a.dtype for a in got] == [np.float64, np.float64]
        with pytest.raises(ConfigError, match=r"^test set shapes \(3, 4, 2\)/\(2, 2, 2\) are not"):
            checked_windows("test", past, future[:2], (4, 2), (2, 2))
        with pytest.raises(ConfigError, match=r"^test set .*\(4, 2\)/\(2, 2\) do not match \(4, 1\)/\(2, 1\)$"):
            checked_windows("test", past, future, (4, 1), (2, 1))
        past[2, 3, 1] = np.inf
        with pytest.raises(ConfigError, match="^test set contains non-finite values$"):
            checked_windows("test", past, future, (4, 2), (2, 2))

    def test_checked_windows_reads_a_view_at_segment_cost(self):
        # 41 809 windows of 96 -> 96: a whole-set finiteness mask would be
        # 41 809 * 96 bytes for each half
        segment = SeriesDataset(np.random.default_rng(3).normal(size=(42_000, 1)), ["x"])
        windows = windowize(segment, 96, 96)
        assert len(windows) == 41_809
        tracemalloc.start()
        try:
            past, future = checked_windows("train", windows.past, windows.future, (96, 1), (96, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert past is windows.past and future is windows.future
        assert peak < 2**20, peak

    def test_no_leakage_across_split_boundaries(self):
        ds = SeriesDataset(np.arange(40, dtype=float)[:, None], ["x"])
        train, val, test = split_and_standardize(ds, SplitSpec(), standardize=False)
        a, b = SplitSpec().boundaries(40)
        assert (windowize(train, 3, 2).future[:, -1, 0] <= ds.values[a - 1, 0]).all()
        val_windows = windowize(val, 3, 2)
        assert (ds.values[a, 0] <= val_windows.past[:, 0, 0]).all()
        assert (val_windows.future[:, -1, 0] <= ds.values[b - 1, 0]).all()


class TestBatches:
    def test_sizes_with_short_tail(self):
        idx = batch_indices(100, 32)
        assert [len(i) for i in idx] == [32, 32, 32, 4]
        assert np.array_equal(np.concatenate(idx), np.arange(100))

    def test_no_shuffle_is_identity_order(self):
        idx = batch_indices(10, 4)
        assert np.array_equal(np.concatenate(idx), np.arange(10))

    def test_shuffle_is_seeded(self):
        a = batch_indices(50, 8, Rng(2), shuffle=True)
        b = batch_indices(50, 8, Rng(2), shuffle=True)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = batch_indices(50, 8, Rng(3), shuffle=True)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_shuffle_covers_everything_once(self):
        idx = np.concatenate(batch_indices(33, 5, Rng(0), shuffle=True))
        assert np.array_equal(np.sort(idx), np.arange(33))

    def test_shuffle_without_rng_rejected(self):
        with pytest.raises(ConfigError):
            batch_indices(10, 4, None, shuffle=True)


class TestSelectFeature:
    def test_default_is_last_column(self):
        ds = SeriesDataset(np.arange(12, dtype=float).reshape(4, 3), ["a", "b", "c"])
        uni = select_feature(ds)
        assert uni.feature_names == ["c"]
        assert np.array_equal(uni.values[:, 0], ds.values[:, 2])

    def test_named_column(self):
        ds = SeriesDataset(np.arange(12, dtype=float).reshape(4, 3), ["a", "b", "c"])
        assert np.array_equal(select_feature(ds, "b").values[:, 0], ds.values[:, 1])

    def test_unknown_column(self):
        ds = SeriesDataset(np.zeros((3, 2)), ["a", "b"])
        with pytest.raises(DataError, match="unknown feature"):
            select_feature(ds, "zzz")
