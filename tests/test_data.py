"""Dataset model, CSV round-trips, and stratified splitting."""

import codecs
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from helpers import make_dataset, oracle_load_csv, oracle_write_csv
from rfscreen import CsvFormatError, FeatureSubset, load_csv, stratified_kfold, write_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


WORKERS = (1, 2)  # CSV worker counts: every CSV case runs at both


def _outcome(path, n_workers):
    """What loading ``path`` gives: the dataset's bytes, labels and names, or the error."""
    try:
        ds = load_csv(path, n_workers=n_workers)
    except CsvFormatError as exc:
        return str(exc)
    return ds.features.tobytes(), ds.labels.tolist(), ds.feature_names


class TestLoadCsv:
    def test_labels_remap_by_first_occurrence(self, tmp_path):
        path = _write(tmp_path, "label,f1,f2\na,1,2\nb,3,4\na,5,6\n")
        ds = load_csv(path)
        assert ds.n_classes == 2
        assert ds.labels.tolist() == [1, 2, 1]
        assert ds.n_features == 2
        assert ds.feature_names == ("f1", "f2")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = _write(tmp_path, "label,f1,f2\na,1,2\nb,abc,4\n")
        with pytest.raises(CsvFormatError, match=r"row 2.*column f1"):
            load_csv(path)

    def test_nan_and_inf_rejected(self, tmp_path):
        path = _write(tmp_path, "label,f1\na,nan\n")
        with pytest.raises(CsvFormatError, match=r"row 1.*column f1"):
            load_csv(path)
        path = _write(tmp_path, "label,f1\na,inf\n", name="d2.csv")
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(path)

    def test_missing_label_column(self, tmp_path):
        path = _write(tmp_path, "target,f1\na,1\n")
        with pytest.raises(CsvFormatError, match="label"):
            load_csv(path)
        assert load_csv(path, label_column="target").n_samples == 1

    def test_empty_file_and_headerless(self, tmp_path):
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(_write(tmp_path, ""))
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(_write(tmp_path, "label,f1\n", name="d2.csv"))

    def test_duplicate_feature_names_rejected(self, tmp_path):
        path = _write(tmp_path, "label,f1,f1\na,1,2\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_csv(path)

    def test_round_trip(self, tmp_path, forks):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.normal(size=(7, 3)), rng.integers(1, 4, size=7) % 3 + 1)
        path = tmp_path / "roundtrip.csv"
        for n_workers in WORKERS:
            forks.clear()
            write_csv(ds, path, n_workers=n_workers)
            again = load_csv(path, n_workers=n_workers)
            assert again == ds
            assert len(forks) == 2 * (n_workers - 1)  # one child to write, one to load

    def test_write_matches_cell_by_cell_oracle(self, tmp_path, forks):
        values = [-0.0, 5e-324, 1e16, 1e-5, 0.1, 1 / 3, -2.5e-300, 123456789.0]
        X = np.array([values, values[::-1], [v * -7 for v in values]])
        names = ("plain", "with,comma", 'with "quote"', "with\nnewline", " spaced ",
                 "ünï", "x;y", "")
        ds = make_dataset(X, [3, 1, 2], names=names)
        written, expected = tmp_path / "written.csv", tmp_path / "oracle.csv"
        oracle_write_csv(X, [3, 1, 2], names, expected, label_column="class id")
        for n_workers in WORKERS:
            forks.clear()
            write_csv(ds, written, label_column="class id", n_workers=n_workers)
            assert written.read_bytes() == expected.read_bytes()
            loaded = load_csv(written, label_column="class id", n_workers=n_workers)
            assert loaded.features.tolist() == X.tolist()
            assert loaded.feature_names == names
            assert len(forks) == 2 * (n_workers - 1)  # quoted names in the header only

    def test_remapped_label_maximum_counts_distinct_sources(self, tmp_path):
        path = _write(tmp_path, "label,f1\nx,1\ny,2\nz,3\nx,4\n")
        ds = load_csv(path)
        assert ds.labels.max() == 3


    @pytest.mark.parametrize("text, message", [
        ("label,f1,f2\na,nan,abc\n", "non-finite value 'nan' at row 1, column f1"),
        ("label,f1,f2\na,abc,nan\n", "non-numeric value 'abc' at row 1, column f1"),
        ("label,f1,f2\na,1,2\nb,3,1e400\n", "non-finite value '1e400' at row 2, column f2"),
        ("label,f1,f2\na,1,2\nb,3\nc,4,5\n", "row 2 has 2 cells, expected 3"),
        ("label,f1,f2\na,1,2\n\nc,4,5\n", "row 2 has 0 cells, expected 3"),
    ])
    def test_first_bad_cell_of_a_row_is_reported(self, tmp_path, forks, text, message):
        path = _write(tmp_path, text)
        with pytest.raises(CsvFormatError, match=re.escape(f"{path}: {message}")):
            load_csv(path)
        # 12 good rows before (lead) or after the text's rows put the bad one in either
        # block of two workers, and the message names its row in the whole file
        header, rows = text.split("\n", 1)
        for lead, n_workers in itertools.product((0, 12), WORKERS):
            forks.clear()
            path.write_text(f"{header}\n" + "z,0,0\n" * lead + rows + "z,0,0\n" * (12 - lead),
                            encoding="utf-8")
            expected = re.sub(r"row (\d+)", lambda m: f"row {int(m[1]) + lead}", message)
            with pytest.raises(CsvFormatError, match=f"^{re.escape(f'{path}: {expected}')}$"):
                load_csv(path, n_workers=n_workers)
            assert len(forks) == n_workers - 1

    @pytest.mark.parametrize("n_workers", WORKERS)
    @pytest.mark.parametrize("data, where, forked", [
        (b"label,f\xff1\na,1\n", "the header", False),
        (b"label,f1\na,1\nb,2\nc,\xe93\nd,4\xff\n", "row 3", False),
        # 3000 good rows put the bad one past the header read's decode chunk and in the
        # second block of two workers
        (b"label,f1\n" + b"z,0\n" * 3000 + b"a,1\nb,2\nc,\xe93\nd,4\xff\n", "row 3003", True),
        # a bad cell that ends the first block is not reported before it
        (b"label,f1\n" + b"z,0\n" * 3000 + b"b,x\nc,\xff3\n" + b"z,0\n" * 3000, "row 3002",
         True),
    ], ids=["header", "row", "second-block", "after-a-bad-cell"])
    def test_first_byte_that_is_not_utf8_is_reported_by_row(self, tmp_path, forks, n_workers,
                                                             data, where, forked):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        message = f"{path}: {where} holds a byte that is not UTF-8"
        with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
            load_csv(path, n_workers=n_workers)
        assert len(forks) == (n_workers - 1 if forked else 0)

    @pytest.mark.parametrize("text, n_blocks", [
        ("label,f1\na,1\n\nb,2\nc,3\n", 2),  # a blank line
        ('label,f1\na,1\nb,"2"\nc,3\nd,4\n', 1),  # a quoted cell
        ("label,f1\na,1\nb,2\nc,3\n", 2),  # an odd row count
        ("label,f1\na,1.5", 1),  # one row, no final newline
        ("label,f1\ra,1\rb,2\rc,3\r", 1),  # \r-only lines
        ("label,f1\r\na,1\r\nb,2\rc,3\r\nd,4\r\n", 1),  # one \r inside \r\n lines
        ("label,f1\r\na,1\r\nb,2\r\nc,3\r\nd,4\r\n", 2),
    ], ids=["blank-line", "quoted-cell", "odd-rows", "one-row", "cr-only", "lone-cr", "crlf"])
    def test_two_workers_load_what_one_loads(self, tmp_path, forks, text, n_blocks):
        path = tmp_path / "blocks.csv"
        path.write_bytes(text.encode())
        alone = _outcome(path, 1)
        assert _outcome(path, 2) == alone
        assert len(forks) == n_blocks - 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_parse_matches_cell_by_cell_oracle(self, tmp_path, forks, newline):
        lines = ["f1,label,f2,f3",
                 " 1.5 ,b,1_000,\u0661\u0662",
                 "-0.0,a,5e-324,1e-400",
                 '"2.5",b,-7,+3E2']
        path = tmp_path / "cells.csv"
        # the quoted cell keeps the file in one block; unquoted, two workers split it
        for quote, n_workers in [('"', n) for n in WORKERS] + [("", 2)]:
            forks.clear()
            text = newline.join(lines).replace('"', quote) + newline
            path.write_bytes(text.encode("utf-8"))
            rows, labels, names = oracle_load_csv(path)
            ds = load_csv(path, n_workers=n_workers)
            assert ds.features.tobytes() == np.array(rows, dtype=np.float64).tobytes()
            assert ds.labels.tolist() == labels == [1, 2, 1]
            assert ds.feature_names == names == ("f1", "f2", "f3")
            assert len(forks) == (n_workers - 1 if not quote else 0)

    @pytest.mark.parametrize("header, row", [("label,f1", "a,1"), ("f1,label", "1,a")])
    def test_leading_byte_order_mark_ignored(self, tmp_path, forks, header, row):
        path = tmp_path / "bom.csv"
        path.write_bytes(codecs.BOM_UTF8 + f"{header}\r\n{row}\r\n".encode())
        ds = load_csv(path)
        assert ds.feature_names == ("f1",)
        assert ds.features.tolist() == [[1.0]]
        # two rows: two workers split them, after the header and its byte-order mark
        path.write_bytes(codecs.BOM_UTF8 + f"{header}\r\n{row}\r\n{row}\r\n".encode())
        ds = load_csv(path, n_workers=2)
        assert ds.feature_names == ("f1",)
        assert ds.features.tolist() == [[1.0], [1.0]]
        assert len(forks) == 1

    def test_load_holds_the_table_at_most_three_times(self, tmp_path, forks):
        rng = np.random.default_rng(11)
        path = tmp_path / "wide.csv"
        write_csv(make_dataset(rng.normal(size=(100, 1000)), [1, 2] * 50), path)
        for n_workers in WORKERS:
            forks.clear()
            tracemalloc.start()
            try:
                ds = load_csv(path, n_workers=n_workers)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert ds.features.flags.f_contiguous
            assert peak <= 3 * ds.features.nbytes
            assert len(forks) == n_workers - 1

class TestDatasetModel:
    def test_immutable_arrays(self):
        ds = make_dataset([[1.0, 2.0]], [1])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.labels[0] = 2

    def test_column_major_storage(self):
        ds = make_dataset(np.zeros((4, 3)), [1, 1, 2, 2])
        assert ds.features.flags.f_contiguous

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([[np.nan]], [1])


class TestFeatureSubset:
    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="^feature indices must be distinct$"):
            FeatureSubset((1, 1))

    def test_negative_rejected_before_duplicates(self):
        with pytest.raises(ValueError, match="^feature indices must be nonnegative$"):
            FeatureSubset((2, -1, -1))

    def test_indices_become_python_ints_in_order(self):
        subset = FeatureSubset(np.array([4, 0, 7]))
        assert subset.indices == (4, 0, 7)
        assert all(type(i) is int for i in subset.indices)
        assert FeatureSubset().indices == ()


class TestStratifiedKfold:
    def test_balanced_arithmetic(self):
        labels = np.repeat(np.arange(1, 11), 10)
        ds = make_dataset(np.zeros((100, 2)), labels)
        folds = stratified_kfold(ds, 5, seed=1)
        for _, test in folds:
            assert test.shape[0] == 20
            per_class = np.bincount(ds.labels[test], minlength=11)[1:]
            assert np.all(per_class == 2)

    def test_two_folds_on_four_samples(self):
        ds = make_dataset(np.zeros((4, 1)), [1, 1, 1, 1])
        folds = stratified_kfold(ds, 2, seed=0)
        assert sorted(len(test) for _, test in folds) == [2, 2]

    def test_deterministic(self):
        ds = make_dataset(np.zeros((30, 1)), [1, 2, 3] * 10)
        a = stratified_kfold(ds, 3, seed=77)
        b = stratified_kfold(ds, 3, seed=77)
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_partition_properties(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(1, 5, size=53)
        labels[:4] = [1, 2, 3, 4]
        for c in range(1, 5):  # rebalance so each class has >= folds members
            while np.sum(labels == c) < 4:
                labels[rng.integers(0, 53)] = c
        ds = make_dataset(rng.normal(size=(53, 2)), labels)
        folds = stratified_kfold(ds, 4, seed=3)
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(53))
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            assert train.shape[0] + test.shape[0] == 53
        for c in range(1, 5):
            per_fold = [np.sum(ds.labels[test] == c) for _, test in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_small_class_rejected(self):
        ds = make_dataset(np.zeros((5, 1)), [1, 1, 1, 1, 2])
        with pytest.raises(ValueError, match="class 2"):
            stratified_kfold(ds, 2, seed=0)
