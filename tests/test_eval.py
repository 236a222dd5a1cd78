"""Harness: kNN, cross-validation, grid search, convergence sweep."""

import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from helpers import make_dataset, oracle_knn, tied_table, traced_peak
from rfscreen import (ClassifierSpec, ForestParams, ScreenerSpec, ScreeningConfig, baselines,
                      convergence_sweep, cross_validate, evaluate, f_scores, fit_screener,
                      grid_search, kbest_fscore, pca_fit, pca_transform, screen_once_report,
                      stratified_kfold)
from rfscreen.evaluate import fit_classifier


def _rfms(n_out):
    """A small rfms spec: 4-wide chunks, 5 trees of 3 candidates per node."""
    return ScreenerSpec("rfms", config=ScreeningConfig(
        step_size=4, reduced_size=n_out, forest=ForestParams(n_trees=5, n_subfeatures=3),
        seed=7))


def _blobs(seed=0, n=60, f=5, k=3, spread=1.0):
    rng = np.random.default_rng(seed)
    y = np.repeat(np.arange(1, k + 1), n // k)
    centers = rng.normal(scale=2.0, size=(k, f))
    X = centers[y - 1] + rng.normal(scale=spread, size=(n, f))
    return make_dataset(X, y)


def _knn(ds, k):
    """kNN with ``k`` neighbours fitted on every row of ``ds``."""
    return fit_classifier(ClassifierSpec("knn", {"k": k}), ds.features, ds.labels)


def _recorded_fits(monkeypatch) -> list:
    """The labels of the specs ``evaluate.fit_screener`` is called with, in call order."""
    fitted = []
    monkeypatch.setattr(evaluate, "fit_screener",
                        lambda spec, *args: fitted.append(spec.label()) or fit_screener(spec, *args))
    return fitted


def _predict_one(clf, query) -> int:
    """The label of one query row."""
    return int(clf.predict(np.asarray(query, dtype=float)[None, :])[0])


class TestKnnPredict:
    def test_exact_match_with_k1(self):
        ds = _blobs(seed=1)
        for j in (0, 13, 40):
            assert _predict_one(_knn(ds, 1), ds.features[j]) == ds.labels[j]

    def test_vote_tie_prefers_smaller_class(self):
        ds = make_dataset([[0.0], [2.0]], [2, 1])
        assert _predict_one(_knn(ds, 2), [1.0]) == 1

    def test_distance_tie_prefers_smaller_index(self):
        ds = make_dataset([[1.0], [-1.0], [5.0]], [3, 1, 2])
        # both first rows are at distance 1 from the query; index 0 wins the vote
        assert _predict_one(_knn(ds, 1), [0.0]) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_distance_sort_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        X = rng.normal(size=(50, 4))
        y = rng.integers(1, 4, size=50)
        y[:3] = [1, 2, 3]
        clf = _knn(make_dataset(X, y), 5)
        for q in rng.normal(size=(25, 4)):
            assert _predict_one(clf, q) == oracle_knn(X, y, q, 5)

    def test_bounds(self):
        ds = make_dataset([[0.0]], [1])
        with pytest.raises(ValueError):
            _knn(ds, 2)
        with pytest.raises(ValueError):
            _predict_one(_knn(ds, 1), [0.0, 1.0])


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_query(self, bad):
        ds = _blobs(seed=2)
        q = ds.features[0].copy()
        q[1] = bad
        clf = fit_classifier(ClassifierSpec("knn", {"k": 3}), ds.features, ds.labels)
        with pytest.raises(ValueError, match="non-finite"):
            _predict_one(clf, q)
        with pytest.raises(ValueError, match="non-finite"):
            clf.predict(np.vstack([ds.features[:2], q]))


class TestKnnScreen:
    """The matmul screen must never drop a true neighbour.

    Every case is built so that the proxy distance cannot order the rows:
    exact ties, ties one ulp apart, and offsets or magnitudes where the proxy
    cancels or overflows.  The exact re-score runs over the kept (query, row)
    pairs in chunks of about ``_RESCORE_ELEMENTS`` floats, so some cases make
    one query's pairs span several chunks and chunk edges fall inside them.
    Labels must equal the distance-sort oracle's, one query at a time, in one
    batch, and as prefixes of one search at the largest ``k``.
    """

    @staticmethod
    def _check(X, y, queries, ks):
        X, y, queries = np.asarray(X, float), np.asarray(y), np.asarray(queries, float)
        nearest = fit_classifier(ClassifierSpec("knn", {"k": max(ks)}), X, y).neighbours(queries)
        for k in ks:
            expected = [oracle_knn(X, y, q, k) for q in queries]
            clf = fit_classifier(ClassifierSpec("knn", {"k": k}), X, y)
            assert [_predict_one(clf, q) for q in queries] == expected
            assert clf.predict(queries).tolist() == expected
            assert evaluate._vote(nearest[:, :k]).tolist() == expected

    def test_duplicated_rows_straddle_the_cut(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(10, 4))
        X = np.vstack([base, base, base])  # every row three times
        y = rng.integers(1, 4, size=30)
        y[[3, 13, 23]] = [1, 2, 2]  # k=2 keeps rows 3 and 13: a 1-1 vote, class 1
        queries = np.vstack([base[3] + 1e-3, base, rng.normal(size=(10, 4))])
        self._check(X, y, queries, ks=(1, 2, 3, 4, 5, 7))

    def test_integer_features_with_many_exact_ties(self):
        rng = np.random.default_rng(32)
        X = rng.integers(0, 3, size=(60, 5))
        y = rng.integers(1, 5, size=60)
        queries = np.vstack([rng.integers(0, 3, size=(20, 5)),
                             rng.integers(0, 5, size=(10, 5)) / 2])
        self._check(X, y, queries, ks=(1, 2, 3, 5, 8))

    def test_neighbours_one_ulp_apart(self):
        rng = np.random.default_rng(33)
        base = rng.normal(size=6)
        X = base + np.spacing(base) * rng.integers(-2, 3, size=(40, 6))
        y = rng.integers(1, 4, size=40)
        queries = np.vstack([X[:10], base + np.spacing(base) * rng.integers(-3, 4, size=(10, 6))])
        self._check(X, y, queries, ks=(1, 2, 3, 6))

    def test_common_offset_cancels_the_proxy(self):
        # At 1e8 the proxy's rounding dwarfs every distance, so every row is
        # a candidate and the exact re-score alone orders them.
        rng = np.random.default_rng(34)
        X = 1e8 + rng.normal(size=(40, 6))
        X[20:25] = X[:5]
        y = rng.integers(1, 4, size=40)
        queries = np.vstack([X[:5], 1e8 + rng.normal(size=(15, 6))])
        self._check(X, y, queries, ks=(1, 3, 5))

    def test_wide_rows_leave_two_per_chunk(self):
        rng = np.random.default_rng(41)
        d = evaluate._RESCORE_ELEMENTS // 2
        X = rng.integers(0, 2, size=(16, d))
        queries = np.vstack([X[:2], rng.integers(0, 2, size=(3, d))])
        self._check(X, rng.integers(1, 4, size=16), queries, ks=range(1, 8))

    def test_duplicated_rows_straddle_chunk_edges(self):
        # three rows a chunk; every row four times, so a cut keeps groups of four
        rng = np.random.default_rng(42)
        base = rng.normal(size=(5, evaluate._RESCORE_ELEMENTS // 3))
        queries = np.vstack([base[:3], base[3:] + 1e-3 * rng.normal(size=base[3:].shape)])
        self._check(np.vstack([base] * 4), rng.integers(1, 4, size=20), queries, ks=range(1, 10))

    def test_every_row_a_candidate_at_an_offset_spans_chunks(self):
        # at 1e8 the screen keeps all 40 rows, about 2.5 chunks of 16 per query
        rng = np.random.default_rng(43)
        X = 1e8 + rng.normal(size=(40, 2000))
        X[20:25] = X[:5]
        queries = np.vstack([X[:4], 1e8 + rng.normal(size=(4, 2000))])
        self._check(X, rng.integers(1, 4, size=40), queries, ks=range(1, 13))

    def test_k_equals_n_train(self):
        rng = np.random.default_rng(35)
        X = rng.normal(size=(9, 3))
        y = np.array([1, 2, 3, 1, 2, 3, 2, 1, 3])  # a three-way vote tie: class 1
        self._check(X, y, rng.normal(size=(5, 3)), ks=(9,))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norms_are_rescored(self):
        # |x|^2 overflows near 1e160, so the proxy and the cut are inf or NaN;
        # the exact per-row sums must still decide.  Between a unit-scale row
        # and a 1e160 row the exact sum overflows too, as it always has.
        rng = np.random.default_rng(36)
        huge = 1e160 + 1e150 * rng.normal(size=(20, 4))
        X = np.vstack([rng.normal(size=(20, 4)), huge])
        y = rng.integers(1, 4, size=40)
        queries = np.vstack([huge[:5] + 1e149, 1e160 + 1e150 * rng.normal(size=(5, 4)),
                             rng.normal(size=(5, 4))])
        self._check(X, y, queries, ks=(1, 3, 5))
        self._check(huge, y[:20], queries[:10], ks=(1, 3))

    def test_predict_memory_is_bounded_when_every_row_is_a_candidate(self):
        # tracemalloc sees numpy's buffers.  A queries x train x features
        # tensor, or an all-pairs re-score, would need many training matrices.
        rng = np.random.default_rng(37)
        X = 1e8 + rng.normal(size=(320, 2000))
        y = rng.integers(1, 11, size=320)
        queries = 1e8 + rng.normal(size=(80, 2000))
        clf = fit_classifier(ClassifierSpec("knn", {"k": 5}), X, y)
        tracemalloc.start()
        try:
            labels = clf.predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * X.nbytes
        assert labels[:5].tolist() == [oracle_knn(X, y, q, 5) for q in queries[:5]]


class TestSharedNeighbourSearch:
    """A grid's kNN cells vote over prefixes of one neighbour search at the largest k.

    Three-valued columns and duplicated rows make exact distance ties common,
    so each k's cut falls inside a tie; every prefix must still give the labels
    of that k's own classifier and of the distance-sort oracle.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_prefix_votes_equal_each_k_and_the_oracle(self, seed, monkeypatch):
        rng = np.random.default_rng(700 + seed)
        X = rng.integers(0, 3, size=(36, int(rng.integers(2, 6)))).astype(float)
        X[18:] = X[rng.integers(0, 18, size=18)]  # every later row repeats an earlier one
        ds = make_dataset(X, rng.integers(1, 5, size=36))
        ks = [int(k) for k in rng.permutation(np.arange(1, 10))]
        grid = [ClassifierSpec("knn", {"k": k}) for k in ks] + [ClassifierSpec("majority")]
        shared = []
        cross_validate_fn = evaluate.cross_validate

        def recording(*args, **kwargs):
            shared.append(kwargs["predictions"])
            return cross_validate_fn(*args, **kwargs)

        monkeypatch.setattr(evaluate, "cross_validate", recording)
        grid_search(ds, [ScreenerSpec("identity")], grid, folds=3, seed=seed)
        for k, cell in zip(ks, shared):
            for (train_rows, test_rows), (labels, _) in zip(
                    stratified_kfold(ds, 3, seed), cell, strict=True):
                train_X, train_y = X[train_rows], ds.labels[train_rows]
                clf = fit_classifier(ClassifierSpec("knn", {"k": k}), train_X, train_y)
                assert labels.tolist() == clf.predict(X[test_rows]).tolist()
                assert labels.tolist() == [oracle_knn(train_X, train_y, q, k)
                                           for q in X[test_rows]]


class TestFoldGather:
    """A fold gathers its rows of the selected columns in blocks of whole columns."""

    ROWS = 400
    BLOCK = evaluate._GATHER_BYTES // (8 * ROWS)  # columns a block copies

    @pytest.fixture(scope="class")
    def table(self):
        return _shifted_table(self.ROWS, 2100)

    @pytest.mark.parametrize("width", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2000])
    def test_equals_the_ix_gather_bit_for_bit(self, table, width):
        rng = np.random.default_rng(width)
        rows = rng.permutation(self.ROWS)[:320]  # unsorted, as no fold is
        cols = tuple(int(c) for c in rng.permutation(table.n_features)[:width])
        out = evaluate._gather(table.features, rows, cols)
        expected = table.features[np.ix_(rows, cols)]
        assert out.flags.c_contiguous
        assert out.shape == expected.shape and out.dtype == expected.dtype
        assert out.tobytes() == expected.tobytes()


class TestFitScreener:
    def test_random_spec_without_a_seed_fails_by_name_when_fitted(self):
        ds = _blobs(seed=11, f=20)
        with pytest.raises(ValueError,
                           match=r"^a random spec needs params\['seed'\] to be fitted$"):
            fit_screener(ScreenerSpec("random", {"n_out": 5}), ds)


class TestCrossValidate:
    def test_memorization_fixture_scores_one(self):
        ds = _blobs(seed=3)
        rows = np.arange(ds.n_samples)
        folds_idx = [(rows, rows[:20]), (rows, rows[20:])]
        entry = cross_validate(ds, ScreenerSpec("identity"),
                               ClassifierSpec("knn", {"k": 1}), folds_idx=folds_idx)
        assert entry.fold_accuracies == (1.0, 1.0)
        assert entry.mean_accuracy == 1.0

    def test_single_class_training_fold_rejected(self):
        X = np.arange(12.0)[:, None]
        one_class = make_dataset(X, [1] * 12)
        with pytest.raises(ValueError, match="single class"):
            cross_validate(one_class, ScreenerSpec("identity"),
                           ClassifierSpec("majority"), folds=3, seed=0)
        # two classes in the table, but each training fold holds only one
        rows = np.arange(12)
        split = make_dataset(X, [1] * 6 + [2] * 6)
        with pytest.raises(ValueError, match="single class"):
            cross_validate(split, ScreenerSpec("identity"), ClassifierSpec("knn", {"k": 1}),
                           folds_idx=[(rows[:6], rows[6:]), (rows[6:], rows[:6])])

    def test_identity_is_fitted_once_and_every_fold_checked(self, monkeypatch):
        fitted = _recorded_fits(monkeypatch)
        ds = _blobs(seed=26)
        grid_search(ds, [ScreenerSpec("identity")], [ClassifierSpec("knn", {"k": 1})],
                    folds=5, seed=3)
        assert fitted == ["identity"]
        # the first fold's fit would serve the second, whose training rows hold one class
        rows = np.arange(12)
        split = make_dataset(np.arange(12.0)[:, None], [1] * 6 + [2] * 6)
        with pytest.raises(ValueError, match="single class"):
            cross_validate(split, ScreenerSpec("identity"), ClassifierSpec("majority"),
                           folds_idx=[(rows, rows[:2]), (rows[6:], rows[:6])])

    def test_majority_dummy_scores_chance(self):
        ds = _blobs(seed=4, n=60, k=3)
        entry = cross_validate(ds, ScreenerSpec("identity"), ClassifierSpec("majority"),
                               folds=5, seed=11)
        assert entry.mean_accuracy == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_straight_line_loop_oracle(self):
        ds = _blobs(seed=5, n=45, f=6, k=3)
        folds_idx = stratified_kfold(ds, 3, seed=2)
        entry = cross_validate(ds, ScreenerSpec("kbest", {"n_out": 2}),
                               ClassifierSpec("knn", {"k": 3}), folds_idx=folds_idx)
        oracle_accs = []
        for train_rows, test_rows in folds_idx:
            train = make_dataset(ds.features[train_rows], ds.labels[train_rows],
                                 names=ds.feature_names)
            cols = list(kbest_fscore(train, 2).indices)
            Xtr = ds.features[train_rows][:, cols]
            ytr = ds.labels[train_rows]
            hits = [
                oracle_knn(Xtr, ytr, ds.features[t, cols], 3) == ds.labels[t]
                for t in test_rows
            ]
            oracle_accs.append(float(np.mean(hits)))
        assert entry.fold_accuracies == tuple(oracle_accs)

    def test_mean_equals_fold_mean(self):
        ds = _blobs(seed=6)
        entry = cross_validate(ds, ScreenerSpec("kbest", {"n_out": 3}),
                               ClassifierSpec("knn", {"k": 1}), folds=4, seed=9)
        assert entry.mean_accuracy == pytest.approx(np.mean(entry.fold_accuracies),
                                                    abs=1e-12)
        assert 0.0 <= entry.mean_accuracy <= 1.0

    def test_identity_screening_time_is_zero(self):
        ds = _blobs(seed=7)
        entry = cross_validate(ds, ScreenerSpec("identity"),
                               ClassifierSpec("knn", {"k": 1}), folds=3, seed=1)
        assert entry.screening_cpu_s == 0.0
        assert entry.fitting_cpu_s >= 0.0

    def test_pca_screener_reduces_width(self):
        ds = _blobs(seed=8, f=6)
        entry = cross_validate(ds, ScreenerSpec("pca", {"n_out": 2}),
                               ClassifierSpec("knn", {"k": 3}), folds=3, seed=5)
        assert entry.n_features_out == 2
        assert entry.screening_cpu_s >= 0.0

    def test_pca_training_rows_project_as_the_fold_table_does(self, monkeypatch):
        # pca_transform's last bits depend on the memory order of its input
        ds = _blobs(seed=23, n=45, f=40)  # wider than a training fold is tall
        folds_idx = stratified_kfold(ds, 3, seed=3)
        seen = []

        def capturing(spec, train_X, train_y):
            seen.append(train_X)
            return fit_classifier(spec, train_X, train_y)

        monkeypatch.setattr(evaluate, "fit_classifier", capturing)
        cross_validate(ds, ScreenerSpec("pca", {"n_out": 4}), ClassifierSpec("knn", {"k": 1}),
                       folds_idx=folds_idx)
        assert len(seen) == 3
        for (train_rows, _), got in zip(folds_idx, seen):
            train = make_dataset(ds.features[train_rows], ds.labels[train_rows],
                                 names=ds.feature_names)
            np.testing.assert_array_equal(got, pca_transform(pca_fit(train, 4), train.features))

    def test_screen_once_pca_folds_gather_one_whole_table_projection(self, monkeypatch):
        # each fold's rows projected on their own differ in the last bits at this shape
        ds = _blobs(seed=1, n=200, f=1000, k=5)
        fitted = fit_screener(ScreenerSpec("pca", {"n_out": 6}), ds)
        seen = []

        def capturing(spec, train_X, train_y):
            seen.append(train_X)
            return fit_classifier(spec, train_X, train_y)

        monkeypatch.setattr(evaluate, "fit_classifier", capturing)
        screen_once_report(ds, fitted, "pca(6)", 0.0, [ClassifierSpec("knn", {"k": 1})],
                           folds=3, seed=3)
        whole = pca_transform(fitted.pca, ds.features)
        for (train_rows, _), got in zip(stratified_kfold(ds, 3, seed=3), seen, strict=True):
            np.testing.assert_array_equal(got, whole[train_rows])

    def test_rf_classifier_runs(self):
        ds = _blobs(seed=9, n=45, k=3)
        rf = ClassifierSpec("rf", forest=ForestParams(n_trees=5, n_subfeatures=2, seed=3))
        entry = cross_validate(ds, ScreenerSpec("identity"), rf, folds=3, seed=5)
        assert 0.0 <= entry.mean_accuracy <= 1.0
        assert entry.classifier_id == "rf(n_trees=5)"

    @pytest.mark.parametrize("make", [
        lambda: ClassifierSpec("rf"),
        lambda: ClassifierSpec("rf", {"n_trees": 5}),
        lambda: ClassifierSpec("rf", {"k": 1}, forest=ForestParams(n_trees=5, n_subfeatures=2)),
        lambda: ClassifierSpec("knn", {"k": 1}, forest=ForestParams(n_trees=5, n_subfeatures=2)),
        lambda: ClassifierSpec("majority", forest=ForestParams(n_trees=5, n_subfeatures=2)),
    ])
    def test_only_an_rf_spec_holds_forest_params(self, make):
        with pytest.raises(ValueError, match="ForestParams"):
            make()

    def test_knn_spec_without_k_rejected(self):
        with pytest.raises(ValueError, match="k"):
            ClassifierSpec("knn")

    def test_rf_candidates_are_capped_at_the_training_width(self, monkeypatch):
        seen = []
        train_forest = evaluate.train_forest
        monkeypatch.setattr(evaluate, "train_forest",
                            lambda train, p: train_forest(train, seen.append(p) or p))
        ds = _blobs(seed=4, n=30, f=6)
        forest = ForestParams(n_trees=3, n_subfeatures=50, min_samples_leaf=2, seed=8)
        clf = fit_classifier(ClassifierSpec("rf", forest=forest), ds.features, ds.labels)
        assert clf.predict(ds.features).shape == (30,)
        assert seen == [ForestParams(n_trees=3, n_subfeatures=6, min_samples_leaf=2, seed=8)]

    @pytest.mark.parametrize("make", [
        lambda: ScreenerSpec("rfms", {"n_out": 2, "step_size": 4}),
        lambda: ScreenerSpec("rfms", {"n_out": 2}, config=_rfms(2).config),
        lambda: ScreenerSpec("kbest", {"n_out": 2}, config=_rfms(2).config),
    ])
    def test_only_an_rfms_spec_holds_a_screening_config(self, make):
        with pytest.raises(ValueError, match="ScreeningConfig"):
            make()

    @pytest.mark.parametrize("name", ["kbest", "random", "pca"])
    def test_a_spec_without_a_width_fails_by_name_when_fitted(self, name):
        spec = ScreenerSpec(name)  # constructs: a sweep gives each count its width
        ds, knn = _blobs(seed=4, n=30, f=6), ClassifierSpec("knn", {"k": 1})
        with pytest.raises(ValueError, match=rf"a {name} spec needs params\['n_out'\]"):
            cross_validate(ds, spec, knn, folds=3)
        with pytest.raises(ValueError, match=r"params\['n_out'\]"):
            grid_search(ds, [spec], [knn], folds=3)

    def test_rfms_width_is_the_config_reduced_size(self):
        spec = _rfms(2).with_n_out(3)
        assert spec.config == ScreeningConfig(step_size=4, reduced_size=3,
                                              forest=ForestParams(n_trees=5, n_subfeatures=3),
                                              seed=7)
        assert spec.label() == "rfms(3)"

    def test_rfms_screener_in_fold(self):
        ds = _blobs(seed=10, n=45, f=8, k=3)
        entry = cross_validate(ds, _rfms(2), ClassifierSpec("knn", {"k": 1}),
                               folds=3, seed=5)
        assert entry.n_features_out == 2


class TestGridSearch:
    def test_single_cell(self):
        ds = _blobs(seed=11)
        report = grid_search(ds, [ScreenerSpec("identity")],
                             [ClassifierSpec("knn", {"k": 1})], folds=3, seed=2)
        assert len(report.entries) == 1
        assert report.best is report.entries[0]

    def test_knn_grid_argmax(self):
        ds = _blobs(seed=12, spread=1.6)
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3, 5)]
        report = grid_search(ds, [ScreenerSpec("identity")], grid, folds=4, seed=3)
        assert len(report.entries) == 3
        best_acc = max(e.mean_accuracy for e in report.entries)
        assert report.best.mean_accuracy == best_acc
        first_max = next(i for i, e in enumerate(report.entries)
                         if e.mean_accuracy == best_acc)
        assert report.best_index == first_max

    def test_cells_match_independent_recompute(self):
        ds = _blobs(seed=13, f=8)
        screeners = [ScreenerSpec("kbest", {"n_out": 2}), ScreenerSpec("identity"),
                     ScreenerSpec("pca", {"n_out": 3}),
                     _rfms(3)]
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3)]
        report = grid_search(ds, screeners, grid, folds=3, seed=4)
        i = 0
        for s_spec in screeners:
            for c_spec in grid:
                again = cross_validate(ds, s_spec, c_spec, folds=3, seed=4)
                assert report.entries[i].screener_id == again.screener_id
                assert report.entries[i].n_features_out == again.n_features_out
                assert report.entries[i].fold_accuracies == again.fold_accuracies
                i += 1

    def test_each_screener_is_fitted_once_per_fold(self, monkeypatch):
        ds = _blobs(seed=20, f=6)
        fitted = []

        def counting(spec, *args):
            fitted.append(spec.label())
            return fit_screener(spec, *args)

        monkeypatch.setattr(evaluate, "fit_screener", counting)
        screeners = [ScreenerSpec("kbest", {"n_out": 2}), ScreenerSpec("pca", {"n_out": 2})]
        grid = [ClassifierSpec("knn", {"k": 1}), ClassifierSpec("knn", {"k": 3}),
                ClassifierSpec("majority")]
        report = grid_search(ds, screeners, grid, folds=3, seed=5)
        assert fitted == ["kbest(2)"] * 3 + ["pca(2)"] * 3
        assert len(report.entries) == 6
        # cells that share a screener's fits report the same screening time
        for first in (0, 3):
            cells = report.entries[first:first + 3]
            assert len({e.screening_cpu_s for e in cells}) == 1

    @pytest.mark.parametrize("rf_first", [False, True])
    def test_every_cell_shares_each_fold_gather(self, rf_first, monkeypatch):
        ds = _blobs(seed=24, n=45, f=6)
        rf = ClassifierSpec("rf", forest=ForestParams(n_trees=3, n_subfeatures=2, seed=1))
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3, 5)] + [ClassifierSpec("majority")]
        grid = [rf] + grid if rf_first else grid + [rf]
        screeners = [ScreenerSpec("kbest", {"n_out": 3}), ScreenerSpec("pca", {"n_out": 2})]
        events, gathers = [], []
        fit_fn, neighbours_fn, cross_validate_fn = (
            evaluate.fit_classifier, evaluate._neighbours, evaluate.cross_validate)

        def fitting(spec, train_X, *args):
            events.append(("fit", spec.label()))
            gathers.append(train_X)
            return fit_fn(spec, train_X, *args)

        def searching(train_X, train_y, queries, k):
            events.append(("search", k))
            gathers.append(train_X)
            return neighbours_fn(train_X, train_y, queries, k)

        def cell(dataset, s_spec, c_spec, *args, **kwargs):
            events.append(("cell", c_spec.label()))
            return cross_validate_fn(dataset, s_spec, c_spec, *args, **kwargs)

        monkeypatch.setattr(evaluate, "fit_classifier", fitting)
        monkeypatch.setattr(evaluate, "_neighbours", searching)
        monkeypatch.setattr(evaluate, "cross_validate", cell)
        report = grid_search(ds, screeners, grid, folds=3, seed=6)
        # per fold: the widest kNN fit and its search, then the other fits in grid order
        fold = [("fit", "knn(k=5)"), ("search", 5)] + [("fit", c.label()) for c in grid
                                                     if c.name != "knn"]
        assert events == (fold * 3 + [("cell", c.label()) for c in grid]) * 2
        # every fit and search of a fold sees that fold's one gather
        for f in range(6):
            assert all(x is gathers[len(fold) * f] for x in gathers[len(fold) * f:][:len(fold)])
        assert len({id(x) for x in gathers}) == 6
        assert [(e.screener_id, e.classifier_id) for e in report.entries] == [
            (s.label(), c.label()) for s in screeners for c in grid]

    def test_knn_k_above_a_training_fold_fails_before_any_cell(self, monkeypatch):
        ds = _blobs(seed=25, n=30)  # 3 folds of 18 to 21 training rows
        cells = []
        cross_validate_fn = evaluate.cross_validate

        def recording(*args, **kwargs):
            cells.append(cross_validate_fn(*args, **kwargs))
            return cells[-1]

        monkeypatch.setattr(evaluate, "cross_validate", recording)
        grid = [ClassifierSpec("knn", {"k": 1}), ClassifierSpec("majority"),
                ClassifierSpec("knn", {"k": 22})]
        with pytest.raises(ValueError, match=r"knn k must be in 1\.\.18"):
            grid_search(ds, [ScreenerSpec("identity")], grid, folds=3, seed=1)
        assert cells == []

    def test_folds_below_two_rejected(self):
        ds = _blobs(seed=21)
        with pytest.raises(ValueError, match="folds must be at least 2"):
            grid_search(ds, [ScreenerSpec("identity")], [ClassifierSpec("majority")],
                        folds=1, seed=0)
        with pytest.raises(ValueError, match="folds must be at least 2"):
            cross_validate(ds, ScreenerSpec("identity"), ClassifierSpec("majority"), folds=1)

    def test_empty_grid_rejected(self):
        ds = _blobs(seed=14)
        with pytest.raises(ValueError):
            grid_search(ds, [], [ClassifierSpec("majority")], folds=2, seed=0)


def _shifted_table(n_rows, n_cols):
    """Normal noise over 10 classes, with the first 5 columns shifted by the class id."""
    rng = np.random.default_rng(61)
    y = np.repeat(np.arange(1, 11), n_rows // 10)
    X = rng.normal(size=(n_rows, n_cols))
    X[:, :5] += y[:, None]
    return make_dataset(X, y)


class TestMemory:
    """Leak-safe evaluation of a wide table copies no table per fold.

    A fold is a row set over the one table: beyond its input a kbest grid holds one
    score block and an rfms grid one round's pool, well under half the table, and a
    full-width kNN cell one fold's train and test gathers, 1.0 of the table, plus the
    identity screener's one id tuple and the kNN distance blocks.  A screen-once sweep's
    one whole-table fit serves every fold in the same way, so it builds no reduced table.
    """

    KNN = ClassifierSpec("knn", {"k": 1})

    @pytest.fixture(scope="class", autouse=True)
    def warm(self):
        # first calls import modules lazily; keep those bytes out of the peaks
        grid_search(_shifted_table(50, 30), [ScreenerSpec("kbest", {"n_out": 5}),
                                             ScreenerSpec("identity"), _rfms(3)],
                    [self.KNN], folds=5, seed=1)

    @pytest.fixture(scope="class")
    def paper_shape(self):
        return _shifted_table(400, 10_000)

    def test_kbest_grid_holds_less_than_half_the_table(self, paper_shape):
        peak = traced_peak(lambda: grid_search(
            paper_shape, [ScreenerSpec("kbest", {"n_out": 20})], [self.KNN], folds=5, seed=2))
        assert peak < paper_shape.features.nbytes / 2

    def test_rfms_grid_holds_less_than_half_the_table(self):
        ds = _shifted_table(100, 3000)
        rfms = ScreenerSpec("rfms", config=ScreeningConfig(
            step_size=750, reduced_size=10, seed=8,
            forest=ForestParams(n_trees=2, n_subfeatures=8, min_samples_leaf=3)))
        peak = traced_peak(lambda: grid_search(ds, [rfms], [self.KNN], folds=2, seed=2))
        assert peak < ds.features.nbytes / 2

    def test_full_width_knn_cell_holds_one_fold(self, paper_shape):
        peak = traced_peak(lambda: cross_validate(paper_shape, ScreenerSpec("identity"),
                                                  self.KNN, folds=5, seed=2))
        assert peak < 1.1 * paper_shape.features.nbytes

    def test_full_width_knn_grid_holds_one_fold(self, paper_shape):
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3, 5)] + [ClassifierSpec("majority")]
        peak = traced_peak(lambda: grid_search(paper_shape, [ScreenerSpec("identity")], grid,
                                               folds=5, seed=2))
        assert peak < 1.1 * paper_shape.features.nbytes

    def test_fold_pass_holds_one_fold_and_a_column_block(self):
        ds = _shifted_table(400, 2000)
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3, 5)] + [ClassifierSpec("majority")]
        folds_idx = stratified_kfold(ds, 5, 3)
        fits = evaluate._fit_folds(ds, ScreenerSpec("identity"), folds_idx)
        peak = traced_peak(lambda: evaluate._fold_pass(ds, grid, folds_idx, fits))
        assert peak <= 1.25 * ds.n_samples * ds.n_features * 8  # one fold's train and test

    def test_full_width_screen_once_sweep_holds_one_fold(self, paper_shape):
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3, 5)] + [ClassifierSpec("majority")]
        peak = traced_peak(lambda: convergence_sweep(
            paper_shape, ScreenerSpec("kbest"), grid, counts=[paper_shape.n_features],
            folds=5, seed=2))
        assert peak < 1.1 * paper_shape.features.nbytes


class TestConvergenceSweep:
    def test_full_width_identity_equals_plain_cv(self):
        ds = _blobs(seed=15)
        rows = convergence_sweep(ds, ScreenerSpec("identity"),
                                 [ClassifierSpec("knn", {"k": 3})],
                                 counts=[ds.n_features], folds=3, seed=6)
        direct = cross_validate(ds, ScreenerSpec("identity"),
                                ClassifierSpec("knn", {"k": 3}), folds=3, seed=6)
        assert len(rows) == 1
        assert rows[0].best_accuracy == direct.mean_accuracy

    def test_single_perfect_feature(self):
        rng = np.random.default_rng(16)
        y = np.repeat(np.arange(1, 4), 8)
        X = np.column_stack([rng.normal(size=24), y.astype(float), rng.normal(size=24)])
        ds = make_dataset(X, y)
        rows = convergence_sweep(ds, ScreenerSpec("kbest"),
                                 [ClassifierSpec("knn", {"k": 1})],
                                 counts=[1], folds=3, seed=7)
        assert rows[0].best_accuracy == 1.0

    def test_one_row_per_count(self):
        ds = _blobs(seed=17)
        rows = convergence_sweep(ds, ScreenerSpec("kbest"),
                                 [ClassifierSpec("knn", {"k": 1})],
                                 counts=[1, 2, 4], folds=3, seed=8)
        assert [r.n_features_out for r in rows] == [1, 2, 4]
        assert all(0.0 <= r.best_accuracy <= 1.0 for r in rows)
        assert all(r.screening_cpu_s >= 0.0 and r.fitting_cpu_s >= 0.0 for r in rows)

    def test_leak_safe_variant_runs(self):
        ds = _blobs(seed=18)
        rows = convergence_sweep(ds, ScreenerSpec("kbest"),
                                 [ClassifierSpec("knn", {"k": 1})],
                                 counts=[2], folds=3, seed=9, leak_safe=True)
        direct = cross_validate(ds, ScreenerSpec("kbest", {"n_out": 2}),
                                ClassifierSpec("knn", {"k": 1}), folds=3, seed=9)
        assert rows[0].best_accuracy == direct.mean_accuracy

    def test_leak_safe_sweep_ranks_the_module_cross_validate_cells(self, monkeypatch):
        ds = _blobs(seed=22, f=6)
        cells = []
        cross_validate_fn = evaluate.cross_validate

        def recording(*args, **kwargs):
            cells.append(cross_validate_fn(*args, **kwargs))
            return cells[-1]

        monkeypatch.setattr(evaluate, "cross_validate", recording)
        grid = [ClassifierSpec("knn", {"k": 1}), ClassifierSpec("knn", {"k": 3}),
                ClassifierSpec("majority")]
        counts = [1, 3, 6]
        rows = convergence_sweep(ds, ScreenerSpec("kbest"), grid, counts=counts,
                                 folds=3, seed=10, leak_safe=True)
        assert [(e.n_features_out, e.classifier_id) for e in cells] == [
            (n, c.label()) for n in counts for c in grid]
        for row, width in zip(rows, (cells[i:i + 3] for i in range(0, 9, 3))):
            best = max(width, key=lambda e: e.mean_accuracy)
            assert (row.best_accuracy, row.best_classifier_id, row.screening_cpu_s,
                    row.fitting_cpu_s) == (best.mean_accuracy, best.classifier_id,
                                           best.screening_cpu_s, best.fitting_cpu_s)

    @pytest.mark.parametrize("leak_safe", [True, False])
    def test_kbest_is_fitted_and_scored_once_per_fold(self, leak_safe, monkeypatch):
        fitted, scored = _recorded_fits(monkeypatch), []
        monkeypatch.setattr(baselines, "f_scores",
                            lambda *args: scored.append(1) or f_scores(*args))
        grid = [ClassifierSpec("knn", {"k": 1}), ClassifierSpec("majority")]
        counts = [2, 8, 1, 5, 3]
        rows = convergence_sweep(_blobs(seed=27, f=8), ScreenerSpec("kbest"), grid, counts,
                                 folds=5, seed=12, leak_safe=leak_safe)
        assert [r.n_features_out for r in rows] == counts
        # screen-once fits the whole table once, and that fit serves every fold
        assert fitted == ["kbest(8)"] * (5 if leak_safe else 1)
        assert len(scored) == (5 if leak_safe else 1)
        assert len({r.screening_cpu_s for r in rows}) == 1

    @pytest.mark.parametrize("leak_safe", [True, False])
    @pytest.mark.parametrize("screener", [ScreenerSpec("random", {"seed": 3}),
                                          ScreenerSpec("pca"), _rfms(1)])
    def test_other_screeners_are_fitted_once_per_count(self, screener, leak_safe, monkeypatch):
        fitted = _recorded_fits(monkeypatch)
        counts = [2, 4, 1, 3]
        convergence_sweep(_blobs(seed=28, f=8), screener, [ClassifierSpec("knn", {"k": 1})],
                          counts, folds=5, seed=13, leak_safe=leak_safe)
        per_count = [screener.with_n_out(c).label() for c in counts]
        assert fitted == [label for label in per_count for _ in range(5 if leak_safe else 1)]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("leak_safe", [True, False])
    def test_prefix_fits_equal_a_fit_per_count(self, seed, leak_safe, monkeypatch):
        ds = tied_table(seed)
        assert np.unique(f_scores(ds)).size < ds.n_features  # tied scores
        cells = []
        cross_validate_fn = evaluate.cross_validate

        def recording(*args, **kwargs):
            cells.append(cross_validate_fn(*args, **kwargs))
            return cells[-1]

        monkeypatch.setattr(evaluate, "cross_validate", recording)
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3)] + [
            ClassifierSpec("majority"),
            ClassifierSpec("rf", forest=ForestParams(n_trees=2, n_subfeatures=3, seed=seed))]
        counts = [int(c) for c in np.random.default_rng(seed).permutation(np.arange(1, 31))]
        rows = convergence_sweep(ds, ScreenerSpec("kbest"), grid, counts, folds=3, seed=seed,
                                 leak_safe=leak_safe)
        swept, cells[:] = cells[:], []
        bests = []
        for count in counts:
            spec = ScreenerSpec("kbest", {"n_out": count})
            if leak_safe:
                report = grid_search(ds, [spec], grid, folds=3, seed=seed)
            else:
                fitted = fit_screener(spec, ds)
                report = screen_once_report(ds, fitted, spec.label(), 0.0, grid, 3, seed)
            bests.append(report.best)

        def masked(entry):
            return replace(entry, screening_cpu_s=0.0, fitting_cpu_s=0.0)

        assert [masked(e) for e in swept] == [masked(e) for e in cells]
        assert len(swept) == 4 * len(counts)
        assert [(r.n_features_out, r.best_accuracy, r.best_classifier_id) for r in rows] == [
            (c, b.mean_accuracy, b.classifier_id) for c, b in zip(counts, bests)]

    @pytest.mark.parametrize("screener", [ScreenerSpec("kbest"), ScreenerSpec("pca")])
    def test_screen_once_single_class_training_fold_rejected(self, screener, monkeypatch):
        # the whole-table fit serves every fold, and every fold is still checked
        ds = _blobs(seed=29, n=12, k=2)
        rows = np.arange(12)
        monkeypatch.setattr(evaluate, "stratified_kfold",
                            lambda *args: [(rows[::2], rows[1::2]), (rows[6:], rows[:6])])
        with pytest.raises(ValueError, match="^a training fold holds a single class; "
                                             "cross-validation needs 2$"):
            convergence_sweep(ds, screener, [ClassifierSpec("majority")], counts=[2],
                              folds=2, seed=0)

    def test_count_bounds(self):
        ds = _blobs(seed=19)
        with pytest.raises(ValueError):
            convergence_sweep(ds, ScreenerSpec("kbest"), [ClassifierSpec("majority")],
                              counts=[ds.n_features + 1], folds=2, seed=0)
