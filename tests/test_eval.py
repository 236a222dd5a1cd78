"""Harness: kNN, cross-validation, grid search, convergence sweep."""

import tracemalloc

import numpy as np
import pytest

from helpers import make_dataset, oracle_knn
from rfscreen import (ClassifierSpec, ForestParams, ScreenerSpec, ScreeningConfig,
                      convergence_sweep, cross_validate, evaluate, fit_screener, grid_search,
                      kbest_fscore, knn_predict, pca_fit, pca_transform, reduce_full,
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


class TestKnnPredict:
    def test_exact_match_with_k1(self):
        ds = _blobs(seed=1)
        for j in (0, 13, 40):
            assert knn_predict(ds, ds.features[j], k=1) == ds.labels[j]

    def test_vote_tie_prefers_smaller_class(self):
        ds = make_dataset([[0.0], [2.0]], [2, 1])
        assert knn_predict(ds, [1.0], k=2) == 1

    def test_distance_tie_prefers_smaller_index(self):
        ds = make_dataset([[1.0], [-1.0], [5.0]], [3, 1, 2])
        # both first rows are at distance 1 from the query; index 0 wins the vote
        assert knn_predict(ds, [0.0], k=1) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_distance_sort_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        X = rng.normal(size=(50, 4))
        y = rng.integers(1, 4, size=50)
        y[:3] = [1, 2, 3]
        ds = make_dataset(X, y)
        for q in rng.normal(size=(25, 4)):
            assert knn_predict(ds, q, k=5) == oracle_knn(X, y, q, 5)

    def test_bounds(self):
        ds = make_dataset([[0.0]], [1])
        with pytest.raises(ValueError):
            knn_predict(ds, [0.0], k=2)
        with pytest.raises(ValueError):
            knn_predict(ds, [0.0, 1.0], k=1)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_query(self, bad):
        ds = _blobs(seed=2)
        q = ds.features[0].copy()
        q[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            knn_predict(ds, q, k=3)
        clf = fit_classifier(ClassifierSpec("knn", {"k": 3}), ds.features, ds.labels, 3)
        with pytest.raises(ValueError, match="non-finite"):
            clf.predict(np.vstack([ds.features[:2], q]))


class TestKnnScreen:
    """The matmul screen must never drop a true neighbour.

    Every case is built so that the proxy distance cannot order the rows:
    exact ties, ties one ulp apart, and offsets or magnitudes where the proxy
    cancels or overflows.  Labels must equal the distance-sort oracle's, one
    query at a time and in one batch.
    """

    @staticmethod
    def _check(X, y, queries, ks):
        X, y, queries = np.asarray(X, float), np.asarray(y), np.asarray(queries, float)
        ds = make_dataset(X, y)
        for k in ks:
            expected = [oracle_knn(X, y, q, k) for q in queries]
            assert [knn_predict(ds, q, k) for q in queries] == expected
            clf = fit_classifier(ClassifierSpec("knn", {"k": k}), X, y, int(y.max()))
            assert clf.predict(queries).tolist() == expected

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
        clf = fit_classifier(ClassifierSpec("knn", {"k": 5}), X, y, 10)
        tracemalloc.start()
        try:
            labels = clf.predict(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * X.nbytes
        assert labels[:5].tolist() == [oracle_knn(X, y, q, 5) for q in queries[:5]]


class TestFitScreener:
    def test_random_seed_defaults_to_the_library_seed(self):
        ds = _blobs(seed=11, f=20)
        default = fit_screener(ScreenerSpec("random", {"n_out": 5}), ds)
        explicit = fit_screener(ScreenerSpec("random", {"n_out": 5, "seed": 20230125}), ds)
        assert default.selected == explicit.selected

    def test_pca_view_holds_named_scores(self):
        ds = _blobs(seed=13, f=6)
        view, fitted, _ = reduce_full(ds, ScreenerSpec("pca", {"n_out": 2}))
        assert view.feature_names == ("pc1", "pc2")
        np.testing.assert_array_equal(view.features, pca_transform(fitted.pca, ds.features))
        np.testing.assert_array_equal(view.labels, ds.labels)


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

        def capturing(spec, train_X, train_y, n_classes):
            seen.append(train_X)
            return fit_classifier(spec, train_X, train_y, n_classes)

        monkeypatch.setattr(evaluate, "fit_classifier", capturing)
        cross_validate(ds, ScreenerSpec("pca", {"n_out": 4}), ClassifierSpec("knn", {"k": 1}),
                       folds_idx=folds_idx)
        assert len(seen) == 3
        for (train_rows, _), got in zip(folds_idx, seen):
            train = make_dataset(ds.features[train_rows], ds.labels[train_rows],
                                 names=ds.feature_names)
            np.testing.assert_array_equal(got, pca_transform(pca_fit(train, 4), train.features))

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
        clf = fit_classifier(ClassifierSpec("rf", forest=forest), ds.features, ds.labels,
                             ds.n_classes)
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

        def counting(spec, train):
            fitted.append(spec.label())
            return fit_screener(spec, train)

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

    def test_count_bounds(self):
        ds = _blobs(seed=19)
        with pytest.raises(ValueError):
            convergence_sweep(ds, ScreenerSpec("kbest"), [ClassifierSpec("majority")],
                              counts=[ds.n_features + 1], folds=2, seed=0)
