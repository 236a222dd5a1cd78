"""Harness: kNN, cross-validation, grid search, convergence sweep."""

import numpy as np
import pytest

from helpers import make_dataset, oracle_knn
from rfscreen import (ClassifierSpec, ScreenerSpec, convergence_sweep, cross_validate,
                      fit_screener, grid_search, kbest_fscore, knn_predict, pca_transform,
                      reduce_full, stratified_kfold)


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

    def test_rf_classifier_runs(self):
        ds = _blobs(seed=9, n=45, k=3)
        entry = cross_validate(ds, ScreenerSpec("identity"),
                               ClassifierSpec("rf", {"n_trees": 5, "seed": 3}),
                               folds=3, seed=5)
        assert 0.0 <= entry.mean_accuracy <= 1.0

    def test_rfms_screener_in_fold(self):
        ds = _blobs(seed=10, n=45, f=8, k=3)
        spec = ScreenerSpec("rfms", {"n_out": 2, "step_size": 4, "n_trees": 5,
                                     "n_subfeatures": 3, "seed": 7})
        entry = cross_validate(ds, spec, ClassifierSpec("knn", {"k": 1}),
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
        ds = _blobs(seed=13)
        screeners = [ScreenerSpec("kbest", {"n_out": 2}), ScreenerSpec("identity")]
        grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3)]
        report = grid_search(ds, screeners, grid, folds=3, seed=4)
        i = 0
        for s_spec in screeners:
            for c_spec in grid:
                again = cross_validate(ds, s_spec, c_spec, folds=3, seed=4)
                assert report.entries[i].fold_accuracies == again.fold_accuracies
                i += 1

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

    def test_count_bounds(self):
        ds = _blobs(seed=19)
        with pytest.raises(ValueError):
            convergence_sweep(ds, ScreenerSpec("kbest"), [ClassifierSpec("majority")],
                              counts=[ds.n_features + 1], folds=2, seed=0)
