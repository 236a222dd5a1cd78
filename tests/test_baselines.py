"""Baseline screeners: F-score ranking, PCA, random control."""

import numpy as np
import pytest

from helpers import make_dataset, oracle_f_scores
from rfscreen import (GeneratorConfig, baselines, f_scores, generate, kbest_fscore, pca_fit,
                      pca_transform, random_subset, stratified_kfold)


class TestFScores:
    def test_constant_feature_scores_zero_and_loses(self):
        y = [1, 1, 1, 2, 2, 2]
        X = np.column_stack([
            np.full(6, 3.14),            # constant
            [0.1, 0.2, 0.0, 1.1, 0.9, 1.0],  # informative
        ])
        ds = make_dataset(X, y)
        f = f_scores(ds)
        assert f[0] == 0.0
        assert f[1] > 0.0
        assert kbest_fscore(ds, 1).indices == (1,)

    def test_perfect_separator_scores_infinity(self):
        y = [1, 1, 2, 2]
        X = np.column_stack([
            [0.0, 0.0, 10.0, 10.0],       # zero within-class spread
            [0.5, 0.1, 0.4, 0.2],
        ])
        ds = make_dataset(X, y)
        f = f_scores(ds)
        assert np.isinf(f[0])
        assert kbest_fscore(ds, 2).indices[0] == 0

    def test_matches_sum_of_squares_oracle_small(self):
        X = np.array([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0],
                      [6.0, 2.5], [7.0, 1.5], [8.0, 3.5]])
        y = [1, 1, 1, 2, 2, 2]
        ds = make_dataset(X, y)
        np.testing.assert_allclose(f_scores(ds), oracle_f_scores(X, np.array(y)),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle_on_random_instances(self, seed):
        rng = np.random.default_rng(300 + seed)
        n, f, k = 24, 6, 3
        X = rng.normal(size=(n, f))
        y = rng.integers(1, k + 1, size=n)
        y[:k] = np.arange(1, k + 1)
        ds = make_dataset(X, y)
        np.testing.assert_allclose(f_scores(ds), oracle_f_scores(X, y),
                                   rtol=1e-10, atol=1e-12)

    def test_kbest_output_shape_and_order(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(30, 8))
        y = rng.integers(1, 3, size=30)
        y[:2] = [1, 2]
        ds = make_dataset(X, y)
        subset = kbest_fscore(ds, 5)
        f = f_scores(ds)
        assert len(subset) == 5
        ranked = [f[i] for i in subset.indices]
        assert ranked == sorted(ranked, reverse=True)

    def test_single_class_rejected(self):
        ds = make_dataset(np.zeros((4, 2)), [1, 1, 1, 1])
        with pytest.raises(ValueError):
            f_scores(ds)


def _diag_cov_dataset():
    # exact sample covariance diag(4, 1) over 4 points
    a = np.sqrt(6.0)
    b = np.sqrt(1.5)
    X = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
    return make_dataset(X, [1, 2, 1, 2])


class TestBlockScoring:
    """F-scores of a fold's rows, scored in column blocks gathered from the one table,
    keep the bits of the fold's own table, whatever the block width."""

    @staticmethod
    def _table(seed):
        ds, _ = generate(GeneratorConfig(
            n_classes=3 + seed % 3, n_samples_per_class=10 + seed, n_true_features=4,
            n_fake_features=4, min_usefulness=0.4, max_usefulness=1.0,
            n_features_out=40 + 17 * seed, min_count=1, max_count=2, seed=700 + seed))
        X = ds.features.copy()
        if seed % 2:
            X[:, ::4] = np.round(X[:, ::4])  # few values: ties in every class
            X[:, 5] = 0.25                   # constant
            X[ds.labels == 1, 7] = 1.0       # constant within one class
        return make_dataset(X, ds.labels)

    @pytest.mark.parametrize("width", [1, 2, 3, 7, None])
    @pytest.mark.parametrize("seed", range(8))
    def test_fold_scores_match_the_fold_table(self, monkeypatch, seed, width):
        ds = self._table(seed)
        whole = f_scores(ds)
        folds = stratified_kfold(ds, 3, seed)
        # each fold table is narrower than one default block, so it is scored as a whole
        expected = [f_scores(make_dataset(ds.features[rows], ds.labels[rows]))
                    for rows, _ in folds]
        if width is not None:  # blocks of about `width` columns, and never 1
            monkeypatch.setattr(baselines, "_BLOCK_BYTES", 8 * len(folds[0][0]) * width)
        for (rows, _), want in zip(folds, expected):
            assert np.array_equal(f_scores(ds, rows), want)
        assert np.array_equal(f_scores(ds), whole)


class TestPca:
    def test_recovers_known_covariance(self):
        ds = _diag_cov_dataset()
        model = pca_fit(ds, 2)
        oracle_vals = np.linalg.eigh(np.array([[4.0, 0.0], [0.0, 1.0]]))[0][::-1]
        np.testing.assert_allclose(model.eigenvalues, oracle_vals, atol=1e-6)
        np.testing.assert_allclose(np.abs(model.components[:, 0]), [1.0, 0.0], atol=1e-8)

    def test_one_dimensional_data(self):
        X = np.array([[1.0], [2.0], [4.0]])
        ds = make_dataset(X, [1, 2, 1])
        model = pca_fit(ds, 1)
        assert abs(abs(model.components[0, 0]) - 1.0) < 1e-12
        np.testing.assert_allclose(model.eigenvalues[0], np.var(X[:, 0], ddof=1),
                                   atol=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(23)
        X = rng.normal(size=(12, 4))
        ds = make_dataset(X, rng.integers(1, 3, size=12) % 2 + 1)
        model = pca_fit(ds, 4)
        Z = pca_transform(model, X)
        back = Z @ model.components.T + model.mean
        np.testing.assert_allclose(back, X, atol=1e-8)

    def test_mean_maps_to_origin(self):
        ds = _diag_cov_dataset()
        model = pca_fit(ds, 2)
        np.testing.assert_allclose(pca_transform(model, ds.features.mean(axis=0)[None, :]),
                                   0.0, atol=1e-12)

    def test_component_variances_equal_eigenvalues(self):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(40, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2])
        ds = make_dataset(X, rng.integers(1, 3, size=40) % 2 + 1)
        model = pca_fit(ds, 5)
        Z = pca_transform(model, X)
        np.testing.assert_allclose(Z.var(axis=0, ddof=1), model.eigenvalues, atol=1e-6)

    def test_unit_step_along_first_component(self):
        ds = _diag_cov_dataset()
        model = pca_fit(ds, 2)
        point = ds.features.mean(axis=0) + model.components[:, 0]
        np.testing.assert_allclose(pca_transform(model, point[None, :])[0], [1.0, 0.0],
                                   atol=1e-10)

    def test_eigenvalue_sum_bounded_by_total_variance(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(25, 6))
        ds = make_dataset(X, rng.integers(1, 3, size=25) % 2 + 1)
        total = X.var(axis=0, ddof=1).sum()
        model = pca_fit(ds, 6)
        assert model.eigenvalues.sum() <= total + 1e-6
        np.testing.assert_allclose(model.eigenvalues.sum(), total, atol=1e-6)

    def test_orthonormal_components_wide_table(self):
        rng = np.random.default_rng(37)
        X = rng.normal(size=(10, 40))
        ds = make_dataset(X, rng.integers(1, 3, size=10) % 2 + 1)
        model = pca_fit(ds, 5)
        gram = model.components.T @ model.components
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-8)
        assert np.all(np.diff(model.eigenvalues) <= 1e-10)
        Z = pca_transform(model, X)
        np.testing.assert_allclose(Z.var(axis=0, ddof=1), model.eigenvalues, rtol=1e-8)

    def test_rank_limit_in_wide_regime(self):
        rng = np.random.default_rng(41)
        X = rng.normal(size=(4, 9))
        ds = make_dataset(X, [1, 2, 1, 2])
        with pytest.raises(ValueError, match="rank"):
            pca_fit(ds, 4)  # centering leaves rank 3

    def test_n_components_bounds(self):
        ds = _diag_cov_dataset()
        with pytest.raises(ValueError):
            pca_fit(ds, 3)
        with pytest.raises(ValueError):
            pca_fit(ds, 0)


    def test_projection_bits_do_not_depend_on_memory_order(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(40, 30))
        model = pca_fit(make_dataset(X, np.repeat([1, 2], 20)), 10)
        c_order, f_order = np.ascontiguousarray(X), np.asfortranarray(X)
        assert pca_transform(model, c_order).tobytes() == pca_transform(model, f_order).tobytes()


class TestRandomSubset:
    def test_full_subset(self):
        assert sorted(random_subset(6, 6, seed=0).indices) == list(range(6))

    def test_deterministic(self):
        assert random_subset(20, 5, seed=3).indices == random_subset(20, 5, seed=3).indices

    def test_uniform_frequencies(self):
        hits = np.zeros(10)
        draws = 10_000
        for s in range(draws):
            hits[random_subset(10, 1, seed=s).indices[0]] += 1
        freq = hits / draws
        assert np.all(np.abs(freq - 0.1) <= 0.02)

    def test_bounds(self):
        with pytest.raises(ValueError):
            random_subset(5, 6, seed=0)
