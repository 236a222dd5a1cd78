"""Edge cases and error paths across modules."""

import json

import numpy as np
import pytest

from helpers import make_dataset, oracle_f_scores
from rfscreen import (ClassifierSpec, Dataset, FeatureSubset, ForestParams, GeneratorConfig,
                      ScreenerSpec, ScreeningConfig, canary_block, convergence_sweep, f_scores,
                      fit_screener, forest_predict_batch, generate, kbest_fscore, load_csv,
                      pca_transform, pca_fit, screen, screen_once_report, stratified_kfold,
                      train_forest, truth_overlap)
from rfscreen.cli import main


class TestDataEdges:
    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f1,f2\na,1,2\nb,3\n", encoding="utf-8")
        with pytest.raises(Exception, match="row 2"):
            load_csv(path)

    def test_label_below_one_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([[1.0]], [0])

    def test_negative_subset_index_rejected(self):
        with pytest.raises(ValueError):
            FeatureSubset((-1,))

    def test_exponent_and_negative_floats_round_trip(self, tmp_path):
        ds = make_dataset([[1e-17, -3.5], [2.25e12, 0.1]], [1, 2])
        from rfscreen import write_csv
        path = tmp_path / "tiny.csv"
        write_csv(ds, path)
        assert load_csv(path) == ds


class TestForestEdges:
    def test_tiny_bootstrap_rejected(self):
        ds = make_dataset([[1.0], [2.0]], [1, 2])
        with pytest.raises(ValueError, match="bootstrap"):
            train_forest(ds, ForestParams(n_trees=1, n_subfeatures=1,
                                          partial_sampling=0.1))

    def test_bootstrap_below_leaf_minimum_rejected(self):
        ds = make_dataset(np.ones((10, 1)), [1] * 5 + [2] * 5)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            train_forest(ds, ForestParams(n_trees=1, n_subfeatures=1,
                                          min_samples_leaf=9))

    def test_invalid_params_fail_at_construction(self):
        for knob, value, message in [
                ("n_trees", 0, "n_trees must be positive"),
                ("n_subfeatures", 0, "n_subfeatures must be positive"),
                ("min_samples_leaf", 0, "min_samples_leaf must be positive"),
                ("min_purity_increase", -0.1, "min_purity_increase must be nonnegative"),
                ("partial_sampling", 0.0, r"partial_sampling must be in \(0, 1\]"),
                ("partial_sampling", 1.5, r"partial_sampling must be in \(0, 1\]"),
                ("n_workers", 0, "n_workers must be positive")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                ForestParams(**{"n_trees": 1, "n_subfeatures": 1, knob: value})

    def test_predict_batch_shape_validation(self):
        ds = make_dataset(np.random.default_rng(0).normal(size=(12, 3)),
                          [1, 2] * 6)
        model = train_forest(ds, ForestParams(n_trees=2, n_subfeatures=2, seed=1))
        with pytest.raises(ValueError):
            forest_predict_batch(model, np.zeros((4, 5)))


def _leaky_rfms_fit():
    # 4 columns and 2 canaries, every one of them carried: both canaries survive
    ds = make_dataset(np.random.default_rng(2).normal(size=(12, 4)), [1, 2] * 6)
    fit_screener(ScreenerSpec("rfms", config=ScreeningConfig(
        step_size=6, reduced_size=6, n_canaries=2,
        forest=ForestParams(n_trees=1, n_subfeatures=1))), ds)


_TINY = make_dataset(np.arange(8.0).reshape(4, 2), [1, 2, 1, 2])


def _generator(**overrides):
    return GeneratorConfig(**{"n_classes": 2, "n_samples_per_class": 2, "n_true_features": 1,
                              "n_fake_features": 1, "min_count": 1, "max_count": 1,
                              **overrides})


# case -> (call, exception type, message fragment)
LIBRARY_FAILURES = {
    "rfms-fit-keeps-a-canary": (_leaky_rfms_fit, RuntimeError,
                                "screen selected 2 canary feature(s)"),
    "kfold-class-below-folds-after-an-absent-class": (
        lambda: stratified_kfold(make_dataset(np.zeros((7, 1)), [1] * 5 + [3] * 2), 3, 0),
        ValueError, "class 3 has 2 samples, fewer than folds=3"),
    "screen-carries-nothing": (
        lambda: ScreeningConfig(step_size=4, reduced_size=0,
                                forest=ForestParams(n_trees=1, n_subfeatures=1)),
        ValueError, "reduced_size must be positive"),
    "generator-without-samples": (lambda: _generator(n_samples_per_class=0), ValueError,
                                  "n_samples_per_class must be positive"),
    "generator-negative-hidden-count": (lambda: _generator(n_fake_features=-1), ValueError,
                                        "hidden feature counts must be nonnegative"),
    "generator-without-hidden-features": (
        lambda: _generator(n_true_features=0, n_fake_features=0), ValueError,
        "at least one hidden feature is required"),
    "generator-without-outputs": (lambda: _generator(n_features_out=0), ValueError,
                                  "n_features_out must be positive"),
    "generator-negative-location-sharing": (lambda: _generator(location_sharing_extent=-1),
                                            ValueError,
                                            "location_sharing_extent must be nonnegative"),
    "dataset-features-not-2d": (lambda: Dataset(np.zeros(2), [1, 2], ("a",)), ValueError,
                                "features must be a 2-D matrix"),
    "dataset-labels-of-another-length": (lambda: Dataset(np.zeros((3, 1)), [1, 2], ("a",)),
                                         ValueError,
                                         "labels must be a vector with one entry per sample"),
    "dataset-names-of-another-count": (lambda: Dataset(np.zeros((2, 1)), [1, 2], ("a", "b")),
                                       ValueError,
                                       "feature_names length must match the feature count"),
    "dataset-repeated-name": (lambda: Dataset(np.zeros((2, 2)), [1, 2], ("a", "a")), ValueError,
                              "feature names must be unique"),
    "unknown-screener": (lambda: ScreenerSpec("lasso"), ValueError, "unknown screener 'lasso'"),
    "unknown-classifier": (lambda: ClassifierSpec("svm"), ValueError,
                           "unknown classifier 'svm'"),
    "screen-once-without-classifiers": (
        lambda: screen_once_report(_TINY, fit_screener(ScreenerSpec("identity"), _TINY),
                                   "identity", 0.0, []),
        ValueError, "parameter grid must be non-empty"),
    "sweep-without-classifiers": (lambda: convergence_sweep(_TINY, ScreenerSpec("kbest"), [], [1]),
                                  ValueError, "classifier grid must be non-empty"),
    "kbest-wider-than-the-table": (lambda: kbest_fscore(_TINY, 3), ValueError,
                                   "k_out must be in 1..2"),
    "pca-of-one-row": (lambda: pca_fit(_TINY, 1, rows=[0]), ValueError,
                       "PCA needs at least 2 samples"),
    "forest-of-no-rows": (lambda: train_forest(make_dataset(np.zeros((0, 2)), []),
                                               ForestParams(n_trees=1, n_subfeatures=1)),
                          ValueError, "dataset is empty"),
    "truth-overlap-of-nothing": (
        lambda: truth_overlap(FeatureSubset(()), generate(_generator())[1]), ValueError,
        "selection is empty"),
}


class TestPipelineEdges:
    @pytest.mark.parametrize("case", sorted(LIBRARY_FAILURES))
    def test_library_failure_names_its_cause(self, tmp_path, monkeypatch, case):
        call, error, fragment = LIBRARY_FAILURES[case]
        monkeypatch.chdir(tmp_path)
        with pytest.raises(error) as raised:
            call()
        assert fragment in str(raised.value)
        assert list(tmp_path.iterdir()) == []

    def test_negative_canaries_rejected(self):
        with pytest.raises(ValueError):
            ScreeningConfig(step_size=4, reduced_size=2, n_canaries=-1,
                            forest=ForestParams(n_trees=1, n_subfeatures=1))

    def test_canary_name_collision_rejected(self):
        ds = make_dataset([[1.0, 2.0]], [1], names=("canary_0001", "x"))
        with pytest.raises(ValueError, match="canary"):
            canary_block(ds, 2, seed=0)

    def test_oversized_subfeature_config_is_clamped_per_round(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(40, 26))
        y = rng.integers(1, 3, size=40)
        y[:2] = [1, 2]
        ds = make_dataset(X, y)
        config = ScreeningConfig(
            step_size=10, reduced_size=3,
            forest=ForestParams(n_trees=4, n_subfeatures=500, min_samples_leaf=2),
            seed=2,
        )
        result = screen(ds, config)
        assert len(result.selected) == 3

    def test_single_label_above_one_rejected(self):
        # Label 2 alone makes the label-id bound 2 while only one class is present.
        ds = make_dataset(np.random.default_rng(3).normal(size=(12, 4)), [2] * 12)
        assert ds.n_classes == 2
        config = ScreeningConfig(step_size=2, reduced_size=1,
                                 forest=ForestParams(n_trees=2, n_subfeatures=1))
        with pytest.raises(ValueError, match="single-class"):
            screen(ds, config)
        with pytest.raises(ValueError, match="2 classes"):
            f_scores(ds)

    def test_sparse_label_ids_score_the_present_classes(self):
        rng = np.random.default_rng(8)
        y = np.array([1, 3] * 10)
        X = rng.normal(size=(20, 6))
        X[:, 4] += 3.0 * y
        ds = make_dataset(X, y)
        f = f_scores(ds)
        assert np.allclose(f, oracle_f_scores(X, y))
        assert kbest_fscore(ds, 1).indices == (4,)


class TestPcaEdges:
    def test_transform_shape_validation(self):
        ds = make_dataset(np.random.default_rng(1).normal(size=(6, 3)), [1, 2] * 3)
        model = pca_fit(ds, 2)
        with pytest.raises(ValueError):
            pca_transform(model, np.zeros((2, 4)))


class TestCliEdges:
    def _dataset(self, tmp_path, labels):
        path = tmp_path / "tiny.csv"
        rows = ["label,f1,f2"]
        rows += [f"{lab},{i}.0,{i + 1}.5" for i, lab in enumerate(labels)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return path

    def test_single_class_screen_rejected(self, tmp_path, capsys):
        data = self._dataset(tmp_path, ["a"] * 6)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("step-size = 2\nreduced-size = 1\n", encoding="utf-8")
        code = main(["screen", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "single class" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", [[], ["--leak-safe"]])
    def test_single_class_evaluate_rejected(self, tmp_path, capsys, protocol):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("reduced-size = 1\n", encoding="utf-8")
        result = tmp_path / "o.json"
        assert main(["screen", "--data", str(self._dataset(tmp_path, ["a", "b"] * 4)),
                     "--config", str(cfg), "--out", str(result), "--screener", "kbest"]) == 0
        capsys.readouterr()
        data = self._dataset(tmp_path, ["a"] * 8)
        code = main(["evaluate", "--data", str(data), "--result", str(result),
                     "--out", str(tmp_path / "r"), "--folds", "2", *protocol])
        assert code == 2
        assert "single class" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "r.csv").exists()

    def test_threads_must_be_positive(self, tmp_path, capsys):
        data = self._dataset(tmp_path, ["a", "b"] * 4)
        cfg = tmp_path / "s.cfg"
        cfg.write_text("step-size = 2\nreduced-size = 1\n", encoding="utf-8")
        code = main(["screen", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "o.json"), "--threads", "0"])
        assert code == 2

    def test_evaluate_rejects_non_result_document(self, tmp_path, capsys):
        data = self._dataset(tmp_path, ["a", "b"] * 4)
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"kind": "provenance"}), encoding="utf-8")
        code = main(["evaluate", "--data", str(data), "--result", str(bogus),
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "not a screening result" in capsys.readouterr().err
