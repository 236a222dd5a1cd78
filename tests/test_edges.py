"""Edge cases and error paths across modules."""

import json

import numpy as np
import pytest

from helpers import make_dataset, oracle_f_scores
from rfscreen import (Dataset, FeatureSubset, ForestParams, ScreeningConfig,
                      canary_block, f_scores,
                      forest_predict_batch, kbest_fscore, load_csv, partition_features,
                      pca_transform, permute_features, pca_fit, screen, train_forest)
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


class TestPipelineEdges:
    def test_permute_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            permute_features(0, seed=1)

    def test_partition_rejects_bad_step(self):
        with pytest.raises(ValueError):
            partition_features(np.arange(5), 0)
        with pytest.raises(ValueError):
            partition_features(np.arange(5), 6)

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
