"""Golden outputs: one fixed forest and three fixed screens, frozen in golden.json.

The determinism tests elsewhere compare one run with another run, so a
change in the order in which trees consume their random streams would pass
them unnoticed.  These tests compare against values recorded once, from the
object-graph tree implementation, and must pass unchanged for as long as
the determinism contract holds.  Never regenerate golden.json to make a
change pass: a mismatch means the bits of the output moved.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import make_dataset
from rfscreen import (ForestParams, GeneratorConfig, ScreeningConfig, dump_forest,
                      forest_predict, forest_predict_batch, generate, screen,
                      selection_frequency, train_forest)

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text(encoding="utf-8"))


def forest_case():
    """A 60x8, 3-class table, a 7-tree forest on it, and 40 query rows."""
    rng = np.random.default_rng(4242)
    X = rng.normal(size=(60, 8))
    y = rng.integers(1, 4, size=60)
    y[:3] = [1, 2, 3]
    X[:, 2] += 1.3 * y
    X[:, 5] -= 0.8 * y
    ds = make_dataset(X, y)
    model = train_forest(ds, ForestParams(n_trees=7, n_subfeatures=3, seed=11))
    queries = np.vstack([X[:20], rng.normal(size=(20, 8)) + 1.5 * rng.integers(1, 4, size=(20, 1))])
    return model, queries


def _synth(seed, n_classes, per_class, n_out):
    ds, _ = generate(GeneratorConfig(
        n_classes=n_classes, n_samples_per_class=per_class, n_true_features=6,
        n_fake_features=6, min_usefulness=0.5, max_usefulness=1.0,
        n_features_out=n_out, min_count=1, max_count=2, seed=seed))
    return ds


def _normal_table():
    rng = np.random.default_rng(2023)
    X = rng.normal(size=(48, 90))
    y = rng.integers(1, 5, size=48)
    y[:4] = [1, 2, 3, 4]
    X[:, 17] += y
    X[:, 64] -= 0.7 * y
    return make_dataset(X, y)


SCREEN_CASES = {
    "synth-3class": (lambda: _synth(5, 3, 15, 150), ScreeningConfig(
        step_size=40, reduced_size=8, seed=11,
        forest=ForestParams(n_trees=12, n_subfeatures=7))),
    "normal-4class": (_normal_table, ScreeningConfig(
        step_size=25, reduced_size=10, seed=2023,
        forest=ForestParams(n_trees=10, n_subfeatures=6, min_samples_leaf=2,
                            min_purity_increase=0.01, partial_sampling=0.8))),
    "synth-canaries": (lambda: _synth(9, 4, 12, 120), ScreeningConfig(
        step_size=60, reduced_size=12, n_canaries=20, seed=77,
        forest=ForestParams(n_trees=15, n_subfeatures=8, min_samples_leaf=2))),
}


def observe_forest(model, queries) -> dict:
    return {
        "dump_sha256": hashlib.sha256(dump_forest(model).encode()).hexdigest(),
        "selection_frequency": selection_frequency(model).tolist(),
        "predict_batch": forest_predict_batch(model, queries).tolist(),
    }


def observe_screen(result) -> dict:
    return {
        "selected": list(result.selected.indices),
        "importance": [list(r.importance) for r in result.rounds],
        "permutation": list(result.permutation),
        "leaked": list(result.leaked_ids),
    }


def test_forest_matches_golden():
    model, queries = forest_case()
    assert observe_forest(model, queries) == GOLDEN["forest"]


def test_single_row_predict_matches_golden():
    model, queries = forest_case()
    assert [forest_predict(model, q) for q in queries] == GOLDEN["forest"]["predict_batch"]


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_screen_matches_golden(name):
    build, config = SCREEN_CASES[name]
    assert observe_screen(screen(build(), config)) == GOLDEN["screens"][name]

