"""Golden outputs: a forest, screens, kNN labels, sweep rows and cells, rf, screen and
screen-once evaluate documents, and the cells and per-fold fits of two leak-safe grids over
a wide table.

The determinism tests elsewhere compare one run with another run, so a
change in the order in which trees consume their random streams would pass
them unnoticed.  These tests compare against values recorded once (the
forest and screens from the object-graph tree implementation, the kNN
labels from the difference-tensor kNN, the forest's array digest from the forest that
also wrote a JSON-lines dump, the sweep cells from the harness
that refitted each fold's screener once per cell, the screen-once sweep from the harness
that screened the whole table once per count, the rf classifier documents from the
classifier that read its knobs with library defaults, the CLI screen documents from
the screens that built a canary-augmented copy of the table, the wide grids from the
harness that copied each training fold into its own Dataset, the pca and random screen-once
sweeps and the screen-once evaluate documents from the harness that cross-validated a reduced
copy of the table), and must pass unchanged for as
long as the determinism contract holds.  Never regenerate golden.json to
make a change pass: a mismatch means the bits of the output moved.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from helpers import forest_bytes, make_dataset, mask_timing, tied_table
from rfscreen import (ClassifierSpec, ForestParams, GeneratorConfig, ScreenerSpec,
                      ScreeningConfig, baselines, cli, convergence_sweep, evaluate,
                      forest_predict_batch, generate, grid_search, screen,
                      selection_frequency, train_forest)
from rfscreen.evaluate import fit_classifier

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


def _integer_table():
    """Three-valued features on 90 rows: exact distance ties everywhere."""
    rng = np.random.default_rng(606)
    X = rng.integers(0, 3, size=(90, 6)).astype(np.float64)
    X[60:75] = X[:15]  # duplicated rows tie at every distance
    y = rng.integers(1, 5, size=90)
    y[:4] = [1, 2, 3, 4]
    return X, y


def _knn_tables():
    """(features, labels) per case; even rows train, odd rows query."""
    ds = _synth(31, 4, 20, 500)
    X, y = _integer_table()
    return {
        "synth-w10": (ds.features[:, :10], ds.labels),
        "synth-w500": (ds.features, ds.labels),
        "integer-ties": (X, y),
    }


def observe_knn(X, y) -> dict:
    out = {}
    for k in (1, 3, 5):
        clf = fit_classifier(ClassifierSpec("knn", {"k": k}), X[0::2], y[0::2])
        labels = [int(v) for v in clf.predict(X[1::2])]
        out[str(k)] = hashlib.sha256(json.dumps(labels).encode()).hexdigest()
    return out


def observe_forest(model, queries) -> dict:
    return {
        "arrays_sha256": hashlib.sha256(forest_bytes(model)).hexdigest(),
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
    assert ([int(forest_predict_batch(model, q[None, :])[0]) for q in queries]
            == GOLDEN["forest"]["predict_batch"])


@pytest.mark.parametrize("name", sorted(SCREEN_CASES))
def test_screen_matches_golden(name):
    build, config = SCREEN_CASES[name]
    assert observe_screen(screen(build(), config)) == GOLDEN["screens"][name]



@pytest.mark.parametrize("name", sorted(_knn_tables()))
def test_knn_labels_match_golden(name):
    assert observe_knn(*_knn_tables()[name]) == GOLDEN["knn"][name]


def cells_digest(entries) -> str:
    """sha256 of every cell's (n_features_out, classifier_id, fold_accuracies)."""
    cells = [[e.n_features_out, e.classifier_id, list(e.fold_accuracies)] for e in entries]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def recorded_cells(monkeypatch) -> list:
    """The cells that ``evaluate.cross_validate`` measures from now on, in call order."""
    cells = []
    cross_validate = evaluate.cross_validate

    def recording(*args, **kwargs):
        cells.append(cross_validate(*args, **kwargs))
        return cells[-1]

    monkeypatch.setattr(evaluate, "cross_validate", recording)
    return cells


def sweep_cells(monkeypatch):
    """Cells of a leak-safe kbest sweep to full width, recorded as they are measured."""
    cells = recorded_cells(monkeypatch)
    grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3)] + [ClassifierSpec("majority")]
    convergence_sweep(_synth(53, 3, 12, 40), ScreenerSpec("kbest"), grid,
                      counts=[3, 12, 40], folds=3, seed=19, leak_safe=True)
    return cells


def grid_cells():
    """Cells of a grid over pca and a small rfms screener with 1-NN."""
    rfms = ScreenerSpec("rfms", config=ScreeningConfig(
        step_size=10, reduced_size=4, forest=ForestParams(n_trees=6, n_subfeatures=4), seed=5))
    report = grid_search(_synth(59, 3, 12, 30), [ScreenerSpec("pca", {"n_out": 5}), rfms],
                         [ClassifierSpec("knn", {"k": 1})], folds=3, seed=23)
    return report.entries


def test_leak_safe_sweep_cells_match_golden(monkeypatch):
    cells = sweep_cells(monkeypatch)
    assert len(cells) == 9
    assert cells_digest(cells) == GOLDEN["sweep"]["kbest-leak-safe"]


def screen_once_sweep(monkeypatch):
    """Rows and recorded cells of a screen-once kbest sweep whose every count cuts a tie of
    the whole table's F-scores, so each prefix takes the lower ids of a tied run."""
    cells = recorded_cells(monkeypatch)
    grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3)] + [ClassifierSpec("majority")]
    rows = convergence_sweep(tied_table(71), ScreenerSpec("kbest"), grid,
                             counts=[1, 3, 9, 20, 28, 30], folds=3, seed=31)
    return rows, cells


def test_screen_once_sweep_matches_golden(monkeypatch):
    rows, cells = screen_once_sweep(monkeypatch)
    assert len(cells) == 18
    observed = {"rows": [[r.n_features_out, r.best_accuracy, r.best_classifier_id] for r in rows],
                "cells": cells_digest(cells)}
    assert observed == GOLDEN["sweep"]["kbest-screen-once"]


# name -> (table, screener, counts) of a screen-once sweep with knn, majority and rf cells;
# the pca table is wider than tall, so the whole-table fit runs in the Gram regime
SCREEN_ONCE_SWEEPS = {
    "pca-screen-once": (lambda: _synth(61, 3, 10, 60), ScreenerSpec("pca"), [2, 7, 15, 25]),
    "random-screen-once": (lambda: _synth(67, 3, 12, 40), ScreenerSpec("random", {"seed": 5}),
                           [3, 12, 40]),
}


@pytest.mark.parametrize("name", sorted(SCREEN_ONCE_SWEEPS))
def test_screen_once_sweeps_match_golden(monkeypatch, name):
    build, screener, counts = SCREEN_ONCE_SWEEPS[name]
    cells = recorded_cells(monkeypatch)
    grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3)] + [
        ClassifierSpec("majority"),
        ClassifierSpec("rf", forest=ForestParams(n_trees=4, n_subfeatures=3, seed=17))]
    rows = convergence_sweep(build(), screener, grid, counts=counts, folds=3, seed=37)
    assert len(cells) == 4 * len(counts)
    observed = {"rows": [[r.n_features_out, r.best_accuracy, r.best_classifier_id] for r in rows],
                "cells": cells_digest(cells)}
    assert observed == GOLDEN["sweep"][name]


def test_grid_cells_match_golden():
    assert cells_digest(grid_cells()) == GOLDEN["sweep"]["pca-rfms-grid"]


def _wide_table():
    """60 x 10,000, 3 classes: a 40-row training fold spans several 1 MiB F-score blocks.

    Normal noise with a shifted column in every 97, 600 three-valued columns full of
    ties, and 10 constant columns.
    """
    rng = np.random.default_rng(6100)
    y = np.repeat([1, 2, 3], 20)
    X = rng.normal(size=(60, 10_000))
    X[:, ::97] += 0.6 * y[:, None]
    X[:, 5000:5600] = rng.integers(0, 3, size=(60, 600))
    X[:, 7000:7010] = 2.5
    return make_dataset(X, y)


# name -> screeners of a leak-safe grid over the wide table; kbest(10000) ranks every column
WIDE_GRIDS = {
    "kbest": [ScreenerSpec("kbest", {"n_out": 12}), ScreenerSpec("kbest", {"n_out": 10_000})],
    "random-pca": [ScreenerSpec("random", {"n_out": 40, "seed": 3}),
                   ScreenerSpec("pca", {"n_out": 6})],
}


def observe_fit(fitted) -> str:
    """sha256 of a fold's selected ids, or of the bytes of its PCA model."""
    if fitted.pca is None:
        data = json.dumps(list(fitted.selected.indices)).encode()
    else:
        model = fitted.pca
        data = b"".join(np.ascontiguousarray(a).tobytes()
                        for a in (model.mean, model.components, model.eigenvalues))
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(WIDE_GRIDS))
def test_wide_leak_safe_grid_matches_golden(monkeypatch, name):
    fits = []
    fit_screener = evaluate.fit_screener

    def recording(*args, **kwargs):
        fits.append(fit_screener(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(evaluate, "fit_screener", recording)
    grid = [ClassifierSpec("knn", {"k": k}) for k in (1, 3)]
    report = grid_search(_wide_table(), WIDE_GRIDS[name], grid, folds=3, seed=29)
    observed = {"cells": cells_digest(report.entries), "fits": [observe_fit(f) for f in fits]}
    assert len(observed["fits"]) == 6
    assert observed == GOLDEN["wide_grids"][name]


RF_TABLE_CFG = """\
n-classes = 3
n-samples-per-class = 16
n-true-features = 6
n-fake-features = 6
n-features-out = 24
min-count = 1
max-count = 2
random-state = 41
"""

RF_SCREEN_CFG = "step-size = 8\nreduced-size = 5\nn-trees = 8\nrandom-state = 13\n"

RF_EVAL_CFG = "folds = 3\nknn-k = 1, 3\nrf-n-trees = 7\n"

# name -> (argv after the command, extra config lines); the screened width is 5
RF_RUNS = {
    "evaluate-auto": (["evaluate", "--classifier", "rf"], "rf-n-subfeatures = 0\n"),
    "evaluate-auto-leak-safe": (["evaluate", "--classifier", "rf", "--leak-safe"],
                                "rf-n-subfeatures = 0\n"),
    "evaluate-wide": (["evaluate", "--classifier", "rf"], "rf-n-subfeatures = 9\n"),
    "evaluate-wide-leak-safe": (["evaluate", "--classifier", "rf", "--leak-safe"],
                                "rf-n-subfeatures = 9\n"),
    "sweep-rfms-all": (["sweep", "--screener", "rfms", "--classifier", "all"],
                       RF_SCREEN_CFG + "feature-counts = 2, 4, 7\n"),
    "sweep-kbest-all-leak-safe": (["sweep", "--screener", "kbest", "--classifier", "all",
                                   "--leak-safe"], "feature-counts = 3, 6, 12, 24\n"),
}


def masked_sha256(doc) -> str:
    """sha256 of a report or sweep document with every ``*_cpu_s`` field zeroed."""
    def mask(node):
        if isinstance(node, dict):
            return {k: 0.0 if k.endswith("_cpu_s") else mask(v) for k, v in node.items()}
        return [mask(v) for v in node] if isinstance(node, list) else node
    return hashlib.sha256(json.dumps(mask(doc), sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def rf_workspace(tmp_path_factory):
    """A generated 48 x 24 table and its rfms screen, written through ``cli.main``."""
    root = tmp_path_factory.mktemp("rf")
    (root / "gen.cfg").write_text(RF_TABLE_CFG, encoding="utf-8")
    (root / "screen.cfg").write_text(RF_SCREEN_CFG, encoding="utf-8")
    assert cli.main(["generate", "--config", str(root / "gen.cfg"),
                     "--out", str(root / "data.csv")]) == 0
    assert cli.main(["screen", "--data", str(root / "data.csv"), "--config",
                     str(root / "screen.cfg"), "--out", str(root / "screened.json")]) == 0
    return root


@pytest.mark.parametrize("name", sorted(RF_RUNS))
def test_rf_classifier_documents_match_golden(rf_workspace, name):
    argv, extra = RF_RUNS[name]
    cfg = rf_workspace / f"{name}.cfg"
    cfg.write_text(RF_EVAL_CFG + extra, encoding="utf-8")
    out = rf_workspace / name
    if argv[0] == "evaluate":
        argv = argv + ["--result", str(rf_workspace / "screened.json")]
    assert cli.main([*argv, "--data", str(rf_workspace / "data.csv"), "--config", str(cfg),
                     "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert masked_sha256(doc) == GOLDEN["rf"][name]


@pytest.mark.parametrize("classifier, counts, leak_safe, f_scores_calls", [
    ("knn", [3, 6, 12, 24], True, 3),  # one grid: one k-best fit per fold
    ("all", [3, 6, 12, 24], True, 9),  # rf draws round(sqrt(count)): 2, 2, 3 and 5 candidates
    ("knn", [24, 3, 6], True, 3),
    ("all", [24, 3, 6], True, 6),
    ("knn", [3, 6, 12, 24], False, 1),
])
def test_cli_sweep_fits_kbest_once_per_classifier_grid(rf_workspace, monkeypatch, classifier,
                                                       counts, leak_safe, f_scores_calls):
    """Adjacent counts with one classifier grid share a k-best fit, and the masked document
    is the one that sweeps of one count each make, their rows in the input order."""
    scored, f_scores = [], baselines.f_scores
    monkeypatch.setattr(baselines, "f_scores",
                        lambda *args: scored.append(1) or f_scores(*args))

    def sweep(name, run_counts):
        cfg = rf_workspace / f"{name}.cfg"
        cfg.write_text(RF_EVAL_CFG + f"feature-counts = {', '.join(map(str, run_counts))}\n",
                       encoding="utf-8")
        assert cli.main(["sweep", "--screener", "kbest", "--classifier", classifier,
                         *["--leak-safe"] * leak_safe, "--data", str(rf_workspace / "data.csv"),
                         "--config", str(cfg), "--out", str(rf_workspace / name)]) == 0
        doc = json.loads((rf_workspace / f"{name}.json").read_text(encoding="utf-8"))
        return {**doc, "rows": [{**row, "screening_cpu_s": 0.0, "fitting_cpu_s": 0.0}
                                for row in doc["rows"]]}

    grouped = sweep("grouped", counts)
    assert len(scored) == f_scores_calls
    assert [row["n_features_out"] for row in grouped["rows"]] == counts
    alone = [sweep(f"alone{count}", [count]) for count in counts]
    assert grouped == {**alone[0], "rows": [row for doc in alone for row in doc["rows"]]}


# name -> (screener, config) for ``screen`` on the rf workspace's 24-column table; the
# kbest and random screens pick from the 24 columns plus their 10 canaries
SCREEN_RUNS = {
    "kbest-canaries": ("kbest", "reduced-size = 30\nn-canaries = 10\n"),
    "random-canaries": ("random", "reduced-size = 12\nn-canaries = 10\nrandom-state = 3\n"),
    "pca": ("pca", "reduced-size = 5\n"),
    "rfms-canaries": ("rfms", RF_SCREEN_CFG + "n-canaries = 10\n"),
}


@pytest.mark.parametrize("name", sorted(SCREEN_RUNS))
def test_screen_documents_match_golden(rf_workspace, name):
    screener, text = SCREEN_RUNS[name]
    cfg = rf_workspace / f"screen-{name}.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = rf_workspace / f"screen-{name}.json"
    assert cli.main(["screen", "--screener", screener, "--data", str(rf_workspace / "data.csv"),
                     "--config", str(cfg), "--out", str(out)]) == 0
    doc = mask_timing(json.loads(out.read_text(encoding="utf-8")))
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN["screen_documents"][name]


@pytest.mark.parametrize("name", ["kbest", "pca"])
def test_screen_once_evaluate_documents_match_golden(rf_workspace, name):
    """``evaluate --classifier all`` without ``--leak-safe`` over a stored screen."""
    root = rf_workspace
    (root / f"once-{name}.cfg").write_text("reduced-size = 5\n", encoding="utf-8")
    (root / "once-eval.cfg").write_text(RF_EVAL_CFG, encoding="utf-8")
    result, out = root / f"once-{name}.json", root / f"once-{name}-eval"
    assert cli.main(["screen", "--screener", name, "--data", str(root / "data.csv"),
                     "--config", str(root / f"once-{name}.cfg"), "--out", str(result)]) == 0
    assert cli.main(["evaluate", "--classifier", "all", "--data", str(root / "data.csv"),
                     "--result", str(result), "--config", str(root / "once-eval.cfg"),
                     "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text(encoding="utf-8"))
    assert masked_sha256(doc) == GOLDEN["evaluate_documents"][name]
