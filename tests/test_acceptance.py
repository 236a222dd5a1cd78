"""Acceptance suite: one test per criterion, one printed verdict line each.

The statistical criteria run against a fixed synthetic table: 20 classes
x 16 samples, 400 blended output features (usefulness 0.5..1, roughly half
of the outputs carry no informative source), screened with step size 100,
carry width 20, 100 trees, and 100 canaries.  Screening runs are shared
across criteria through session fixtures to keep the suite fast.
"""

import time

import numpy as np
import pytest

from helpers import (make_dataset, mask_timing, oracle_best_split, oracle_f_scores,
                     oracle_knn, random_split_instance)
from rfscreen import (ClassifierSpec, Dataset, ForestParams, GeneratorConfig, ScreenerSpec,
                      ScreeningConfig, convergence_sweep, cross_validate,
                      f_scores, generate, random_subset, screen, selection_frequency, train_forest,
                      truth_overlap)
from rfscreen.cli import main
from rfscreen.evaluate import fit_classifier
from rfscreen.serialize import dumps, read_json
from test_forest import best_split
from test_rfms import walk

ACC_GENERATOR = GeneratorConfig(
    n_classes=20, n_samples_per_class=16,
    n_true_features=15, n_fake_features=25,
    min_usefulness=0.5, max_usefulness=1.0,
    n_features_out=400, min_count=1, max_count=2,
    blending_mode="logarithmic", seed=2024,
)

ACC_FOREST = ForestParams(n_trees=100, n_subfeatures=40, min_samples_leaf=10,
                          min_purity_increase=0.0, partial_sampling=0.7, seed=0)

CANARY_SEEDS = (1, 2, 3, 4, 5)
EVAL_SEEDS = (1, 2, 3)
KNN = ClassifierSpec("knn", {"k": 5})
CV_SEED = 20230125


def announce(capsys, text):
    with capsys.disabled():
        print(f"\n[acceptance] {text}")


@pytest.fixture(scope="session")
def acc_data():
    return generate(ACC_GENERATOR)


@pytest.fixture(scope="session")
def rfms_runs(acc_data):
    dataset, _ = acc_data
    runs = {}
    for seed in CANARY_SEEDS:
        config = ScreeningConfig(step_size=100, reduced_size=20, forest=ACC_FOREST,
                                 n_canaries=100, seed=seed)
        runs[seed] = screen(dataset, config)
    return runs


def _knn_cv(dataset, columns):
    columns = list(columns)
    view = Dataset(dataset.features[:, columns], dataset.labels,
                   tuple(dataset.feature_names[i] for i in columns))
    entry = cross_validate(view, ScreenerSpec("identity"), KNN, folds=5, seed=CV_SEED)
    return entry.mean_accuracy


def test_criterion_1_partition_arithmetic(capsys):
    started = time.perf_counter()
    chunks = [r.chunk_ids for r in walk(10_000, 505, seed=20230125).rounds]
    elapsed = time.perf_counter() - started
    ok = (len(chunks) == 20
          and all(len(c) == 505 for c in chunks[:-1])
          and len(chunks[-1]) == 405
          and sorted(np.concatenate(chunks).tolist()) == list(range(10_000)))
    announce(capsys, f"criterion 1 partition-arithmetic: {'PASS' if ok else 'FAIL'} "
                     f"(rounds={len(chunks)}, last={len(chunks[-1])}, "
                     f"{elapsed:.3f}s)")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(424242)
    split_mismatches = 0
    for _ in range(200):
        X, y, msl, mpi = random_split_instance(rng)
        ds = make_dataset(X, y)
        got = best_split(ds, range(X.shape[0]), range(X.shape[1]), msl, mpi)
        want = oracle_best_split(X, y, range(X.shape[1]), msl, mpi)
        if got != want:
            split_mismatches += 1

    train_X = rng.normal(size=(50, 4))
    train_y = rng.integers(1, 4, size=50)
    train_y[:3] = [1, 2, 3]
    knn = fit_classifier(ClassifierSpec("knn", {"k": 5}), train_X, train_y)
    knn_mismatches = 0
    for q in rng.normal(size=(100, 4)):
        if knn.predict(q[None, :])[0] != oracle_knn(train_X, train_y, q, 5):
            knn_mismatches += 1

    fx = rng.normal(size=(30, 10))
    fy = rng.integers(1, 5, size=30)
    fy[:4] = [1, 2, 3, 4]
    f_ok = np.allclose(f_scores(make_dataset(fx, fy)), oracle_f_scores(fx, fy),
                       rtol=1e-10, atol=1e-12)

    elapsed = time.perf_counter() - started
    ok = split_mismatches == 0 and knn_mismatches == 0 and f_ok
    announce(capsys, f"criterion 2 oracle-equivalence: {'PASS' if ok else 'FAIL'} "
                     f"(splits 200/{200 - split_mismatches} ok, "
                     f"knn 100/{100 - knn_mismatches} ok, fscore_ok={f_ok}, "
                     f"{elapsed:.1f}s)")
    assert ok
    assert elapsed < 30.0


def test_criterion_3_canary_exclusion(capsys, rfms_runs):
    started = time.perf_counter()
    leaks = {seed: rfms_runs[seed].leak_count for seed in CANARY_SEEDS}
    elapsed = time.perf_counter() - started
    clean = sum(1 for v in leaks.values() if v == 0)
    ok = clean == len(CANARY_SEEDS)
    announce(capsys, f"criterion 3 canary-exclusion: {'PASS' if ok else 'FAIL'} "
                     f"(clean runs {clean}/{len(CANARY_SEEDS)}, leaks={leaks}, "
                     f"{elapsed:.1f}s after shared screening)")
    assert ok


def test_criterion_4_screening_lifts_accuracy(capsys, acc_data, rfms_runs):
    started = time.perf_counter()
    dataset, _ = acc_data
    rfms_accs = []
    random_accs = []
    for seed in EVAL_SEEDS:
        result = rfms_runs[seed]
        assert result.leak_count == 0
        rfms_accs.append(_knn_cv(dataset, result.selected.indices))
        random_accs.append(_knn_cv(dataset,
                                   random_subset(dataset.n_features, 20, seed=seed).indices))
    mean_rfms = float(np.mean(rfms_accs))
    mean_random = float(np.mean(random_accs))
    chance = 1.0 / dataset.n_classes
    elapsed = time.perf_counter() - started
    lift_ok = mean_rfms - mean_random >= 0.10
    chance_ok = mean_rfms - chance >= 0.20
    ok = lift_ok and chance_ok
    announce(capsys, f"criterion 4 screening-lifts-accuracy: {'PASS' if ok else 'FAIL'} "
                     f"(screened={mean_rfms:.3f}, random={mean_random:.3f}, "
                     f"chance={chance:.3f}, {elapsed:.1f}s)")
    assert ok


def test_criterion_5_robustness_trend(capsys, acc_data):
    started = time.perf_counter()
    dataset, _ = acc_data
    counts = [10, 20, 40, 80]
    passes = 0
    details = []
    for seed in EVAL_SEEDS:
        spec = ScreenerSpec("rfms", config=ScreeningConfig(
            step_size=100, reduced_size=max(counts), forest=ACC_FOREST, seed=seed))
        rows = convergence_sweep(dataset, spec, [KNN], counts, folds=5, seed=CV_SEED)
        accs = {r.n_features_out: r.best_accuracy for r in rows}
        held = accs[40] >= 0.85 * accs[80]
        passes += held
        details.append(f"seed{seed}: 40->{accs[40]:.3f} 80->{accs[80]:.3f} "
                       f"ratio={accs[40] / accs[80]:.3f}")
    kbest_rows = convergence_sweep(dataset, ScreenerSpec("kbest"), [KNN], counts,
                                   folds=5, seed=CV_SEED)
    kbest = {r.n_features_out: round(r.best_accuracy, 3) for r in kbest_rows}
    elapsed = time.perf_counter() - started
    ok = passes >= 2
    announce(capsys, f"criterion 5 robustness-trend: {'PASS' if ok else 'FAIL'} "
                     f"({passes}/3 seeds hold; {'; '.join(details)}; "
                     f"kbest reference {kbest}; {elapsed:.0f}s)")
    assert ok


def test_criterion_6_determinism_across_threads(capsys, tmp_path):
    started = time.perf_counter()
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(
        "n-classes = 10\nn-samples-per-class = 8\nn-true-features = 10\n"
        "n-fake-features = 10\nn-features-out = 150\nmin-count = 1\nmax-count = 2\n"
        "min-usefulness = 0.7\nmax-usefulness = 1.0\nrandom-state = 99\n",
        encoding="utf-8")
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", str(gen_cfg), "--out", str(data)]) == 0
    screen_cfg = tmp_path / "screen.cfg"
    screen_cfg.write_text(
        "step-size = 50\nreduced-size = 10\nn-trees = 30\nn-subfeatures = 20\n"
        "min-samples-leaf = 4\nn-canaries = 20\nrandom-state = 7\n",
        encoding="utf-8")
    docs = []
    for label, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / f"{label}.json"
        code = main(["screen", "--data", str(data), "--config", str(screen_cfg),
                     "--out", str(out), "--threads", threads])
        assert code == 0
        docs.append(dumps(mask_timing(read_json(out))))
    elapsed = time.perf_counter() - started
    ok = docs[0] == docs[1] == docs[2]
    announce(capsys, f"criterion 6 determinism: {'PASS' if ok else 'FAIL'} "
                     f"(threads 1 vs 4 vs rerun byte-identical={ok}, {elapsed:.1f}s)")
    assert ok


def test_criterion_7_importance_accounting(capsys):
    started = time.perf_counter()
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        n, f, k = 30, 6, 3
        X = rng.normal(size=(n, f))
        y = rng.integers(1, k + 1, size=n)
        y[:k] = np.arange(1, k + 1)
        X[:, 0] += 1.2 * y
        ds = make_dataset(X, y)
        model = train_forest(ds, ForestParams(n_trees=5, n_subfeatures=3, seed=seed))
        counts = selection_frequency(model)

        total = 0
        for tree in model.trees:  # independent traversal of the child indices
            stack = [0]
            while stack:
                node = stack.pop()
                if tree.feature[node] >= 0:
                    total += 1
                    stack.extend((tree.left[node], tree.right[node]))
        if int(counts.sum()) != total:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0
    announce(capsys, f"criterion 7 importance-accounting: {'PASS' if ok else 'FAIL'} "
                     f"(20/{20 - failures} forests exact, {elapsed:.1f}s)")
    assert ok
    assert elapsed < 10.0


def test_criterion_8_ground_truth_overlap(capsys, acc_data, rfms_runs):
    started = time.perf_counter()
    dataset, provenance = acc_data
    margins = {}
    for seed in EVAL_SEEDS:
        result = rfms_runs[seed]
        assert result.leak_count == 0
        screened = truth_overlap(result.selected, provenance)
        control = truth_overlap(random_subset(dataset.n_features, 20, seed=seed),
                                provenance)
        margins[seed] = screened - control
    elapsed = time.perf_counter() - started
    ok = all(m >= 0.3 for m in margins.values())
    pretty = {s: round(m, 3) for s, m in margins.items()}
    announce(capsys, f"criterion 8 ground-truth-overlap: {'PASS' if ok else 'FAIL'} "
                     f"(margins {pretty}, threshold 0.3, {elapsed:.1f}s)")
    assert ok
