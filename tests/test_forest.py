"""Forest engine: split finding, training, prediction, importance, worker processes."""

import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import (count_internal_nodes, forest_bytes, make_dataset, oracle_best_split,
                     oracle_bootstrap, oracle_forest_predict, oracle_gini, oracle_tree,
                     random_split_instance)
from rfscreen import (ForestModel, ForestParams, Tree, forest_predict_batch,
                      selection_frequency, train_forest)
import rfscreen.forest as forest
from rfscreen.forest import _dense_ranks, _scan, _scan_pass


def best_split(ds, rows, candidates, min_samples_leaf=1, min_purity_increase=0.0):
    """The best admissible ``(feature, threshold, decrease)`` of the node ``rows`` over the
    sorted ``candidates``, or None: :func:`rfscreen.forest._scan` of one job, as a tree's
    growth scans it.  A pure node is never scanned, so it has no split."""
    rows, cand = np.asarray(rows), np.asarray(candidates)
    y0 = ds.labels - 1
    counts = np.bincount(y0[rows], minlength=ds.n_classes)
    if np.count_nonzero(counts) < 2:
        return None
    X = ds.features[:, cand]
    split, = _scan(X, _dense_ranks(X), y0, [(rows, np.arange(cand.size), counts)],
                   ds.n_classes, min_samples_leaf, min_purity_increase)
    return None if split is None else (int(cand[split[0]]), *split[1:])


def _bootstrap(params: ForestParams, n_samples: int, t: int) -> np.ndarray:
    """Tree ``t``'s in-bag rows: the first draw of its stream."""
    return oracle_bootstrap(params.seed, t, n_samples, params.partial_sampling)[1]


class TestGiniImpurity:
    def test_pure_node(self):
        assert oracle_gini([4, 0]) == 0.0

    def test_balanced_binary(self):
        assert oracle_gini([2, 2]) == 0.5

    def test_uniform_four_class(self):
        assert oracle_gini([1, 1, 1, 1]) == 0.75


class TestBestSplit:
    def test_perfect_balanced_split(self):
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [1, 1, 2, 2])
        feature, threshold, decrease = best_split(ds, range(4), [0])
        assert feature == 0
        assert threshold == 2.5
        assert decrease == 0.5

    def test_pure_node_has_no_split(self):
        ds = make_dataset([[1.0], [2.0], [3.0]], [2, 2, 2])
        assert best_split(ds, range(3), [0]) is None

    def test_matches_bruteforce_on_fixed_instance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        y = rng.integers(1, 4, size=12)
        y[:3] = [1, 2, 3]
        ds = make_dataset(X, y)
        got = best_split(ds, range(12), range(3))
        want = oracle_best_split(X, y, range(3))
        assert got == want

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_bruteforce_on_random_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        X, y, msl, mpi = random_split_instance(rng)
        ds = make_dataset(X, y)
        got = best_split(ds, range(X.shape[0]), range(X.shape[1]), msl, mpi)
        want = oracle_best_split(X, y, range(X.shape[1]), msl, mpi)
        assert got == want

    @pytest.mark.parametrize("seed", range(60))
    def test_repeated_sample_indices_match_bruteforce(self, seed):
        # a bootstrap repeats rows; the scan sorts tied copies by row id,
        # which must change no count and no threshold
        rng = np.random.default_rng(3000 + seed)
        X, y, msl, mpi = random_split_instance(rng)
        idx = rng.integers(0, X.shape[0], size=X.shape[0] + int(rng.integers(0, 8)))
        got = best_split(make_dataset(X, y), idx, range(X.shape[1]), msl, mpi)
        assert got == oracle_best_split(X[idx], y[idx], range(X.shape[1]), msl, mpi)

    def test_respects_min_samples_leaf(self):
        ds = make_dataset([[1.0], [2.0], [3.0]], [1, 1, 2])
        # every cut leaves a 1-sample child; msl=2 forbids them all
        assert best_split(ds, range(3), [0], min_samples_leaf=2) is None

    def test_respects_min_purity_increase(self):
        ds = make_dataset([[1.0], [2.0], [3.0], [4.0]], [1, 1, 2, 2])
        assert best_split(ds, range(4), [0], min_purity_increase=0.6) is None


class TestBatchedScan:
    def test_mixed_jobs_in_one_pass_match_oracle(self):
        # 240 random nodes, stacked row-wise into one table and scanned as
        # the jobs of one pass per (min_samples_leaf, min_purity_increase)
        rng = np.random.default_rng(2024)
        cases = [random_split_instance(rng) for _ in range(240)]
        # a zero-gain node: both children keep the parent's class mix
        cases.append((np.array([[1.0], [1.0], [2.0], [2.0]]), np.array([1, 2, 1, 2]), 1, 0.0))
        # cuts at 1.5 and 2.5 both gain exactly 1/24; float rounding of the
        # exact expression, not the lower threshold, makes 2.5 win
        cases.append((np.array([[3.0], [3.0], [1.0], [2.0], [2.0], [0.0], [2.0], [2.0]]),
                      np.array([1, 2, 2, 2, 2, 2, 1, 2]), 1, 0.0))
        X = np.zeros((sum(c[0].shape[0] for c in cases), 5))
        y, rows, start = [], [], 0
        for cx, cy, _, _ in cases:
            X[start:start + cx.shape[0], :cx.shape[1]] = cx
            rows.append(np.arange(start, start + cx.shape[0]))
            y.append(cy)
            start += cx.shape[0]
        y0 = np.concatenate(y) - 1
        ranks = _dense_ranks(X)
        got = {}
        for msl, mpi in sorted({(c[2], c[3]) for c in cases}):
            members = [i for i, c in enumerate(cases) if (c[2], c[3]) == (msl, mpi)]
            jobs = [(rows[i], np.arange(cases[i][0].shape[1]),
                     np.bincount(y0[rows[i]], minlength=4)) for i in members]
            got.update(zip(members, _scan_pass(X, ranks, y0, jobs, 4, msl, mpi)))
        assert len(got) == len(cases)
        for i, (cx, cy, msl, mpi) in enumerate(cases):
            assert got[i] == oracle_best_split(cx, cy, range(cx.shape[1]), msl, mpi), i
        assert got[len(cases) - 2] == (0, 1.5, 0.0)
        assert got[len(cases) - 1][:2] == (0, 2.5)

    def test_pass_without_admissible_boundary_returns_none_per_job(self):
        X = np.array([[1.0, 5.0], [1.0, 5.0], [1.0, 5.0], [2.0, 6.0], [2.0, 7.0], [2.0, 8.0]])
        y0 = np.array([0, 1, 0, 1, 0, 1])
        ranks = _dense_ranks(X)

        def job(rows, cand):
            rows = np.array(rows)
            return rows, np.array(cand), np.bincount(y0[rows], minlength=2)

        # every candidate column is constant within its node
        jobs = [job([0, 1, 2], [0, 1]), job([3, 4, 5, 3], [0]), job([0, 2, 1], [1])]
        assert _scan_pass(X, ranks, y0, jobs, 2, 1, 0.0) == [None] * 3
        # min_samples_leaf is more than half of every node
        jobs = [job([0, 3, 4, 1], [0, 1]), job([3, 4, 5, 0, 1], [1])]
        assert _scan_pass(X, ranks, y0, jobs, 2, 3, 0.0) == [None] * 2

    def test_pass_too_wide_for_packed_sort_words_rejected(self):
        # 2**12 segments over 2**26 rows need 13 + 2 * 27 > 63 bits;
        # broadcast views keep the table from being allocated
        n, f = 1 << 26, 1 << 12
        X = np.broadcast_to(np.zeros(1), (n, f))
        ranks = np.broadcast_to(np.zeros(1, dtype=np.uint32), (f, n))
        y0 = np.broadcast_to(np.zeros(1, dtype=np.int64), (n,))
        jobs = [(np.array([0, 1]), np.arange(f), np.array([1, 1]))]
        with pytest.raises(ValueError, match="overflow"):
            _scan_pass(X, ranks, y0, jobs, 2, 1, 0.0)

    def test_pass_budget_changes_no_result(self, monkeypatch):
        ds = _random_training_set(21, n=60, f=8)
        params = _params(n_trees=6, n_subfeatures=8)
        want = forest_bytes(train_forest(ds, params))
        # a tiny budget cuts every job into candidate pieces over many passes
        monkeypatch.setattr("rfscreen.forest._PASS_ELEMENTS", 8)
        assert forest_bytes(train_forest(ds, params)) == want
        rng = np.random.default_rng(77)
        for _ in range(60):
            X, y, msl, mpi = random_split_instance(rng)
            got = best_split(make_dataset(X, y), range(X.shape[0]), range(X.shape[1]), msl, mpi)
            assert got == oracle_best_split(X, y, range(X.shape[1]), msl, mpi)


def _params(**overrides):
    base = dict(n_trees=5, n_subfeatures=2, min_samples_leaf=1,
                min_purity_increase=0.0, partial_sampling=0.7, seed=42)
    base.update(overrides)
    return ForestParams(**base)


def _random_training_set(seed, n=40, f=6, k=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f))
    y = rng.integers(1, k + 1, size=n)
    y[:k] = np.arange(1, k + 1)
    X[:, 0] += y * 1.5  # one informative feature keeps trees non-trivial
    return make_dataset(X, y)


class TestTrainForest:
    def test_dominant_feature_wins_root(self):
        rng = np.random.default_rng(3)
        n = 30
        X = np.zeros((n, 5))
        X[:, 3] = np.arange(n, dtype=float)
        y = np.where(X[:, 3] < n / 2, 1, 2)
        ds = make_dataset(X, y)
        model = train_forest(ds, _params(n_trees=1, n_subfeatures=5,
                                         partial_sampling=1.0))
        tree = model.trees[0]
        assert tree.feature[0] == 3
        assert tree.feature[tree.left[0]] == -1 and tree.feature[tree.right[0]] == -1

    def test_tree_independent_of_lockstep_batch(self):
        # trees grow in lockstep batches, so tree t must not depend on which
        # other trees share its scan passes
        ds = _random_training_set(9)
        many = train_forest(ds, _params(n_trees=8))
        few = train_forest(ds, _params(n_trees=3))
        for a, b in zip(many.trees[:3], few.trees):
            for name in ("feature", "threshold", "left", "right", "klass", "counts"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_deterministic_across_calls(self):
        ds = _random_training_set(10)
        assert forest_bytes(train_forest(ds, _params())) == \
            forest_bytes(train_forest(ds, _params()))

    def test_beats_majority_on_covered_samples(self):
        ds = _random_training_set(11, n=60)
        params = _params(n_trees=10, n_subfeatures=6)
        model = train_forest(ds, params)
        covered = np.unique(np.concatenate([
            _bootstrap(params, ds.n_samples, t) for t in range(params.n_trees)
        ]))
        predictions = forest_predict_batch(model, ds.features[covered])
        forest_acc = np.mean(predictions == ds.labels[covered])
        majority = np.argmax(np.bincount(ds.labels[covered]))
        majority_acc = np.mean(ds.labels[covered] == majority)
        assert forest_acc >= majority_acc

    def test_too_many_subfeatures_rejected(self):
        ds = _random_training_set(12)
        with pytest.raises(ValueError, match="^n_subfeatures=7 exceeds n_features=6$"):
            train_forest(ds, _params(n_subfeatures=ds.n_features + 1))

    def test_leaf_sizes_and_purity_gains_respected(self):
        ds = _random_training_set(13, n=50)
        msl, mpi = 3, 0.02
        model = train_forest(ds, _params(n_trees=6, n_subfeatures=4,
                                         min_samples_leaf=msl,
                                         min_purity_increase=mpi))
        for t in range(len(model.trees)):
            idx = _bootstrap(model.params, ds.n_samples, t)
            tree = model.trees[t]
            stack = [(0, idx)]
            while stack:
                node, members = stack.pop()
                feature = tree.feature[node]
                if feature < 0:
                    assert members.shape[0] >= msl
                    continue
                got = best_split(ds, members, [feature],
                                 min_samples_leaf=msl, min_purity_increase=mpi)
                assert got is not None and got[2] >= mpi
                mask = ds.features[members, feature] <= tree.threshold[node]
                stack.append((tree.left[node], members[mask]))
                stack.append((tree.right[node], members[~mask]))


class TestWholeTreeOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_forest_matches_recursive_oracle(self, seed):
        # random tables with ties; every tree's preorder nodes and the importances
        rng = np.random.default_rng(5000 + seed)
        checked = 0
        while checked < 30:
            X, y, msl, mpi = random_split_instance(rng)
            ps = float(rng.choice([0.5, 0.7, 1.0]))
            if int(ps * X.shape[0]) < msl:
                continue  # a bootstrap below min_samples_leaf is rejected
            params = ForestParams(n_trees=int(rng.integers(1, 5)),
                                  n_subfeatures=int(rng.integers(1, X.shape[1] + 1)),
                                  min_samples_leaf=msl, min_purity_increase=mpi,
                                  partial_sampling=ps, seed=int(rng.integers(1 << 63)))
            model = train_forest(make_dataset(X, y), params)
            used = []
            for t, tree in enumerate(model.trees):
                feature, threshold, counts = oracle_tree(X, y, params.seed, t,
                                                         params.n_subfeatures, msl, mpi, ps)
                np.testing.assert_array_equal(tree.feature, feature)
                np.testing.assert_array_equal(tree.threshold, threshold)
                np.testing.assert_array_equal(tree.counts, counts)
                used.append(feature[feature >= 0])
            assert len(model.trees) == params.n_trees
            np.testing.assert_array_equal(selection_frequency(model),
                                          np.bincount(np.concatenate(used), minlength=X.shape[1]))
            checked += 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_scan(monkeypatch, in_child: bool):
    """Make ``_scan`` raise in the forked workers (``in_child``) or in the caller only."""
    caller, scan = os.getpid(), forest._scan

    def failing(*args):
        if (os.getpid() != caller) == in_child:
            raise ValueError("scan failed on purpose")
        return scan(*args)
    monkeypatch.setattr(forest, "_scan", failing)


@pytest.mark.usefixtures("eight_cpus")
class TestWorkers:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_worker_count_changes_no_bit(self, seed):
        ds = _random_training_set(seed, n=60, f=8, k=4)
        params = _params(n_trees=7, n_subfeatures=3, seed=seed)
        models = [train_forest(ds, replace(params, n_workers=w)) for w in (1, 2, 3)]
        assert [m.params.n_workers for m in models] == [1, 2, 3]
        assert len({forest_bytes(m) for m in models}) == 1
        for model in models[1:]:
            np.testing.assert_array_equal(selection_frequency(model),
                                          selection_frequency(models[0]))
        assert_no_child_left()

    @pytest.mark.parametrize("n_trees, n_workers", [(1, 1), (1, 2), (3, 5), (2, 8)])
    def test_more_workers_than_trees(self, monkeypatch, n_trees, n_workers):
        ds = _random_training_set(4)
        alone = train_forest(ds, _params(n_trees=n_trees))
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        model = train_forest(ds, _params(n_trees=n_trees, n_workers=n_workers))
        assert forest_bytes(model) == forest_bytes(alone)
        assert len(forks) == min(n_trees, n_workers) - 1  # one worker per tree at most
        assert_no_child_left()

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        train_forest(_random_training_set(4), _params(n_trees=6, n_workers=5))
        assert len(forks) == 1

    def test_worker_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_workers must be positive"):
            train_forest(_random_training_set(0), _params(n_workers=0))

    def test_worker_failure_names_its_tree_range(self, monkeypatch):
        _failing_scan(monkeypatch, in_child=True)
        with pytest.raises(RuntimeError, match=r"forest worker for trees 3\.\.5 failed: "
                           r"ValueError\('scan failed on purpose'\)"):
            train_forest(_random_training_set(5), _params(n_trees=6, n_workers=2))
        assert_no_child_left()

    def test_caller_failure_kills_and_reaps_every_worker(self, monkeypatch):
        _failing_scan(monkeypatch, in_child=False)
        with pytest.raises(ValueError, match="scan failed on purpose"):
            train_forest(_random_training_set(6), _params(n_trees=9, n_workers=3))
        assert_no_child_left()


def _tree(feature, threshold, left, right, klass, k=2):
    """A hand-built tree; each node's counts hold one sample of its class."""
    klass = np.asarray(klass, dtype=np.int64)
    counts = np.zeros((klass.shape[0], k), dtype=np.int64)
    counts[np.arange(klass.shape[0]), klass - 1] = 1
    return Tree(feature=np.asarray(feature, dtype=np.int64),
                threshold=np.asarray(threshold, dtype=np.float64),
                left=np.asarray(left, dtype=np.int64),
                right=np.asarray(right, dtype=np.int64), klass=klass, counts=counts)


def _stump(feature, threshold, left_class, right_class, k=2):
    return _tree([feature, -1, -1], [threshold, np.nan, np.nan], [1, -1, -1],
                 [2, -1, -1], [left_class, left_class, right_class], k)


def _leaf_only_model(classes, n_features=4):
    k = max(classes)
    trees = [_tree([-1], [np.nan], [-1], [-1], [c], k) for c in classes]
    return ForestModel(trees=trees, n_features=n_features, n_classes=k,
                       params=_params(n_trees=len(classes)))


class TestForestPredict:
    def test_stump_routes_left(self):
        model = ForestModel(trees=[_stump(0, 1.0, left_class=1, right_class=2)],
                            n_features=2, n_classes=2, params=_params(n_trees=1))
        assert forest_predict_batch(model, [[0.5, 9.9]]).tolist() == [1]
        assert forest_predict_batch(model, [[1.0, 9.9]]).tolist() == [1]  # x == threshold: left
        assert forest_predict_batch(model, [[1.5, 9.9]]).tolist() == [2]

    def test_majority_vote(self):
        model = _leaf_only_model([2, 2, 5])
        assert forest_predict_batch(model, [[0.0] * 4]).tolist() == [2]

    def test_vote_tie_prefers_smaller_class(self):
        model = _leaf_only_model([1, 2])
        assert forest_predict_batch(model, [[0.0] * 4]).tolist() == [1]

    def test_length_mismatch_rejected(self):
        model = _leaf_only_model([1, 2])
        with pytest.raises(ValueError, match="4 columns"):
            forest_predict_batch(model, [[0.0] * 5])

    @pytest.mark.parametrize("seed", range(5))
    def test_batch_matches_row_walk_oracle(self, seed):
        ds = _random_training_set(200 + seed, k=4)
        model = train_forest(ds, _params(n_trees=9, n_subfeatures=3, seed=seed))
        X = np.vstack([ds.features, np.random.default_rng(seed).normal(size=(30, 6)) * 3])
        assert np.array_equal(forest_predict_batch(model, X), oracle_forest_predict(model, X))


class TestSelectionFrequency:
    def test_single_stump(self):
        model = ForestModel(trees=[_stump(3, 0.0, 1, 2)], n_features=6, n_classes=2,
                            params=_params(n_trees=1))
        counts = selection_frequency(model)
        assert counts[3] == 1
        assert counts.sum() == 1

    def test_all_pure_forest_is_zero(self):
        model = _leaf_only_model([1, 2, 1])
        assert selection_frequency(model).sum() == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_sum_matches_traversal_oracle(self, seed):
        ds = _random_training_set(100 + seed)
        model = train_forest(ds, _params(seed=seed))
        counts = selection_frequency(model)
        assert np.all(counts >= 0)
        assert counts.sum() == count_internal_nodes(model)
