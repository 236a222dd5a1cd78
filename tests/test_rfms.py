"""Multiround screening: permutation, partition, rounds, canary audit, memory, workers."""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest

from helpers import make_dataset, mask_timing, oracle_screen, traced_peak
from rfscreen import (Dataset, FeatureSubset, ForestParams, ScreenerSpec, ScreeningConfig,
                      ScreeningResult, cli, screen, selection_frequency, train_forest)
from rfscreen.serialize import dumps, screening_document


def walk(n, step, seed=0):
    """A screen of an ``n``-column, 6-row constant table at ``step`` with a one-tree forest:
    its permutation and rounds show how ``screen`` walks the feature space."""
    table = make_dataset(np.zeros((6, n)), [1, 2] * 3)
    return screen(table, ScreeningConfig(step_size=step, reduced_size=1, seed=seed,
                                         forest=ForestParams(n_trees=1, n_subfeatures=1)))


def chunks(result):
    return [list(r.chunk_ids) for r in result.rounds]


class TestPermutation:
    def test_single_feature_is_identity(self):
        assert walk(1, 1).permutation == (0,)

    def test_deterministic(self):
        assert walk(50, 50, seed=9).permutation == walk(50, 50, seed=9).permutation

    def test_bijection(self):
        assert sorted(walk(1000, 1000, seed=4).permutation) == list(range(1000))


class TestPartition:
    def test_ceil_arithmetic(self):
        result = walk(10, 4)
        perm = list(result.permutation)
        assert chunks(result) == [perm[0:4], perm[4:8], perm[8:10]]

    def test_wide_table_chunking(self):
        sizes = [len(c) for c in chunks(walk(10_000, 505))]
        assert sizes == [505] * 19 + [405]

    def test_single_chunk(self):
        result = walk(17, 17, seed=2)
        assert chunks(result) == [list(result.permutation)]

    def test_chunks_partition_the_feature_set(self):
        joined = sum(chunks(walk(103, 25, seed=5)), [])
        assert sorted(joined) == list(range(103))


class TestScreenOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_screen_matches_recursive_oracle(self, seed):
        # small random tables, canaries included: every round record and the permutation
        rng = np.random.default_rng(7000 + seed)
        for _ in range(3):
            n, p, k = int(rng.integers(12, 31)), int(rng.integers(4, 21)), int(rng.integers(2, 5))
            y = rng.integers(1, k + 1, size=n)
            y[:k] = np.arange(1, k + 1)
            X = (rng.normal(size=(n, p)) if rng.random() < 0.5
                 else rng.integers(0, 4, size=(n, p)).astype(float))
            X[:, :2] += 0.5 * y[:, None]
            n_canaries = int(rng.integers(0, 6))
            step = int(rng.integers(2, p + n_canaries + 1))
            config = ScreeningConfig(
                step_size=step, reduced_size=int(rng.integers(1, step + 1)),
                n_canaries=n_canaries, seed=int(rng.integers(1 << 63)),
                forest=ForestParams(n_trees=int(rng.integers(1, 4)),
                                    n_subfeatures=int(rng.integers(1, 6)),
                                    min_samples_leaf=int(rng.integers(1, 4)),
                                    min_purity_increase=float(rng.choice([0.0, 0.0, 0.01])),
                                    partial_sampling=float(rng.choice([0.5, 0.7, 1.0]))))
            result = screen(make_dataset(X, y), config)
            rounds, permutation = oracle_screen(X, y, config)
            assert [astuple(r) for r in result.rounds] == rounds
            assert list(result.permutation) == permutation
            assert list(result.selected.indices) == list(rounds[-1][-1])
            assert result.canary_ids == tuple(range(p, p + n_canaries))


def _forest(**overrides):
    base = dict(n_trees=30, n_subfeatures=12, min_samples_leaf=1,
                min_purity_increase=0.0, partial_sampling=0.7, seed=20230125)
    base.update(overrides)
    return ForestParams(**base)


def _noisy_label_copy_dataset(seed=21, n_features=201, informative=7, n=80, k=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_features))
    y = rng.integers(1, k + 1, size=n)
    y[:k] = np.arange(1, k + 1)
    X[:, informative] = y.astype(float)
    return make_dataset(X, y)


class TestScreen:
    def test_whole_set_single_round(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng.normal(size=(40, 8)), rng.integers(1, 3, size=40) + 0)
        config = ScreeningConfig(step_size=8, reduced_size=8, forest=_forest(n_subfeatures=4))
        result = screen(ds, config)
        assert len(result.rounds) == 1
        assert sorted(result.selected.indices) == list(range(8))
        record = result.rounds[0]
        importance = dict(zip(record.pool_ids, record.importance))
        ranks = [importance[i] for i in result.selected.indices]
        assert ranks == sorted(ranks, reverse=True)

    def test_label_copy_feature_wins(self):
        ds = _noisy_label_copy_dataset()
        config = ScreeningConfig(step_size=50, reduced_size=1, forest=_forest(), seed=3)
        result = screen(ds, config)
        assert len(result.rounds) == 5  # ceil(201 / 50)
        assert result.selected.indices == (7,)
        # independent check: one forest over the full set ranks feature 7 first
        model = train_forest(ds, _forest(n_subfeatures=30, seed=99))
        counts = selection_frequency(model)
        assert counts[7] == counts.max()
        assert np.sum(counts == counts.max()) == 1

    def test_deterministic_across_calls(self):
        ds = _noisy_label_copy_dataset(seed=12, n_features=60)
        config = ScreeningConfig(step_size=20, reduced_size=5,
                                 forest=_forest(n_trees=10), seed=8)
        a = screen(ds, config)
        b = screen(ds, config)
        assert dumps(mask_timing(screening_document(a))) == \
            dumps(mask_timing(screening_document(b)))

    def test_round_invariants(self):
        ds = _noisy_label_copy_dataset(seed=31, n_features=73)
        config = ScreeningConfig(step_size=20, reduced_size=6,
                                 forest=_forest(n_trees=8), seed=5)
        result = screen(ds, config)
        assert len(result.rounds) == 4  # ceil(73 / 20)
        for record in result.rounds:
            if record.round_index == 1:
                assert record.carried_ids == ()
                assert record.pool_size == 20
            else:
                assert len(record.carried_ids) == 6
                assert record.pool_size == len(record.chunk_ids) + 6
            assert record.pool_ids == record.chunk_ids + record.carried_ids
            assert len(record.selected_ids) == 6 or record.round_index == 0
            assert len(set(record.selected_ids)) == len(record.selected_ids)
            assert set(record.selected_ids) <= set(record.pool_ids)
            importance = dict(zip(record.pool_ids, record.importance))
            ranked = [importance[i] for i in record.selected_ids]
            assert ranked == sorted(ranked, reverse=True)

    def test_monotone_survival(self):
        ds = _noisy_label_copy_dataset(seed=55, n_features=90)
        config = ScreeningConfig(step_size=30, reduced_size=4,
                                 forest=_forest(n_trees=8), seed=13)
        result = screen(ds, config)
        chunk_round = {}
        for record in result.rounds:
            for fid in record.chunk_ids:
                chunk_round[fid] = record.round_index
        for fid in result.selected.indices:
            start = chunk_round[fid]
            for record in result.rounds[start - 1:]:
                assert fid in record.pool_ids
                assert fid in record.selected_ids

    def test_selected_names_round_trip(self):
        ds = _noisy_label_copy_dataset(seed=2, n_features=40)
        config = ScreeningConfig(step_size=40, reduced_size=5,
                                 forest=_forest(n_trees=6), seed=1)
        result = screen(ds, config)
        for fid, name in zip(result.selected.indices, result.selected_names()):
            assert result.feature_names.index(name) == fid
            assert ds.feature_names[fid] == name

    def test_importance_tie_prefers_smaller_feature_id(self):
        ds = _noisy_label_copy_dataset(seed=77, n_features=30)
        config = ScreeningConfig(step_size=30, reduced_size=30,
                                 forest=_forest(n_trees=4, n_subfeatures=5), seed=6)
        result = screen(ds, config)
        record = result.rounds[0]
        importance = dict(zip(record.pool_ids, record.importance))
        for earlier, later in zip(result.selected.indices, result.selected.indices[1:]):
            if importance[earlier] == importance[later]:
                assert earlier < later

    def test_invalid_configs_rejected(self):
        ds = _noisy_label_copy_dataset(seed=4, n_features=30)
        with pytest.raises(ValueError, match="reduced_size"):
            ScreeningConfig(step_size=5, reduced_size=6, forest=_forest())
        config = ScreeningConfig(step_size=60, reduced_size=5, forest=_forest())
        with pytest.raises(ValueError, match="step_size"):
            screen(ds, config)

    def test_single_class_rejected(self):
        ds = make_dataset(np.random.default_rng(0).normal(size=(10, 5)), [1] * 10)
        config = ScreeningConfig(step_size=5, reduced_size=2, forest=_forest(n_subfeatures=2))
        with pytest.raises(ValueError, match="single-class"):
            screen(ds, config)


class TestCanaries:
    def test_canaries_spread_across_chunks(self):
        ds = _noisy_label_copy_dataset(seed=41, n_features=50)
        config = ScreeningConfig(step_size=30, reduced_size=3,
                                 forest=_forest(n_trees=6), n_canaries=10, seed=3)
        result = screen(ds, config)
        assert result.n_features_augmented == 60
        assert result.canary_ids == tuple(range(50, 60))
        assert len(result.rounds) == 2  # ceil(60 / 30)
        assert set(result.feature_names[i] for i in result.canary_ids) == \
            {f"canary_{i + 1:04d}" for i in range(10)}

    def test_clean_audit(self):
        ds = _noisy_label_copy_dataset(seed=42, n_features=50)
        config = ScreeningConfig(step_size=30, reduced_size=1,
                                 forest=_forest(n_trees=20), n_canaries=10, seed=3)
        result = screen(ds, config)
        by_name = tuple(i for i in result.selected.indices
                        if result.feature_names[i].startswith("canary_"))
        assert result.leaked_ids == by_name
        assert result.leak_count == len(by_name)

    def test_forced_leak_is_counted(self):
        fixture = ScreeningResult(
            config=ScreeningConfig(step_size=4, reduced_size=3, forest=_forest()),
            selected=FeatureSubset((5, 1, 4)),
            rounds=(),
            permutation=tuple(range(6)),
            canary_ids=(4, 5),
            feature_names=("a", "b", "c", "d", "canary_0001", "canary_0002"),
            n_features_input=4,
            n_samples=10,
            n_classes=2,
            wall_time_s=0.0,
            cpu_time_s=0.0,
        )
        assert fixture.leaked_ids == (5, 4)  # selection order, not id order
        assert fixture.leak_count == 2


class TestMemory:
    """A short, wide table screened with 100 canaries: no copy of the table is made.

    Beyond the table a screen holds the canary block, one round's pool and forest, and
    the rounds' id tuples, about 0.36 of this table; one copy of the table would be 1.0.
    """

    KBEST_CFG = {"reduced-size": 20, "random-state": 8, "n-canaries": 100}

    @pytest.fixture(scope="class")
    def wide(self):
        rng = np.random.default_rng(60)
        y = np.repeat(np.arange(1, 11), 10)
        X = rng.normal(size=(100, 3000))
        X[:, :5] += y[:, None]
        ds = make_dataset(X, y)
        # first calls import modules lazily (numpy.ma); keep those bytes out of the peaks
        small = Dataset(ds.features[:, :50], ds.labels, ds.feature_names[:50])
        screen(small, ScreeningConfig(step_size=30, reduced_size=5, n_canaries=10,
                                      forest=_forest(n_trees=2, n_subfeatures=3)))
        cli._screen_baseline(small, ScreenerSpec("kbest", {"n_out": 20, "seed": 8}),
                             self.KBEST_CFG)
        return ds

    def test_screen_holds_less_than_half_the_table(self, wide):
        config = ScreeningConfig(step_size=250, reduced_size=20, n_canaries=100, seed=8,
                                 forest=_forest(n_trees=2, n_subfeatures=8, min_samples_leaf=3))
        peak = traced_peak(lambda: screen(wide, config))
        assert peak < wide.features.nbytes / 2

    def test_kbest_screen_holds_less_than_half_the_table(self, wide):
        spec = ScreenerSpec("kbest", {"n_out": 20, "seed": 8})
        peak = traced_peak(lambda: cli._screen_baseline(wide, spec, self.KBEST_CFG))
        assert peak < wide.features.nbytes / 2


BLAS_THEN_FORK = """
import json, os, pickle, sys
from rfscreen import ClassifierSpec, ScreenerSpec, grid_search, screen
os.sched_getaffinity = lambda pid: set(range(8))  # fork even on a one-CPU machine
with open(sys.argv[1], "rb") as fh:
    ds, config = pickle.load(fh)
grid_search(ds, [ScreenerSpec("kbest", {"n_out": 30})], [ClassifierSpec("knn", {"k": 3})],
            folds=3, seed=1)  # the kNN distance matmul wakes the BLAS threads
print(json.dumps([r.importance for r in screen(ds, config).rounds]))
"""


@pytest.mark.usefixtures("eight_cpus")
class TestWorkerProcesses:
    def _configs(self, **forest):
        config = ScreeningConfig(step_size=60, reduced_size=10, n_canaries=5,
                                 forest=_forest(n_trees=16, n_subfeatures=8, **forest))
        return config, replace(config, forest=replace(config.forest, n_workers=2))

    def test_document_is_byte_identical_at_any_worker_count(self):
        ds = _noisy_label_copy_dataset(n_features=150)
        docs = [screening_document(screen(ds, config)) for config in self._configs()]
        assert "n_workers" not in docs[0]["screener"]
        assert dumps(mask_timing(docs[0])) == dumps(mask_timing(docs[1]))

    def test_cpu_time_counts_the_workers(self):
        # without the reaped workers' CPU a 2-worker screen would report about half
        ds = _noisy_label_copy_dataset(n_features=400, n=150)
        one, two = self._configs()
        at_two = screen(ds, two)
        at_one = screen(ds, one)
        assert at_two.selected == at_one.selected
        assert at_two.cpu_time_s >= 0.9 * at_one.cpu_time_s

    def test_fork_after_blas_threads_gives_the_one_worker_result(self, tmp_path):
        # a leak-safe kNN grid starts the BLAS threads, then forest workers fork
        ds = _noisy_label_copy_dataset(n_features=150)
        one, two = self._configs()
        with open(tmp_path / "job.pickle", "wb") as fh:
            pickle.dump((ds, two), fh)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", BLAS_THEN_FORK, str(tmp_path / "job.pickle")],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(done.stdout) == [list(r.importance) for r in screen(ds, one).rounds]
