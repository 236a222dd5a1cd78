"""Multiround random-forest feature screening.

The screen walks the (randomly permuted) feature space in chunks of
``step_size`` columns.  Each round trains a forest on the current chunk
plus the ``reduced_size`` survivors carried over from the previous round,
ranks the pool by selection frequency, and carries the top ``reduced_size``
features forward.  The carry left after the last chunk is the screened set.

Optionally, pure-noise canary columns, kept in a block apart from the table,
join the feature space before permutation; any canary surviving to the output
is a red flag that the screen is promoting noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, FeatureSubset
from .forest import ForestParams, _cpu_seconds, selection_frequency, train_forest
from .rng import DEFAULT_SEED, derive_seed, stream

_CANARY_STREAM = 0xCA
_PERMUTATION_STREAM = 0x9E
_ROUND_STREAM = 0x12D


@dataclass(frozen=True)
class ScreeningConfig:
    """Knobs of one screening run.

    ``step_size`` is the chunk width (fresh features per round) and
    ``reduced_size`` the carry width (features kept between rounds and
    finally returned); ``1 <= reduced_size <= step_size`` always, and
    ``step_size`` may not exceed the (canary-augmented) feature count of
    the dataset being screened.  ``forest.seed`` is not read: each round
    derives its own forest seed from ``seed``.
    """

    step_size: int
    reduced_size: int
    forest: ForestParams
    n_canaries: int = 0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.reduced_size < 1:
            raise ValueError("reduced_size must be positive")
        if self.reduced_size > self.step_size:
            raise ValueError("reduced_size may not exceed step_size")
        if self.n_canaries < 0:
            raise ValueError("n_canaries must be nonnegative")


@dataclass(frozen=True)
class RoundRecord:
    """Provenance of one round; all ids live in the augmented feature space."""

    round_index: int
    chunk_ids: tuple[int, ...]
    carried_ids: tuple[int, ...]
    pool_ids: tuple[int, ...]
    importance: tuple[int, ...]
    selected_ids: tuple[int, ...]

    @property
    def pool_size(self) -> int:
        return len(self.pool_ids)


@dataclass(frozen=True)
class ScreeningResult:
    config: ScreeningConfig
    selected: FeatureSubset
    rounds: tuple[RoundRecord, ...]
    permutation: tuple[int, ...]
    canary_ids: tuple[int, ...]
    feature_names: tuple[str, ...]
    n_features_input: int
    n_samples: int
    n_classes: int
    wall_time_s: float
    cpu_time_s: float

    @property
    def n_features_augmented(self) -> int:
        return self.n_features_input + len(self.canary_ids)

    @property
    def leaked_ids(self) -> tuple[int, ...]:
        """The selected ids that are canaries, in selection order."""
        canaries = set(self.canary_ids)
        return tuple(i for i in self.selected.indices if i in canaries)

    @property
    def leak_count(self) -> int:
        return len(self.leaked_ids)

    def selected_names(self) -> tuple[str, ...]:
        return tuple(self.feature_names[i] for i in self.selected.indices)


def canary_block(dataset: Dataset, n_canaries: int, seed: int, rows=slice(None)) -> Dataset:
    """Seeded standard-normal noise columns over ``rows`` (all by default), named apart."""
    names = tuple(f"canary_{i + 1:04d}" for i in range(n_canaries))
    clash = set(names) & set(dataset.feature_names)
    if clash:
        raise ValueError(f"dataset already contains canary-reserved names: {sorted(clash)}")
    labels = dataset.labels[rows]
    noise = stream(seed, _CANARY_STREAM).standard_normal((labels.shape[0], n_canaries))
    return Dataset(noise, labels, names)


def _pool_dataset(dataset: Dataset, rows, canaries: Dataset, names, pool) -> Dataset:
    """The pool's columns over ``rows`` in pool order, from the table and the canary block."""
    real = pool < dataset.n_features
    features = np.empty((len(rows), pool.shape[0]), order="F")
    features[:, real] = dataset.features[np.ix_(rows, pool[real])]
    features[:, ~real] = canaries.features[:, pool[~real] - dataset.n_features]
    return Dataset(features, canaries.labels, tuple(names[i] for i in pool))


def screen(dataset: Dataset, config: ScreeningConfig, rows=None, n_threads=1) -> ScreeningResult:
    """Run the full multiround screen over ``rows`` (all by default); return the survivors.

    Within a round, importance ties are broken toward the smallest feature
    id so the whole run is reproducible.  Rounds are strictly sequential.
    Neither the table nor its rows are copied: a screen holds its input plus
    one round's pool.  ``config.forest.n_workers`` processes grow each round's
    forest; ``n_threads`` is accepted for existing callers and does nothing.
    """
    t_wall = time.perf_counter()
    t_cpu = _cpu_seconds()

    rows = np.arange(dataset.n_samples) if rows is None else rows
    canaries = canary_block(dataset, config.n_canaries, config.seed, rows)
    if np.unique(canaries.labels).size < 2:
        raise ValueError("screening needs at least 2 classes; got a single-class dataset")
    names = dataset.feature_names + canaries.feature_names
    n = len(names)
    if config.step_size > n:
        raise ValueError(
            f"step_size={config.step_size} exceeds the augmented feature count {n}"
        )

    permutation = stream(config.seed, _PERMUTATION_STREAM).permutation(n)
    carry = np.empty(0, dtype=np.int64)
    rounds: list[RoundRecord] = []
    for i, start in enumerate(range(0, n, config.step_size), start=1):
        chunk = permutation[start:start + config.step_size]
        pool = np.concatenate([chunk, carry])
        round_params = replace(
            config.forest,
            n_subfeatures=min(config.forest.n_subfeatures, pool.shape[0]),
            seed=derive_seed(config.seed, _ROUND_STREAM, i),
        )
        model = train_forest(_pool_dataset(dataset, rows, canaries, names, pool), round_params)
        importance = selection_frequency(model)
        order = np.lexsort((pool, -importance))
        selected = pool[order[:config.reduced_size]]
        rounds.append(RoundRecord(
            round_index=i,
            chunk_ids=tuple(int(f) for f in chunk),
            carried_ids=tuple(int(f) for f in carry),
            pool_ids=tuple(int(f) for f in pool),
            importance=tuple(int(c) for c in importance),
            selected_ids=tuple(int(f) for f in selected),
        ))
        carry = selected

    return ScreeningResult(
        config=config,
        selected=FeatureSubset(tuple(int(f) for f in carry)),
        rounds=tuple(rounds),
        permutation=tuple(int(f) for f in permutation),
        canary_ids=tuple(range(dataset.n_features, n)),
        feature_names=names,
        n_features_input=dataset.n_features,
        n_samples=canaries.n_samples,
        n_classes=canaries.n_classes,
        wall_time_s=time.perf_counter() - t_wall,
        cpu_time_s=_cpu_seconds() - t_cpu,
    )
