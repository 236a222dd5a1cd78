"""Synthetic multiclass feature-space generator.

Hidden "true" features carry class structure whose strength is set by a
per-feature usefulness in (0, 1]; hidden "fake" features are pure noise.
Every observable output column blends a few hidden features with random
weights, so outputs are intercorrelated and no single column identifies
the classes on its own.  Full provenance (which hiddens feed which output,
with what weights) is returned for ground-truth scoring of screeners.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSubset
from .rng import stream

_TRUE_STREAM = 0x7E
_FAKE_STREAM = 0xFA
_BLEND_STREAM = 0xB1


@dataclass(frozen=True)
class GeneratorConfig:
    """Generation knobs.

    Usefulness u maps to class separation as between-class std = u and
    within-class std = 1 - u/2, a monotone mapping that keeps the total
    variance of a hidden feature near 1.  ``location_sharing_extent > 0``
    draws the per-class means of each true feature from a finite pool of
    that many values, so several classes share locations.
    """

    n_classes: int
    n_samples_per_class: int
    n_true_features: int
    n_fake_features: int
    min_usefulness: float = 0.5
    max_usefulness: float = 1.0
    n_features_out: int = 100
    min_count: int = 2
    max_count: int = 4
    blending_mode: str = "logarithmic"
    location_sharing_extent: int = 0
    seed: int = 137

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be at least 2")
        if self.n_samples_per_class < 1:
            raise ValueError("n_samples_per_class must be positive")
        if self.n_true_features < 0 or self.n_fake_features < 0:
            raise ValueError("hidden feature counts must be nonnegative")
        if self.n_true_features + self.n_fake_features < 1:
            raise ValueError("at least one hidden feature is required")
        if not 0.0 < self.min_usefulness <= self.max_usefulness <= 1.0:
            raise ValueError("usefulness bounds must satisfy 0 < min <= max <= 1")
        if self.n_features_out < 1:
            raise ValueError("n_features_out must be positive")
        if not 1 <= self.min_count <= self.max_count <= self.n_true_features + self.n_fake_features:
            raise ValueError("blend counts must satisfy 1 <= min <= max <= n_hidden")
        if self.blending_mode not in ("linear", "logarithmic"):
            raise ValueError("blending_mode must be 'linear' or 'logarithmic'")
        if self.location_sharing_extent < 0:
            raise ValueError("location_sharing_extent must be nonnegative")


@dataclass(frozen=True)
class Provenance:
    """Ground truth of a generated dataset.

    ``usefulness[h]`` exists for true hidden features (ids ``0..n_true-1``);
    fake hidden ids continue from ``n_true``.  ``sources[j]`` and
    ``weights[j]`` describe the blend behind output column ``j``.
    """

    n_true: int
    n_fake: int
    usefulness: tuple[float, ...]
    sources: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]

    @property
    def n_outputs(self) -> int:
        return len(self.sources)

    def output_has_true_source(self, output_id: int) -> bool:
        if not 0 <= output_id < self.n_outputs:
            raise ValueError(f"unknown output feature id {output_id}")
        return any(s < self.n_true for s in self.sources[output_id])

    def to_dict(self) -> dict:
        return {
            "n_true": self.n_true,
            "n_fake": self.n_fake,
            "usefulness": list(self.usefulness),
            "outputs": [
                {"id": j + 1, "sources": [s + 1 for s in src], "weights": list(w)}
                for j, (src, w) in enumerate(zip(self.sources, self.weights))
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Provenance":
        outputs = sorted(doc["outputs"], key=lambda o: o["id"])
        return cls(
            n_true=int(doc["n_true"]),
            n_fake=int(doc["n_fake"]),
            usefulness=tuple(float(u) for u in doc["usefulness"]),
            sources=tuple(tuple(int(s) - 1 for s in o["sources"]) for o in outputs),
            weights=tuple(tuple(float(w) for w in o["weights"]) for o in outputs),
        )


def _hidden_true(config: GeneratorConfig, index: int, labels0: np.ndarray):
    rng = stream(config.seed, _TRUE_STREAM, index)
    u = float(rng.uniform(config.min_usefulness, config.max_usefulness))
    between_std = u
    within_std = 1.0 - u / 2.0
    if config.location_sharing_extent > 0:
        pool = rng.normal(0.0, between_std, size=config.location_sharing_extent)
        means = rng.choice(pool, size=config.n_classes, replace=True)
    else:
        means = rng.normal(0.0, between_std, size=config.n_classes)
    values = means[labels0] + rng.normal(0.0, within_std, size=labels0.shape[0])
    return values, u


def generate(config: GeneratorConfig):
    """Build the dataset and its provenance; deterministic per seed."""
    n_samples = config.n_classes * config.n_samples_per_class
    labels = np.repeat(np.arange(1, config.n_classes + 1), config.n_samples_per_class)
    labels0 = labels - 1
    n_hidden = config.n_true_features + config.n_fake_features

    hidden = np.empty((n_samples, n_hidden), dtype=np.float64)
    usefulness = []
    for h in range(config.n_true_features):
        hidden[:, h], u = _hidden_true(config, h, labels0)
        usefulness.append(u)
    for j in range(config.n_fake_features):
        hidden[:, config.n_true_features + j] = (
            stream(config.seed, _FAKE_STREAM, j).standard_normal(n_samples)
        )

    out = np.empty((n_samples, config.n_features_out), dtype=np.float64)
    sources = []
    weights = []
    for j in range(config.n_features_out):
        rng = stream(config.seed, _BLEND_STREAM, j)
        count = int(rng.integers(config.min_count, config.max_count + 1))
        src = np.sort(rng.choice(n_hidden, size=count, replace=False))
        w = rng.normal(size=count)
        w = w / np.sqrt(np.sum(w * w))
        mixed = hidden[:, src] @ w
        if config.blending_mode == "logarithmic":
            mixed = np.log1p(np.abs(mixed)) * np.sign(mixed)
        out[:, j] = mixed
        sources.append(tuple(int(s) for s in src))
        weights.append(tuple(float(v) for v in w))

    dataset = Dataset(
        features=out,
        labels=labels,
        feature_names=tuple(f"f{j + 1}" for j in range(config.n_features_out)),
    )
    provenance = Provenance(
        n_true=config.n_true_features,
        n_fake=config.n_fake_features,
        usefulness=tuple(usefulness),
        sources=tuple(sources),
        weights=tuple(weights),
    )
    return dataset, provenance


def truth_overlap(selection: FeatureSubset, provenance: Provenance) -> float:
    """Fraction of selected output features with at least one true source."""
    if len(selection) == 0:
        raise ValueError("selection is empty")
    hits = sum(1 for i in selection.indices if provenance.output_has_true_source(i))
    return hits / len(selection)
