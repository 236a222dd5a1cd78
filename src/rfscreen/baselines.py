"""Reference screeners: univariate F-score ranking, PCA, and a random control.

The F-score screener keeps original columns (like the multiround screen);
PCA is a transforming reducer whose outputs are derived components, so its
model must travel with the selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, FeatureSubset
from .rng import stream

_RANDOM_SUBSET_STREAM = 0x5AB


def f_scores(dataset: Dataset) -> np.ndarray:
    """One-way ANOVA F statistic of every feature against the class labels.

    F = (between-class mean square) / (within-class mean square), over the
    classes present in the labels.
    Globally constant features score 0; features with zero within-class
    variance but distinct class means score +inf.
    """
    classes = np.unique(dataset.labels)
    if classes.size < 2:
        raise ValueError("F-scores need at least 2 classes")
    X = dataset.features
    y = dataset.labels
    n, k = dataset.n_samples, classes.size
    grand_mean = X.mean(axis=0)
    ss_between = np.zeros(dataset.n_features)
    ss_within = np.zeros(dataset.n_features)
    for cls in classes:
        rows = X[y == cls]
        cls_mean = rows.mean(axis=0)
        ss_between += rows.shape[0] * (cls_mean - grand_mean) ** 2
        ss_within += ((rows - cls_mean) ** 2).sum(axis=0)
    ms_between = ss_between / (k - 1)
    ms_within = ss_within / (n - k)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = ms_between / ms_within
    f[np.isnan(f)] = 0.0
    f[X.max(axis=0) == X.min(axis=0)] = 0.0
    return f


def top_k(k_out: int, *scores: np.ndarray) -> FeatureSubset:
    """The ids of the ``k_out`` highest joined scores, descending, ties to the smaller id."""
    joined = np.concatenate(scores)
    order = np.lexsort((np.arange(joined.shape[0]), -joined))
    return FeatureSubset(tuple(int(i) for i in order[:k_out]))


def kbest_fscore(dataset: Dataset, k_out: int) -> FeatureSubset:
    """Top ``k_out`` features by F-score."""
    if not 1 <= k_out <= dataset.n_features:
        raise ValueError(f"k_out must be in 1..{dataset.n_features}")
    return top_k(k_out, f_scores(dataset))


@dataclass(frozen=True)
class PcaModel:
    """Mean vector, orthonormal component columns, eigenvalues (descending)."""

    mean: np.ndarray
    components: np.ndarray
    eigenvalues: np.ndarray

    @property
    def n_features(self) -> int:
        return self.mean.shape[0]

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # Deterministic orientation: the largest-magnitude entry of each
    # component points in the positive direction.
    flip = components[np.argmax(np.abs(components), axis=0), np.arange(components.shape[1])] < 0
    out = components.copy()
    out[:, flip] *= -1.0
    return out


def pca_fit(dataset: Dataset, n_components: int) -> PcaModel:
    """Eigendecomposition of the sample covariance of the feature matrix.

    When the table is wider than it is tall the decomposition runs on the
    Gram matrix instead (same spectrum, O(n_samples^2) memory); in that
    regime only components with nonzero variance exist, so requesting more
    than the data rank fails.
    """
    n, p = dataset.n_samples, dataset.n_features
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    if not 1 <= n_components <= min(n, p):
        raise ValueError(f"n_components must be in 1..{min(n, p)}")
    mean = dataset.features.mean(axis=0)
    centered = dataset.features - mean
    if p <= n:
        cov = centered.T @ centered / (n - 1)
        eigenvalues, vectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)[::-1][:n_components]
        return PcaModel(
            mean=mean,
            components=_fix_signs(vectors[:, order]),
            eigenvalues=eigenvalues[order],
        )
    gram = centered @ centered.T / (n - 1)
    eigenvalues, vectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1][:n_components]
    eigenvalues = eigenvalues[order]
    tol = max(n, p) * np.finfo(np.float64).eps * max(eigenvalues.max(initial=0.0), 0.0)
    if np.any(eigenvalues <= tol):
        rank = int(np.count_nonzero(eigenvalues > tol))
        raise ValueError(f"n_components={n_components} exceeds the data rank {rank}")
    components = centered.T @ vectors[:, order] / np.sqrt(eigenvalues * (n - 1))
    return PcaModel(mean=mean, components=_fix_signs(components), eigenvalues=eigenvalues)


def pca_transform(model: PcaModel, features) -> np.ndarray:
    """Project rows onto the components: (X - mean) @ components."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected a matrix with {model.n_features} columns")
    return np.subtract(X, model.mean, order="F") @ model.components  # same bits in any order


def random_subset(n_features: int, k_out: int, seed: int) -> FeatureSubset:
    """Uniform subset without replacement; the control baseline."""
    if not 1 <= k_out <= n_features:
        raise ValueError(f"k_out must be in 1..{n_features}")
    picks = stream(seed, _RANDOM_SUBSET_STREAM).choice(n_features, size=k_out, replace=False)
    return FeatureSubset(tuple(int(i) for i in picks))
