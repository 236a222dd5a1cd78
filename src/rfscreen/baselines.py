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
_BLOCK_BYTES = 1 << 20  # an F-score column block gathers 1 to 2 times this


def f_scores(dataset: Dataset, rows=None) -> np.ndarray:
    """One-way ANOVA F statistic of every feature against the class labels.

    F = (between-class mean square) / (within-class mean square), over the
    classes present in the labels of ``rows`` (all rows by default).
    Globally constant features score 0; features with zero within-class
    variance but distinct class means score +inf.
    """
    y = dataset.labels if rows is None else dataset.labels[rows]
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("F-scores need at least 2 classes")
    n, k, p = y.shape[0], classes.size, dataset.n_features
    # Column-major blocks give each score the bits of a table of the rows alone, but a
    # 1-wide block is contiguous both ways and numpy would sum its class rows pairwise.
    n_blocks = max(1, p // max(2, _BLOCK_BYTES // (8 * n)))
    edges = [p * i // n_blocks for i in range(n_blocks + 1)]
    f = np.empty(p)
    for a, b in zip(edges, edges[1:]):
        X = dataset.gather(rows, slice(a, b))
        grand_mean = X.mean(axis=0)
        ss_between = np.zeros(b - a)
        ss_within = np.zeros(b - a)
        for cls in classes:
            members = X[y == cls]
            cls_mean = members.mean(axis=0)
            ss_between += members.shape[0] * (cls_mean - grand_mean) ** 2
            ss_within += ((members - cls_mean) ** 2).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            f[a:b] = (ss_between / (k - 1)) / (ss_within / (n - k))
        f[a:b][X.max(axis=0) == X.min(axis=0)] = 0.0
        del X  # free this block before the next is gathered
    f[np.isnan(f)] = 0.0
    return f


def top_k(k_out: int, *scores: np.ndarray) -> FeatureSubset:
    """The ids of the ``k_out`` highest joined scores, descending, ties to the smaller id."""
    joined = np.concatenate(scores)
    order = np.lexsort((np.arange(joined.shape[0]), -joined))
    return FeatureSubset(tuple(int(i) for i in order[:k_out]))


def kbest_fscore(dataset: Dataset, k_out: int, rows=None) -> FeatureSubset:
    """Top ``k_out`` features by the F-score of ``rows`` (all rows by default)."""
    if not 1 <= k_out <= dataset.n_features:
        raise ValueError(f"k_out must be in 1..{dataset.n_features}")
    return top_k(k_out, f_scores(dataset, rows))


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

    def __len__(self) -> int:
        return self.n_components


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # Deterministic orientation: the largest-magnitude entry of each
    # component points in the positive direction.
    flip = components[np.argmax(np.abs(components), axis=0), np.arange(components.shape[1])] < 0
    out = components.copy()
    out[:, flip] *= -1.0
    return out


def pca_fit(dataset: Dataset, n_components: int, rows=None) -> PcaModel:
    """Eigendecomposition of the sample covariance of the rows' feature matrix.

    ``rows`` (all by default) are copied once and centred in place.  When they
    are wider than tall the decomposition runs on the Gram matrix instead (same
    spectrum, O(n_samples^2) memory); in that regime only components with
    nonzero variance exist, so requesting more than the data rank fails.
    """
    rows = np.arange(dataset.n_samples) if rows is None else rows
    n, p = len(rows), dataset.n_features
    if n < 2:
        raise ValueError("PCA needs at least 2 samples")
    if not 1 <= n_components <= min(n, p):
        raise ValueError(f"n_components must be in 1..{min(n, p)}")
    centered = dataset.gather(rows)
    mean = centered.mean(axis=0)
    centered -= mean
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
