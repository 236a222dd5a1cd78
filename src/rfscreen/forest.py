"""CART decision trees and random forests with selection-frequency importance.

The importance of a feature is the number of internal split nodes across
the whole forest that test it (its selection frequency), not a
mean-decrease-impurity score.  Everything here is deterministic: tree ``t``
of a forest draws all of its randomness from an independent stream keyed by
``(seed, t)``, so training is bit-reproducible for any worker count.
A trained tree is a :class:`Tree` of flat per-node arrays; growth,
prediction, importance and the text dump all work on that one form.

Tie-breaking is total everywhere so results are exactly assertable:
split ties prefer the lower feature index, then the lower threshold; vote
and leaf-label ties prefer the smallest class id.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .rng import stream


@dataclass(frozen=True)
class ForestParams:
    """Training knobs for one forest.

    ``partial_sampling`` gives the bootstrap fraction: each tree draws
    ``floor(partial_sampling * n_samples)`` samples with replacement.
    Depth is unconstrained; growth stops on purity, on
    ``min_samples_leaf``, or when no split gains at least
    ``min_purity_increase`` weighted Gini decrease.
    """

    n_trees: int
    n_subfeatures: int
    min_samples_leaf: int = 1
    min_purity_increase: float = 0.0
    partial_sampling: float = 0.7
    seed: int = 20230125

    def validate(self, n_features: int | None = None, n_samples: int | None = None) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be positive")
        if self.n_subfeatures < 1:
            raise ValueError("n_subfeatures must be positive")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be positive")
        if self.min_purity_increase < 0:
            raise ValueError("min_purity_increase must be nonnegative")
        if not 0.0 < self.partial_sampling <= 1.0:
            raise ValueError("partial_sampling must be in (0, 1]")
        if n_features is not None and self.n_subfeatures > n_features:
            raise ValueError(
                f"n_subfeatures={self.n_subfeatures} exceeds n_features={n_features}"
            )
        if n_samples is not None:
            n_boot = int(self.partial_sampling * n_samples)
            if n_boot < 1:
                raise ValueError("partial_sampling yields an empty bootstrap")
            if n_boot < self.min_samples_leaf:
                raise ValueError("bootstrap smaller than min_samples_leaf")


@dataclass(frozen=True)
class Tree:
    """One CART tree as six parallel per-node arrays (scikit-learn's layout).

    Nodes are stored in depth-first, left-first preorder, so node 0 is the
    root and the left child of internal node ``i`` is ``i + 1``.  A leaf has
    ``feature == -1``, ``left == right == -1`` and a NaN ``threshold``.  An
    internal node sends a row left when ``x[feature] <= threshold``.
    ``counts[i]`` holds the in-bag class counts that reached node ``i``
    (column ``c`` counts class id ``c + 1``) and ``klass[i]`` is their
    majority class id, ties to the smallest.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    klass: np.ndarray
    counts: np.ndarray


@dataclass
class ForestModel:
    trees: list[Tree]
    n_features: int
    n_classes: int
    params: ForestParams


def gini_impurity(class_counts) -> float:
    """Gini impurity ``1 - sum(p_i^2)`` of a nonnegative count vector."""
    counts = np.asarray(class_counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise ValueError("class counts must contain at least one positive entry")
    p = counts / total
    return float(1.0 - np.sum(p * p))


# cap on the (samples x features x classes) work array of one split scan
_SCAN_BLOCK_ELEMENTS = 1 << 22


def _scan_splits(X, y0, idx, cand, k, msl, mpi):
    """Best admissible split over sorted candidate columns, or None.

    Thresholds are midpoints between consecutive distinct sorted values.
    Returns ``(feature, threshold, decrease)`` maximizing the weighted Gini
    decrease, ties resolved toward the lower feature index, then the lower
    threshold.  Candidates are scanned in ascending-feature blocks with
    strict improvement between blocks, so chunking never changes the
    winner.
    """
    s = idx.shape[0]
    if s < 2:
        return None
    counts = np.bincount(y0[idx], minlength=k).astype(np.int64)
    if np.count_nonzero(counts) < 2:
        return None  # pure node: nothing to gain
    p = counts / s
    g_parent = 1.0 - np.sum(p * p)

    n_left = np.arange(1, s, dtype=np.int64)
    n_right = s - n_left
    size_mask = (n_left >= msl)[:, None] & (n_right >= msl)[:, None]
    block = max(1, _SCAN_BLOCK_ELEMENTS // (s * k))
    best = None

    for start in range(0, cand.shape[0], block):
        cb = cand[start:start + block]
        sub = X[np.ix_(idx, cb)]
        order = np.argsort(sub, axis=0)
        sorted_vals = np.take_along_axis(sub, order, axis=0)
        sorted_labels = y0[idx][order]

        onehot = sorted_labels[:, :, None] == np.arange(k)
        left_counts = np.cumsum(onehot, axis=0, dtype=np.int64)[:-1]
        right_counts = counts[None, None, :] - left_counts

        pl = left_counts / n_left[:, None, None]
        g_left = 1.0 - np.sum(pl * pl, axis=2)
        pr = right_counts / n_right[:, None, None]
        g_right = 1.0 - np.sum(pr * pr, axis=2)
        decrease = (g_parent - (n_left / s)[:, None] * g_left
                    - (n_right / s)[:, None] * g_right)

        admissible = (sorted_vals[1:] > sorted_vals[:-1]) & size_mask & (decrease >= mpi)
        scores = np.where(admissible, decrease, -np.inf)
        # Feature-major flattening makes argmax honor the tie order.
        flat = np.ascontiguousarray(scores.T).ravel()
        at = int(np.argmax(flat))
        if flat[at] == -np.inf:
            continue
        if best is None or flat[at] > best[2]:
            f_pos, boundary = divmod(at, s - 1)
            threshold = (sorted_vals[boundary, f_pos]
                         + sorted_vals[boundary + 1, f_pos]) / 2.0
            best = (int(cb[f_pos]), float(threshold), float(flat[at]))
    return best


def best_split(dataset: Dataset, sample_indices, candidate_features,
               min_samples_leaf: int = 1, min_purity_increase: float = 0.0):
    """Best admissible (feature, threshold, decrease) over candidates, or None.

    Both children of an admissible split hold at least ``min_samples_leaf``
    samples and its weighted Gini decrease is at least
    ``min_purity_increase``.
    """
    idx = np.asarray(sample_indices, dtype=np.int64)
    if idx.shape[0] < 2:
        raise ValueError("best_split needs at least 2 samples")
    cand = np.unique(np.asarray(candidate_features, dtype=np.int64))
    if cand.size == 0:
        return None
    if cand.min() < 0 or cand.max() >= dataset.n_features:
        raise ValueError("candidate feature index out of range")
    return _scan_splits(
        dataset.features, dataset.labels - 1, idx, cand,
        dataset.n_classes, min_samples_leaf, min_purity_increase,
    )


def bootstrap_indices(params: ForestParams, n_samples: int, tree_index: int) -> np.ndarray:
    """In-bag sample indices of one tree; first draw of the tree's stream."""
    n_boot = int(params.partial_sampling * n_samples)
    return stream(params.seed, tree_index).integers(0, n_samples, size=n_boot)


def _grow_tree(X, y0, boot_idx, k, n_subfeatures, msl, mpi, rng) -> Tree:
    # Iterative depth-first, left child first, so the per-node candidate
    # draws consume the stream in a schedule-independent order.  Popping in
    # that order is also preorder, so a node's id is the count popped before
    # it; only a right child's id is unknown until it is popped.
    feature, threshold, right, counts = [], [], [], []
    stack = [(boot_idx, -1)]  # (rows, parent if this is a right child else -1)
    n_features = X.shape[1]
    while stack:
        idx, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        node_counts = np.bincount(y0[idx], minlength=k)
        counts.append(node_counts)
        right.append(-1)
        split = None
        if np.count_nonzero(node_counts) > 1 and idx.shape[0] >= 2 * msl:
            cand = np.sort(rng.choice(n_features, size=n_subfeatures, replace=False))
            split = _scan_splits(X, y0, idx, cand, k, msl, mpi)
        if split is None:
            feature.append(-1)
            threshold.append(np.nan)
            continue
        f, thr, _ = split
        feature.append(f)
        threshold.append(thr)
        mask = X[idx, f] <= thr
        stack.append((idx[~mask], node))
        stack.append((idx[mask], -1))
    feature = np.array(feature, dtype=np.int64)
    counts = np.array(counts, dtype=np.int64)
    return Tree(
        feature=feature,
        threshold=np.array(threshold, dtype=np.float64),
        left=np.where(feature >= 0, np.arange(1, feature.shape[0] + 1), -1),
        right=np.array(right, dtype=np.int64),
        klass=np.argmax(counts, axis=1) + 1,
        counts=counts,
    )


def train_forest(dataset: Dataset, params: ForestParams, n_threads: int = 1) -> ForestModel:
    """Train ``params.n_trees`` bootstrap CART trees.

    Tree ``t`` derives bootstrap and per-node feature draws from the stream
    keyed by ``(params.seed, t)``; the result is identical for any
    ``n_threads``.
    """
    if dataset.n_samples < 1:
        raise ValueError("dataset is empty")
    params.validate(n_features=dataset.n_features, n_samples=dataset.n_samples)
    X = dataset.features
    y0 = dataset.labels - 1
    k = dataset.n_classes
    n = dataset.n_samples
    n_boot = int(params.partial_sampling * n)

    def build(tree_index: int) -> Tree:
        rng = stream(params.seed, tree_index)
        boot = rng.integers(0, n, size=n_boot)
        return _grow_tree(X, y0, boot, k, params.n_subfeatures,
                          params.min_samples_leaf, params.min_purity_increase, rng)

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            trees = list(pool.map(build, range(params.n_trees)))
    else:
        trees = [build(t) for t in range(params.n_trees)]
    return ForestModel(trees=trees, n_features=dataset.n_features,
                       n_classes=k, params=params)


def _tree_predict(tree: Tree, X: np.ndarray) -> np.ndarray:
    # Level-by-level descent: every row still at an internal node moves one
    # level down per pass, so the loop runs once per level, not per row.
    node = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.flatnonzero(tree.feature[node] >= 0)
    while rows.size:
        at = node[rows]
        go_left = X[rows, tree.feature[at]] <= tree.threshold[at]
        node[rows] = np.where(go_left, tree.left[at], tree.right[at])
        rows = rows[tree.feature[node[rows]] >= 0]
    return tree.klass[node]


def forest_predict_batch(model: ForestModel, X) -> np.ndarray:
    """Majority vote over trees for each row; ties go to the smallest class id."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(f"expected a matrix with {model.n_features} columns")
    votes = np.zeros((X.shape[0], model.n_classes + 1), dtype=np.int64)
    rows = np.arange(X.shape[0])
    for tree in model.trees:
        votes[rows, _tree_predict(tree, X)] += 1
    return np.argmax(votes, axis=1)


def forest_predict(model: ForestModel, features) -> int:
    """:func:`forest_predict_batch` for a single row."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise ValueError(f"expected a vector of length {model.n_features}")
    return int(forest_predict_batch(model, x[None, :])[0])


def selection_frequency(model: ForestModel) -> np.ndarray:
    """Per-feature count of internal nodes using that feature, whole forest."""
    used = np.concatenate([tree.feature[tree.feature >= 0] for tree in model.trees])
    return np.bincount(used, minlength=model.n_features)


def dump_forest(model: ForestModel) -> str:
    """Self-describing text dump, one tree per line (debugging aid).

    Each line is a JSON record with the tree's nodes in array (preorder)
    order; an internal node is ``[feature, threshold, left_id, right_id]``
    and a leaf is ``["leaf", class_id, counts]``.  The format is stable for
    a given model but is not a versioned interchange contract.
    """
    lines = [json.dumps({
        "kind": "forest",
        "n_trees": model.params.n_trees,
        "n_features": model.n_features,
        "n_classes": model.n_classes,
    }, sort_keys=True)]
    for t, tree in enumerate(model.trees):
        nodes = [
            [f, thr, lo, hi] if f >= 0 else ["leaf", c, row]
            for f, thr, lo, hi, c, row in zip(
                tree.feature.tolist(), tree.threshold.tolist(), tree.left.tolist(),
                tree.right.tolist(), tree.klass.tolist(), tree.counts.tolist())
        ]
        lines.append(json.dumps({"tree": t, "nodes": nodes}))
    return "\n".join(lines) + "\n"
