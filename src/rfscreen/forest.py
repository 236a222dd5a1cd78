"""CART decision trees and random forests with selection-frequency importance.

The importance of a feature is the number of internal split nodes across
the whole forest that test it (its selection frequency), not a
mean-decrease-impurity score.  Everything here is deterministic: tree ``t``
of a forest draws all of its randomness from an independent stream keyed by
``(seed, t)``, so training is bit-reproducible however trees are batched.
A trained tree is a :class:`Tree` of flat per-node arrays; growth,
prediction and importance all work on that one form.

Tie-breaking is total everywhere so results are exactly assertable:
split ties prefer the lower feature index, then the lower threshold; vote
and leaf-label ties prefer the smallest class id.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .rng import DEFAULT_SEED, stream


@dataclass(frozen=True)
class ForestParams:
    """Training knobs for one forest.

    ``partial_sampling`` gives the bootstrap fraction: each tree draws
    ``floor(partial_sampling * n_samples)`` samples with replacement.
    Depth is unconstrained; growth stops on purity, on
    ``min_samples_leaf``, or when no split gains at least
    ``min_purity_increase`` weighted Gini decrease.  ``n_workers`` processes
    grow the trees, at most one per tree and per usable CPU, for the same bits.
    :func:`train_forest` checks the knobs that depend on the table.
    """

    n_trees: int
    n_subfeatures: int
    min_samples_leaf: int = 1
    min_purity_increase: float = 0.0
    partial_sampling: float = 0.7
    seed: int = DEFAULT_SEED
    n_workers: int = 1

    def __post_init__(self):
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
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")


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


# cap on the (row, candidate feature) elements of one batched scan pass
_PASS_ELEMENTS = 1 << 14


def _dense_ranks(X) -> np.ndarray:
    """Per-column dense ranks in the smallest type, built a column at a time,
    laid out ``(n_features, n_rows)`` in C order: ``(row r, column j)`` is ``j * n_rows + r``."""
    ranks = np.empty(X.shape[::-1], dtype=np.min_scalar_type(X.shape[0]))
    for j in range(X.shape[1]):
        ranks[j] = np.unique(X[:, j], return_inverse=True)[1]
    return ranks


def _scan(X, ranks, y0, jobs, k, msl, mpi) -> list:
    """:func:`_scan_pass` in passes of about ``_PASS_ELEMENTS`` elements.  A
    larger job is cut into candidate pieces; a later piece wins only with a
    strictly larger decrease, as one scan of the whole job would decide."""
    pieces = [(j, (rows, cand[i:i + step], counts))
              for j, (rows, cand, counts) in enumerate(jobs)
              for step in [max(1, _PASS_ELEMENTS // rows.size)]
              for i in range(0, cand.size, step)]
    ends = np.cumsum([rows.size * cand.size for _, (rows, cand, _) in pieces])
    cuts = np.flatnonzero(np.diff(ends // _PASS_ELEMENTS, prepend=-1, append=-1))
    out = [None] * len(jobs)
    for a, b in zip(cuts[:-1], cuts[1:]):
        splits = _scan_pass(X, ranks, y0, [piece for _, piece in pieces[a:b]], k, msl, mpi)
        for (j, _), split in zip(pieces[a:b], splits):
            if split is not None and (out[j] is None or split[2] > out[j][2]):
                out[j] = split
    return out


def _scan_pass(X, ranks, y0, jobs, k, msl, mpi) -> list:
    """Best admissible ``(feature, threshold, decrease)``, or None, of each
    impure job ``(rows, sorted candidates, class counts)``, in one pass.

    A segment is one job's rows sorted by one candidate; all segments sort
    in one ``np.sort`` of words packing ``(segment, rank, row)``.  Tied rows
    come out by row id, not in argsort's order, which changes nothing: they
    share one feature value and no boundary falls between them.

    Moving a row with ``m`` same-class rows ahead of it (``t`` in the node)
    to the left adds ``2m + 1`` to the left sum of squared class counts and
    takes ``2(t - m) - 1`` from the right one, so each boundary's proxy
    ``(S_L/n_L + S_R/n_R)/s``, the Gini decrease plus a per-node constant,
    costs O(1).  Boundaries within 1e-9 of their node's best proxy are
    re-scored with the exact k-wide float expression, which alone decides
    ties (lower feature, then lower threshold) and the ``mpi`` cut.
    """
    n, b = X.shape[0], X.shape[0].bit_length()
    size = np.array([rows.size for rows, *_ in jobs])
    seg_job = np.repeat(np.arange(len(jobs)), [cand.size for _, cand, _ in jobs])
    seg_feat = np.concatenate([cand for _, cand, _ in jobs])
    seg_len = size[seg_job]
    seg_start = np.cumsum(seg_len) - seg_len
    seg = np.repeat(np.arange(seg_job.size), seg_len)
    at = np.arange(seg.size)
    pos = at - np.repeat(seg_start, seg_len)
    counts = np.array([c for *_, c in jobs])
    row = np.concatenate([rows for rows, *_ in jobs])[
        np.repeat((np.cumsum(size) - size)[seg_job], seg_len) + pos]
    # One sort of the words (seg * n + rank) << b | row, which need
    # bits(segments) + 2 * bits(n) <= 63: true below 2**24 rows at this budget.
    if seg_job.size.bit_length() + 2 * b > 63:
        raise ValueError(f"{seg_job.size} segments of {n} rows overflow the packed sort")
    key = seg * n + ranks.ravel()[np.repeat(seg_feat * n, seg_len) + row]
    packed = np.sort(key << b | row)
    row, key = packed & ((1 << b) - 1), packed >> b

    # Class runs within each segment: a stable sort on the label alone keeps
    # the segment order, and a small label type lets numpy radix-sort it.
    # gain is 2m + 1 and loss 2m + 1 - 2t.  A segment's sums are T2 and -T2
    # (T2 = sum of t^2), so its first row takes the previous T2 off gain and
    # adds its own to loss, and the running sums restart as S_L and S_R.
    label = y0[row]
    by_class = np.argsort(label.astype(np.min_scalar_type(k - 1)), kind="stable")
    runs = (label * seg_job.size + seg)[by_class]
    first = np.flatnonzero(np.append(True, runs[1:] != runs[:-1]))
    run = np.diff(first, append=seg.size)
    gain = np.empty_like(at)
    gain[by_class] = 2 * (at - np.repeat(first, run)) + 1
    loss = gain - 2 * counts.ravel()[np.repeat(seg_job * k, seg_len) + label]
    t2 = np.sum(counts * counts, axis=1)[seg_job]
    gain[seg_start[1:]] -= t2[:-1]
    loss[seg_start] += t2

    n_left, length = pos + 1, np.repeat(seg_len, seg_len)
    n_right = length - n_left
    ok = np.flatnonzero((n_left >= msl) & (n_right >= max(msl, 1))
                        & np.append(key[1:] != key[:-1], False))
    proxy = (np.cumsum(gain)[ok] / n_left[ok] + np.cumsum(loss)[ok] / n_right[ok]) / length[ok]
    head = np.searchsorted(ok, seg_start[np.searchsorted(seg_job, np.arange(len(jobs)))])
    n_ok = np.diff(head, append=ok.size)  # head: each job's first boundary in ok
    best = np.repeat(np.maximum.reduceat(proxy, head[n_ok > 0]), n_ok[n_ok > 0])
    near = ok[proxy >= best - 1e-9]  # the proxy's float error is about 1e-15

    # left class counts at the near boundaries: one bincount over their labels
    job, nl, nr = seg_job[seg[near]], n_left[near], n_right[near]
    left = np.bincount(np.repeat(np.arange(near.size) * k, nl) + label[
        np.arange(nl.sum()) + np.repeat(near + 1 - np.cumsum(nl), nl)],
        minlength=near.size * k).reshape(-1, k)
    s = size[job]
    p, pl, pr = counts / size[:, None], left / nl[:, None], (counts[job] - left) / nr[:, None]
    decrease = ((1.0 - np.sum(p * p, axis=1))[job]
                - (nl / s) * (1.0 - np.sum(pl * pl, axis=1))
                - (nr / s) * (1.0 - np.sum(pr * pr, axis=1)))

    out = [None] * len(jobs)
    keep = np.flatnonzero(decrease >= mpi)
    keep = keep[np.lexsort((near[keep], -decrease[keep], job[keep]))]
    for i in keep[np.unique(job[keep], return_index=True)[1]]:
        e, f = near[i], seg_feat[seg[near[i]]]
        out[job[i]] = (int(f), float((X[row[e], f] + X[row[e + 1], f]) / 2.0),
                       float(decrease[i]))
    return out


def _grow_tree(X, y0, k, params: ForestParams, rng):
    """Grow one tree as a generator: it yields ``(rows, candidates, class
    counts)`` for each splittable node, takes that node's best split (or
    None) back, and returns the finished :class:`Tree`."""
    # Iterative depth-first, left child first, so the per-node candidate
    # draws consume the stream in a schedule-independent order.  Popping in
    # that order is also preorder, so a node's id is the count popped before
    # it; only a right child's id is unknown until it is popped.  The stack
    # holds (rows, parent if a right child else -1); the first draw is the bootstrap.
    feature, threshold, right, counts = [], [], [], []
    stack = [(rng.integers(0, len(X), size=int(params.partial_sampling * len(X))), -1)]
    n_features = X.shape[1]
    while stack:
        idx, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        node_counts = np.bincount(y0[idx], minlength=k)
        counts.extend(node_counts.tolist())
        right.append(-1)
        split = None
        if np.count_nonzero(node_counts) > 1 and idx.shape[0] >= 2 * params.min_samples_leaf:
            cand = np.sort(rng.choice(n_features, size=params.n_subfeatures, replace=False))
            split = yield idx, cand, node_counts
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
    counts = np.array(counts, dtype=np.int64).reshape(-1, k)
    return Tree(
        feature=feature,
        threshold=np.array(threshold, dtype=np.float64),
        left=np.where(feature >= 0, np.arange(1, feature.shape[0] + 1), -1),
        right=np.array(right, dtype=np.int64),
        klass=np.argmax(counts, axis=1) + 1,
        counts=counts,
    )


def _cpu_seconds() -> float:
    """CPU seconds of this process and of its reaped children, the forest workers."""
    return time.process_time() + sum(os.times()[2:4])  # children's user and system


def _grow_trees(X, ranks, y0, k, params: ForestParams, tree_ids: range) -> list[Tree]:
    """Trees ``tree_ids``, grown in lockstep: one batched scan per step."""
    growers = {t: _grow_tree(X, y0, k, params, stream(params.seed, t)) for t in tree_ids}
    trees, jobs = {}, {}

    def advance(t, split):
        try:
            jobs[t] = growers[t].send(split)
        except StopIteration as done:
            trees[t] = done.value
            jobs.pop(t, None)

    for t in tree_ids:
        advance(t, None)
    while jobs:  # one lockstep step: the next splittable node of every tree
        waiting = list(jobs)
        splits = _scan(X, ranks, y0, [jobs[t] for t in waiting], k,
                       params.min_samples_leaf, params.min_purity_increase)
        for t, split in zip(waiting, splits):
            advance(t, split)
    return [trees[t] for t in tree_ids]


def train_forest(dataset: Dataset, params: ForestParams) -> ForestModel:
    """Train ``params.n_trees`` bootstrap CART trees.

    Tree ``t`` derives bootstrap and per-node feature draws from the stream
    keyed by ``(params.seed, t)``.  Each worker grows a contiguous range of
    trees, the caller the first and a forked child each other one.  A child
    makes no BLAS call, so BLAS threads that fork left behind cannot block it;
    it pickles back its trees or its error, and is reaped before this returns.
    """
    if dataset.n_samples < 1:
        raise ValueError("dataset is empty")
    if params.n_subfeatures > dataset.n_features:
        raise ValueError(
            f"n_subfeatures={params.n_subfeatures} exceeds n_features={dataset.n_features}")
    n_boot = int(params.partial_sampling * dataset.n_samples)
    if n_boot < 1:
        raise ValueError("partial_sampling yields an empty bootstrap")
    if n_boot < params.min_samples_leaf:
        raise ValueError("bootstrap smaller than min_samples_leaf")
    X = dataset.features
    y0 = dataset.labels - 1
    k = dataset.n_classes
    ranks = _dense_ranks(X)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(params.n_workers, params.n_trees, cpus or 1) if hasattr(os, "fork") else 1
    ranges = [range(params.n_trees * w // n, params.n_trees * (w + 1) // n) for w in range(n)]
    children = []  # (pid, reader, tree ids) of each forked child
    try:
        for ids in ranges[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child grows its range and never returns
                try:
                    try:
                        result = _grow_trees(X, ranks, y0, k, params, ids)
                    except Exception as exc:
                        result = repr(exc)
                    with os.fdopen(write, "wb") as fh:
                        pickle.dump(result, fh)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), ids))
        trees = _grow_trees(X, ranks, y0, k, params, ranges[0])
        for _, reader, ids in children:  # EOF: the child has sent all it will
            result = pickle.loads(reader.read() or pickle.dumps("no result"))
            if isinstance(result, str):
                raise RuntimeError(f"forest worker for trees {ids[0]}..{ids[-1]} failed: {result}")
            trees += result
    finally:  # kill and reap every child; one whose trees were read is only exiting
        for pid, reader, _ in children:
            reader.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
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


def selection_frequency(model: ForestModel) -> np.ndarray:
    """Per-feature count of internal nodes using that feature, whole forest."""
    used = np.concatenate([tree.feature[tree.feature >= 0] for tree in model.trees])
    return np.bincount(used, minlength=model.n_features)
