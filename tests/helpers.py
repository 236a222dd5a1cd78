"""Shared fixtures-by-hand and independent oracles used across test modules.

The oracles deliberately re-derive results by the most literal method
available (exhaustive scans, per-group sums) and stay independent of the
library code paths they check.
"""

import csv
import json
import tracemalloc

import numpy as np

from rfscreen import Dataset


def mask_timing(doc):
    """Deep-copied document with every timing field zeroed."""
    doc = json.loads(json.dumps(doc))
    if "timing" in doc:
        doc["timing"] = {key: 0.0 for key in doc["timing"]}
    return doc


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_dataset(X, y, names=None):
    X = np.asarray(X, dtype=np.float64)
    if names is None:
        names = tuple(f"f{i + 1}" for i in range(X.shape[1]))
    return Dataset(features=X, labels=np.asarray(y, dtype=np.int64), feature_names=names)


def tied_table(seed):
    """45 rows, 3 classes, 30 columns at shuffled positions whose F-scores tie: 8 columns
    repeat others and 3 are constant, beside shifted, three-valued and noise columns."""
    rng = np.random.default_rng(seed)
    y = np.repeat([1, 2, 3], 15)
    base = rng.normal(size=(45, 19))
    base[:, :6] += rng.uniform(0.3, 1.2, size=6) * y[:, None]
    base[:, 6:10] = rng.integers(0, 3, size=(45, 4))
    X = np.column_stack([base, base[:, rng.choice(19, 8, replace=False)], np.full((45, 3), 1.5)])
    return make_dataset(X[:, rng.permutation(30)], y)


def oracle_write_csv(features, labels, names, path, label_column="label"):
    """The standard CSV form cell by cell through ``csv.writer``: ``repr`` of
    each float, the label as an int, the label column first."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([label_column, *names])
        for label, row in zip(labels, features):
            writer.writerow([int(label), *(repr(float(v)) for v in row)])


def oracle_load_csv(path, label_column="label"):
    """``csv.reader`` and ``float()`` cell by cell: the feature rows as lists
    of floats, the labels numbered ``1..k`` by first occurrence, and the
    feature names."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header, *body = csv.reader(fh)
    pos = header.index(label_column)
    ids = {}
    rows, labels = [], []
    for row in body:
        if row[pos] not in ids:
            ids[row[pos]] = len(ids) + 1
        labels.append(ids[row[pos]])
        rows.append([float(cell) for i, cell in enumerate(row) if i != pos])
    return rows, labels, tuple(name for i, name in enumerate(header) if i != pos)


def oracle_gini(counts) -> float:
    """Gini impurity ``1 - sum(p_i^2)`` of a class-count vector with a positive total."""
    p = np.asarray(counts) / np.sum(counts)
    return 1.0 - np.sum(p * p)


def oracle_best_split(X, y, candidates, min_samples_leaf=1, min_purity_increase=0.0):
    """Exhaustive scan of every (feature, midpoint) pair, recomputing the
    weighted Gini decrease from scratch for each one."""
    X = np.asarray(X, dtype=np.float64)
    y0 = np.asarray(y, dtype=np.int64) - 1
    n = y0.shape[0]
    k = int(y0.max()) + 1
    counts = np.bincount(y0, minlength=k)
    if np.count_nonzero(counts) < 2:
        return None  # pure node
    g_parent = oracle_gini(counts)
    best = None
    for f in sorted({int(c) for c in candidates}):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, f] <= thr
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_samples_leaf or nr < min_samples_leaf:
                continue
            gl = oracle_gini(np.bincount(y0[mask], minlength=k))
            gr = oracle_gini(np.bincount(y0[~mask], minlength=k))
            dec = g_parent - (nl / n) * gl - (nr / n) * gr
            if dec < min_purity_increase:
                continue
            if best is None or dec > best[2]:
                best = (f, thr, dec)
    return best


def random_split_instance(rng):
    """Small random classification table with deliberate value ties."""
    n = int(rng.integers(4, 21))
    f = int(rng.integers(1, 6))
    k = int(rng.integers(2, 5))
    if rng.random() < 0.5:
        X = rng.integers(0, 4, size=(n, f)).astype(np.float64)
    else:
        X = np.round(rng.normal(size=(n, f)), 2)
    if f >= 2 and rng.random() < 0.3:
        X[:, 1] = X[:, 0]  # duplicated column forces cross-feature ties
    y = rng.integers(1, k + 1, size=n).astype(np.int64)
    y[0], y[1] = 1, 2  # keep at least two classes
    msl = int(rng.integers(1, 4))
    mpi = float(rng.choice([0.0, 0.0, 0.01, 0.05]))
    return X, y, msl, mpi


def oracle_bootstrap(seed, t, n_samples, partial_sampling):
    """Tree ``t``'s stream, keyed ``SeedSequence([seed, t])``, and its first draw: the
    ``floor(partial_sampling * n_samples)`` in-bag rows, drawn with replacement."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, t]))
    return rng, rng.integers(0, n_samples, size=int(partial_sampling * n_samples))


def oracle_tree(X, y, seed, t, n_subfeatures, min_samples_leaf=1, min_purity_increase=0.0,
                partial_sampling=0.7):
    """Tree ``t`` of a forest keyed by ``seed``, grown by recursion: its ``feature``,
    ``threshold`` and class ``counts`` per node, in depth-first, left-first preorder.

    After the bootstrap, each splittable node (two classes present and at least
    ``2 * min_samples_leaf`` rows) draws ``choice(p, n_subfeatures, replace=False)``
    candidates in that same order, and :func:`oracle_best_split` picks its split."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng, rows = oracle_bootstrap(seed, t, X.shape[0], partial_sampling)
    nodes = []

    def grow(idx):
        counts = np.bincount(y[idx] - 1, minlength=int(y.max()))
        node = [-1, np.nan, counts]
        nodes.append(node)
        if np.count_nonzero(counts) < 2 or idx.shape[0] < 2 * min_samples_leaf:
            return
        cand = rng.choice(X.shape[1], size=n_subfeatures, replace=False)
        split = oracle_best_split(X[idx], y[idx], cand, min_samples_leaf, min_purity_increase)
        if split is not None:
            node[:2] = split[:2]
            grow(idx[X[idx, split[0]] <= split[1]])
            grow(idx[X[idx, split[0]] > split[1]])

    grow(rows)
    return (np.array([f for f, _, _ in nodes]), np.array([thr for _, thr, _ in nodes]),
            np.array([c for _, _, c in nodes]))


def oracle_screen(X, y, config):
    """The rounds of a multiround screen of every row, as ``(round_index, chunk_ids,
    carried_ids, pool_ids, importance, selected_ids)`` tuples, and its permutation.

    ``config`` is read for its knobs only.  The canaries are
    ``standard_normal((n, n_canaries))`` from ``SeedSequence([seed, 0xCA])``, appended
    after the table's columns; the permutation of all of them comes from
    ``SeedSequence([seed, 0x9E])``; round ``i`` grows its trees with the seed made of
    the two 32-bit words of ``SeedSequence([seed, 0x12D, i]).generate_state(2)``.
    Each round ranks its pool (chunk, then carry) by internal-node count, ties to the
    lower id, and carries the first ``reduced_size``."""
    X = np.asarray(X, dtype=np.float64)
    f, seed = config.forest, config.seed
    noise = np.random.default_rng(np.random.SeedSequence([seed, 0xCA])).standard_normal(
        (X.shape[0], config.n_canaries))
    table = np.hstack([X, noise])
    perm = np.random.default_rng(np.random.SeedSequence([seed, 0x9E])).permutation(
        table.shape[1])
    carry, rounds = [], []
    for i, start in enumerate(range(0, perm.shape[0], config.step_size), start=1):
        chunk = [int(c) for c in perm[start:start + config.step_size]]
        pool = chunk + carry
        words = np.random.SeedSequence([seed, 0x12D, i]).generate_state(2)
        round_seed = (int(words[0]) << 32) | int(words[1])
        importance = [0] * len(pool)
        for t in range(f.n_trees):
            features, _, _ = oracle_tree(table[:, pool], y, round_seed, t,
                                         min(f.n_subfeatures, len(pool)), f.min_samples_leaf,
                                         f.min_purity_increase, f.partial_sampling)
            for j in features[features >= 0]:
                importance[j] += 1
        ranked = sorted(range(len(pool)), key=lambda j: (-importance[j], pool[j]))
        selected = [pool[j] for j in ranked[:config.reduced_size]]
        rounds.append((i, tuple(chunk), tuple(carry), tuple(pool), tuple(importance),
                       tuple(selected)))
        carry = selected
    return rounds, [int(p) for p in perm]


def oracle_knn(train_X, train_y, query, k):
    """Distance-sort reference: explicit per-row squared distances."""
    d2 = [float(np.sum((query - train_X[i]) ** 2)) for i in range(train_X.shape[0])]
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))[:k]
    votes = {}
    for i in order:
        votes[int(train_y[i])] = votes.get(int(train_y[i]), 0) + 1
    return max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0]


def oracle_f_scores(X, y):
    """Per-feature one-way ANOVA from the raw sum-of-squares decomposition."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = y.shape[0]
    classes = sorted({int(c) for c in y})
    k = len(classes)
    out = []
    for j in range(X.shape[1]):
        col = X[:, j]
        gm = col.mean()
        ssb = 0.0
        ssw = 0.0
        for c in classes:
            grp = col[y == c]
            ssb += grp.shape[0] * (grp.mean() - gm) ** 2
            ssw += float(((grp - grp.mean()) ** 2).sum())
        msb = ssb / (k - 1)
        msw = ssw / (n - k)
        if col.max() == col.min():
            out.append(0.0)
        elif msw == 0.0:
            out.append(np.inf)
        else:
            out.append(msb / msw)
    return np.array(out)


def forest_bytes(model) -> bytes:
    """The raw bytes of all six arrays of every tree, in tree order: equal forests,
    internal nodes' class counts included, give equal bytes."""
    return b"".join(getattr(tree, name).tobytes() for tree in model.trees
                    for name in ("feature", "threshold", "left", "right", "klass", "counts"))


def count_internal_nodes(model):
    """Recursive traversal of the child indices from each root, independent
    of selection_frequency's count over the feature array."""
    def visit(tree, node):
        if tree.feature[node] < 0:
            return 0
        return 1 + visit(tree, tree.left[node]) + visit(tree, tree.right[node])
    return sum(visit(tree, 0) for tree in model.trees)


def oracle_forest_predict(model, X):
    """Row-by-row walk of the child indices, then a majority vote per row
    with ties to the smallest class id."""
    out = []
    for x in np.asarray(X, dtype=np.float64):
        votes = {}
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                go_left = x[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            votes[int(tree.klass[node])] = votes.get(int(tree.klass[node]), 0) + 1
        out.append(max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0])
    return np.array(out)
