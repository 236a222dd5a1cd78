"""Measurement harness: classifiers, cross-validation, grid search, sweeps.

A fold is a pair of row-index arrays over the one table, from which it gathers
its screened columns once.  ``cross_validate`` is leak-safe: the screener is
fitted on a fold's training rows only.  :func:`grid_search` fits each screener
once per fold and shares the fits across its classifier cells; all of them share
each fold's gather, and its kNN cells one neighbour search per fold.  The
screen-once protocol, the command-line ``evaluate`` default, is :func:`fit_screener`
on the whole table and :func:`screen_once_report`, where that one fit serves
every fold.  kNN screens neighbours with one matmul and re-scores the rows near
its cut exactly.  CPU cost is split into screening seconds (the reduction fits a
cell uses, shared or not) and fitting seconds (classifier training), both
measured as the CPU time of the process and of its forest workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .baselines import PcaModel, kbest_fscore, pca_fit, pca_transform, random_subset
from .data import Dataset, FeatureSubset, stratified_kfold
from .forest import ForestParams, _cpu_seconds, _vote, forest_predict_batch, train_forest
from .rfms import ScreeningConfig, screen
from .rng import DEFAULT_SEED

SCREENER_NAMES = ("identity", "rfms", "kbest", "pca", "random")
CLASSIFIER_NAMES = ("knn", "rf", "majority")
_RESCORE_ELEMENTS = 1 << 15  # a chunk of the exact kNN re-score gathers about this many floats
_GATHER_BYTES = 1 << 18  # a fold gather copies column blocks of about this many bytes


@dataclass(frozen=True)
class ScreenerSpec:
    """Named screener family plus its knobs.

    An rfms spec holds exactly one ``ScreeningConfig`` in ``config`` and no
    ``params``; its width is the config's ``reduced_size``.  The other
    screeners keep their output width under ``params["n_out"]``, and random
    also reads ``params["seed"]``.
    """

    name: str
    params: dict = field(default_factory=dict)
    config: ScreeningConfig | None = None

    def __post_init__(self):
        if self.name not in SCREENER_NAMES:
            raise ValueError(f"unknown screener {self.name!r}")
        if (self.name == "rfms") != (self.config is not None) or (self.config and self.params):
            raise ValueError("an rfms spec holds one ScreeningConfig and nothing else")

    def with_n_out(self, n_out: int) -> "ScreenerSpec":
        if self.config is not None:
            return replace(self, config=replace(self.config, reduced_size=n_out))
        return replace(self, params={**self.params, "n_out": n_out})

    def label(self) -> str:
        if self.name == "identity":
            return "identity"
        width = self.config.reduced_size if self.config else self.params["n_out"]
        return f"{self.name}({width})"


@dataclass(frozen=True)
class ClassifierSpec:
    """Named classifier plus its knobs: an rf spec holds one ``ForestParams`` in
    ``forest`` and nothing else, and a knn spec reads ``params["k"]``."""

    name: str
    params: dict = field(default_factory=dict)
    forest: ForestParams | None = None

    def __post_init__(self):
        if self.name not in CLASSIFIER_NAMES:
            raise ValueError(f"unknown classifier {self.name!r}")
        if (self.name == "rf") != (self.forest is not None) or (self.forest and self.params):
            raise ValueError("an rf spec holds one ForestParams and nothing else")
        if self.name == "knn" and "k" not in self.params:
            raise ValueError("a knn spec needs params['k']")

    def label(self) -> str:
        if self.name == "knn":
            return f"knn(k={self.params['k']})"
        if self.forest is not None:
            return f"rf(n_trees={self.forest.n_trees})"
        return "majority"


def fit_screener(spec: ScreenerSpec, dataset: Dataset, rows=None) -> FeatureSubset | PcaModel:
    """Fit the screener named by ``spec`` on the table's ``rows`` only (all by default),
    building no table of them: the fit is the reduction itself, a ``PcaModel`` for pca
    and a ``FeatureSubset`` for the others, its width ``len(fit)``.  rfms screens with
    the spec's ``ScreeningConfig`` unchanged and fails if a canary survives."""
    p = spec.params
    if spec.name == "identity":
        return FeatureSubset(tuple(range(dataset.n_features)))
    if spec.config is not None:
        result = screen(dataset, spec.config, rows)
        if result.leak_count:
            raise RuntimeError(
                f"screen selected {result.leak_count} canary feature(s); "
                "cannot reduce to original columns"
            )
        return result.selected
    if "n_out" not in p:
        raise ValueError(f"a {spec.name} spec needs params['n_out'] to be fitted")
    n_out = int(p["n_out"])
    if spec.name == "kbest":
        return kbest_fscore(dataset, n_out, rows)
    if spec.name == "random":
        if "seed" not in p:
            raise ValueError("a random spec needs params['seed'] to be fitted")
        return random_subset(dataset.n_features, n_out, int(p["seed"]))
    return pca_fit(dataset, n_out, rows)


def _neighbours(train_X, train_y, queries, k) -> np.ndarray:
    """Labels of each query's ``k`` nearest training rows, nearest first."""
    # Screen: one matmul gives the proxy |q|^2 + |x|^2 - 2 q.x, within tol of the
    # exact distance (the sum of diff*diff over one row) in any summation order
    # by Higham's gamma_d bound.  Rows within 2 tol of the k-th proxy, or whose
    # proxy or cut overflowed, are kept.  Every kept (query, row) pair is re-scored
    # exactly over C-order row copies, in chunks, and one stable lexsort orders each
    # query's pairs; ties go to the lower row.  A larger k keeps a superset of rows,
    # so the first j columns are the j-NN.
    if not np.isfinite(queries).all():
        raise ValueError("kNN query holds a non-finite value (NaN or inf)")
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq, x_sq = (np.einsum("ij,ij->i", m, m) for m in (queries, train_X))
        proxy = q_sq[:, None] + x_sq - 2.0 * (queries @ train_X.T)
        tol = 4 * (train_X.shape[1] + 1) * np.finfo(np.float64).eps * (q_sq + x_sq.max())
        cut = np.partition(proxy, k - 1, axis=1)[:, k - 1] + 2.0 * tol
    keep = (proxy <= np.where(np.isfinite(cut), cut, np.inf)[:, None]) | ~np.isfinite(proxy)
    query, rows = np.nonzero(keep)
    dist2 = np.empty(rows.size)
    step = max(1, _RESCORE_ELEMENTS // train_X.shape[1])
    for s in range(0, rows.size, step):
        diffs = train_X[rows[s:s + step]]  # (x - q)**2 has the bits of (q - x)**2
        diffs -= queries[query[s:s + step]]
        dist2[s:s + step] = np.sum(np.square(diffs, out=diffs), axis=1)
    nearest = rows[np.lexsort((dist2, query))]
    first = np.searchsorted(query, np.arange(queries.shape[0]))  # each query's nearest pair
    return train_y[nearest[first[:, None] + np.arange(k)]]


def fit_classifier(spec: ClassifierSpec, train_X: np.ndarray,
                   train_y: np.ndarray) -> SimpleNamespace:
    """A fitted classifier: an object whose ``predict`` maps rows to labels.  kNN keeps
    the caller's float64 ``train_X`` itself, and its ``neighbours`` maps rows to the
    labels of their ``k`` nearest training rows, nearest first."""
    if spec.name == "majority":
        klass = int(_vote(np.asarray(train_y)[None, :])[0])
        return SimpleNamespace(predict=lambda X: np.full(X.shape[0], klass, dtype=np.int64))
    if spec.name == "knn":
        k = int(spec.params["k"])
        if not 1 <= k <= train_X.shape[0]:
            raise ValueError(f"knn k must be in 1..{train_X.shape[0]}")
        X = np.asarray(train_X, dtype=np.float64)
        y = np.asarray(train_y, dtype=np.int64)
        # predict calls this closure, not clf.neighbours: a self-referring namespace
        # would keep X alive after ``del clf``
        def neighbours(Q):
            return _neighbours(X, y, np.asarray(Q, dtype=np.float64), k)
        return SimpleNamespace(neighbours=neighbours, predict=lambda Q: _vote(neighbours(Q)))
    width = train_X.shape[1]
    train = Dataset(features=train_X, labels=train_y,
                    feature_names=tuple(f"c{i}" for i in range(width)))
    model = train_forest(train, replace(spec.forest,
                                        n_subfeatures=min(spec.forest.n_subfeatures, width)))
    return SimpleNamespace(predict=lambda X: forest_predict_batch(model, X))


@dataclass(frozen=True)
class ReportEntry:
    """One measured cell: a (screener, classifier, output width) triple."""

    screener_id: str
    classifier_id: str
    n_features_out: int
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    screening_cpu_s: float
    fitting_cpu_s: float


@dataclass(frozen=True)
class EvaluationReport:
    entries: tuple[ReportEntry, ...]
    best_index: int

    @property
    def best(self) -> ReportEntry:
        return self.entries[self.best_index]


def _timed(fit, *args) -> tuple:
    """``fit(*args)`` and its CPU seconds, forest workers' included."""
    t0 = _cpu_seconds()
    return fit(*args), _cpu_seconds() - t0


def _timed_fit(screener: ScreenerSpec, dataset: Dataset, rows=None) -> tuple:
    """``fit_screener`` and its CPU seconds; the identity screener costs exactly 0."""
    fit, cpu = _timed(fit_screener, screener, dataset, rows)
    return fit, 0.0 if screener.name == "identity" else cpu


def _fit_folds(dataset: Dataset, screener: ScreenerSpec, folds_idx, whole=None) -> list:
    """One ``(fit, screening CPU seconds)`` per fold, fitted on its training rows;
    a whole-table fit ``whole``, as the identity screener's one fit, serves every fold
    instead, its CPU seconds counted on the first.  Every fold is checked for one class."""
    if whole is None and screener.name == "identity":
        whole = _timed_fit(screener, dataset)
    fits = []
    for train_rows, _ in folds_idx:
        if np.ptp(dataset.labels[train_rows]) == 0:
            raise ValueError("a training fold holds a single class; cross-validation needs 2")
        fits.append(_timed_fit(screener, dataset, train_rows) if whole is None
                    else (whole[0], 0.0) if fits else whole)
    return fits


def _gather(features: np.ndarray, rows, cols) -> np.ndarray:
    """``features[np.ix_(rows, cols)]`` as a C-order matrix, copied from whole columns
    of the column-major table one block of about ``_GATHER_BYTES`` at a time."""
    out = np.empty((len(rows), len(cols)))
    step = max(1, _GATHER_BYTES // (8 * features.shape[0]))
    for j in range(0, len(cols), step):
        out[:, j:j + step] = features[:, cols[j:j + step]][rows]
    return out


def _fold_pass(dataset: Dataset, classifiers, folds_idx, fits) -> list:
    """Per classifier, one ``(test labels, fitting cpu_s)`` per fold: each fold is
    gathered once for all of them by :func:`_gather` and freed before the next, and
    the kNN ones vote over prefixes of one neighbour search at their largest ``k``,
    sharing that fit's CPU time."""
    widest = max((c for c in classifiers if c.name == "knn"), default=None,
                 key=lambda c: int(c.params["k"]))
    out = [[] for _ in classifiers]
    for (train_rows, test_rows), (fit, _) in zip(folds_idx, fits, strict=True):
        train_X, test_X = (pca_transform(fit, dataset.features[rows]) if isinstance(fit, PcaModel)
                           else _gather(dataset.features, rows, fit.indices)
                           for rows in (train_rows, test_rows))
        train = (train_X, dataset.labels[train_rows])
        if widest is not None:
            clf, knn_cpu = _timed(fit_classifier, widest, *train)
            nearest = clf.neighbours(test_X)
        for spec, cells in zip(classifiers, out):
            if spec.name == "knn":
                cells.append((_vote(nearest[:, :int(spec.params["k"])]), knn_cpu))
            else:
                clf, cpu = _timed(fit_classifier, spec, *train)
                cells.append((clf.predict(test_X), cpu))
        del train_X, test_X, train, clf  # free this fold's matrices before the next gather
    return out


def cross_validate(dataset: Dataset, screener: ScreenerSpec, classifier: ClassifierSpec,
                   folds: int = 5, seed: int = DEFAULT_SEED, folds_idx=None, *,
                   fits=None, predictions=None) -> ReportEntry:
    """Fold-internal screening and classification; returns the cell entry.

    The screener only ever sees training rows, so the reported accuracy is
    free of selection leakage.  :func:`grid_search` shares work across cells
    through ``fits``, one ``(fit, cpu_s)`` per fold of ``folds_idx``,
    and ``predictions``, one ``(test labels, fitting cpu_s)`` per fold; without
    them the folds are fitted here and the fold pass runs for this classifier
    alone, one fold's matrices at a time.  A cell's ``screening_cpu_s`` is the
    CPU time of its fits, so cells sharing fits report the same figure; the
    identity screener reports exactly 0.
    """
    if folds_idx is None:
        folds_idx = stratified_kfold(dataset, folds, seed)
    if fits is None:
        fits = _fit_folds(dataset, screener, folds_idx)
    if predictions is None:
        predictions = _fold_pass(dataset, [classifier], folds_idx, fits)[0]
    accuracies = [float(np.mean(labels == dataset.labels[test_rows]))
                  for (_, test_rows), (labels, _) in zip(folds_idx, predictions, strict=True)]
    return ReportEntry(
        screener_id=screener.label(),
        classifier_id=classifier.label(),
        n_features_out=len(fits[-1][0]),
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        screening_cpu_s=sum(cpu for _, cpu in fits),
        fitting_cpu_s=sum(cpu for _, cpu in predictions),
    )


def grid_search(dataset: Dataset, screener_grid, classifier_grid,
                folds: int = 5, seed: int = DEFAULT_SEED) -> EvaluationReport:
    """Exhaustive Cartesian sweep; best cell = highest mean accuracy.

    Ties keep the earliest cell in grid order (screeners outer, classifiers
    inner), so the result is deterministic.  One fold split of row sets serves
    every cell.  Each screener is fitted once per fold and the fits are shared
    by its classifier cells, so a PCA screener holds one ``PcaModel`` per fold
    (p x n_out floats each) while they run.  All its cells then share one fold
    pass, with one gather and one neighbour search at the largest ``k`` per
    fold, before any cell is measured.  Every cell is measured by
    :func:`cross_validate`, in grid order, as are those of
    :func:`screen_once_report` and :func:`convergence_sweep`.
    """
    screener_grid = list(screener_grid)
    classifier_grid = list(classifier_grid)
    if not screener_grid or not classifier_grid:
        raise ValueError("parameter grid must be non-empty")
    folds_idx = stratified_kfold(dataset, folds, seed)
    entries = []
    for s_spec in screener_grid:
        fits = _fit_folds(dataset, s_spec, folds_idx)
        entries += _screener_cells(dataset, s_spec, classifier_grid, folds_idx, fits)
    return _report(entries)


def _report(entries) -> EvaluationReport:
    """The cells and the best of them: the highest mean accuracy, the earliest of tied cells."""
    entries = tuple(entries)
    best = max(range(len(entries)), key=lambda i: entries[i].mean_accuracy)  # max keeps the first
    return EvaluationReport(entries=entries, best_index=best)


def _screener_cells(dataset: Dataset, s_spec: ScreenerSpec, classifiers, folds_idx, fits) -> list:
    """One screener's cells over its fold ``fits``, measured by :func:`cross_validate`
    in grid order after one fold pass shared by all of them."""
    passes = _fold_pass(dataset, classifiers, folds_idx, fits)
    return [cross_validate(dataset, s_spec, c, folds_idx=folds_idx, fits=fits, predictions=p)
            for c, p in zip(classifiers, passes, strict=True)]


def screen_once_report(dataset: Dataset, fit: FeatureSubset | PcaModel, screener_id: str,
                       screening_cpu_s: float, classifier_grid, folds: int = 5,
                       seed: int = DEFAULT_SEED) -> EvaluationReport:
    """Screen-once protocol: cross-validate classifiers over ``fit``, fitted on every
    row of ``dataset`` in ``screening_cpu_s``, its cells reported under ``screener_id``.

    That one fit serves every fold, and each fold gathers its rows of the selected
    columns from the one table: no reduced table is built.  A PCA fit projects the
    whole table once (n_samples x n_out floats) and runs over those scores."""
    classifier_grid = list(classifier_grid)
    if not classifier_grid:
        raise ValueError("parameter grid must be non-empty")
    if isinstance(fit, PcaModel):
        dataset = Dataset(pca_transform(fit, dataset.features), dataset.labels,
                          tuple(f"pc{i + 1}" for i in range(len(fit))))
        fit = FeatureSubset(tuple(range(len(fit))))
    identity = ScreenerSpec("identity")
    folds_idx = stratified_kfold(dataset, folds, seed)
    fits = _fit_folds(dataset, identity, folds_idx, (fit, screening_cpu_s))
    return _report(replace(e, screener_id=screener_id)
                   for e in _screener_cells(dataset, identity, classifier_grid, folds_idx, fits))


@dataclass(frozen=True)
class SweepRow:
    n_features_out: int
    best_accuracy: float
    best_classifier_id: str
    screening_cpu_s: float
    fitting_cpu_s: float


def convergence_sweep(dataset: Dataset, screener: ScreenerSpec, classifier_grid,
                      counts, folds: int = 5, seed: int = DEFAULT_SEED,
                      leak_safe: bool = False) -> list[SweepRow]:
    """Best accuracy as a function of the number of screened features.

    One row per requested count.  By default the whole table is screened and
    :func:`screen_once_report` cross-validates each count's fit; ``leak_safe=True``
    screens inside every fold of one split instead.  A k-best screen is fitted
    once (per fold when leak-safe) at the widest count and each count keeps a
    prefix of its ranking, so every count reports that fit's ``screening_cpu_s``;
    the other screeners are fitted per count.
    """
    classifier_grid = list(classifier_grid)
    if not classifier_grid:
        raise ValueError("classifier grid must be non-empty")
    counts = [int(c) for c in counts]
    if any(c < 1 or c > dataset.n_features for c in counts):
        raise ValueError(f"counts must be in 1..{dataset.n_features}")
    folds_idx = stratified_kfold(dataset, folds, seed) if leak_safe else None
    def fit(spec):
        return _fit_folds(dataset, spec, folds_idx) if leak_safe else [_timed_fit(spec, dataset)]
    # kbest's top k is a prefix of one ranking.  The others fit per count: an rfms screen, random's
    # choice(n, k) draws and pca's Gram-regime projection and rank check all change with the width.
    widest = fit(screener.with_n_out(max(counts))) if screener.name == "kbest" else None
    rows = []
    for count in counts:
        spec = screener.with_n_out(count)
        fits = fit(spec) if widest is None else [(FeatureSubset(f.indices[:count]), cpu)
                                                 for f, cpu in widest]
        best = (_report(_screener_cells(dataset, spec, classifier_grid, folds_idx, fits))
                if leak_safe else screen_once_report(dataset, fits[0][0], spec.label(), fits[0][1],
                                                     classifier_grid, folds, seed)).best
        rows.append(SweepRow(count, best.mean_accuracy, best.classifier_id,
                             best.screening_cpu_s, best.fitting_cpu_s))
    return rows
