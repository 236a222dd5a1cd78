"""Measurement harness: classifiers, cross-validation, grid search, sweeps.

``cross_validate`` is leak-safe: the screener is fitted on each fold's
training rows only, and both portions are gathered from the table already
reduced.  :func:`grid_search` fits each screener once per fold and shares
the fits across its classifier cells.  The screen-once protocol, the
command-line ``evaluate`` default, is :func:`reduce_full` followed by
:func:`screen_once_report`.  kNN screens neighbours with one matmul per call
and re-scores the rows near its cut exactly.  CPU cost is split into
screening seconds (the reduction fits a cell uses, shared or not) and fitting
seconds (classifier training), both measured as process CPU time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .baselines import PcaModel, kbest_fscore, pca_fit, pca_transform, random_subset
from .data import Dataset, FeatureSubset, stratified_kfold
from .forest import ForestParams, forest_predict_batch, train_forest
from .rfms import ScreeningConfig, screen

SCREENER_NAMES = ("identity", "rfms", "kbest", "pca", "random")
CLASSIFIER_NAMES = ("knn", "rf", "majority")


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
        width = self.config.reduced_size if self.config else self.params.get("n_out", "?")
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


@dataclass(frozen=True)
class FittedScreener:
    """Reduction learned on training rows; applies to any row matrix."""

    selected: FeatureSubset | None = None
    pca: PcaModel | None = None

    @property
    def transforming(self) -> bool:
        return self.pca is not None

    @property
    def n_out(self) -> int:
        if self.pca is not None:
            return self.pca.n_components
        return len(self.selected)

    def view(self, dataset: Dataset) -> Dataset:
        """The reduced dataset: the selected columns, or PCA scores named ``pc1..``."""
        if self.pca is None:
            return dataset.select_features(self.selected.indices)
        return Dataset(features=pca_transform(self.pca, dataset.features),
                       labels=dataset.labels,
                       feature_names=tuple(f"pc{i + 1}" for i in range(self.n_out)))


def fit_screener(spec: ScreenerSpec, train: Dataset) -> FittedScreener:
    """Fit the screener named by ``spec`` on training data only.

    rfms screens with the spec's ``ScreeningConfig`` unchanged and fails if a
    canary survives."""
    p = spec.params
    if spec.name == "identity":
        return FittedScreener(selected=FeatureSubset(tuple(range(train.n_features))))
    if spec.config is not None:
        result = screen(train, spec.config)
        if result.leak_count:
            raise RuntimeError(
                f"screen selected {result.leak_count} canary feature(s); "
                "cannot reduce to original columns"
            )
        return FittedScreener(selected=result.selected)
    n_out = int(p["n_out"])
    if spec.name == "kbest":
        return FittedScreener(selected=kbest_fscore(train, n_out))
    if spec.name == "random":
        return FittedScreener(selected=random_subset(train.n_features, n_out,
                                                     int(p.get("seed", 20230125))))
    return FittedScreener(pca=pca_fit(train, n_out))


def knn_predict(train: Dataset, query, k: int) -> int:
    """Majority label among the k nearest training rows (Euclidean).

    Distance ties resolve to the smaller training index, vote ties to the
    smaller class id.  A query holding NaN or inf is rejected.
    """
    q = np.asarray(query, dtype=np.float64)
    if q.shape != (train.n_features,):
        raise ValueError(f"expected a vector of length {train.n_features}")
    return int(fit_classifier(ClassifierSpec("knn", {"k": k}), train.features, train.labels,
                              train.n_classes).predict(q[None, :])[0])


def _knn_batch(train_X, train_y, queries, k, n_classes) -> np.ndarray:
    # Screen: one matmul gives the proxy |q|^2 + |x|^2 - 2 q.x, within tol of the
    # exact distance (the sum of diff*diff over one row) in any summation order
    # by Higham's gamma_d bound.  Rows within 2 tol of the k-th proxy, or whose
    # proxy or cut overflowed, are re-scored exactly; ties go to the lower row.
    if not np.isfinite(queries).all():
        raise ValueError("kNN query holds a non-finite value (NaN or inf)")
    with np.errstate(over="ignore", invalid="ignore"):
        q_sq, x_sq = (np.einsum("ij,ij->i", m, m) for m in (queries, train_X))
        proxy = q_sq[:, None] + x_sq - 2.0 * (queries @ train_X.T)
        tol = 4 * (train_X.shape[1] + 1) * np.finfo(np.float64).eps * (q_sq + x_sq.max())
        cut = np.partition(proxy, k - 1, axis=1)[:, k - 1] + 2.0 * tol
    keep = (proxy <= np.where(np.isfinite(cut), cut, np.inf)[:, None]) | ~np.isfinite(proxy)
    out = np.empty(queries.shape[0], dtype=np.int64)
    for i, q in enumerate(queries):
        rows = np.flatnonzero(keep[i])
        diffs = train_X[rows]  # (x - q)**2 has the bits of (q - x)**2
        dist2 = np.sum(np.square(np.subtract(diffs, q, out=diffs), out=diffs), axis=1)
        nearest = train_y[rows[np.argsort(dist2, kind="stable")[:k]]]
        out[i] = np.argmax(np.bincount(nearest, minlength=n_classes + 1))
    return out


def fit_classifier(spec: ClassifierSpec, train_X: np.ndarray, train_y: np.ndarray,
                   n_classes: int) -> SimpleNamespace:
    """A fitted classifier: an object whose ``predict`` maps rows to labels."""
    if spec.name == "majority":
        klass = int(np.argmax(np.bincount(train_y, minlength=n_classes + 1)))
        return SimpleNamespace(predict=lambda X: np.full(X.shape[0], klass, dtype=np.int64))
    if spec.name == "knn":
        k = int(spec.params["k"])
        if not 1 <= k <= train_X.shape[0]:
            raise ValueError(f"knn k must be in 1..{train_X.shape[0]}")
        X = np.array(train_X, dtype=np.float64)
        y = np.array(train_y, dtype=np.int64)
        return SimpleNamespace(
            predict=lambda Q: _knn_batch(X, y, np.asarray(Q, dtype=np.float64), k, n_classes))
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


def _timed_fit(screener: ScreenerSpec, train: Dataset) -> tuple[FittedScreener, float]:
    """``fit_screener`` and its CPU seconds; the identity screener costs exactly 0."""
    t0 = time.process_time()
    fitted = fit_screener(screener, train)
    return fitted, 0.0 if screener.name == "identity" else time.process_time() - t0


def _fit_folds(dataset: Dataset, screener: ScreenerSpec, folds_idx) -> list:
    """One ``(FittedScreener, screening CPU seconds)`` per fold, fitted on its training rows."""
    fits = []
    for train_rows, _ in folds_idx:
        labels = dataset.labels[train_rows]
        if labels.min() == labels.max():
            raise ValueError("a training fold holds a single class; cross-validation needs 2")
        train = Dataset(features=dataset.features[train_rows], labels=labels,
                        feature_names=dataset.feature_names)
        fits.append(_timed_fit(screener, train))
    return fits


def cross_validate(dataset: Dataset, screener: ScreenerSpec, classifier: ClassifierSpec,
                   folds: int = 5, seed: int = 20230125, folds_idx=None, *,
                   fits=None) -> ReportEntry:
    """Fold-internal screening and classification; returns the cell entry.

    The screener only ever sees training rows, so the reported accuracy is
    free of selection leakage.  ``fits``, one ``(FittedScreener, cpu_s)`` per
    fold of ``folds_idx``, lets :func:`grid_search` share a screener's fits
    across its classifier cells; without it the folds are fitted here.  A
    cell's ``screening_cpu_s`` is the CPU time of its fits, so cells sharing
    fits report the same figure; the identity screener reports exactly 0.
    """
    if folds_idx is None:
        folds_idx = stratified_kfold(dataset, folds, seed)
    if fits is None:
        fits = _fit_folds(dataset, screener, folds_idx)
    accuracies = []
    fitting_cpu = 0.0
    n_out = dataset.n_features
    for (train_rows, test_rows), (fitted, _) in zip(folds_idx, fits, strict=True):
        n_out = fitted.n_out
        if fitted.pca is None:
            train_X, test_X = (dataset.features[np.ix_(rows, fitted.selected.indices)]
                               for rows in (train_rows, test_rows))
        else:
            train_X, test_X = (pca_transform(fitted.pca, dataset.features[rows])
                               for rows in (train_rows, test_rows))
        t0 = time.process_time()
        clf = fit_classifier(classifier, train_X, dataset.labels[train_rows], dataset.n_classes)
        fitting_cpu += time.process_time() - t0
        predictions = clf.predict(test_X)
        accuracies.append(float(np.mean(predictions == dataset.labels[test_rows])))
    return ReportEntry(
        screener_id=screener.label(),
        classifier_id=classifier.label(),
        n_features_out=n_out,
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        screening_cpu_s=sum(cpu for _, cpu in fits),
        fitting_cpu_s=fitting_cpu,
    )


def reduce_full(dataset: Dataset, screener: ScreenerSpec):
    """Screen-once protocol: fit on the whole table; returns (view, fitted, cpu_s).

    The view is the reduced table of all rows; ``cpu_s`` is the screening
    CPU time, measured here so downstream cells can report it.
    """
    fitted, cpu = _timed_fit(screener, dataset)
    return fitted.view(dataset), fitted, cpu


def grid_search(dataset: Dataset, screener_grid, classifier_grid,
                folds: int = 5, seed: int = 20230125) -> EvaluationReport:
    """Exhaustive Cartesian sweep; best cell = highest mean accuracy.

    Ties keep the earliest cell in grid order (screeners outer, classifiers
    inner), so the result is deterministic.  One fold split serves every
    cell.  Each screener is fitted once per fold and the fits are shared by
    its classifier cells, so a PCA screener holds one ``PcaModel`` per fold
    (p x n_out floats each) while they run.
    """
    screener_grid = list(screener_grid)
    classifier_grid = list(classifier_grid)
    if not screener_grid or not classifier_grid:
        raise ValueError("parameter grid must be non-empty")
    folds_idx = stratified_kfold(dataset, folds, seed)
    entries = []
    for s_spec in screener_grid:
        fits = _fit_folds(dataset, s_spec, folds_idx)
        entries += [cross_validate(dataset, s_spec, c_spec, folds_idx=folds_idx, fits=fits)
                    for c_spec in classifier_grid]
    # Highest mean accuracy; max() keeps the earliest of tied cells.
    best = max(range(len(entries)), key=lambda i: entries[i].mean_accuracy)
    return EvaluationReport(entries=tuple(entries), best_index=best)


def screen_once_report(reduced: Dataset, screener_id: str, screening_cpu_s: float,
                       classifier_grid, folds: int = 5, seed: int = 20230125) -> EvaluationReport:
    """Screen-once protocol: cross-validate classifiers on an already-reduced view.

    ``reduced`` is the whole table after one screen: this is
    :func:`grid_search` with the identity screener, its cells reported under
    ``screener_id`` with that screen's ``screening_cpu_s``.
    """
    report = grid_search(reduced, [ScreenerSpec("identity")], classifier_grid, folds, seed)
    return replace(report, entries=tuple(
        replace(e, screener_id=screener_id, screening_cpu_s=screening_cpu_s)
        for e in report.entries))


@dataclass(frozen=True)
class SweepRow:
    n_features_out: int
    best_accuracy: float
    best_classifier_id: str
    screening_cpu_s: float
    fitting_cpu_s: float


def convergence_sweep(dataset: Dataset, screener: ScreenerSpec, classifier_grid,
                      counts, folds: int = 5, seed: int = 20230125,
                      leak_safe: bool = False) -> list[SweepRow]:
    """Best accuracy as a function of the number of screened features.

    One row per requested count.  By default each count screens the whole
    table once and cross-validates classifiers on the reduced view;
    ``leak_safe=True`` re-screens inside every fold instead.
    """
    classifier_grid = list(classifier_grid)
    if not classifier_grid:
        raise ValueError("classifier grid must be non-empty")
    counts = [int(c) for c in counts]
    if any(c < 1 or c > dataset.n_features for c in counts):
        raise ValueError(f"counts must be in 1..{dataset.n_features}")
    rows = []
    for count in counts:
        spec = screener.with_n_out(count)
        if leak_safe:
            report = grid_search(dataset, [spec], classifier_grid, folds=folds, seed=seed)
        else:
            reduced, _, screening_cpu = reduce_full(dataset, spec)
            report = screen_once_report(reduced, spec.label(), screening_cpu, classifier_grid,
                                        folds=folds, seed=seed)
        best = report.best
        rows.append(SweepRow(
            n_features_out=count,
            best_accuracy=best.mean_accuracy,
            best_classifier_id=best.classifier_id,
            screening_cpu_s=best.screening_cpu_s,
            fitting_cpu_s=best.fitting_cpu_s,
        ))
    return rows
