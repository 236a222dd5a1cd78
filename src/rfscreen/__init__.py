"""Multiround random-forest feature screening for wide multiclass tables.

The package screens ultra-wide feature spaces by walking them in chunks:
each round ranks the current chunk plus the previous round's survivors
with a random forest (importance = selection frequency) and carries the
best features forward.  It ships with baseline screeners, a synthetic
blended-feature generator with ground-truth provenance, and a measurement
harness for cross-validated accuracy and CPU-time reporting.
"""

from .baselines import PcaModel, f_scores, kbest_fscore, pca_fit, pca_transform, random_subset
from .data import CsvFormatError, Dataset, FeatureSubset, load_csv, stratified_kfold, write_csv
from .evaluate import (ClassifierSpec, EvaluationReport, ReportEntry, ScreenerSpec,
                       SweepRow, convergence_sweep, cross_validate, fit_screener,
                       grid_search, screen_once_report)
from .forest import (ForestModel, ForestParams, Tree, forest_predict_batch,
                     selection_frequency, train_forest)
from .rfms import RoundRecord, ScreeningConfig, ScreeningResult, canary_block, screen
from .synth import GeneratorConfig, Provenance, generate, truth_overlap

__version__ = "0.1.0"

__all__ = [
    "ClassifierSpec", "CsvFormatError", "Dataset", "EvaluationReport", "FeatureSubset",
    "ForestModel", "ForestParams", "GeneratorConfig", "PcaModel", "Provenance",
    "ReportEntry", "RoundRecord", "ScreenerSpec", "ScreeningConfig", "ScreeningResult",
    "SweepRow", "Tree", "canary_block",
    "convergence_sweep", "cross_validate", "f_scores", "fit_screener",
    "forest_predict_batch", "generate",
    "grid_search", "kbest_fscore", "load_csv",
    "pca_fit", "pca_transform", "random_subset",
    "screen", "screen_once_report", "selection_frequency",
    "stratified_kfold", "train_forest", "truth_overlap", "write_csv",
]
