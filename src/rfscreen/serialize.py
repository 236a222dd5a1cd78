"""JSON and CSV emission for screening results and evaluation reports.

Documents carry ``schema_version`` 1.  Feature ids are reported 1-based;
internal arrays are 0-based.  Apart from the ``timing`` block, a document
is byte-stable for identical inputs (keys are sorted, floats use repr).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .baselines import PcaModel
from .evaluate import EvaluationReport, ReportEntry, SweepRow
from .rfms import ScreeningResult

SCHEMA_VERSION = 1


def dumps(document: dict) -> str:
    """The document's JSON text; a numpy array or ``np.int64`` in it raises ``TypeError``."""
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_json(document: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(document))


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def envelope(screener: dict, dataset_meta: dict, selected_ids, names, wall_s: float,
             cpu_s: float, canary_ids=(), transforming: bool = False, **extra) -> dict:
    """The ``screening_result`` document shared by every screener.

    With canaries, the ``canaries`` block lists the selected ids that are
    canaries, in selection order.
    """
    canaries = set(canary_ids)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "screening_result",
        "screener": screener,
        "dataset": dataset_meta,
        "transforming": transforming,
        "selected": [{"id": i + 1, "name": names[i], "is_canary": i in canaries}
                     for i in selected_ids],
        "timing": {"wall_s": wall_s, "cpu_s": cpu_s},
        **extra,
    }
    if canary_ids:
        leaked = [i + 1 for i in selected_ids if i in canaries]
        doc["canaries"] = {
            "ids": [i + 1 for i in canary_ids],
            "leak_count": len(leaked),
            "leaked_ids": leaked,
        }
    return doc


def screening_document(result: ScreeningResult) -> dict:
    """Full multiround screening result, rounds and permutation included."""
    cfg = result.config
    forest = dataclasses.asdict(cfg.forest)
    del forest["seed"], forest["n_workers"]  # rounds derive seeds; workers change no bit
    return envelope(
        {"name": "rfms", "step_size": cfg.step_size, "reduced_size": cfg.reduced_size,
         **forest, "n_canaries": cfg.n_canaries, "random_state": cfg.seed},
        {
            "n_samples": result.n_samples,
            "n_features": result.n_features_input,
            "n_classes": result.n_classes,
        },
        result.selected.indices, result.feature_names, result.wall_time_s,
        result.cpu_time_s, result.canary_ids,
        rounds=[
            {
                "round": r.round_index,
                "chunk_ids": [i + 1 for i in r.chunk_ids],
                "carried_ids": [i + 1 for i in r.carried_ids],
                "pool_ids": [i + 1 for i in r.pool_ids],
                "importance": list(r.importance),
                "selected_ids": [i + 1 for i in r.selected_ids],
            }
            for r in result.rounds
        ],
        permutation=[i + 1 for i in result.permutation],
    )


def pca_document(screener: dict, model: PcaModel, dataset_meta: dict, wall_s: float,
                 cpu_s: float) -> dict:
    """Envelope for the transforming screener; the model rides along."""
    names = [f"pc{i + 1}" for i in range(model.n_components)]
    return envelope(
        screener, dataset_meta, range(model.n_components), names, wall_s, cpu_s,
        transforming=True,
        model={
            "mean": model.mean.tolist(),
            "components": model.components.T.tolist(),
            "eigenvalues": model.eigenvalues.tolist(),
        },
    )


def pca_model_from_document(doc: dict) -> PcaModel:
    model = doc["model"]
    components = np.array(model["components"], dtype=np.float64).T
    return PcaModel(
        mean=np.array(model["mean"], dtype=np.float64),
        components=components,
        eigenvalues=np.array(model["eigenvalues"], dtype=np.float64),
    )


def _block(record: ReportEntry | SweepRow) -> dict:
    """A report entry or sweep row as JSON: its fields, ``_id`` dropped from the names."""
    return {key.removesuffix("_id"): value for key, value in dataclasses.asdict(record).items()}


def report_document(report: EvaluationReport, folds: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "evaluation_report",
        "folds": folds,
        "entries": [_block(e) for e in report.entries],
        "best": _block(report.best),
    }


def sweep_document(rows: list[SweepRow], screener_label: str, folds: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "convergence_sweep",
        "screener": screener_label,
        "folds": folds,
        "rows": [_block(r) for r in rows],
    }


def records_csv(records) -> str:
    """Report entries or sweep rows as CSV: the ``_block`` keys as the header, one
    line per record, and the tuple field ``fold_accuracies`` left out."""
    blocks = [{k: v for k, v in _block(r).items() if not isinstance(v, tuple)} for r in records]
    return "".join(",".join(map(str, line)) + "\n"
                   for line in [list(blocks[0]), *(b.values() for b in blocks)])
