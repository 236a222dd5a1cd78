"""In-memory data model, CSV ingestion, and stratified splitting.

A :class:`Dataset` holds a dense numeric feature matrix, integer class
labels remapped to ``1..k``, and unique feature names.  Instances are
immutable after construction (the underlying arrays are marked read-only)
and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import stream


class CsvFormatError(ValueError):
    """Raised when an input CSV cannot be ingested; names the offending cell."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus class labels.

    ``features`` has shape ``(n_samples, n_features)`` and is stored
    column-major so screening and split-finding can scan one feature at a
    time over contiguous memory.  ``labels`` contains class ids in
    ``1..n_classes``.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        feats = np.asfortranarray(np.asarray(self.features, dtype=np.float64))
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise ValueError("labels must be a vector with one entry per sample")
        if feats.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length must match the feature count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature names must be unique")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite (no NaN/inf)")
        if labels.size and labels.min() < 1:
            raise ValueError("labels must be positive class ids")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        """Largest class id: the bound that sizes per-class count arrays.

        Ids below it may be absent, as in a training fold or a subset."""
        return int(self.labels.max()) if self.labels.size else 0

    def gather(self, rows=None, cols=slice(None)) -> np.ndarray:
        """Column-major ``rows`` of the column slice ``cols``: all rows as a view, else a copy."""
        return self.features[:, cols] if rows is None else np.take(self.features.T[cols], rows, 1).T

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.feature_names == other.feature_names
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.features, other.features)
        )


@dataclass(frozen=True)
class FeatureSubset:
    """Ordered selection of 0-based feature positions, most important first."""

    indices: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        idx = tuple(map(int, self.indices))
        if idx and min(idx) < 0:
            raise ValueError("feature indices must be nonnegative")
        if len(set(idx)) != len(idx):
            raise ValueError("feature indices must be distinct")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def load_csv(path, label_column: str = "label") -> Dataset:
    """Read a UTF-8 comma-separated file into a Dataset.

    The first row is the header; a leading byte-order mark is ignored.  Every
    column except ``label_column`` must parse as a finite float under
    ``float()``; the first violation is reported with its 1-based data row and
    column name.  Labels are remapped to ``1..k`` in order of first occurrence.
    Each data row becomes one float64 array, and the matrix is built from them
    in one column-major copy that :class:`Dataset` keeps without copying again.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        if label_column not in header:
            raise CsvFormatError(f"{path}: label column {label_column!r} not found in header")
        label_pos = header.index(label_column)
        feature_names = tuple(name for i, name in enumerate(header) if i != label_pos)
        if len(set(feature_names)) != len(feature_names):
            raise CsvFormatError(f"{path}: duplicate feature names in header")
        if not feature_names:
            raise CsvFormatError(f"{path}: no feature columns besides {label_column!r}")

        rows: list[np.ndarray] = []
        raw_labels: list[str] = []
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
                )
            raw_labels.append(row.pop(label_pos))
            try:
                values = np.fromiter(map(float, row), np.float64, len(row))
                if not np.isfinite(values).all():
                    raise ValueError
            except ValueError:
                raise _bad_cell(path, row_num, feature_names, row) from None
            rows.append(values)
        if not rows:
            raise CsvFormatError(f"{path}: no data rows")

    features, rows = np.array(rows, order="F"), None  # no rows alive in Dataset's checks
    remap: dict[str, int] = {}
    return Dataset(
        features=features,
        labels=[remap.setdefault(raw, len(remap) + 1) for raw in raw_labels],
        feature_names=feature_names,
    )


def _bad_cell(path, row_num: int, names, cells) -> CsvFormatError:
    """The error naming the first bad cell of a row, in column order."""
    for name, cell in zip(names, cells):
        try:
            kind = None if math.isfinite(float(cell)) else "non-finite"
        except ValueError:
            kind = "non-numeric"
        if kind:
            return CsvFormatError(f"{path}: {kind} value {cell!r} at row {row_num}, column {name}")


def write_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write the standard CSV form: header row, label column first.

    The header goes through ``csv.writer``, which quotes names as needed.
    Each data row is one ``repr`` per float, joined by hand one row at a
    time (no cell needs quoting), so a round-trip through :func:`load_csv`
    reproduces the matrix exactly and no Python copy of the table is built.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow([label_column, *dataset.feature_names])
        for label, row in zip(dataset.labels, dataset.features):
            fh.write(f"{label},{','.join(map(repr, row.tolist()))}\r\n")


def stratified_kfold(dataset: Dataset, folds: int, seed: int):
    """Deterministic stratified split into ``folds`` (train, test) index pairs.

    Per-class test counts across folds differ by at most one.  Every class
    must have at least ``folds`` samples.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    rng = stream(seed, 0x5F01D)
    assignment = np.empty(dataset.n_samples, dtype=np.int64)
    for cls in range(1, dataset.n_classes + 1):
        members = np.flatnonzero(dataset.labels == cls)
        if members.size == 0:
            continue
        if members.size < folds:
            raise ValueError(
                f"class {cls} has {members.size} samples, fewer than folds={folds}"
            )
        members = members[rng.permutation(members.size)]
        for fold_id, chunk in enumerate(np.array_split(members, folds)):
            assignment[chunk] = fold_id
    out = []
    everything = np.arange(dataset.n_samples)
    for fold_id in range(folds):
        test = everything[assignment == fold_id]
        train = everything[assignment != fold_id]
        out.append((train, test))
    return out
