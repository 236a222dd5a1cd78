"""In-memory data model, CSV ingestion, and stratified splitting.

A :class:`Dataset` holds a dense numeric feature matrix, integer class
labels remapped to ``1..k``, and unique feature names.  Instances are
immutable after construction (the underlying arrays are marked read-only)
and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import pickle
import shutil
import tempfile
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


def _parts(n: int, n_workers: int) -> list[range]:
    """``range(n)`` cut into one contiguous part per worker: at most ``n_workers``, ``n``
    and the usable CPUs, and one where ``os.fork`` is missing."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    w = max(1, min(n_workers, n, cpus or 1)) if hasattr(os, "fork") else 1
    return [range(n * i // w, n * (i + 1) // w) for i in range(w)]


def _fork_map(work, parts, failed=lambda part, exc: exc) -> list:
    """``[work(part) for part in parts]``: part 0 in the caller, each other in a forked child
    that pickles back its result or exception, which the caller raises as ``failed(part, exc)``.
    ``work`` may make no BLAS call, which BLAS threads that fork left behind could block.
    A ``finally`` kills and reaps every child."""
    children = []  # (pid, reader, part) of each forked child
    try:
        for part in parts[1:]:
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child runs its part and never returns
                try:
                    try:
                        result = work(part)
                    except Exception as exc:
                        result = exc
                    with os.fdopen(write, "wb") as fh:
                        pickle.dump(result, fh)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb"), part))
        results = [work(parts[0])]
        for _, reader, part in children:  # EOF: the child has sent all it will
            result = pickle.load(reader) if reader.peek(1) else RuntimeError("no result")
            if isinstance(result, Exception):
                raise failed(part, result)
            results.append(result)
    finally:  # one whose result was read is only exiting
        for pid, reader, _ in children:
            reader.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return results


def load_csv(path, label_column: str = "label", n_workers: int = 1) -> Dataset:
    """Read a UTF-8 comma-separated file into a Dataset.

    The first row is the header; a leading byte-order mark is ignored.  Every
    column except ``label_column`` must parse as a finite float under
    ``float()``; the first violation in file order is reported with its 1-based
    data row and column name.  A file holding a byte that is not UTF-8 is
    reported, before any other fault, by the header or data row that holds the
    first one.  Labels are remapped to ``1..k`` in order of first occurrence.
    Up to ``n_workers`` processes (:func:`_fork_map`) parse a block of lines
    each (:func:`_line_blocks`) into float64 rows, and the matrix is built from
    all rows in one column-major copy that :class:`Dataset` keeps.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            head: list[str] = []  # the header's lines, which locate the first data byte
            try:
                header = next(csv.reader(head.append(line) or line for line in fh))
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

            def parse(lines, first_row: int):  # one block's raw labels and float64 rows
                rows: list[np.ndarray] = []
                raw_labels: list[str] = []
                for row_num, row in enumerate(csv.reader(lines), start=first_row):
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
                return raw_labels, rows

            blocks = _line_blocks(path, len("".join(head).encode()), n_workers) or [(fh, 1)]
            blocks = _fork_map(lambda block: parse(*block), blocks)
    except (CsvFormatError, UnicodeDecodeError) as exc:
        # decoding may run a chunk ahead of parsing, so a bad byte wins at any worker count
        raise _bad_byte(path) or exc from None
    raw_labels = [raw for labels, _ in blocks for raw in labels]
    if not raw_labels:
        raise CsvFormatError(f"{path}: no data rows")
    rows = [row for _, block in blocks for row in block]
    features, rows, blocks = np.array(rows, order="F"), None, None  # none alive in the checks
    remap: dict[str, int] = {}
    return Dataset(
        features=features,
        labels=[remap.setdefault(raw, len(remap) + 1) for raw in raw_labels],
        feature_names=feature_names,
    )


def _line_blocks(path, start: int, n_workers: int) -> list:
    r"""``(lines, first row)`` of each :func:`_parts` block of the data lines after the
    header's ``start`` bytes.  ``[]`` for one block, or when a line may not be one row:
    when one holds a ``"`` byte or a ``\r`` outside ``\r\n``."""
    with open(path, "rb") as fh:
        starts = [start + (3 if fh.read(3) == b"\xef\xbb\xbf" else 0)]  # each line's first byte
        fh.seek(starts[0])
        for line in fh if n_workers > 1 else ():
            if b'"' in line or b"\r" in line.removesuffix(b"\r\n"):
                return []
            starts.append(starts[-1] + len(line))
    blocks = _parts(len(starts) - 1, n_workers)
    return [] if len(blocks) < 2 else [
        (_lines(path, starts[block.start], len(block)), block.start + 1) for block in blocks]


def _lines(path, start: int, n: int):
    """The ``n`` lines from byte ``start`` of a file, decoded; the file opens at the first."""
    with open(path, "rb") as fh:
        fh.seek(start)
        yield from map(bytes.decode, itertools.islice(fh, n))


def _bad_byte(path) -> CsvFormatError:
    """The error naming the header or the 1-based data row that holds a file's first byte
    that is not UTF-8: rows decoded with each such byte kept as a lone surrogate."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for row_num, row in enumerate(csv.reader(fh)):
            try:
                "".join(row).encode()
            except UnicodeEncodeError:
                where = f"row {row_num}" if row_num else "the header"
                return CsvFormatError(f"{path}: {where} holds a byte that is not UTF-8")


def _bad_cell(path, row_num: int, names, cells) -> CsvFormatError:
    """The error naming the first bad cell of a row, in column order."""
    for name, cell in zip(names, cells):
        try:
            kind = None if math.isfinite(float(cell)) else "non-finite"
        except ValueError:
            kind = "non-numeric"
        if kind:
            return CsvFormatError(f"{path}: {kind} value {cell!r} at row {row_num}, column {name}")


def write_csv(dataset: Dataset, path, label_column: str = "label", n_workers: int = 1) -> None:
    """Write the standard CSV form: header row, label column first.

    The header goes through ``csv.writer``, which quotes names as needed.
    Each data row is one ``repr`` per float, joined by hand one row at a
    time (no cell needs quoting), so a round-trip through :func:`load_csv`
    reproduces the matrix exactly and no process holds more than one row of text.
    Up to ``n_workers`` processes (:func:`_fork_map`) write a block of rows each:
    the caller the first, into ``path``, and a child each other one, into an
    anonymous file beside ``path`` that the caller then appends.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh, contextlib.ExitStack() as stack:
        csv.writer(fh).writerow([label_column, *dataset.feature_names])
        blocks = _parts(dataset.n_samples, n_workers)
        spools = [stack.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8", newline="", dir=os.path.dirname(os.path.abspath(path))))
            for _ in blocks[1:]]
        _fork_map(lambda block: _write_rows(dataset, *block), list(zip(blocks, [fh, *spools])))
        for spool in spools:
            spool.seek(0)
            shutil.copyfileobj(spool, fh)


def _write_rows(dataset: Dataset, rows: range, fh) -> None:
    for label, row in zip(dataset.labels[rows.start:rows.stop],
                          dataset.features[rows.start:rows.stop]):
        fh.write(f"{label},{','.join(map(repr, row.tolist()))}\r\n")
    fh.flush()


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
    return [(np.flatnonzero(assignment != fold_id), np.flatnonzero(assignment == fold_id))
            for fold_id in range(folds)]
