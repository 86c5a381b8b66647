"""Labeled comparison scores: CSV ingestion, class partitioning, subject-exclusive splitting."""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

GENUINE = "genuine"
IMPOSTER = "imposter"
LABELS = (GENUINE, IMPOSTER)

CSV_COLUMNS = ("score", "label", "probe_id", "reference_id", "subject_a", "subject_b")


@dataclass(frozen=True)
class ComparisonRecord:
    """One labeled comparison score with optional pair/subject identifiers."""

    score: float
    label: str
    probe_id: str | None = None
    reference_id: str | None = None
    subject_a: str | None = None
    subject_b: str | None = None

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise ValueError(f"comparison score must be finite, got {self.score!r}")
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")
        if (
            self.label == GENUINE
            and self.subject_a is not None
            and self.subject_b is not None
            and self.subject_a != self.subject_b
        ):
            raise ValueError(
                f"genuine comparison between different subjects "
                f"({self.subject_a!r} vs {self.subject_b!r})"
            )


class LabeledScoreSet:
    """Comparison records plus cached genuine/imposter score arrays.

    The record tuple is the source of truth; the per-class arrays are derived
    once at construction and preserve record order within each class.
    """

    def __init__(self, records: Iterable[ComparisonRecord]):
        self.records: tuple[ComparisonRecord, ...] = tuple(records)
        self.genuine_scores, self.imposter_scores = partition(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_genuine(self) -> int:
        return int(self.genuine_scores.size)

    @property
    def n_imposter(self) -> int:
        return int(self.imposter_scores.size)


def partition(records: Sequence[ComparisonRecord]) -> tuple[np.ndarray, np.ndarray]:
    """Split records into (genuine, imposter) score arrays by label."""
    genuine = [r.score for r in records if r.label == GENUINE]
    imposter = [r.score for r in records if r.label == IMPOSTER]
    return np.asarray(genuine, dtype=float), np.asarray(imposter, dtype=float)


class RowError(ValueError):
    """A validation error at a 1-based data row (blank lines are not counted)."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


def read_columns(path: str | Path) -> tuple[list[str], int, dict[str, np.ndarray]]:
    """Read a CSV file with a header row into columns of raw strings.

    Returns ``(header, n_rows, columns)``: the header as written, the number
    of data rows, and one array of ``str`` objects per column keyed by the
    column name stripped and lower-cased. Quoting and line endings follow
    the ``csv`` module; blank lines are skipped and not counted as rows.
    Every row must have as many fields as the header.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        while header == []:
            header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: no records (empty file)")
        width = len(header)
        # One flat list of all fields: a list per row would leave one
        # container per row for the cyclic GC to rescan.
        flat: list[str] = []
        extend = flat.extend
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                row_number = len(flat) // width + 1
                raise RowError(row_number, f"expected {width} fields, got {len(row)}")
            extend(row)
    n_rows = len(flat) // width
    if not n_rows:
        raise ValueError(f"{path}: no records")
    names = [name.strip().lower() for name in header]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{path}: duplicate column {name!r}")
    # Numpy object arrays, unlike lists or tuples, are never traversed by the
    # cyclic GC, so later allocations do not rescan millions of strings. Each
    # column is a copy that owns its strings: dropping it frees them.
    table = np.fromiter(flat, dtype=object, count=len(flat))
    del flat, extend
    return header, n_rows, {name: table[i::width].copy() for i, name in enumerate(names)}


def parse_floats(column: Sequence[str], name: str) -> np.ndarray:
    """Parse a column of finite numbers: ``row N: invalid <name> value '...'``."""
    try:
        values = np.fromiter(map(float, column), dtype=float, count=len(column))
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        for i, raw in enumerate(column, start=1):
            try:
                ok = math.isfinite(float(raw))
            except ValueError:
                ok = False
            if not ok:
                raise RowError(i, f"invalid {name} value {raw.strip()!r}")
    return values


def parse_labels(column: Sequence[str], name: str) -> np.ndarray:
    """Parse a ``genuine``/``imposter`` column (any case) into ``is_genuine`` flags.

    Unknown values fail as ``row N: unknown <name> '...'``.
    """
    distinct = set(column)
    is_genuine = {}
    for raw in distinct:
        value = raw.strip().lower()
        if value in LABELS:
            is_genuine[raw] = value == GENUINE
    if len(is_genuine) < len(distinct):
        for i, raw in enumerate(column, start=1):
            if raw not in is_genuine:
                raise RowError(i, f"unknown {name} {raw!r}")
    return np.fromiter(map(is_genuine.__getitem__, column), dtype=bool, count=len(column))


def check_rows(*checks):
    """Run column checks and return their results in order.

    When several fail, the error of the lowest row is raised; on the same
    row, the error of the earlier check. Each check is a function of no
    arguments that may raise ``RowError``.
    """
    results, errors = [], []
    for check in checks:
        try:
            results.append(check())
        except RowError as exc:
            errors.append(exc)
    if errors:
        raise min(errors, key=lambda exc: exc.row)
    return results


def _ids(columns: dict, field: str, n: int) -> list[str | None]:
    """Stripped ids of one column (None when blank), removed from ``columns``.

    Equal ids share one string, so the raw column's repeats are freed
    before any record exists.
    """
    if field not in columns:
        return [None] * n
    column = columns.pop(field)
    distinct = {raw: raw.strip() or None for raw in set(column)}
    return list(map(distinct.__getitem__, column))


def _records(columns: dict, scores: np.ndarray, is_genuine: np.ndarray) -> list[ComparisonRecord]:
    """Records from parsed scores and labels plus the id columns, which are consumed."""
    ids = [_ids(columns, field, len(scores)) for field in CSV_COLUMNS[2:]]
    labels = (IMPOSTER, GENUINE)
    records = []
    for i, (score, genuine, *optional) in enumerate(
        zip(scores.tolist(), is_genuine.tolist(), *ids), start=1
    ):
        try:
            records.append(ComparisonRecord(score, labels[genuine], *optional))
        except ValueError as exc:
            raise RowError(i, str(exc)) from None
    return records


def load_scores(path: str | Path, format: str = "csv") -> LabeledScoreSet:
    """Load a labeled score set from a CSV file.

    The file must carry a header with at least ``score`` and ``label``
    columns; ``probe_id``, ``reference_id``, ``subject_a``, ``subject_b``
    are optional. Column names and labels are case-insensitive; labels are
    canonicalized on load.
    """
    if format != "csv":
        raise ValueError(f"unsupported format {format!r}, only 'csv' is available")
    path = Path(path)
    _, _, columns = read_columns(path)
    if "score" not in columns or "label" not in columns:
        raise ValueError(f"{path}: header must include 'score' and 'label' columns")
    try:
        scores, is_genuine = check_rows(
            lambda: parse_floats(columns["score"], "score"),
            lambda: parse_labels(columns["label"], "label"),
        )
    except RowError as exc:
        # The rows above the bad one pass both checks, but one of them may
        # still fail as a record; that lower row is reported instead.
        above = {name: column[: exc.row - 1] for name, column in columns.items()}
        _records(above, parse_floats(above["score"], "score"), parse_labels(above["label"], "label"))
        raise
    del columns["score"], columns["label"]  # their strings are freed before the records exist
    return LabeledScoreSet(_records(columns, scores, is_genuine))


def save_scores(score_set: LabeledScoreSet, path: str | Path) -> None:
    """Write a score set as CSV with the canonical column layout."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in score_set.records:
            writer.writerow(
                [
                    f"{r.score:.6f}",
                    r.label,
                    r.probe_id or "",
                    r.reference_id or "",
                    r.subject_a or "",
                    r.subject_b or "",
                ]
            )


def split_subject_exclusive(
    records: Sequence[ComparisonRecord],
    train_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[LabeledScoreSet, LabeledScoreSet]:
    """Partition records into train/test with no subject shared across sides.

    Subjects are assigned greedily: sorted by their genuine (within-subject)
    comparison count descending, each subject goes to the side whose
    weighted fill is currently lower, so both sides end up with a similar
    genuine comparison total. Cross-subject comparisons whose two subjects
    land on different sides are dropped; the caller can recover the drop
    count as ``len(records) - len(train) - len(test)``.

    Deterministic for a fixed (records, train_fraction, seed): the seed only
    controls tie ordering among subjects with equal counts.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if not records:
        raise ValueError("cannot split an empty record list")

    for i, r in enumerate(records, start=1):
        if not r.subject_a or not r.subject_b:
            raise ValueError(f"record {i}: subject_a and subject_b are required for splitting")

    weight: dict[str, int] = {}
    for r in records:
        weight.setdefault(r.subject_a, 0)
        weight.setdefault(r.subject_b, 0)
        if r.label == GENUINE and r.subject_a == r.subject_b:
            weight[r.subject_a] += 1

    if len(weight) < 2:
        raise ValueError("cannot split: all records belong to a single subject")

    subjects = sorted(weight)
    random.Random(seed).shuffle(subjects)
    subjects.sort(key=lambda s: -weight[s])  # stable: shuffled order breaks ties

    test_fraction = 1.0 - train_fraction
    train_subjects: set[str] = set()
    test_subjects: set[str] = set()
    train_load = 0.0
    test_load = 0.0
    for subj in subjects:
        if train_load / train_fraction <= test_load / test_fraction:
            train_subjects.add(subj)
            train_load += weight[subj]
        else:
            test_subjects.add(subj)
            test_load += weight[subj]

    train_records = []
    test_records = []
    for r in records:
        in_train = (r.subject_a in train_subjects) and (r.subject_b in train_subjects)
        in_test = (r.subject_a in test_subjects) and (r.subject_b in test_subjects)
        if in_train:
            train_records.append(r)
        elif in_test:
            test_records.append(r)
        # else: cross-partition pair, dropped to preserve exclusivity

    if not train_records or not test_records:
        raise ValueError("cannot split: one side would be empty")

    return LabeledScoreSet(train_records), LabeledScoreSet(test_records)
