"""The columnar score table, CSV reading and writing, and subject-exclusive splitting.

The CSV readers (``read_columns``, ``parse_*``, ``check_rows``) and the CSV writer
(``write_rows``) also serve every CLI command.
"""

from __future__ import annotations

import csv
import math
import random
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

GENUINE = "genuine"
IMPOSTER = "imposter"
LABELS = (GENUINE, IMPOSTER)

CSV_COLUMNS = ("score", "label", "probe_id", "reference_id", "subject_a", "subject_b")
ID_COLUMNS = CSV_COLUMNS[2:]


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Labeled comparison scores: one numpy column per field, rows in order.

    ``score`` is float64 and ``is_genuine`` bool; the id columns hold
    stripped strings, ``""`` where blank (a column left out is all blank).
    Rejects columns of unequal length and, naming the row, a non-finite
    score or a genuine row whose two non-blank subjects differ.
    """

    score: np.ndarray
    is_genuine: np.ndarray
    probe_id: np.ndarray | None = None
    reference_id: np.ndarray | None = None
    subject_a: np.ndarray | None = None
    subject_b: np.ndarray | None = None

    def __post_init__(self):
        n = np.size(self.score)
        for field in fields(self):
            column = getattr(self, field.name)
            dtype = {"score": float, "is_genuine": bool}.get(field.name, object)
            column = np.full(n, "", dtype) if column is None else np.asarray(column, dtype)
            if column.shape != (n,):
                raise ValueError(f"column {field.name!r} has shape {column.shape}, expected ({n},)")
            object.__setattr__(self, field.name, column)
        fail_first_row(~np.isfinite(self.score),
                       lambda i: f"comparison score must be finite, got {float(self.score[i])!r}")
        _check_subjects(self.is_genuine, self.subject_a, self.subject_b)

    def __len__(self) -> int:
        return self.score.size

    @property
    def genuine_scores(self) -> np.ndarray:
        return self.score[self.is_genuine]

    @property
    def imposter_scores(self) -> np.ndarray:
        return self.score[~self.is_genuine]

    @property
    def n_genuine(self) -> int:
        return int(np.count_nonzero(self.is_genuine))

    @property
    def n_imposter(self) -> int:
        return len(self) - self.n_genuine


def _check_subjects(is_genuine: np.ndarray, subject_a: np.ndarray, subject_b: np.ndarray) -> None:
    fail_first_row(
        is_genuine & (subject_a != subject_b) & (subject_a != "") & (subject_b != ""),
        lambda i: f"genuine comparison between different subjects "
                  f"({subject_a[i]!r} vs {subject_b[i]!r})",
    )


class RowError(ValueError):
    """A validation error at a 1-based data row (blank lines are not counted)."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


def fail_first_row(bad: np.ndarray, message) -> None:
    """Raise ``RowError`` at the first row where ``bad`` is set, with ``message(i)`` for index i."""
    rows = np.flatnonzero(bad)
    if rows.size:
        i = int(rows[0])
        raise RowError(i + 1, message(i))


def read_columns(
    path: str | Path, names: Iterable[str] | None = None
) -> tuple[list[str], int, dict[str, np.ndarray]]:
    """Read a CSV file with a header row into columns of raw strings.

    Returns ``(header, n_rows, columns)``: the header as written, the number
    of data rows, and one array of ``str`` objects per column keyed by the
    column name stripped and lower-cased, in header order. ``names`` (lower
    case) selects the columns returned; those the file lacks are left out,
    and ``None`` returns every column. Quoting and line endings follow the
    ``csv`` module; blank lines are skipped and not counted as rows. Every
    row must have as many fields as the header.

    The header is read with ``csv.reader`` and the data rows with numpy's C
    tokenizer (``np.loadtxt``). A column nobody asked for is read into a
    zero-width string field, so its fields are counted but no string is
    built for them. When numpy rejects the file, the rows are scanned again
    with ``csv.reader`` (``_scan_rows``), which names the first bad row, or
    returns the columns if it finds none.
    """
    with open(path, newline="") as handle:
        header = _first_row(csv.reader(handle))
        if header is None:
            raise ValueError(f"{path}: no records (empty file)")
        keys = [name.strip().lower() for name in header]
        wanted = set(keys if names is None else names)
        # Positional field names: a header may hold names numpy rejects or renames.
        dtype = np.dtype({"names": [f"f{i}" for i in range(len(keys))],
                          "formats": [object if key in wanted else "U0" for key in keys]})
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(handle, dtype=dtype, delimiter=",", quotechar='"',
                                   comments=None, ndmin=1, encoding=None)
        except ValueError:
            table = None
    if table is None:
        n_rows, columns = _scan_rows(path, keys, wanted)
    else:
        n_rows = table.size
        columns = {key: table[f"f{i}"] for i, key in enumerate(keys) if key in wanted}
    if not n_rows:
        raise ValueError(f"{path}: no records")
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(f"{path}: duplicate column {key!r}")
    return header, n_rows, columns


def _first_row(reader) -> list[str] | None:
    """The first non-blank row of a ``csv.reader``, or ``None`` if there is none."""
    row = next(reader, None)
    while row == []:
        row = next(reader, None)
    return row


def _scan_rows(path: str | Path, keys: list[str], wanted: set[str]):
    """``read_columns``'s data rows read with ``csv.reader``, one row at a time.

    Runs only after numpy has rejected the file: raises ``RowError`` at the
    first row whose field count differs from the header's.
    """
    width = len(keys)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        _first_row(reader)  # the header
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
    # Numpy object arrays, unlike lists or tuples, are never traversed by the
    # cyclic GC, so later allocations do not rescan millions of strings.
    table = np.fromiter(flat, dtype=object, count=len(flat))
    del flat, extend
    return table.size // width, {key: table[i::width].copy()
                                 for i, key in enumerate(keys) if key in wanted}


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header row and data rows as CSV, each line ended by ``\\n``.

    The dialect is the ``csv`` module's default, the one ``read_columns`` reads.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    value = {raw: raw.strip().lower() for raw in set(column)}
    unknown = [raw for raw in value if value[raw] not in LABELS]
    if unknown:
        fail_first_row(np.isin(column, unknown), lambda i: f"unknown {name} {column[i]!r}")
    return np.isin(column, [raw for raw in value if value[raw] == GENUINE])


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


def _stripped(column: np.ndarray) -> np.ndarray:
    """Stripped strings of an id column; equal ids share one string."""
    distinct = {raw: raw.strip() for raw in set(column)}
    return np.fromiter(map(distinct.__getitem__, column), dtype=object, count=len(column))


def load_scores(path: str | Path) -> ScoreTable:
    """Load a labeled score table from a CSV file.

    The file must carry a header with at least ``score`` and ``label``
    columns; ``probe_id``, ``reference_id``, ``subject_a``, ``subject_b``
    are optional. Column names and labels are case-insensitive; ids are
    stripped. A bad score, an unknown label or a genuine row between two
    different subjects fails with the number of the lowest bad row.
    """
    path = Path(path)
    _, n_rows, columns = read_columns(path, CSV_COLUMNS)
    if "score" not in columns or "label" not in columns:
        raise ValueError(f"{path}: header must include 'score' and 'label' columns")
    # The raw id strings are freed as each column is replaced.
    blank = np.full(n_rows, "", dtype=object)
    ids = {name: _stripped(columns.pop(name)) if name in columns else blank
           for name in ID_COLUMNS}
    labels = columns["label"]
    # The subject check takes rows with a bad label as not genuine, so it
    # can still name a lower row than the label check.
    genuine = [raw for raw in set(labels) if raw.strip().lower() == GENUINE]
    scores, is_genuine, _ = check_rows(
        lambda: parse_floats(columns["score"], "score"),
        lambda: parse_labels(labels, "label"),
        lambda: _check_subjects(np.isin(labels, genuine), ids["subject_a"], ids["subject_b"]),
    )
    return ScoreTable(scores, is_genuine, **ids)


def save_scores(table: ScoreTable, path: str | Path) -> None:
    """Write a score table as CSV with the canonical column layout."""
    write_rows(path, CSV_COLUMNS, zip(
        map("{:.6f}".format, table.score.tolist()),
        np.where(table.is_genuine, GENUINE, IMPOSTER).tolist(),
        *(getattr(table, name) for name in ID_COLUMNS),
    ))


def split_subject_exclusive(
    table: ScoreTable,
    train_fraction: float = 0.5,
    seed: int = 0,
) -> tuple[ScoreTable, ScoreTable]:
    """Partition rows into train/test with no subject shared across sides.

    Subjects are assigned greedily: sorted by their genuine (within-subject)
    comparison count descending, each subject goes to the side whose
    weighted fill is currently lower, so both sides end up with a similar
    genuine comparison total. Cross-subject comparisons whose two subjects
    land on different sides are dropped; the caller can recover the drop
    count as ``len(table) - len(train) - len(test)``. Both sides keep row
    order.

    Deterministic for a fixed (table, train_fraction, seed): the seed only
    controls tie ordering among subjects with equal counts.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if not len(table):
        raise ValueError("cannot split an empty score table")
    fail_first_row((table.subject_a == "") | (table.subject_b == ""),
                   lambda i: "subject_a and subject_b are required for splitting")

    subjects = sorted(set(table.subject_a) | set(table.subject_b))
    if len(subjects) < 2:
        raise ValueError("cannot split: all records belong to a single subject")
    code = {subject: i for i, subject in enumerate(subjects)}
    a = np.fromiter(map(code.__getitem__, table.subject_a), dtype=np.intp, count=len(table))
    b = np.fromiter(map(code.__getitem__, table.subject_b), dtype=np.intp, count=len(table))
    # A genuine row's two subjects are equal (the table checks it).
    weight = np.bincount(a[table.is_genuine], minlength=len(subjects)).tolist()

    order = list(range(len(subjects)))  # the sorted subjects, by index
    random.Random(seed).shuffle(order)
    order.sort(key=lambda i: -weight[i])  # stable: shuffled order breaks ties

    test_fraction = 1.0 - train_fraction
    in_train = np.zeros(len(subjects), dtype=bool)
    train_load = 0.0
    test_load = 0.0
    for i in order:
        if train_load / train_fraction <= test_load / test_fraction:
            in_train[i] = True
            train_load += weight[i]
        else:
            test_load += weight[i]

    # Rows whose subjects land on different sides are in neither mask.
    train_rows = in_train[a] & in_train[b]
    test_rows = ~(in_train[a] | in_train[b])
    if not train_rows.any() or not test_rows.any():
        raise ValueError("cannot split: one side would be empty")
    return _rows(table, train_rows), _rows(table, test_rows)


def _rows(table: ScoreTable, mask: np.ndarray) -> ScoreTable:
    return ScoreTable(*(getattr(table, field.name)[mask] for field in fields(ScoreTable)))
