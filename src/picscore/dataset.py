"""The columnar score table, CSV reading and writing, and subject-exclusive splitting.

The one CSV reader (``read_columns``, which also gives each row's line on
request) and the CSV writer (``write_rows``) also serve every CLI command.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import random
import stat
import warnings
from collections import defaultdict
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

GENUINE = "genuine"
IMPOSTER = "imposter"
LABELS = (GENUINE, IMPOSTER)

CSV_COLUMNS = ("score", "label", "probe_id", "reference_id", "subject_a", "subject_b")
ID_COLUMNS = CSV_COLUMNS[2:]


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Labeled comparison scores: one numpy column per field, rows in order.

    ``score`` is float64 and ``is_genuine`` bool; an id column is an ``IdColumn``
    (strings ``values[codes]``, ``""`` where blank), coded if given as strings
    and all blank, at no memory per row, if left out. Rejects columns of unequal length, an
    ``IdColumn`` whose codes are not integers in ``[0, len(values))`` and,
    naming the row, a non-finite score or a genuine row whose two non-blank
    subjects differ.
    """

    score: np.ndarray
    is_genuine: np.ndarray
    probe_id: IdColumn | Sequence[str] | None = None
    reference_id: IdColumn | Sequence[str] | None = None
    subject_a: IdColumn | Sequence[str] | None = None
    subject_b: IdColumn | Sequence[str] | None = None

    def __post_init__(self):
        n = np.size(self.score)
        for field in fields(self):
            column = getattr(self, field.name)
            if field.name not in ID_COLUMNS:
                column = np.asarray(column, float if field.name == "score" else bool)
            elif column is None:
                column = _blank(n)
            elif not isinstance(column, IdColumn):
                column = _interned(column)
            else:
                _check_codes(field.name, column)
            shape = (column.codes if field.name in ID_COLUMNS else column).shape
            if shape != (n,):
                raise ValueError(f"column {field.name!r} has shape {shape}, expected ({n},)")
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


def _blank(n: int) -> IdColumn:
    """An id column of ``n`` blank rows: one code, read through a zero stride."""
    return IdColumn(np.broadcast_to(np.intp(0), n), np.array([""], dtype=object))


def _check_codes(name: str, column: IdColumn) -> None:
    codes, n_values = np.asarray(column.codes), len(column.values)
    if codes.dtype.kind not in "iu" or codes.size and (codes.min() < 0 or codes.max() >= n_values):
        raise ValueError(f"column {name!r} has codes that are not integers in [0, {n_values})")


def _check_subjects(is_genuine: np.ndarray, subject_a: IdColumn, subject_b: IdColumn) -> None:
    if not all((values != "").any() for _, values in (subject_a, subject_b)):
        return  # a column with no value but blanks: no row has two subjects
    a, b, subjects = _subject_codes(subject_a, subject_b)
    fail_first_row(
        is_genuine & (a != b) & (subjects != "")[a] & (subjects != "")[b],
        lambda i: f"genuine comparison between different subjects "
                  f"({subjects[a[i]]!r} vs {subjects[b[i]]!r})",
    )


def _subject_codes(*columns: IdColumn):
    """Both columns as codes into the sorted subjects their rows hold, and those subjects."""
    held = [values[np.bincount(codes, minlength=values.size) > 0] for codes, values in columns]
    subjects = np.array(sorted(set().union(*held)), dtype=object)  # np.unique imports numpy.ma
    # Each row's position takes 1 byte for up to 255 subjects, 2 for up to 65,535.
    return *(np.searchsorted(subjects, values).astype(np.min_scalar_type(subjects.size))[codes]
             for codes, values in columns), subjects


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


class MissingColumns(ValueError):
    """A file lacks columns a command reads; ``missing`` names them."""

    def __init__(self, path, missing: list[str]):
        super().__init__(f"{path}: missing required column(s): {', '.join(missing)}")
        self.missing = missing


class IdColumn(NamedTuple):
    """A column as ``values[codes]``: distinct strings, in no set order, and a code per row.

    Codes may have any integer type; ``read_columns`` gives the narrowest.
    """

    codes: np.ndarray
    values: np.ndarray


class CsvRead(NamedTuple):
    """What ``read_columns`` read from a CSV file."""

    header: list[str]
    n_rows: int
    columns: dict[str, np.ndarray | IdColumn]
    lines: Iterable[str] | None


def read_columns(path: str | Path, names: Iterable[str] | None = None, *,
                 lines: bool = False) -> CsvRead:
    """Read a CSV file with a header row into columns, each parsed by its name.

    Returns a ``CsvRead``: the ``header`` as written, the number of data
    rows ``n_rows``, and the ``columns``, each keyed by its name stripped
    and lower-cased, in header order. ``names`` (lower case) selects the
    columns returned, and ``None`` every column.
    Quoting and line endings follow the ``csv`` module; blank lines are
    skipped and not counted as rows, and a leading UTF-8 byte-order mark
    is dropped. Every row must have as many fields as the header, and no
    two header names may be equal.

    - ``score`` is finite float64;
    - ``pic`` and ``confidence`` are float64 in [0, 1];
    - ``label`` and ``decision`` are bool, true for ``genuine`` (stripped, any case)
      and false for ``imposter``;
    - an id column (``ID_COLUMNS``) is an ``IdColumn`` of stripped values, and one
      the file lacks is blank;
    - any other column is an array of ``str`` objects.

    Numbers equal what ``float()`` gives, bit for bit. A requested column
    the file lacks, other than an id column, raises ``MissingColumns``. Then
    the first bad field in file order, the lowest row and then the leftmost
    column among those read, raises ``RowError``: ``invalid <name> value
    '...'``, ``<name> must be in [0, 1], got ...`` or ``unknown <name> '...'``.

    The header is read with ``csv.reader`` and the data rows with numpy's C
    tokenizer (``np.loadtxt``), which parses numbers with
    ``PyOS_string_to_double``, the parser behind ``float()``. numpy opens
    the file itself where ``_route`` finds that safe. Any other input, a
    pipe included, is read once into memory, and numpy reads that text
    line by line. numpy codes an id column as it is read: it passes each
    field to a dict lookup that gives a new string the next code, and
    stores only the code. The column's distinct values are then stripped,
    values that become equal share one code, and the codes are copied out
    at the narrowest width that holds them: 1 byte for up to 256 distinct
    values, 2 for up to 65,536. A label column is read through a dict
    lookup too, into a 1-byte flag per row: each new spelling is matched
    once, to 0 for ``genuine``, 1 for ``imposter`` and 2 for any other.

    A column nobody asked for is read into a zero-width string field, so
    its fields are counted but no string is built for them. Every column
    read is copied out of numpy's table, which is freed before any label
    column becomes bool. When numpy rejects the file, a number column
    holds a non-finite value or a label column an unknown label, the same
    text is read again as strings with ``csv.reader`` (``_scan_rows``),
    which names the first row with a bad field count, and otherwise each
    field is parsed again: a number with ``float()``, which accepts some
    text numpy does not, such as ``1_0``, and a label by the same match.
    Each label column is parsed before the numbers are checked.

    ``CsvRead.lines`` is ``None`` unless ``lines`` asks for it, for a file
    to be written out again. Then it holds every data row as the CSV line,
    without its line end, that ``write_rows`` writes for it; pass them to
    ``write_rows`` as its ``lines``. A plain file, a regular one that numpy
    reads from its path and that holds no ``"``, is already written that
    way: ``lines`` holds none of it, and each iteration reads the file again
    from its start, in one pass (see ``_Lines``). That fails with
    ``ValueError`` naming the file if it is no longer the file that was
    read: another device or inode, size or modification time. Any other
    input is read whole, and its ``lines`` are a list of its rows quoted
    again.
    """
    with open(path, newline="") as handle:
        status = os.fstat(handle.fileno())
        route = _route(path, status)
        source, size = handle, status.st_size
        if route == _TEXT:  # read once; ``_scan_rows`` and ``lines`` may read it again
            data = handle.buffer.read()
            source, size = io.TextIOWrapper(io.BytesIO(data), encoding=handle.encoding,
                                            newline=""), len(data)
        reader = csv.reader(_rewound(source))
        header = _first_row(reader)
        if header is None:
            raise ValueError(f"{path}: no records (empty file)")
        keys = [name.strip().lower() for name in header]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"{path}: duplicate column {key!r}")
        names = keys if names is None else list(names)
        wanted = set(names)
        floats = wanted.intersection(keys, _NUMBER_COLUMNS)
        labels = wanted.intersection(keys, _LABEL_COLUMNS)
        interners = {i: defaultdict(itertools.count().__next__) for i, key in enumerate(keys)
                     if key in wanted and key in ID_COLUMNS}
        flags = {i: _LabelFlags() for i, key in enumerate(keys) if key in labels}
        # A code is below the number of rows, so below the file's size in bytes.
        code = np.int32 if size <= np.iinfo(np.int32).max else np.intp
        # Positional field names: a header may hold names numpy rejects or renames.
        dtype = np.dtype({"names": [f"f{i}" for i in range(len(keys))],
                          "formats": [float if key in floats else np.uint8 if i in flags else
                                      code if i in interners else
                                      object if key in wanted else "U0"
                                      for i, key in enumerate(keys)]})
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    # An absolute path, which numpy cannot take for a URL.
                    source if route == _TEXT else os.path.join(os.getcwd(), path),
                    dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1,
                    encoding=None, skiprows=0 if route == _TEXT else reader.line_num,
                    converters={i: index.__getitem__
                                for i, index in {**interners, **flags}.items()})
        except ValueError:  # a bad field
            table = None
        columns = None
        if table is not None:
            # Id columns first, each freeing its dict, then every other column, each
            # copied out, so that no column is a view of the table.
            coded = {i: _id_column(table[f"f{i}"], interners.pop(i)) for i in list(interners)}
            columns = {key: coded[i] if i in coded else table[f"f{i}"].copy()
                       for i, key in enumerate(keys) if key in wanted}
            n_rows = table.size
        del table  # its last reference: freed before the labels are parsed
        # A bad number or label is named by the same text read again.
        if (columns is None or not all(np.isfinite(columns[key]).all() for key in floats)
                or any(columns[key].max(initial=0) > 1 for key in labels)):
            n_rows, columns = _scan_rows(source, keys, wanted)
        lines = None if not lines else (
            _Lines(path, reader.line_num, n_rows, source.encoding, status) if route == _PLAIN
            else [",".join(_quoted(row)) for row in _data_rows(source)])
    if not n_rows:
        raise ValueError(f"{path}: no records")
    missing = [name for name in names if name not in columns and name not in ID_COLUMNS]
    if missing:
        raise MissingColumns(path, missing)
    errors = []
    for key in sorted(columns, key=lambda key: key not in _LABEL_COLUMNS):
        columns[key], bad = _parsed(key, columns[key])
        errors += [(i, keys.index(key), message) for i, message in bad]
    if errors:
        i, _, message = min(errors)
        raise RowError(i + 1, message)
    columns.update((name, _blank(n_rows)) for name in names if name not in columns)
    return CsvRead(header, n_rows, columns, lines)


def _parsed(key: str, column: np.ndarray | IdColumn):
    """A column as ``read_columns`` returns it, and ``[(index, message)]`` of its first
    bad field, or ``[]``."""
    if key in _LABEL_COLUMNS:
        flags = (column if column.dtype == np.uint8 else
                 np.fromiter(map(_LabelFlags().__getitem__, column), dtype=np.uint8,
                             count=len(column)))
        return flags == 0, [(i, f"unknown {key} {column[i]!r}")
                            for i in np.flatnonzero(flags > 1)[:1].tolist()]
    if key not in _NUMBER_COLUMNS:
        return column, []
    values = (column if column.dtype == np.float64 else
              np.fromiter(map(_float, column), dtype=float, count=len(column)))
    bad = ~np.isfinite(values)
    if key in _PROBABILITY_COLUMNS:
        bad |= (values < 0.0) | (values > 1.0)
    return values, [(i, f"{key} must be in [0, 1], got {float(values[i])!r}"
                     if math.isfinite(values[i]) else f"invalid {key} value {column[i].strip()!r}")
                    for i in np.flatnonzero(bad)[:1].tolist()]


def _float(field: str) -> float:
    """``float(field)``, or NaN where it fails."""
    try:
        return float(field)
    except ValueError:
        return math.nan


class _LabelFlags(dict):
    """A label's flag by its spelling, worked out once: 0 genuine, 1 imposter, 2 other."""

    def __missing__(self, label: str) -> int:
        flag = self[label] = _LABEL_CODES.get(label.strip().lower(), 2)
        return flag


def _id_column(codes: np.ndarray, values: Sequence[str] | dict[str, int]) -> IdColumn:
    """A column read as ``codes`` into ``values``, each value stripped; equal results merge,
    and the codes are copied into the narrowest unsigned type (``np.intp`` past uint32)."""
    values, moved = np.fromiter(values, dtype=object, count=len(values)), None
    if any(value != value.strip() for value in values):  # padding: each code moves
        moved, values = _interned([value.strip() for value in values])
    code = np.min_scalar_type(max(values.size - 1, 0))
    code = code if code.itemsize < 8 else np.intp
    return IdColumn(codes.astype(code) if moved is None else moved.astype(code)[codes], values)


def _interned(fields: Sequence[str]) -> IdColumn:
    interner = defaultdict(itertools.count().__next__)
    codes = np.fromiter(map(interner.__getitem__, fields), dtype=np.intp, count=len(fields))
    return IdColumn(codes, np.fromiter(interner, dtype=object, count=len(interner)))


class _Lines:
    """A plain file's non-blank lines after its first ``skip``, read from it as they are iterated.

    ``n_rows`` is their number, as the read counted them. Each iteration opens
    the file and reads it in one pass, a block of whole lines at a time:
    at a ``\n``, which is the byte 0x0A in a file with no ``\r`` or NUL. It
    fails if the file is no longer the one ``status`` describes.
    """

    def __init__(self, path, skip: int, n_rows: int, encoding: str, status: os.stat_result):
        self._path, self._skip, self._n_rows = path, skip, n_rows
        self._encoding, self._identity = encoding, _identity(status)

    def __len__(self) -> int:
        return self._n_rows

    def __iter__(self):
        return itertools.chain.from_iterable(self._blocks())

    def _blocks(self):
        with open(self._path, "rb") as raw:
            for _ in range(self._skip):
                raw.readline()
            while True:
                block = raw.read(_SCAN_BYTES) + raw.readline()
                # After the read: a change before or during it shows here.
                if _identity(os.fstat(raw.fileno())) != self._identity:
                    raise ValueError(f"{self._path}: the file changed after it was read")
                if not block:
                    return
                yield filter(None, block.decode(self._encoding).split("\n"))


def _identity(status: os.stat_result) -> tuple[int, int, int, int]:
    """A file's device, inode, size and modification time."""
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


# Suffixes that numpy's own open (``np.lib._datasource``) decompresses.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")
_SCAN_BYTES = 1 << 16
# Columns of labels, read as a 1-byte flag per row: these, and 2 for any other label.
_LABEL_COLUMNS = ("label", "decision")
_LABEL_CODES = {GENUINE: 0, IMPOSTER: 1}
# Columns of finite numbers, and those among them that are probabilities, in [0, 1].
_PROBABILITY_COLUMNS = ("pic", "confidence")
_NUMBER_COLUMNS = ("score", *_PROBABILITY_COLUMNS)
# How numpy reads a file: from text in memory, from its path, or from its path with no quote.
_TEXT, _PATH, _PLAIN = "text", "path", "plain"


def _route(path: str | Path, status: os.stat_result) -> str:
    """``_PATH`` or ``_PLAIN`` if numpy, opening ``path``, sees what ``csv.reader`` sees,
    else ``_TEXT``.

    ``status`` is ``os.fstat`` of a handle open on ``path``. The file must
    be a regular one: a pipe or FIFO would be drained by the scan. numpy
    opens a path with universal newlines and decompresses it by suffix, so
    the file must hold no ``\r`` and have no compressed suffix; nor may it
    hold a NUL byte. Otherwise the route is ``_TEXT``. Such a file is
    ``_PLAIN`` when it also holds no ``"``: then each line is one row, and
    its fields are its text split at every ``,``.
    """
    if (not stat.S_ISREG(status.st_mode)
            or os.path.splitext(path)[1] in _COMPRESSED_SUFFIXES):
        return _TEXT
    route = _PLAIN
    with open(path, "rb") as raw:
        for chunk in iter(lambda: raw.read(_SCAN_BYTES), b""):
            if b"\r" in chunk or b"\0" in chunk:
                return _TEXT
            if b'"' in chunk:
                route = _PATH
    return route


def _first_row(reader) -> list[str] | None:
    """The first non-blank row of a ``csv.reader``, or ``None`` if there is none."""
    row = next(reader, None)
    while row == []:
        row = next(reader, None)
    return row


def _rewound(source):
    """The text ``source`` at its start, past a leading byte-order mark: that is not
    part of the header."""
    source.seek(0)
    if source.read(1) != "\ufeff":
        source.seek(0)
    return source


def _data_rows(source):
    """The non-blank rows after the header of the text ``source``, read from its start."""
    reader = csv.reader(_rewound(source))
    _first_row(reader)
    return filter(None, reader)


def _scan_rows(source, keys: list[str], wanted: set[str]):
    """``read_columns``'s data rows read with ``csv.reader``, one row at a time.

    ``source`` is the text. Runs only after numpy has rejected the file or
    found a non-finite number or an unknown label: raises ``RowError`` at
    the first row whose field count differs from the header's, and
    otherwise returns ``(n_rows, columns)`` with every wanted column as
    ``str`` objects, an id column coded as an ``IdColumn``.
    """
    width = len(keys)
    # One flat list of all fields: a list per row would leave one
    # container per row for the cyclic GC to rescan.
    flat: list[str] = []
    extend = flat.extend
    for row in _data_rows(source):
        if len(row) != width:
            row_number = len(flat) // width + 1
            raise RowError(row_number, f"expected {width} fields, got {len(row)}")
        extend(row)
    # Numpy object arrays, unlike lists or tuples, are never traversed by the
    # cyclic GC, so later allocations do not rescan millions of strings.
    table = np.fromiter(flat, dtype=object, count=len(flat))
    del flat, extend
    return table.size // width, {
        key: _id_column(*_interned(table[i::width])) if key in ID_COLUMNS
        else table[i::width].copy()
        for i, key in enumerate(keys) if key in wanted}


_CHUNK_ROWS = 4096


def write_rows(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence],
    lines: Iterable[str] | None = None,
) -> None:
    """Write a header row and columns of equal length as CSV, each line ended by ``\\n``.

    A column is a float64 array, written with ``"{:.6f}"``, an integer
    array, written with ``str``, a sequence of ``str``, or an ``IdColumn``,
    decoded a chunk of rows at a time. A field holding
    ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, with inner quotes doubled,
    and a row of one empty field is written ``""``.
    This is the ``csv`` module's default dialect, the one ``read_columns``
    reads, except that ``csv.writer`` leaves a ``\\r`` bare, which reads back
    as a line break. Rows are formatted and written a few thousand at a time,
    to a new file that then replaces ``path`` (``_replacing``).

    ``lines``, as ``read_columns(..., lines=True)`` returns them, hold each
    row's leading fields already written as CSV; each is written as it is,
    followed by the row's fields from ``columns``. They are iterated once,
    a chunk of rows at a time, so lines read from their file as they are
    iterated are never all held at once. ``path`` may be their file: it is
    replaced only once the last of them is read.
    """
    lengths = [len(column.codes if isinstance(column, IdColumn) else column)
               for column in ([] if lines is None else [lines]) + list(columns)]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length: {lengths}")
    rows = None if lines is None else iter(lines)
    with _replacing(path) as handle:
        _write_lines(handle, [_quoted([name]) for name in header])
        for start in range(0, lengths[0] if lengths else 0, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            chunk = [_fields(column.values[column.codes[start:stop]]
                             if isinstance(column, IdColumn) else column[start:stop])
                     for column in columns]
            _write_lines(handle, chunk if rows is None else
                         [list(itertools.islice(rows, _CHUNK_ROWS)), *chunk])


@contextmanager
def _replacing(path: str | Path):
    """A text handle on a new file that replaces ``path`` once the block ends without error.

    The new file is written beside the file ``path`` resolves to, then renamed
    over it, so a symlink is followed and only the named hard link gets the
    new file; it keeps an existing target's permission bits. On any error the
    new file is removed. A target that exists and is not a regular file, such
    as a FIFO or a device, is written in place. So is one the process may not
    write: ``open`` then refuses it, where a rename would replace it.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not (os.path.isfile(target) and os.access(target, os.W_OK)):
        with open(path, "w", newline="") as handle:
            yield handle
        return
    temporary = f"{target}.{os.getpid()}.tmp"
    handle = open(temporary, "x", newline="")  # fails on a name taken: that file is not ours
    try:
        with handle:
            yield handle
        if os.path.exists(target):
            os.chmod(temporary, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise


def _fields(chunk: Sequence) -> list[str]:
    """A chunk of a ``write_rows`` column as CSV fields."""
    if not isinstance(chunk, np.ndarray):
        return _quoted(list(chunk))
    if chunk.dtype == np.float64:
        # printf-style formatting gives the bytes of "{:.6f}" (both call
        # PyOS_double_to_string) without parsing a format spec per value.
        return ["%.6f" % value for value in chunk.tolist()]  # never needs quotes
    if chunk.dtype.kind in "iu":
        return list(map(str, chunk.tolist()))
    return _quoted(chunk.tolist())


def _quoted(fields: list[str]) -> list[str]:
    """The fields with each one that holds ``,`` ``"`` ``\\r`` or ``\\n`` quoted."""
    if not _needs_quotes("".join(fields)):
        return fields
    return ['"' + field.replace('"', '""') + '"' if _needs_quotes(field) else field
            for field in fields]


def _needs_quotes(text: str) -> bool:
    # Four substring scans in C, several times faster than one regex search.
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _write_lines(handle, columns: list[list[str]]) -> None:
    """Write the rows of equal-length columns of CSV fields."""
    if len(columns) == 1:  # a lone empty field unquoted would read as a blank line
        columns = [[field or '""' for field in columns[0]]]
    handle.write("\n".join(map(",".join, zip(*columns))) + "\n")


def label_column(is_genuine: np.ndarray) -> IdColumn:
    """``genuine`` where ``is_genuine`` is set, else ``imposter``: an ``IdColumn`` whose
    codes are the flags' own bytes."""
    return IdColumn(np.asarray(is_genuine, dtype=bool).view(np.uint8),
                    np.array((IMPOSTER, GENUINE), dtype=object))


def load_scores(path: str | Path, ids: Sequence[str] = ID_COLUMNS) -> ScoreTable:
    """Load a labeled score table from a CSV file.

    The file must carry a header with at least ``score`` and ``label``
    columns. Of the id columns (``ID_COLUMNS``) only those named in ``ids``
    are read; the others, and those the file lacks, are blank. Column names
    and labels are case-insensitive; ids are stripped. The first bad field
    fails as ``read_columns`` finds it; then the table's own checks, such as
    a genuine row between two different subjects, name their lowest row.
    """
    columns = read_columns(path, ("score", "label", *ids)).columns
    return ScoreTable(columns.pop("score"), columns.pop("label"), **columns)


def save_scores(table: ScoreTable, path: str | Path) -> None:
    """Write a score table as CSV with the canonical column layout."""
    write_rows(path, CSV_COLUMNS, [table.score, label_column(table.is_genuine),
                                   *map(table.__getattribute__, ID_COLUMNS)])


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
    a, b, subjects = _subject_codes(table.subject_a, table.subject_b)
    fail_first_row((subjects == "")[a] | (subjects == "")[b],
                   lambda i: "subject_a and subject_b are required for splitting")
    if len(subjects) < 2:
        raise ValueError("cannot split: all records belong to a single subject")
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
    return ScoreTable(table.score[mask], table.is_genuine[mask], *(
        IdColumn(codes[mask], values) for codes, values in map(table.__getattribute__, ID_COLUMNS)))

