import contextlib
import csv
import io
import itertools
import math
import random
import os
import re
import stat
import threading
import warnings
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from picscore import dataset
from picscore.synth import SynthConfig, generate
from picscore.dataset import (
    GENUINE,
    ID_COLUMNS,
    IMPOSTER,
    LABELS,
    IdColumn,
    MissingColumns,
    RowError,
    ScoreTable,
    load_scores,
    read_columns,
    save_scores,
    split_subject_exclusive,
    write_rows,
)


class Row(NamedTuple):
    score: float
    label: str
    subject_a: str = ""
    subject_b: str = ""


def rec(score, label, subject="", other=None):
    return Row(score, label, subject, other if other is not None else subject)


def table(rows):
    """A score table of ``Row``s; row i gets reference id ``r<i>``."""
    score, label, subject_a, subject_b = zip(*rows) if rows else ((),) * 4
    return ScoreTable(
        score,
        [value == GENUINE for value in label],
        reference_id=[f"r{i}" for i in range(len(rows))],
        subject_a=subject_a,
        subject_b=subject_b,
    )


class TestScoreTable:
    def test_rejects_nan_score(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreTable([float("nan")], [True])

    def test_rejects_infinite_score(self):
        with pytest.raises(ValueError, match="finite"):
            ScoreTable([float("inf")], [False])

    def test_rejects_genuine_with_mismatched_subjects(self):
        with pytest.raises(ValueError, match="different subjects"):
            ScoreTable([0.5], [True], subject_a=["A"], subject_b=["B"])

    def test_genuine_with_one_subject_missing_is_allowed(self):
        r = ScoreTable([0.5], [True], subject_a=["A"])
        assert decoded(r.subject_b)[0] == ""

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match="shape"):
            ScoreTable([0.5, 0.6], [True])
        with pytest.raises(ValueError, match="subject_a"):
            ScoreTable([0.5, 0.6], [True, False], subject_a=["A"])

    @pytest.mark.parametrize("name", ["subject_a", "probe_id"])
    @pytest.mark.parametrize("codes", [[3], [-1], [0.0]], ids=["beyond", "negative", "float"])
    def test_rejects_codes_outside_the_values(self, name, codes):
        column = IdColumn(np.array(codes), np.array(["A"], dtype=object))
        with pytest.raises(ValueError, match=re.escape(
                f"column {name!r} has codes that are not integers in [0, 1)")):
            ScoreTable([0.5], [True], **{name: column})

    def test_keeps_codes_inside_the_values(self):
        column = IdColumn(np.array([1, 0], dtype=np.uint8), np.array(["A", "B"], dtype=object))
        loaded = ScoreTable([0.5, 0.4], [True, False], probe_id=column)
        assert loaded.probe_id is column


class TestLoadScores:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.8,genuine\n0.1,imposter\n")
        loaded = load_scores(path)
        assert loaded.n_genuine == 1
        assert loaded.n_imposter == 1
        assert loaded.score[0] == 0.8

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no records"):
            load_scores(path)

    def test_header_only_errors(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("score,label\n")
        with pytest.raises(ValueError, match="no records"):
            load_scores(path)

    def test_nan_score_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\nNaN,genuine\n")
        with pytest.raises(ValueError, match="row 1"):
            load_scores(path)

    def test_unknown_label_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\n0.5,genuine\n0.2,bogus\n")
        with pytest.raises(ValueError, match="row 2"):
            load_scores(path)

    def test_malformed_score_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label\nabc,genuine\n")
        with pytest.raises(ValueError, match="row 1"):
            load_scores(path)

    @pytest.mark.parametrize("text, calls", [
        ("score,label,subject_a,subject_b\n0.5,genuine,A,A\n0.4,imposter,A,B\n", 1),
        # A bad field fails before the table, which checks subjects, is built.
        ("score,label,subject_a,subject_b\n0.5,genuine,A,A\nnan,bogus,A,B\n", 0),
    ], ids=["valid", "bad-score"])
    def test_subject_check_runs_once(self, tmp_path, text, calls):
        path = tmp_path / "scores.csv"
        path.write_text(text)
        with mock.patch.object(dataset, "_check_subjects", wraps=dataset._check_subjects) as check:
            try:
                load_scores(path)
            except RowError:
                pass
        assert check.call_count == calls

    def test_labels_canonicalized(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.8,GENUINE\n0.1,Imposter\n")
        loaded = load_scores(path)
        assert np.where(loaded.is_genuine, GENUINE, IMPOSTER).tolist() == [GENUINE, IMPOSTER]

    # Unique ids, one id under several paddings, one raw id repeated, blank
    # and all-space ids, and inner spaces, which stay.
    PADDED_IDS = [
        ["p1", " r1", "\ta ", "a"],
        [" p2\t", "r2\u00a0", "\u3000a", " a"],
        [" p3", "\u3000r3\u3000", " a b ", "a b"],
        ["p1 ", "  ", "", "\t"],
        ["\tp1\u00a0", "", "\u00a0", "\u3000 \t"],
        [" p2\t", "r1", " a", "\u00a0a\u3000"],
    ]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_ids_are_stripped_as_str_strip_does(self, tmp_path, newline):
        path = tmp_path / "ids.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator=newline)
            writer.writerow(["score", "label", *ID_COLUMNS])
            writer.writerows([f"0.{i}", IMPOSTER, *ids] for i, ids in enumerate(self.PADDED_IDS))
        loaded = load_scores(path)
        for j, name in enumerate(ID_COLUMNS):
            column = decoded(getattr(loaded, name))
            assert column.dtype == object
            assert column.tolist() == [ids[j].strip() for ids in self.PADDED_IDS], name
        assert decoded(loaded.reference_id)[3] == decoded(loaded.subject_a)[4] == ""

    def test_roundtrip_through_save(self, tmp_path):
        original = ScoreTable(
            [0.812345, 0.123456], [True, False], ["p1", "p2"], ["r1", "r2"], ["A", "A"], ["A", "B"]
        )
        path = tmp_path / "out.csv"
        save_scores(original, path)
        loaded = load_scores(path)
        assert len(loaded) == 2
        assert decoded(loaded.subject_a)[0] == "A"
        assert decoded(loaded.subject_b)[1] == "B"
        assert loaded.score[0] == pytest.approx(0.812345)


def reference_read(path, names=None):
    """The ``csv.reader`` row loop ``read_columns`` used before numpy read the data rows.

    Returns ``(header, n_rows, columns)`` with each column a list; raises
    ``ValueError`` when the file has no header or repeats a column name
    (before any row is read), and ``RowError`` at the first row whose field
    count differs from the header's.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        while header == []:
            header = next(reader, None)
        if header is None:
            raise ValueError("no records")
        keys = [name.strip().lower() for name in header]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise ValueError(f"duplicate column {key!r}")
        rows = []
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise RowError(len(rows) + 1, f"expected {len(header)} fields, got {len(row)}")
            rows.append(row)
    columns = {key: [row[i] for row in rows]
               for i, key in enumerate(keys) if names is None or key in names}
    return header, len(rows), columns


CHARS = [",", '"', "\r", "\n", " ", "\t", "é", "中", "a", "1", "\x00"]
# Labels as they are, in other cases, padded, followed by a NUL, and 9 or more characters long.
LABEL_FIELDS = ["genuine", "imposter", "GENUINE", " Imposter", "genuine\x00", "imposterx",
                " genuine ", " Imposter ", "genuine  x", " genuine  x", "bogus"]


def fields(chars):
    """Short fields over ``chars``, and the label fields (those with a NUL only if it is there)."""
    labels = [label for label in LABEL_FIELDS if "\x00" not in label or "\x00" in chars]
    return st.one_of(st.text(st.sampled_from(chars), max_size=5), st.sampled_from(labels))


FIELDS = fields(CHARS)
# Without \r and NUL, so that a file written with \n line ends is read by numpy from its path.
PLAIN_FIELDS = fields([c for c in CHARS if c not in "\r\x00"])


@st.composite
def csv_tables(draw, resize_one_row=False):
    """A header and rows of equal width; one row one field longer or shorter if asked."""
    field = draw(st.sampled_from([FIELDS, PLAIN_FIELDS]))
    header = draw(st.lists(field, min_size=1, max_size=4,
                           unique_by=lambda name: name.strip().lower()))
    rows = draw(st.lists(st.lists(field, min_size=len(header), max_size=len(header)),
                         min_size=int(resize_one_row), max_size=6))
    if resize_one_row:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.append(draw(field))
        else:
            row.pop()
    return header, rows


def write_csv(path, header, rows, data):
    """Rows written by ``csv.writer``, blank lines at random, each ended by \\n or \\r\\n.

    Half the files end every line with \\n. Returns the ``names``, the
    ``labels`` and the ``ids`` (coded columns) to read the file with.
    """
    buffer = io.StringIO()
    endings = data.draw(st.sampled_from([["\n"], ["\n", "\r\n"]]))
    writers = {end: csv.writer(buffer, lineterminator=end) for end in endings}
    for row in [header] + rows:
        if data.draw(st.booleans()):
            buffer.write(data.draw(st.sampled_from(endings)))
        writers[data.draw(st.sampled_from(endings))].writerow(row)
    path.write_bytes(buffer.getvalue().encode())
    keys = [name.strip().lower() for name in header]
    names = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(keys + ["absent"]))))
    labels = data.draw(st.sets(st.sampled_from(keys + ["absent"])))
    return names, labels, data.draw(st.sets(st.sampled_from(keys + ["absent"]))) - labels


def reference_labels(column, name):
    """Each field stripped, lower-cased and matched, failing at the first unknown one."""
    flags = []
    for i, raw in enumerate(column, start=1):
        value = raw.strip().lower()
        if value not in (GENUINE, IMPOSTER):
            raise RowError(i, f"unknown {name} {raw!r}")
        flags.append(value == GENUINE)
    return np.array(flags, dtype=bool)


LOADTXT = np.loadtxt  # numpy's own, for a test that replaces it


def through_pipe(data: bytes, read):
    """``read("/dev/fd/N")`` while a thread feeds ``data`` into the pipe behind N."""
    reader_fd, writer_fd = os.pipe()

    def feed():
        try:
            with os.fdopen(writer_fd, "wb") as out:
                out.write(data)
        except BrokenPipeError:  # the reader gave up; its error is the test's
            pass

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        return read(f"/dev/fd/{reader_fd}")
    finally:
        os.close(reader_fd)
        feeder.join()


def id_rows(n_ids: int, route: str) -> bytes:
    """A ``score,probe_id`` file of ``n_ids`` distinct ids, the first on two rows.

    ``route`` is ``plain``, ``path`` (each id quoted), ``pipe`` (read as
    plain) or ``scan`` (a first score only ``float()`` parses).
    """
    field = '"p{}"' if route == "path" else "p{}"
    lines = [f"{'1_0' if route == 'scan' else '0.5'},{field.format(0)}"]
    lines += [f"0.5,{field.format(i)}" for i in range(n_ids)]
    return ("score,probe_id\n" + "\n".join(lines) + "\n").encode()


def reference_line(row):
    """A row as ``write_rows`` writes it: ``csv.writer``'s quoting, with a ``\\r`` quoted too."""
    return ",".join('"' + field.replace('"', '""') + '"' if re.search('[,"\r\n]', field)
                    else field for field in row)


def decoded(column):
    """A column as an array of its values: an ``IdColumn`` as ``values[codes]``."""
    return column.values[column.codes] if isinstance(column, IdColumn) else column


def layout(columns):
    """Each column's parts as dtype and values: an ``IdColumn``'s codes and values, or the array."""
    return {key: [(part.dtype, part.tolist())
                  for part in (column if isinstance(column, IdColumn) else [column])]
            for key, column in columns.items()}


def one_object_per_value(column):
    """Whether equal strings in ``column`` are one object."""
    return len(set(map(id, column))) == len(set(column))


def assert_reads_like_reference(path, names, labels=(), ids=()):
    """``read_columns``, without and with ``lines``, with ``labels`` as the label columns
    and ``ids`` as the id columns, against ``reference_read`` and ``reference_labels``; a
    row error also through a pipe."""
    data = path.read_bytes()
    reads = [lambda: read_columns(path, names), lambda: read_columns(path, names, lines=True),
             lambda: through_pipe(data, lambda source: read_columns(source, names))]
    with (mock.patch.object(dataset, "_LABEL_COLUMNS", tuple(labels)),
          mock.patch.object(dataset, "ID_COLUMNS", tuple(ids))):
        try:
            header, n_rows, columns = reference_read(path, names)
            label_keys = [key for key in columns if key in labels]
            # The first unknown label in file order: the lowest row, then the leftmost column.
            flags = parsed(reference_labels, columns, label_keys)
        except RowError as expected:
            for read in reads:
                with pytest.raises(RowError) as got:
                    read()
                assert (got.value.row, str(got.value)) == (expected.row, str(expected))
            return
        except ValueError as expected:
            # csv.writer leaves a \r bare, which reads as a line break: a lone \r
            # header field leaves no header, others may split it into repeated names
            with pytest.raises(ValueError, match=re.escape(str(expected))):
                read_columns(path, names)
            return
        if not n_rows:
            with pytest.raises(ValueError, match="no records"):
                read_columns(path, names)
            return
        missing = [name for name in names or () if name not in columns and name not in ids]
        if missing:
            with pytest.raises(MissingColumns) as got:
                read_columns(path, names)
            assert got.value.missing == missing
            return
        if isinstance(flags, tuple):
            for read in reads:
                with pytest.raises(RowError) as got:
                    read()
                assert (got.value.row, str(got.value)) == flags
            return
        got_header, got_rows, got_columns, no_lines = read_columns(path, names)
        append_header, append_rows, append_columns, lines = read_columns(path, names, lines=True)
    assert (got_header, got_rows) == (append_header, append_rows) == (header, n_rows)
    assert no_lines is None  # only on request
    # The reader strips each id value, parses each label and leaves an absent id blank.
    columns = {key: [field.strip() for field in column] if key in ids else
               reference_labels(column, key).tolist() if key in labels else column
               for key, column in columns.items()}
    columns.update({name: [""] * n_rows for name in names or () if name not in columns})
    assert {key: decoded(column).tolist() for key, column in got_columns.items()} == columns
    assert {key: decoded(column).tolist() for key, column in append_columns.items()} == columns
    _, _, every_column = reference_read(path)
    assert list(lines) == list(map(reference_line, zip(*every_column.values())))
    assert lines[:] == list(lines)
    for key in set(ids).intersection(got_columns):
        assert one_object_per_value(decoded(got_columns[key]))


class TestReadColumns:
    """``read_columns`` against the ``csv.reader`` loop it replaced."""

    @given(csv_tables(), st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_csv_reader(self, tmp_path, table, data):
        path = tmp_path / "table.csv"
        assert_reads_like_reference(path, *write_csv(path, *table, data))

    @given(csv_tables(resize_one_row=True), st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_field_count_names_the_same_row(self, tmp_path, table, data):
        path = tmp_path / "table.csv"
        assert_reads_like_reference(path, *write_csv(path, *table, data))

    CONTRACT_ROWS = ["a b,10,genuine,{p1},A,A,0.9,GENUINE,0.9",
                     "c,0.25,Imposter,p2,A,B,0.1,imposter,0.9",
                     "d,-0.0,imposter,{p1},B,A,0.75, genuine,0.75"]

    @pytest.mark.parametrize("route", ["plain", "quoted", "crlf", "pipe", "fallback"])
    def test_each_column_is_parsed_by_its_name_on_every_route(self, tmp_path, route):
        rows = [row.format(p1='"p1"' if route == "quoted" else "p1") for row in self.CONTRACT_ROWS]
        if route == "fallback":  # float() takes 1_0 as 10; numpy rejects it
            rows[0] = rows[0].replace(",10,", ",1_0,")
        end = "\r\n" if route == "crlf" else "\n"
        text = end.join(["note,score,label,probe_id,subject_a,subject_b,pic,decision,confidence",
                         *rows]) + end
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        names = ["note", "score", "label", *ID_COLUMNS, "pic", "decision", "confidence"]

        def read(source):
            return read_columns(source, names).columns

        with mock.patch.object(dataset, "_scan_rows", wraps=dataset._scan_rows) as scan:
            columns = through_pipe(text.encode(), read) if route == "pipe" else read(path)
        assert scan.called == (route == "fallback")
        assert {key: column.dtype for key, column in columns.items() if key not in ID_COLUMNS} == {
            "note": object, "score": np.float64, "pic": np.float64, "confidence": np.float64,
            "label": bool, "decision": bool}
        assert all(isinstance(columns[key], IdColumn) for key in ID_COLUMNS)
        assert {key: decoded(column).tolist() for key, column in columns.items()} == {
            "note": ["a b", "c", "d"], "score": [10.0, 0.25, -0.0], "label": [True, False, False],
            "probe_id": ["p1", "p2", "p1"], "reference_id": [""] * 3,
            "subject_a": ["A", "A", "B"], "subject_b": ["A", "B", "A"],
            "pic": [0.9, 0.1, 0.75], "decision": [True, False, True],
            "confidence": [0.9, 0.9, 0.75]}

    def test_columns_in_header_order(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("C,b,a\n1,2,3\n")
        columns = read_columns(path, ["a", "c"]).columns
        assert list(columns) == ["c", "a"]

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("score,label\n\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no records$"):
                read_columns(path)


    @pytest.mark.parametrize("text, by_path", [
        ("score,label\n0.5,genuine\n", True),
        ("score,label\r\n0.5,genuine\r\n", False),
        ("score,label\n0.5,genuine\x00\n", False),
    ], ids=["plain", "crlf", "nul"])
    def test_route_and_label_field(self, tmp_path, text, by_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        # A label that ends in NUL is unknown; the field it was read into is what counts here.
        with (mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt,
              contextlib.suppress(RowError)):
            read_columns(path)
        assert isinstance(loadtxt.call_args.args[0], str) == by_path
        # A 1-byte code into the column's distinct values, on every route.
        assert loadtxt.call_args.kwargs["dtype"]["f1"] == np.uint8
        assert 1 in loadtxt.call_args.kwargs["converters"]

    def test_quoted_cr_is_kept(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b'score,label,probe_id\n0.5,genuine,"p\r1"\n0.4,imposter,p2\n')
        columns = read_columns(path).columns
        assert decoded(columns["probe_id"]).tolist() == ["p\r1", "p2"]
        assert columns["label"].tolist() == [True, False]

    @pytest.mark.parametrize("label", ["genuine\x00", " genuine  x", "imposterxx"])
    def test_label_beyond_the_field_width_is_unknown(self, tmp_path, label):
        path = tmp_path / "scores.csv"
        path.write_bytes(f"score,label\n0.5,imposter\n0.4,{label}\n".encode())
        for read in (lambda: load_scores(path),
                     lambda: through_pipe(path.read_bytes(), load_scores)):
            with pytest.raises(RowError, match=re.escape(f"row 2: unknown label {label!r}")):
                read()

    @pytest.mark.parametrize("padded", [" Genuine", " Genuine ", " Genuine  "])
    def test_padded_labels_load(self, tmp_path, padded):
        path = tmp_path / "scores.csv"
        path.write_bytes(f"score,label\n0.5,{padded}\n0.4,imposter \n".encode())
        columns = read_columns(path).columns
        assert columns["label"].tolist() == [True, False]
        assert load_scores(path).is_genuine.tolist() == [True, False]

    def test_blank_lines_and_quoted_newline_before_first_row(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b'\n\nscore,label,"free\n\ntext"\n\n0.5,genuine,"a\nb"\n0.4,imposter,c\n')
        header, n_rows, columns, _ = read_columns(path)
        assert (header, n_rows) == (["score", "label", "free\n\ntext"], 2)
        assert columns["free\n\ntext"].tolist() == ["a\nb", "c"]
        assert columns["label"].tolist() == [True, False]

    def test_pipe_is_read_through_one_handle(self):
        # Far more than the header read buffers and a pipe holds at once.
        text = "score,label,probe_id\n" + "".join(
            f"0.{i % 10},{LABELS[i % 2]},p{i}\n" for i in range(20000))
        header, n_rows, columns, _ = through_pipe(text.encode(), read_columns)
        assert (header, n_rows) == (["score", "label", "probe_id"], 20000)
        assert decoded(columns["probe_id"])[-1] == "p19999"
        assert columns["label"].tolist() == [True, False] * 10000

    @pytest.mark.parametrize("text, message", [
        ("score,label\n0.5,genuine\nabc,imposter\n", "row 2: invalid score value 'abc'"),
        ("score,label\n0.5,genuine\nnan,imposter\n", "row 2: invalid score value 'nan'"),
        ("score,label\n0.5,genuine\n0.4,imposterxx\n", "row 2: unknown label 'imposterxx'"),
        ("score,label\n0.5,genuine\n\n0.4\n", "row 2: expected 2 fields, got 1"),
        ("score,label\r\n0.5,genuine,x\r\n", "row 1: expected 2 fields, got 3"),
    ], ids=["bad-number", "nan", "long-label", "short-row", "long-row-crlf"])
    def test_pipe_names_the_bad_row(self, tmp_path, text, message):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        for read in (lambda: load_scores(path), lambda: through_pipe(text.encode(), load_scores)):
            with pytest.raises(RowError, match=f"^{re.escape(message)}$"):
                read()

    def test_plain_file_rows_are_kept_as_written(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes("\nScore , probe_id,x\n 0.5 ,a\x85b, 1 \n\n0.25,é,".encode())
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            header, n_rows, columns, lines = read_columns(path, ["score"], lines=True)
        assert isinstance(loadtxt.call_args.args[0], str)
        assert loadtxt.call_args.kwargs["dtype"]["f1"] == np.dtype("U0")
        assert (header, n_rows) == (["Score ", " probe_id", "x"], 2)
        assert list(lines) == [" 0.5 ,a\x85b, 1 ", "0.25,é,"]
        assert list(columns) == ["score"] and columns["score"].tolist() == [0.5, 0.25]

    ID_ROWS = ["p1,r1,A,A", "p1,r2,A,B", "p2,r1,B,B", "p1,r1,B,A", "p2,r3,A,A"]

    @pytest.mark.parametrize("route, text, scanned", [
        ("plain", "score,probe_id,reference_id,subject_a,subject_b\n{}\n", False),
        ("path", 'score,"probe_id",reference_id,subject_a,subject_b\n{}\n', False),
        ("crlf", "score,probe_id,reference_id,subject_a,subject_b\r\n{}\r\n", False),
        ("pipe", "score,probe_id,reference_id,subject_a,subject_b\n{}\n", False),
        ("scan", "score,probe_id,reference_id,subject_a,subject_b\n{}\n1_0,p1,r1,A,A\n", True),
        ("scan-pipe", "score,probe_id,reference_id,subject_a,subject_b\r\n{}\r\n1_0,p1,r1,A,A\r\n",
         True),
    ], ids=["plain", "path", "crlf", "pipe", "scan", "scan-pipe"])
    def test_id_columns_hold_one_string_per_distinct_value(self, tmp_path, route, text, scanned):
        rows = [f"0.{i}," + row for i, row in enumerate(self.ID_ROWS)]
        path = tmp_path / "scores.csv"
        path.write_bytes(text.format(("\r\n" if "\r" in text else "\n").join(rows)).encode())
        with mock.patch.object(dataset, "_scan_rows", wraps=dataset._scan_rows) as scan:
            if route.endswith("pipe"):
                _, n_rows, columns, _ = through_pipe(path.read_bytes(), read_columns)
            else:
                _, n_rows, columns, _ = read_columns(path)
        assert scan.called == scanned
        assert decoded(columns["probe_id"]).tolist()[:5] == ["p1", "p1", "p2", "p1", "p2"]
        assert decoded(columns["reference_id"]).tolist()[:5] == ["r1", "r2", "r1", "r1", "r3"]
        for key in ID_COLUMNS:
            assert decoded(columns[key]).dtype == object
            assert one_object_per_value(decoded(columns[key]))

    def test_strip_merges_codes_of_equal_stripped_ids(self, tmp_path):
        path = tmp_path / "scores.csv"
        for last_score, scanned in [("0.5", False), ("1_0", True)]:  # numpy's route, then the scan
            path.write_bytes("score,probe_id\n0.1, p1\n0.2,p2\n0.3,p1\t\n0.4,p1\u3000\n{},p2\n"
                             .format(last_score).encode())
            with mock.patch.object(dataset, "_scan_rows", wraps=dataset._scan_rows) as scan:
                columns = read_columns(path, ["score", "probe_id"]).columns
            assert scan.called == scanned
            stripped = columns["probe_id"]
            assert stripped.values.tolist() == ["p1", "p2"]
            assert stripped.codes.tolist() == [0, 1, 0, 0, 1]
            assert one_object_per_value(stripped.values[stripped.codes])

    def test_lines_of_a_plain_file_slice_like_a_list(self, tmp_path):
        path = tmp_path / "scores.csv"
        rows = [f"0.{i},p{i % 3}" for i in range(10)]
        path.write_bytes(("\n\nscore,probe_id\n\n" + "\n\n".join(rows) + "\n").encode())
        _, n_rows, _, lines = read_columns(path, ["score"], lines=True)
        assert n_rows == len(lines) == 10 and list(lines) == rows
        for part in (slice(None), slice(3, 7), slice(-4, None), slice(8, 3), slice(None, None, 3),
                     slice(9, 0, -2), slice(5, 50)):
            assert lines[part] == rows[part]
        assert (lines[0], lines[-1]) == (rows[0], rows[-1])

    def test_lines_of_a_plain_file_are_read_from_it_as_they_are_sliced(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"score,probe_id\n0.1,p1\n0.2,p2\n0.3,p3\n")
        with mock.patch.object(dataset, "_SCAN_BYTES", 4):  # line ends across scan chunks
            lines = read_columns(path, ["score"], lines=True).lines
        assert lines._data is None  # no bytes held
        with mock.patch("builtins.open", wraps=open) as opened:
            assert lines[1:3] == ["0.2,p2", "0.3,p3"]
            assert lines[2:2] == [] and lines[::-1] == ["0.3,p3", "0.2,p2", "0.1,p1"]
        assert [call.args[0] for call in opened.call_args_list] == [path] * 4
        path.write_bytes(b"score,probe_id\n0.1,p1\n0.2,p2\n0.4,p3\n")
        os.utime(path, ns=(path.stat().st_atime_ns, path.stat().st_mtime_ns + 10**9))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the file changed"):
            lines[0:1]

    def read_probe_ids(self, tmp_path, data, route):
        """``probe_id`` of ``data`` read by ``route``, checked against ``csv.reader``."""
        path = tmp_path / "scores.csv"
        path.write_bytes(data)
        with mock.patch.object(dataset, "_scan_rows", wraps=dataset._scan_rows) as scan:
            columns = (through_pipe(data, read_columns) if route == "pipe"
                       else read_columns(path)).columns
        assert scan.called == (route == "scan")
        probes = columns["probe_id"]
        rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
        assert probes.values[probes.codes].tolist() == [row[1].strip() for row in rows[1:]]
        return probes

    @pytest.mark.parametrize("route", ["plain", "path", "pipe", "scan"])
    def test_id_codes_take_4_bytes_on_numpys_routes(self, tmp_path, route):
        # 65,537 distinct ids, one more than 2 bytes of code tell apart
        probes = self.read_probe_ids(tmp_path, id_rows(65_537, route), route)
        assert probes.codes.dtype == np.uint32
        assert probes.codes[:3].tolist() == [0, 0, 1]

    @pytest.mark.parametrize("route", ["plain", "path", "pipe", "scan"])
    @pytest.mark.parametrize("n_ids, width", [
        (255, np.uint8), (256, np.uint8), (257, np.uint16), (65_535, np.uint16),
        (65_536, np.uint16)])
    def test_id_codes_take_the_narrowest_width(self, tmp_path, route, n_ids, width):
        probes = self.read_probe_ids(tmp_path, id_rows(n_ids, route), route)
        assert len(probes.values) == n_ids and probes.codes.dtype == width

    @pytest.mark.parametrize("route", ["plain", "scan"])
    @pytest.mark.parametrize("n_ids, width", [(256, np.uint8), (65_536, np.uint16)])
    def test_padded_ids_merge_back_into_a_narrower_width(self, tmp_path, route, n_ids, width):
        # " p7" strips to "p7": one more distinct field than distinct id
        data = id_rows(n_ids, route) + b"0.5, p7\n"
        probes = self.read_probe_ids(tmp_path, data, route)
        assert len(probes.values) == n_ids and probes.codes.dtype == width
        assert probes.codes[-1] == probes.codes[8]

    def test_id_codes_of_a_file_of_2_gib_take_8_bytes(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"score,probe_id\n0.1,p1\n0.2,p2\n")
        fstat = os.fstat

        def large(fd):  # the file as if it held 2**31 bytes
            status = list(fstat(fd))
            status[stat.ST_SIZE] = 2**31
            return os.stat_result(status)

        with mock.patch.object(dataset.os, "fstat", large), \
                mock.patch.object(dataset.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            columns = read_columns(path, ["probe_id"]).columns
        assert loadtxt.call_args.kwargs["dtype"]["f1"] == np.intp  # numpy's table
        assert columns["probe_id"].codes.dtype == np.uint8  # the codes copied out of it
        assert columns["probe_id"].codes.tolist() == [0, 1]

    @pytest.mark.parametrize("size, width", [(2**32 - 1, np.uint32), (2**32, np.intp)])
    def test_line_ends_take_4_bytes_below_4_gib(self, tmp_path, size, width):
        path = tmp_path / "scores.csv"
        path.write_bytes(b"score\n0.1\n0.2\n")
        status = list(os.stat(path))
        status[stat.ST_SIZE] = size  # the file as if it held ``size`` bytes
        route, ends = dataset._route(path, os.stat_result(status), line_ends=True)
        assert route == dataset._PLAIN
        assert ends.dtype == width and ends.tolist() == [5, 9, 13, 14]

    @staticmethod
    def spellings(n):
        """``n`` distinct labels: each of ``LABELS`` in turn, some upper case, padded."""
        return [(label.upper() if i % 3 == 0 else label) + " " * (i // 2)
                for i, label in zip(range(n), itertools.cycle(LABELS))]

    @staticmethod
    def wrapping_loadtxt(*args, dtype, converters, **kwargs):
        """``np.loadtxt`` as numpy 1 runs it: a code past its field's width wraps around."""
        def wrapped(i):
            code, top = converters[i], np.iinfo(dtype[i]).max + 1
            return lambda field: code(field) % top
        return LOADTXT(*args, dtype=dtype, converters={i: wrapped(i) for i in converters},
                       **kwargs)

    @pytest.mark.parametrize("wrap", [False, True], ids=["raises", "wraps"])
    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("unknown_row", [None, 280])
    def test_labels_of_more_than_256_spellings_are_read_again(self, tmp_path, pipe,
                                                              unknown_row, wrap):
        """Each field's flag takes 1 byte however many spellings there are, and
        ``csv.reader`` reads the file again only to name an unknown label; a flag never
        wraps around, as a code past 255 would on numpy 1."""
        labels = self.spellings(300)
        if unknown_row:
            labels[unknown_row - 1] = "bogus"
        data = ("score,label\n" + "".join(f"0.5,{label}\n" for label in labels)).encode()
        path = tmp_path / "scores.csv"
        path.write_bytes(data)

        def read(source):
            try:
                return [read_columns(source, ["label"]).columns["label"].tobytes()]
            except RowError as exc:
                return exc.row, str(exc)

        loadtxt = self.wrapping_loadtxt if wrap else LOADTXT
        with (mock.patch.object(dataset, "_scan_rows", wraps=dataset._scan_rows) as scan,
              mock.patch.object(np, "loadtxt", loadtxt)):
            got = through_pipe(data, read) if pipe else read(path)
        assert scan.called == (unknown_row is not None)
        assert got == parsed(reference_labels, {"label": labels}, ["label"])

    @pytest.mark.parametrize("text, pipe, scores", [
        ('score,id\n0.5,"a,b"\n0.25,"c"\n', False, [0.5, 0.25]),
        ("score,id\r\n0.5,a\r\n0.25,c\r\n", False, [0.5, 0.25]),
        ("score,id\n0.5,a\n\n0.25,c\n", True, [0.5, 0.25]),
        ('score,id\n0.5,"a,b"\n1_0,c\n', False, [0.5, 10.0]),
    ], ids=["quoted", "crlf", "pipe", "fallback"])
    def test_other_input_rows_are_quoted_again(self, tmp_path, text, pipe, scores):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        def read(source):
            return read_columns(source, ["score"], lines=True)

        _, n_rows, columns, lines = through_pipe(text.encode(), read) if pipe else read(path)
        assert n_rows == 2 and lines == [reference_line(row) for row in csv.reader(
            io.StringIO(text, newline="")) if row][1:]
        assert list(columns) == ["score"] and columns["score"].tolist() == scores

    @pytest.mark.parametrize("text, pipe", [
        ("score,label,probe_id\n0.5,genuine,p1\n\n0.25,imposter,p1\n", False),
        ('score,label,probe_id\n0.5,genuine,"p,1"\n0.25,imposter,"p,1"\n', False),
        ("score,label,probe_id\r\n0.5,genuine,p1\r\n0.25,imposter,p1\r\n", False),
        ("score,label,probe_id\n0.5,genuine,p1\n\n0.25,imposter,p1\n", True),
        ("score,label,probe_id\n0.5,genuine,p1\n1_0,imposter,p1\n", False),
    ], ids=["plain", "quoted", "crlf", "pipe", "fallback"])
    def test_append_read_returns_the_columns_read(self, tmp_path, text, pipe):
        path = tmp_path / "scores.csv"
        path.write_bytes(text.encode())
        names = ["score", "label", "probe_id"]
        reads = [lambda source: read_columns(source, names),
                 lambda source: read_columns(source, names, lines=True)]
        (header, n_rows, columns, _), (append_header, append_rows, append_columns, _) = [
            through_pipe(text.encode(), read) if pipe else read(path) for read in reads]
        assert (append_header, append_rows) == (header, n_rows) == (names, 2)
        assert layout(append_columns) == layout(columns)
        assert isinstance(columns["probe_id"], IdColumn)

    ROUTES = ("plain", "quoted", "pipe", "scan")

    @pytest.mark.parametrize("route, lead", [(route, "") for route in ROUTES]
                             + [(route, "\n\n") for route in ROUTES],
                             ids=[*ROUTES, *(f"blank-lines-{route}" for route in ROUTES)])
    def test_a_byte_order_mark_reads_like_none(self, tmp_path, route, lead):
        # The quoted route also quotes the first header name, right after the mark;
        # ``scan`` has a score only ``float()`` parses, so the rows are read again.
        text = lead + ('"score",label,probe_id\n0.5,genuine,"p,1"\n0.25,imposter,p2\n'
                       if route == "quoted" else
                       "score,label,probe_id\n{},genuine,p1\n\n0.25,imposter,p2\n".format(
                           "1_0" if route == "scan" else "0.5"))
        names = ["score", "label", "probe_id"]

        def loaded(source):
            table = load_scores(source)
            return table.score.tolist(), table.is_genuine.tolist(), decoded(table.probe_id).tolist()

        def appended(source):
            header, n_rows, columns, lines = read_columns(source, names, lines=True)
            return header, n_rows, layout(columns), list(lines)

        def read(data):
            path = tmp_path / "scores.csv"
            path.write_bytes(data)
            return [through_pipe(data, each) if route == "pipe" else each(path)
                    for each in (loaded, appended)]

        assert read(b"\xef\xbb\xbf" + text.encode()) == read(text.encode())
        assert read(text.encode())[1][0] == names

    def test_plain_file_with_a_compressed_suffix(self, tmp_path):
        path = tmp_path / "scores.csv.gz"
        path.write_text("score,label\n0.5,genuine\n0.4,imposter\n")
        loaded = load_scores(path)
        assert loaded.score.tolist() == [0.5, 0.4]
        assert loaded.is_genuine.tolist() == [True, False]

    @pytest.mark.parametrize("text", [
        "score,label,Score\n0.9,genuine,0.9\n0.8,genuine\n",
        "score,label,Score\n0.9,genuine,0.9\n0.8,genuine,0.8\n",
    ], ids=["short-row", "well-formed-rows"])
    def test_duplicate_header_fails_before_the_rows(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="duplicate column 'score'$"):
            read_columns(path)


@st.composite
def column_tables(draw, fields=FIELDS):
    """A header of 1-4 distinct names and its columns of 0-6 fields each."""
    header = draw(st.lists(fields, min_size=1, max_size=4,
                           unique_by=lambda name: name.strip().lower()))
    n_rows = draw(st.integers(0, 6))
    columns = [draw(st.lists(fields, min_size=n_rows, max_size=n_rows)) for _ in header]
    return header, columns


def write_in_chunks(path, header, columns, data):
    """``write_rows`` with chunks of 1-4 rows, so that tables span chunk boundaries."""
    with mock.patch.object(dataset, "_CHUNK_ROWS", data.draw(st.integers(1, 4))):
        write_rows(path, header, columns)


class TestWriteRows:
    @given(column_tables(st.text(st.sampled_from([",", '"', "\n", " ", "\t", "é", "中", "a", "1"]),
                                 max_size=5)),
           st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_csv_writer_without_cr(self, tmp_path, table, data):
        header, columns = table
        path = tmp_path / "table.csv"
        write_in_chunks(path, header, columns, data)
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*columns))
        assert path.read_bytes() == buffer.getvalue().encode()

    @given(column_tables(), st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reads_back(self, tmp_path, table, data):
        header, columns = table
        path = tmp_path / "table.csv"
        write_in_chunks(path, header, columns, data)
        if not columns[0]:
            with pytest.raises(ValueError, match="no records$"):
                read_columns(path)
            return
        got_header, n_rows, got, _ = read_columns(path)
        assert (got_header, n_rows) == (header, len(columns[0]))
        assert [column.tolist() for column in got.values()] == columns

    def test_float_columns_get_six_decimals(self, tmp_path):
        path = tmp_path / "table.csv"
        write_rows(path, ["x", "n"], [np.array([0.5, -0.0, 1e-7]), ["1", "2", "3"]])
        assert path.read_text() == "x,n\n0.500000,1\n-0.000000,2\n0.000000,3\n"

    def test_integer_columns_are_written_with_str(self, tmp_path):
        path = tmp_path / "table.csv"
        counts = np.array([0, -7, 2**63 - 1, -2**63, 12], dtype=np.int64)
        write_rows(path, ["n", "x", "id"],
                   [counts, np.array([0.5, -0.0, 1e-7, 2.0, 0.25]), ["a", "b,c", "", "d", "e"]])
        assert path.read_text() == (
            "n,x,id\n0,0.500000,a\n-7,-0.000000,\"b,c\"\n9223372036854775807,0.000000,\n"
            "-9223372036854775808,2.000000,d\n12,0.250000,e\n")

    def test_rejects_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            write_rows(tmp_path / "table.csv", ["a", "b"], [["1"], []])

    @given(st.lists(st.one_of(
        st.floats(),
        st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, -1e300,
                         0.0078125, 5e-7, 4.9999999999999996e-07]),
        st.integers(-10**8, 10**8).map(lambda k: (2 * k + 1) / 128),  # ties at 6 decimals
    ), min_size=1, max_size=12), st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_float_column_matches_format_spec(self, tmp_path, values, data):
        path = tmp_path / "table.csv"
        write_in_chunks(path, ["x"], [np.array(values, dtype=float)], data)
        assert path.read_bytes() == ("x\n" + "".join(f"{v:.6f}\n" for v in values)).encode()


NUMBER_FIELDS = st.one_of(
    st.sampled_from(["1_0", "\u0661", "nan", "-inf", "1e999", " 1.5 ", "\xa01", "0x1p3", ".", "",
                     "-0.0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map("{:.6f}".format),
    st.text(st.sampled_from("0123456789.eE+-_ \xa0\u0661inf"), max_size=6),
)


def reference_floats(column, name):
    """``float()`` per field, failing at the first one that is not a finite number."""
    values = []
    for i, raw in enumerate(column, start=1):
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise RowError(i, f"invalid {name} value {raw.strip()!r}")
        values.append(value)
    return np.array(values, dtype=float)


def parsed(parse, columns, names):
    """The named columns, each parsed by ``parse``, as bytes; or ``(row, message)`` of the
    first ``RowError`` in file order: the lowest row, then the leftmost of ``names``."""
    results, errors = [], []
    for position, name in enumerate(names):
        try:
            results.append(parse(columns[name], name).tobytes())
        except RowError as exc:
            errors.append((exc.row, position, str(exc)))
    return min(errors)[::2] if errors else results


def read_parsed(path, names):
    """``read_columns(path)``'s named columns as bytes, or ``(row, message)`` of its error."""
    try:
        columns = read_columns(path).columns
    except RowError as exc:
        return exc.row, str(exc)
    return [columns[name].tobytes() for name in names]


def reader_parse(column, name):
    """A column of raw fields parsed as the reader parses a column named ``name``."""
    values, bad = dataset._parsed(name, column)
    for i, message in bad:
        raise RowError(i + 1, message)
    return values


class TestNumberColumns:
    @given(st.lists(st.tuples(NUMBER_FIELDS, NUMBER_FIELDS), min_size=1, max_size=6),
           st.sampled_from([("x",), ("y",), ("x", "y")]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_match_float_per_field(self, tmp_path, rows, numbers):
        path = tmp_path / "table.csv"
        path.write_bytes(("x,t,y\n" + "".join(f"{x},id,{y}\n" for x, y in rows)).encode())
        _, _, expected = reference_read(path)
        with mock.patch.object(dataset, "_NUMBER_COLUMNS", numbers):
            got = read_parsed(path, numbers)
        assert got == parsed(reference_floats, expected, numbers)

    def test_loaded_scores_keep_no_strings_alive(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.8,genuine\n0.1,imposter\n")
        assert load_scores(path).score.base is None


@st.composite
def label_texts(draw):
    """A label in mixed case, padded, sometimes with one more character; or short text."""
    label = "".join(c.upper() if draw(st.booleans()) else c for c in draw(st.sampled_from(LABELS)))
    pad = st.text(st.sampled_from([" ", "\t", "\xa0"]), max_size=2)
    return draw(pad) + label + draw(st.sampled_from(["", "x", "é", "中"])) + draw(pad)


LABEL_TEXTS = st.one_of(label_texts(), st.text(st.sampled_from(["a", "É", "é", "中", " "]),
                                                max_size=10))
class TestLabelBytes:
    """Label columns read from a file's bytes, as flags, parse as their text does."""

    @given(st.lists(st.tuples(LABEL_TEXTS, LABEL_TEXTS), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_columns_read_from_a_file_parse_as_text(self, tmp_path, rows):
        path = tmp_path / "labels.csv"
        path.write_bytes(("label,decision\n" + "".join(f"{a},{b}\n" for a, b in rows)).encode())
        names = ["label", "decision"]
        with (mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt,
              mock.patch.object(dataset._LabelFlags, "__missing__", autospec=True,
                                side_effect=dataset._LabelFlags.__missing__) as match):
            got = read_parsed(path, names)
        # Read by numpy as a 1-byte flag per field.
        assert [loadtxt.call_args.kwargs["dtype"][f] for f in ("f0", "f1")] == [np.uint8] * 2
        values = dict(zip(names, map(list, zip(*rows))))
        assert got == parsed(reference_labels, values, names)
        # Each distinct value is matched once by its column's flags.
        matched = [(id(call.args[0]), call.args[1]) for call in match.call_args_list]
        assert matched and len(matched) == len(set(matched))
        # The lowest bad row named: a column of str, as ``_scan_rows`` gives it, parses as
        # the reference parses it.
        assert (parsed(reader_parse,
                       {name: np.array(values[name], dtype=object) for name in names}, names)
                == parsed(reference_labels, values, names))


class TestPartition:
    def test_by_definition(self):
        records = [rec(0.9, GENUINE), rec(0.2, IMPOSTER), rec(0.7, GENUINE)]
        loaded = table(records)
        genuine, imposter = loaded.genuine_scores, loaded.imposter_scores
        assert genuine.tolist() == [0.9, 0.7]
        assert imposter.tolist() == [0.2]

    def test_empty(self):
        empty = table([])
        genuine, imposter = empty.genuine_scores, empty.imposter_scores
        assert genuine.size == 0 and imposter.size == 0

    def test_counts_preserved_on_random_records(self):
        rng = np.random.default_rng(3)
        records = [
            rec(float(rng.normal()), GENUINE if rng.random() < 0.5 else IMPOSTER)
            for _ in range(1000)
        ]
        loaded = table(records)
        genuine, imposter = loaded.genuine_scores, loaded.imposter_scores
        assert genuine.size + imposter.size == 1000
        # brute-force recount
        assert genuine.size == sum(1 for r in records if r.label == GENUINE)
        both = sorted(genuine.tolist() + imposter.tolist())
        assert both == sorted(r.score for r in records)


def _synthetic_records(n_subjects, per_subject, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    subjects = [f"S{i}" for i in range(n_subjects)]
    for subj in subjects:
        for _ in range(per_subject):
            records.append(rec(float(rng.normal(0.7, 0.1)), GENUINE, subj))
    for i in range(n_subjects):
        a, b = subjects[i], subjects[(i + 1) % n_subjects]
        for _ in range(per_subject):
            records.append(rec(float(rng.normal(0.2, 0.1)), IMPOSTER, a, b))
    return records


def reference_split(rows, train_fraction, seed):
    """The per-row split the table replaced: kept row indices of (train, test)."""
    weight = {}
    for r in rows:
        weight.setdefault(r.subject_a, 0)
        weight.setdefault(r.subject_b, 0)
        if r.label == GENUINE and r.subject_a == r.subject_b:
            weight[r.subject_a] += 1
    subjects = sorted(weight)
    random.Random(seed).shuffle(subjects)
    subjects.sort(key=lambda subject: -weight[subject])
    train, test, train_load, test_load = set(), set(), 0.0, 0.0
    for subject in subjects:
        if train_load / train_fraction <= test_load / (1.0 - train_fraction):
            train.add(subject)
            train_load += weight[subject]
        else:
            test.add(subject)
            test_load += weight[subject]
    return (
        [i for i, r in enumerate(rows) if r.subject_a in train and r.subject_b in train],
        [i for i, r in enumerate(rows) if r.subject_a in test and r.subject_b in test],
    )


class TestSplitSubjectExclusive:
    @pytest.mark.parametrize("n_subjects, per_subject, fraction, seed", [
        (30, 5, 0.5, 9), (25, 4, 0.3, 3), (7, 1, 0.5, 0), (100, 10, 0.7, 11),
        # Either side of the 1-byte subject positions: 255 subjects fit, 256 and 257 take 2.
        (255, 2, 0.5, 1), (256, 2, 0.4, 2), (257, 2, 0.6, 3),
    ])
    def test_matches_per_row_reference(self, n_subjects, per_subject, fraction, seed):
        records = _synthetic_records(n_subjects, per_subject, seed=seed)
        records += [rec(0.9, GENUINE, "S0")] * 3  # unequal subject weights
        train, test = split_subject_exclusive(table(records), fraction, seed=seed)
        expected_train, expected_test = reference_split(records, fraction, seed)
        assert decoded(train.reference_id).tolist() == [f"r{i}" for i in expected_train]
        assert decoded(test.reference_id).tolist() == [f"r{i}" for i in expected_test]

    @pytest.mark.parametrize("other", ["S003", "S000"])
    def test_a_genuine_row_between_subjects_past_255_fails(self, other):
        # Subject 256 in sorted order takes a 2-byte position; cut to 1 byte it would be 0.
        records = [rec(0.2, IMPOSTER, f"S{i:03d}", f"S{(i + 1) % 300:03d}") for i in range(300)]
        records[5] = rec(0.9, GENUINE, "S256", other)
        with pytest.raises(RowError, match=re.escape(
                f"row 6: genuine comparison between different subjects ('S256' vs '{other}')")):
            table(records)

    def test_two_subjects_within_only(self):
        records = [rec(0.8, GENUINE, "A"), rec(0.7, GENUINE, "A"), rec(0.9, GENUINE, "B")]
        train, test = split_subject_exclusive(table(records), 0.5, seed=1)
        train_subjects = set(decoded(train.subject_a))
        test_subjects = set(decoded(test.subject_a))
        assert train_subjects.isdisjoint(test_subjects)
        assert len(train) + len(test) == 3  # no cross pairs, zero drops

    def test_hundred_subjects_balanced(self):
        records = _synthetic_records(100, 10)
        train, test = split_subject_exclusive(table(records), 0.5, seed=7)
        assert abs(train.n_genuine - test.n_genuine) <= 0.1 * max(
            train.n_genuine, test.n_genuine
        )

    def test_determinism(self):
        records = _synthetic_records(30, 5, seed=2)
        a_train, a_test = split_subject_exclusive(table(records), 0.5, seed=9)
        b_train, b_test = split_subject_exclusive(table(records), 0.5, seed=9)
        assert a_train.score.tolist() == b_train.score.tolist()
        assert a_test.score.tolist() == b_test.score.tolist()

    def test_exclusivity_and_conservation(self):
        records = _synthetic_records(25, 4, seed=5)
        train, test = split_subject_exclusive(table(records), 0.5, seed=3)
        train_subjects = set(decoded(train.subject_a)) | set(decoded(train.subject_b))
        test_subjects = set(decoded(test.subject_a)) | set(decoded(test.subject_b))
        assert train_subjects.isdisjoint(test_subjects)
        dropped = len(records) - len(train) - len(test)
        assert dropped >= 0
        # every dropped record must be a cross-partition pair
        kept = set(decoded(train.reference_id)) | set(decoded(test.reference_id))
        for i, r in enumerate(records):
            if f"r{i}" not in kept:
                sides = (r.subject_a in train_subjects, r.subject_b in train_subjects)
                assert sides[0] != sides[1]

    def test_values_that_no_row_holds_do_not_count(self, tmp_path):
        # A split's side keeps every subject value of its source, and a table
        # generated with fewer genuine rows than subjects holds unused ones.
        train, _ = split_subject_exclusive(table(_synthetic_records(30, 5, seed=4)), 0.5, seed=1)
        generated = generate(SynthConfig(n_genuine=7, n_imposter=5, n_subjects=20, seed=2))
        path = tmp_path / "scores.csv"
        for source in (train, generated):
            save_scores(source, path)
            for got, want in zip(split_subject_exclusive(source, 0.5, seed=5),
                                 split_subject_exclusive(load_scores(path), 0.5, seed=5)):
                assert got.is_genuine.tolist() == want.is_genuine.tolist()
                assert decoded(got.reference_id).tolist() == decoded(want.reference_id).tolist()

    def test_missing_subject_errors(self):
        records = [rec(0.8, GENUINE, "A"), Row(0.1, IMPOSTER)]
        with pytest.raises(ValueError, match="row 2: subject_a and subject_b are required"):
            split_subject_exclusive(table(records), 0.5, seed=0)

    def test_single_subject_errors(self):
        records = [rec(0.8, GENUINE, "A"), rec(0.7, GENUINE, "A")]
        with pytest.raises(ValueError, match="single subject"):
            split_subject_exclusive(table(records), 0.5, seed=0)

    def test_bad_fraction_errors(self):
        with pytest.raises(ValueError, match="train_fraction"):
            split_subject_exclusive(table([rec(0.5, GENUINE, "A")]), 1.5, seed=0)

    def test_empty_records_error(self):
        with pytest.raises(ValueError, match="empty"):
            split_subject_exclusive(table([]), 0.5, seed=0)
