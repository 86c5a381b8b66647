import csv
import io
import random
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from picscore.dataset import (
    GENUINE,
    IMPOSTER,
    RowError,
    ScoreTable,
    load_scores,
    read_columns,
    save_scores,
    split_subject_exclusive,
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
        assert r.subject_b[0] == ""

    def test_rejects_columns_of_unequal_length(self):
        with pytest.raises(ValueError, match="shape"):
            ScoreTable([0.5, 0.6], [True])
        with pytest.raises(ValueError, match="subject_a"):
            ScoreTable([0.5, 0.6], [True, False], subject_a=["A"])


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

    def test_labels_canonicalized(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n0.8,GENUINE\n0.1,Imposter\n")
        loaded = load_scores(path)
        assert np.where(loaded.is_genuine, GENUINE, IMPOSTER).tolist() == [GENUINE, IMPOSTER]

    def test_roundtrip_through_save(self, tmp_path):
        original = ScoreTable(
            [0.812345, 0.123456], [True, False], ["p1", "p2"], ["r1", "r2"], ["A", "A"], ["A", "B"]
        )
        path = tmp_path / "out.csv"
        save_scores(original, path)
        loaded = load_scores(path)
        assert len(loaded) == 2
        assert loaded.subject_a[0] == "A"
        assert loaded.subject_b[1] == "B"
        assert loaded.score[0] == pytest.approx(0.812345)


def reference_read(path, names=None):
    """The ``csv.reader`` row loop ``read_columns`` used before numpy read the data rows.

    Returns ``(header, n_rows, columns)`` with each column a list; raises
    ``RowError`` at the first row whose field count differs from the
    header's, and ``ValueError`` when the file has no header.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        while header == []:
            header = next(reader, None)
        if header is None:
            raise ValueError("no header")
        rows = []
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise RowError(len(rows) + 1, f"expected {len(header)} fields, got {len(row)}")
            rows.append(row)
    keys = [name.strip().lower() for name in header]
    columns = {key: [row[i] for row in rows]
               for i, key in enumerate(keys) if names is None or key in names}
    return header, len(rows), columns


FIELDS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "\t", "é", "中", "a", "1"]),
                 max_size=5)


@st.composite
def csv_tables(draw, resize_one_row=False):
    """A header and rows of equal width; one row one field longer or shorter if asked."""
    header = draw(st.lists(FIELDS, min_size=1, max_size=4,
                           unique_by=lambda name: name.strip().lower()))
    rows = draw(st.lists(st.lists(FIELDS, min_size=len(header), max_size=len(header)),
                         min_size=int(resize_one_row), max_size=6))
    if resize_one_row:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.append(draw(FIELDS))
        else:
            row.pop()
    return header, rows


def write_csv(path, header, rows, data):
    """Rows written by ``csv.writer``, each ended by \\n or \\r\\n, blank lines at random."""
    buffer = io.StringIO()
    writers = {end: csv.writer(buffer, lineterminator=end) for end in ("\n", "\r\n")}
    for row in [header] + rows:
        if data.draw(st.booleans()):
            buffer.write(data.draw(st.sampled_from(["\n", "\r\n"])))
        writers[data.draw(st.sampled_from(["\n", "\r\n"]))].writerow(row)
    path.write_bytes(buffer.getvalue().encode())
    keys = [name.strip().lower() for name in header]
    return data.draw(st.one_of(st.none(), st.sets(st.sampled_from(keys + ["absent"]))))


def assert_reads_like_reference(path, names):
    try:
        header, n_rows, columns = reference_read(path, names)
    except RowError as expected:
        with pytest.raises(RowError) as got:
            read_columns(path, names)
        assert (got.value.row, str(got.value)) == (expected.row, str(expected))
        return
    except ValueError:
        # a lone \r header field is written unquoted and reads as a blank line
        with pytest.raises(ValueError, match="no records"):
            read_columns(path, names)
        return
    if not n_rows:
        with pytest.raises(ValueError, match="no records"):
            read_columns(path, names)
        return
    got_header, got_rows, got_columns = read_columns(path, names)
    assert (got_header, got_rows) == (header, n_rows)
    assert {key: column.tolist() for key, column in got_columns.items()} == columns


class TestReadColumns:
    """``read_columns`` against the ``csv.reader`` loop it replaced."""

    @given(csv_tables(), st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_csv_reader(self, tmp_path, table, data):
        path = tmp_path / "table.csv"
        assert_reads_like_reference(path, write_csv(path, *table, data))

    @given(csv_tables(resize_one_row=True), st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bad_field_count_names_the_same_row(self, tmp_path, table, data):
        path = tmp_path / "table.csv"
        assert_reads_like_reference(path, write_csv(path, *table, data))

    def test_columns_in_header_order(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("C,b,a\n1,2,3\n")
        _, _, columns = read_columns(path, ["a", "c"])
        assert list(columns) == ["c", "a"]

    def test_header_only_file_warns_nothing(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("score,label\n\n\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no records$"):
                read_columns(path)


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
    ])
    def test_matches_per_row_reference(self, n_subjects, per_subject, fraction, seed):
        records = _synthetic_records(n_subjects, per_subject, seed=seed)
        records += [rec(0.9, GENUINE, "S0")] * 3  # unequal subject weights
        train, test = split_subject_exclusive(table(records), fraction, seed=seed)
        expected_train, expected_test = reference_split(records, fraction, seed)
        assert train.reference_id.tolist() == [f"r{i}" for i in expected_train]
        assert test.reference_id.tolist() == [f"r{i}" for i in expected_test]

    def test_two_subjects_within_only(self):
        records = [rec(0.8, GENUINE, "A"), rec(0.7, GENUINE, "A"), rec(0.9, GENUINE, "B")]
        train, test = split_subject_exclusive(table(records), 0.5, seed=1)
        train_subjects = set(train.subject_a)
        test_subjects = set(test.subject_a)
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
        train_subjects = set(train.subject_a) | set(train.subject_b)
        test_subjects = set(test.subject_a) | set(test.subject_b)
        assert train_subjects.isdisjoint(test_subjects)
        dropped = len(records) - len(train) - len(test)
        assert dropped >= 0
        # every dropped record must be a cross-partition pair
        kept = set(train.reference_id) | set(test.reference_id)
        for i, r in enumerate(records):
            if f"r{i}" not in kept:
                sides = (r.subject_a in train_subjects, r.subject_b in train_subjects)
                assert sides[0] != sides[1]

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
