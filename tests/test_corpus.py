import csv
import os
import runpy
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_corpus as reference
from conftest import FIXTURE_PATH, Row, rows_of
from skillmem.corpus import (FORMATS, Dataset, FoldAssignment, QMatrix,
                             dataset_stats, load_interactions, load_prepared,
                             load_qmatrix_triplets, preprocess, save_dataset,
                             student_kfold)
from skillmem.errors import ConfigError, EmptyDatasetError, ParseError


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text).lstrip())
    return str(p)


def test_qmatrix_answers_in_sorted_order():
    qm = QMatrix([("i2", "k3"), ("i1", "k2"), ("i2", "k1"), ("i1", "k3"),
                  ("i3", "k2"), ("i2", "k2")])
    assert qm.items == ["i1", "i2", "i3"] and qm.skills == ["k1", "k2", "k3"]
    assert qm.skills_of("i2") == ("k1", "k2", "k3")
    assert qm.items_of("k2") == ("i1", "i2", "i3")
    assert qm.skills_of("none") == () and qm.items_of("none") == ()


def test_corpus_imports_no_other_skillmem_module():
    # atomic_open lives in corpus, so loading it pulls in no model code
    import skillmem
    code = ("import sys; import skillmem.corpus; print(sorted("
            "m for m in sys.modules if m.startswith('skillmem')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(skillmem.__file__))}).stdout
    assert out.strip() == "['skillmem', 'skillmem.corpus', 'skillmem.errors']"


def test_parse_three_rows(tmp_path):
    path = write(tmp_path, """
        user,item,timestamp,correct,skills
        u1,i1,0,1,k1
        u1,i2,86400,0,k1~k2
        u2,i1,0,1,k1
    """)
    ds = load_interactions(path, "assist12")
    assert ds.n_interactions == 3
    assert rows_of(ds, "u1")[1].timestamp == pytest.approx(1.0)
    assert ds.qmatrix.skills_of("i2") == ("k1", "k2")
    assert ds.qmatrix.items_of("k1") == ("i1", "i2")
    assert ds.qmatrix.skills == ["k1", "k2"]


def test_empty_skill_retained_at_load_removed_in_preprocess(tmp_path):
    rows = "\n".join(f"u1,i{k},{k * 86400},1,k1" for k in range(10))
    path = write(tmp_path, f"""
        user,item,timestamp,correct,skills
        u1,inan,0,1,
        {rows}
    """)
    ds = load_interactions(path, "assist12")
    assert ds.n_interactions == 11
    assert "inan" not in ds.qmatrix
    clean = preprocess(ds, min_interactions=10)
    assert clean.n_interactions == 10
    assert all(r.item != "inan" for r in rows_of(clean))


def test_kdd_item_concatenation_roundtrip(tmp_path):
    path = write(tmp_path, """
        user,problem,step,timestamp,correct,skills
        u1,P1,S2,0,1,a
        u1,P1,S3,60000,0,a
        u1,P2,S1,120000,1,b
        u2,P1,S2,0,1,a
        u2,P9,S9,60000,0,b~~c
    """)
    ds = load_interactions(path, "kddcup")
    items = {r.item for r in rows_of(ds)}
    assert items == {"P1@@S2", "P1@@S3", "P2@@S1", "P9@@S9"}
    assert ds.qmatrix.skills_of("P9@@S9") == ("b", "c")
    # milliseconds to days
    assert rows_of(ds, "u1")[1].timestamp == pytest.approx(60000 / 86400000)


_HEADERS = {"generic": "user,item,timestamp,correct,skills",
            "assist12": "user,item,timestamp,correct,skills",
            "kddcup": "user,problem,step,timestamp,correct,skills"}


@pytest.mark.parametrize("fmt,row,item", [
    ("generic", " u1 , i 1 ,0,1,k1", "i 1"),
    ("assist12", "u1,i1 ,0,1,k1", "i1"),
    ("kddcup", "u1, P1 ,S 2 ,0,1,k1", "P1@@S 2"),
])
def test_item_id_joins_the_stripped_item_columns(tmp_path, fmt, row, item):
    ds = load_interactions(write(tmp_path, f"{_HEADERS[fmt]}\n{row}\n"), fmt)
    assert ds.items == [item] and ds.students == ["u1"]
    assert ds.qmatrix.skills_of(item) == ("k1",)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_header_without_timestamp_names_the_column(tmp_path, fmt):
    header = _HEADERS[fmt].replace("timestamp,", "")
    path = write(tmp_path, f"{header}\nu1,i1,1,k1\n")
    with pytest.raises(ParseError, match=r"^line 1: .*\['timestamp'\]"):
        load_interactions(path, fmt)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("stamp", ["nan", "inf", "-Infinity"])
def test_timestamp_that_is_not_finite_fails_in_every_format(tmp_path, fmt,
                                                           stamp):
    # as the row-object reference does, before the unit is applied
    ids = "P1,S1" if fmt == "kddcup" else "i1"
    path = write(tmp_path, f"{_HEADERS[fmt]}\nu1,{ids},0,1,k1\n"
                 f"u1,{ids},{stamp},1,k1\n")
    for load in (load_interactions, reference.load_interactions):
        with pytest.raises(ParseError, match="^line 3: .*not finite"):
            load(path, fmt)


def test_malformed_row_names_line(tmp_path):
    path = write(tmp_path, """
        user,item,timestamp,correct,skills
        u1,i1,0,1,k1
        u1,i2,notatime,1,k1
    """)
    with pytest.raises(ParseError, match="line 3"):
        load_interactions(path, "assist12")


def test_empty_file_fails_typed(tmp_path):
    with pytest.raises(ParseError, match="^line 1: missing columns"):
        load_interactions(write(tmp_path, ""))


def test_unknown_format_tag(tmp_path):
    path = write(tmp_path, "user,item,timestamp,correct,skills\n")
    with pytest.raises(ConfigError):
        load_interactions(path, "nosuch")


def _mkds(tmp_path, rows, min_interactions=1):
    header = "user,item,timestamp,correct,skills\n"
    path = tmp_path / "g.csv"
    path.write_text(header + "\n".join(rows) + "\n")
    return load_interactions(str(path), "generic")


def test_min_interactions_filter(tmp_path):
    rows = [f"u1,i{k},{k},1,k1" for k in range(9)]
    rows += [f"u2,i{k},{k},1,k1" for k in range(10)]
    ds = preprocess(_mkds(tmp_path, rows), min_interactions=10)
    assert ds.students == ["u2"]


def test_timestamp_rebasing(tmp_path):
    rows = ["u1,i1,100,1,k1", "u1,i2,101.5,0,k1"]
    ds = preprocess(_mkds(tmp_path, rows), min_interactions=2)
    ts = [r.timestamp for r in rows_of(ds, "u1")]
    assert ts == [0.0, 1.5]


def test_duplicate_tuples_keep_first(tmp_path):
    rows = ["u1,i1,0,1,k1", "u1,i1,0,0,k1", "u1,i2,1,1,k1"]
    ds = preprocess(_mkds(tmp_path, rows), min_interactions=1)
    assert ds.n_interactions == 2
    assert rows_of(ds, "u1")[0].correct == 1  # first copy kept


def test_preprocess_idempotent(tmp_path):
    rows = [f"u1,i{k},{100 + 3 * k},{k % 2},k1~k2" for k in range(12)]
    once = preprocess(_mkds(tmp_path, rows), min_interactions=10)
    twice = preprocess(once, min_interactions=10)
    assert [(r.item, r.timestamp, r.correct) for r in rows_of(once)] == \
        [(r.item, r.timestamp, r.correct) for r in rows_of(twice)]


def test_empty_after_filter(tmp_path):
    rows = ["u1,i1,0,1,k1"]
    with pytest.raises(EmptyDatasetError):
        preprocess(_mkds(tmp_path, rows), min_interactions=10)


def test_rebasing_preserves_pairwise_gaps(tmp_path):
    raw = [50.0, 52.5, 60.0, 61.0, 70.0, 71.5, 80.0, 81.0, 90.0, 99.0]
    rows = [f"u1,i{k},{t},1,k1" for k, t in enumerate(raw)]
    ds = preprocess(_mkds(tmp_path, rows), min_interactions=10)
    ts = [r.timestamp for r in rows_of(ds, "u1")]
    for i in range(len(raw) - 1):
        assert ts[i + 1] - ts[i] == pytest.approx(raw[i + 1] - raw[i])


def test_every_item_has_skill_after_preprocess(fixture_dataset):
    qm = fixture_dataset.qmatrix
    for r in rows_of(fixture_dataset):
        assert len(qm.skills_of(r.item)) >= 1


def test_stats_single_student(tmp_path):
    rows = ["u1,i1,0,1,k1", "u1,i2,2,0,k1", "u1,i3,6,1,k1"]
    ds = preprocess(_mkds(tmp_path, rows), min_interactions=3)
    rep = dataset_stats(ds)
    assert rep.mean_skill_delay == pytest.approx(3.0)  # mean of {2, 4}
    assert rep.mean_study_period == pytest.approx(6.0)
    assert rep.mean_correctness == pytest.approx(2 / 3)
    assert rep.users == 1 and rep.items == 3 and rep.skills == 1


def test_stats_empty_flag():
    from skillmem.corpus import Dataset, QMatrix
    rep = dataset_stats(Dataset.from_rows((), QMatrix([])))
    assert rep.empty and rep.interactions == 0


def test_kfold_balance_and_determinism(fixture_dataset):
    a = student_kfold(fixture_dataset, 5, seed=7)
    b = student_kfold(fixture_dataset, 5, seed=7)
    assert a.fold_of_student == b.fold_of_student
    sizes = [len(a.students_in(f)) for f in range(5)]
    assert sizes == [4, 4, 4, 4, 4]  # 20 students, k=5


def test_kfold_partitions(fixture_dataset):
    folds = student_kfold(fixture_dataset, 3, seed=1)
    union = set()
    for f in range(3):
        part = set(folds.students_in(f))
        assert not (union & part)
        union |= part
    assert union == set(fixture_dataset.students)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(5, 60), k=st.integers(2, 5), seed=st.integers(0, 1000))
def test_kfold_balance_property(n, k, seed):
    from skillmem.corpus import Dataset, QMatrix
    ds = Dataset.from_rows((), QMatrix([]), [f"s{i}" for i in range(n)])
    folds = student_kfold(ds, k, seed)
    sizes = [len(folds.students_in(f)) for f in range(k)]
    assert sum(sizes) == n
    assert max(sizes) - min(sizes) <= 1


def test_kfold_needs_two_folds(fixture_dataset):
    with pytest.raises(ConfigError, match="k must be >= 2"):
        student_kfold(fixture_dataset, 1, seed=0)


def test_kfold_k_too_large(tmp_path):
    rows = [f"u1,i{k},{k},1,k1" for k in range(10)]
    ds = preprocess(_mkds(tmp_path, rows), min_interactions=1)
    with pytest.raises(ConfigError):
        student_kfold(ds, 2, seed=0)


def test_make_fixture_reproduces_bundled_fixture(tmp_path):
    script = runpy.run_path(os.path.join(os.path.dirname(__file__), "..",
                                         "scripts", "make_fixture.py"))
    out = str(tmp_path / "fixture_small.csv")
    script["write_fixture"](out)
    for suffix in ("", ".truth.json"):
        with open(out + suffix, "rb") as a, \
                open(FIXTURE_PATH + suffix, "rb") as b:
            assert a.read() == b.read(), suffix


_IDS = {"user": ["s1", "s2", "s10", " s2", "s9"],
        "item": ["i1", "i2", "i10", "i2 "],
        "problem": ["P1", "P10", " P2"], "step": ["S1", "S2 "]}
_SKILLS = {"~": ["", "nan", "NaN", "k1", "k1~k2", "k2~", " k10 "],
           "~~": ["", "nan", "a", "a~~b", "b~~"]}


@st.composite
def raw_logs(draw):
    """(format, file text, min_interactions) of a raw log with duplicate
    rows, equal timestamps, untagged items, empty and `nan` skills fields
    and ids that sort differently as strings and as numbers."""
    fmt = draw(st.sampled_from(["generic", "assist12", "kddcup"]))
    f = FORMATS[fmt]
    ids = ["user", *f.item_columns]
    header = ids + ["timestamp", "correct", "skills"]
    stamp = st.sampled_from([0, 1, 1.5, 2, 3600.25, 86400, 1e5])
    row = st.tuples(*(st.sampled_from(_IDS[c]) for c in ids), stamp,
                    st.integers(0, 1), st.sampled_from(_SKILLS[f.skill_sep]))
    rows = draw(st.lists(row, max_size=40))
    rows += draw(st.lists(st.sampled_from(rows), max_size=8)) if rows else []
    lines = [",".join(header)] + [",".join(map(str, r)) for r in rows]
    return fmt, "\n".join(lines) + "\n", draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(raw_logs())
def test_columnar_chain_matches_row_reference(log):
    """load -> preprocess -> save -> load equals the row-object reference
    row for row, and the saved files byte for byte."""
    fmt, text, min_interactions = log
    with tempfile.TemporaryDirectory() as tmp:
        raw, ours, theirs = (os.path.join(tmp, n) for n in ("raw", "a", "b"))
        with open(raw, "w") as fh:
            fh.write(text)
        ds, ref = load_interactions(raw, fmt), reference.load_interactions(
            raw, fmt)
        assert rows_of(ds) == reference.rows(ref)
        assert ds.qmatrix.entries() == ref[1].entries()
        try:
            ref = reference.preprocess(ref, min_interactions)
        except EmptyDatasetError:
            with pytest.raises(EmptyDatasetError):
                preprocess(ds, min_interactions)
            return
        ds = preprocess(ds, min_interactions)
        assert rows_of(ds) == reference.rows(ref)
        assert ds.qmatrix.entries() == ref[1].entries()
        save_dataset(ds, ours)
        reference.save_dataset(ref, theirs)
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()
        assert rows_of(load_prepared(ours)) == reference.rows(
            reference.load_prepared(theirs))


_TEXT = st.text(st.sampled_from(',"\r\n ~ab'), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TEXT, _TEXT, st.floats(), st.integers(0, 1)),
                max_size=12),
       st.lists(st.tuples(_TEXT, _TEXT), max_size=6))
def test_save_dataset_writes_what_csv_writer_writes(rows, tags):
    """Ids and skills with commas, quotes, line breaks, blanks or nothing
    at all, and any timestamp, are written byte for byte as `csv.writer`
    writes the rows."""
    ds = Dataset.from_rows([Row(*r) for r in rows], QMatrix(tags))
    qm = ds.qmatrix
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        save_dataset(ds, ours)
        with open(theirs, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["user", "item", "timestamp", "correct", "skills"])
            w.writerows((r.student, r.item, repr(r.timestamp), r.correct,
                         "~".join(qm.skills_of(r.item))) for r in rows_of(ds))
        with open(ours, "rb") as a, open(theirs, "rb") as b:
            assert a.read() == b.read()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u10"]),
                          st.sampled_from(["i1", "i2"]),
                          st.floats(-1e9, 1e9), st.integers(0, 1)),
                max_size=30))
def test_saved_timestamps_load_back_bit_for_bit(rows):
    """A saved dataset's day timestamps load back as they were saved."""
    rows = sorted(rows, key=lambda r: (r[0], r[2]))
    ds = Dataset.from_rows([Row(*r) for r in rows],
                           QMatrix([("i1", "k1"), ("i2", "k2")]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prepared.csv")
        save_dataset(ds, path)
        loaded = load_prepared(path)
    assert loaded.timestamp.tobytes() == ds.timestamp.tobytes()
    assert rows_of(loaded) == rows_of(ds)


@pytest.mark.parametrize("bad", ["u1,i1,x,1,k1", "u1,i1,0,2,k1", "u1,i1",
                                 "u1,i1,nan,1,k1", "u1,i1,-inf,1,k1"])
@pytest.mark.parametrize("at", [0, 5, 9])
def test_parse_error_names_the_line(tmp_path, bad, at):
    # a bad timestamp, a label that is not 0/1, a row too short for its
    # timestamp and timestamps that are not finite, at the first, a middle
    # and the last data line
    rows = [f"u1,i{k},{k},1,k1" for k in range(10)]
    rows[at] = bad
    path = write(tmp_path, "user,item,timestamp,correct,skills\n"
                 + "\n".join(rows) + "\n")
    with pytest.raises(ParseError, match=f"^line {at + 2}: ") as err:
        load_interactions(path)
    assert err.value.line_no == at + 2


def test_parse_error_counts_blank_lines(tmp_path):
    # the error names the physical line, blank lines included
    path = tmp_path / "data.csv"
    path.write_text("user,item,timestamp,correct,skills\n\n"
                    "u1,i1,notatime,1,k1\nu1,i2,1,1,k1\n")
    with pytest.raises(ParseError, match="^line 3: ") as err:
        load_interactions(str(path))
    assert err.value.line_no == 3


def test_qmatrix_file_rows_with_a_blank_id_tag_nothing(tmp_path):
    # a blank item or skill, after stripping, is skipped as a blank skills
    # field of the log is; a row without a second cell too
    path = tmp_path / "qm.csv"
    path.write_text("item,skill\ni1,k1\ni2,\n,k3\n  , k4\ni5,  \ni6\n")
    assert load_qmatrix_triplets(str(path)).entries() == {("i1", "k1")}


def test_qmatrix_file_without_a_header_keeps_its_first_row(tmp_path):
    path = tmp_path / "qm.csv"
    path.write_text("i1,k1\ni2,k2\n")
    assert load_qmatrix_triplets(str(path)).entries() == {("i1", "k1"),
                                                          ("i2", "k2")}


def test_load_prepared_sorts_rows_out_of_time_order(tmp_path):
    # a prepared file edited by hand: u1's rows are no longer in time order
    path = write(tmp_path, """
        user,item,timestamp,correct,skills
        u1,i2,2.0,0,k1
        u1,i1,1.0,1,k1
        u2,i1,0.5,1,k1
    """)
    ds = load_prepared(path)
    assert not ds.backwards().any()
    assert [(r.student, r.item, r.timestamp, r.correct)
            for r in rows_of(ds)] == [
        ("u1", "i1", 1.0, 1), ("u1", "i2", 2.0, 0), ("u2", "i1", 0.5, 1)]
