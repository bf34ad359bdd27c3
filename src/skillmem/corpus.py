"""Interaction log ingestion, preprocessing, statistics and student-level folds.

Input files are delimiter-separated text with a header row. Every format
names its columns `user`, `timestamp`, `correct` and `skills`; a format tag
fixes the item columns (an item id is their stripped values joined by
`KDD_ITEM_SEP`), the skill separator and the timestamp unit.
A `Dataset` holds the log as numpy columns, one entry a row: int64 student
codes into its sorted student names, int64 item codes into its sorted item
ids, float64 timestamps in days and int8 `correct`. Rows are grouped by
student code, so students come in sorted-name order, and each student's rows
keep their input order; `preprocess` and `load_prepared` also sort each
student's rows by time (stable), and `preprocess` rebases them to days since
the student's first interaction. A row holds no skills of its own: the
skills column (and any separate q-matrix file) feeds one `QMatrix`, and a
row's skills are always `qmatrix.skills_of(item)`.

A `Dataset`'s arrays are never written in place, nor its fields
reassigned: every step that changes rows or the q-matrix (`take`,
`preprocess`, a load, `dataclasses.replace`) makes a new `Dataset`. So
work derived from the arrays alone is done once per instance and kept with
it (`Dataset.memo`): its (row, skill) pairs here, and the encoder's window
counts.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from math import isfinite
from operator import itemgetter

import numpy as np

from .errors import ConfigError, EmptyDatasetError, ParseError

# Separator used to build a single item id out of KDD-style problem/step
# pairs. Two characters, unlikely to occur in real ids.
KDD_ITEM_SEP = "@@"


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """`open(path, mode, **kwargs)` for writing, as a new temp file beside
    `path` that replaces it if the block exits cleanly and is removed if it
    raises; created with the permissions a plain `open` gives."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class QMatrix:
    """Binary item-to-skill tagging, sorted once: `items` and `skills` are
    sorted lists, `skills_of` and `items_of` sorted tuples, `()` untagged."""

    def __init__(self, entries):
        skills_of, items_of = {}, {}
        for item, skill in entries:
            skills_of.setdefault(item, set()).add(skill)
            items_of.setdefault(skill, set()).add(item)
        self._skills_of = {i: tuple(sorted(s)) for i, s in skills_of.items()}
        self._items_of = {k: tuple(sorted(s)) for k, s in items_of.items()}
        self.items = sorted(self._skills_of)
        self.skills = sorted(self._items_of)

    def skills_of(self, item):
        return self._skills_of.get(item, ())

    def items_of(self, skill):
        return self._items_of.get(skill, ())

    def __contains__(self, item):
        return item in self._skills_of

    def entries(self):
        return {(i, k) for i, s in self._skills_of.items() for k in s}

    def restricted_to(self, items):
        keep = set(items)
        return QMatrix((i, k) for (i, k) in self.entries() if i in keep)


@dataclass(eq=False)
class Dataset:
    """An interaction log as numpy columns sorted by (student, time).

    Row i is student `students[student[i]]` answering item `items[item[i]]`
    at `timestamp[i]` days, `correct[i]` being 0 or 1. Rows are grouped by
    student code, each student's rows in time order once preprocessed (in
    input order before). A student may be listed without rows.

    The arrays are never written in place nor the fields reassigned, so
    what `memo` keeps stays true for the instance's life; a derived dataset
    starts with nothing kept.
    """

    students: list[str]
    items: list[str]
    student: np.ndarray  # int64 codes into `students`, non-decreasing
    item: np.ndarray  # int64 codes into `items`
    timestamp: np.ndarray  # float64 days
    correct: np.ndarray  # int8
    qmatrix: QMatrix
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def from_rows(cls, rows, qmatrix, students=()):
        """The dataset of (student, item, timestamp, correct) rows, each
        student's rows in the given order; `students` lists more names."""
        rows = list(rows)
        names, items, stamps, correct = (
            map(list, zip(*rows)) if rows else ([], [], [], []))
        students, codes = _code(names + list(students))
        items, item = _code(items)
        ds = cls(students, items, codes[:len(rows)], item,
                 np.asarray(stamps, dtype=np.float64),
                 np.asarray(correct, dtype=np.int8), qmatrix)
        return ds.take(np.argsort(ds.student, kind="stable"))

    @property
    def n_interactions(self):
        return len(self.timestamp)

    def take(self, rows):
        """The dataset of the rows at index `rows`, in that order."""
        return replace(self, student=self.student[rows], item=self.item[rows],
                       timestamp=self.timestamp[rows],
                       correct=self.correct[rows])

    def backwards(self):
        """Mask of rows 1.. that come earlier in time than the row before
        them of the same student."""
        t = self.timestamp
        return ~(np.diff(t) >= 0) & (self.student[1:] == self.student[:-1])

    def memo(self, keys, make):
        """The arrays kept under `keys` on this instance, in order; those of
        the keys not kept yet are the arrays `make(missing keys)` gives, one
        a key, kept from then on and read-only, as every caller shares
        them. For work derived from this dataset alone."""
        missing = [k for k in keys if k not in self._memo]
        if missing:
            for k, value in zip(missing, make(missing), strict=True):
                value.setflags(write=False)
                self._memo[k] = value
        return [self._memo[k] for k in keys]

    def tag_pairs(self):
        """(row, skill, rank) of every (row, skill of its item) pair, row by
        row, each row's skills in sorted order: `skill` indexes
        `qmatrix.skills` and `rank` is the pair's place in its row. Found
        once per instance (`memo`)."""
        return tuple(self.memo(("tag_row", "tag_skill", "tag_rank"),
                               lambda _: self._tag_pairs()))

    def _tag_pairs(self):
        qm = self.qmatrix
        skill_pos = {k: p for p, k in enumerate(qm.skills)}
        tags = [qm.skills_of(j) for j in self.items]
        n_tags = np.array([len(ks) for ks in tags], dtype=np.int64)
        tag_skill = np.array([skill_pos[k] for ks in tags for k in ks],
                             dtype=np.int64)
        row = np.repeat(np.arange(len(self.item)), n_tags[self.item])
        rank = np.arange(len(row)) - np.searchsorted(row, row)
        start = np.cumsum(n_tags) - n_tags
        return row, tag_skill[start[self.item][row] + rank], rank


def _code(values):
    """Sorted distinct `values` and each value's position among them."""
    names = sorted(set(values))
    pos = dict(zip(names, range(len(names))))
    return names, np.array([pos[v] for v in values], dtype=np.int64)


class _Codes(dict):
    """`codes[key]` is the number of distinct keys looked up before `key`."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _compact(names, codes):
    """`names` that some code points at, and the codes renumbered to them."""
    used = np.bincount(codes, minlength=len(names)) > 0
    return ([n for n, u in zip(names, used) if u],
            (np.cumsum(used) - 1)[codes])


@dataclass(frozen=True)
class FoldAssignment:
    fold_of_student: dict[str, int]
    k: int
    seed: int

    def students_in(self, fold):
        return sorted(s for s, f in self.fold_of_student.items() if f == fold)


@dataclass
class StatsReport:
    users: int
    items: int
    skills: int
    interactions: int
    mean_correctness: float
    skills_per_item: float
    mean_skill_delay: float
    mean_study_period: float
    empty: bool = False

    def to_json(self):
        return json.dumps(self.__dict__, indent=2)


@dataclass(frozen=True)
class _Format:
    item_columns: tuple
    skill_sep: str
    seconds_per_unit: float


FORMATS = {
    "generic": _Format(("item",), "~", 86400.0),
    "assist12": _Format(("item",), "~", 1.0),
    "kddcup": _Format(("problem", "step"), "~~", 1e-3),
}


def load_interactions(path, fmt="generic"):
    """Parse a delimited interaction log into a Dataset with raw day timestamps.

    Every row's skills field adds its (item, skills) pairs to the q-matrix,
    so an item's skills are the union over its rows. Rows with an empty
    skills field are kept; `preprocess` removes those of untagged items.
    Ids are stripped of surrounding blanks. A malformed row, or one whose
    timestamp is not finite, raises ParseError naming its line.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format tag {fmt!r}; known: {sorted(FORMATS)}")
    f = FORMATS[fmt]
    ids = f.item_columns
    # distinct raw keys get codes in order of appearance; a row's item key is
    # its (raw item id, raw skills field) pair
    users, pairs, label_of = _Codes(), _Codes(), functools.cache(_label)
    student, pair, stamps, correct = array("q"), array("q"), array("d"), array("b")
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delim = "\t" if "\t" in (sample.splitlines() or [""])[0] else ","
        reader = csv.reader(fh, delimiter=delim)
        col = {name: k for k, name in enumerate(next(reader, []))}
        missing = [c for c in ("user", "timestamp", "correct", "skills", *ids)
                   if c not in col]
        if missing:
            raise ParseError(1, f"missing columns {missing} in header")
        fields = itemgetter(col["user"], col["timestamp"], col["correct"])
        item_of, at = itemgetter(*(col[c] for c in ids)), col["skills"]
        for row in filter(None, reader):
            try:
                user, ts, label = fields(row)
                ts = float(ts)
                if not isfinite(ts):
                    raise ValueError(f"timestamp {ts} is not finite")
                stamps.append(ts)
                correct.append(label_of(label))
                student.append(users[user])
                pair.append(pairs[item_of(row),
                                  row[at] if at < len(row) else ""])
            except (IndexError, ValueError) as exc:
                raise ParseError(reader.line_num, str(exc)) from exc
    students, student_of = _code([key.strip() for key in users])
    names, entries = [], set()
    for item, skills in pairs:
        name = KDD_ITEM_SEP.join(  # a str from one item column, else a tuple
            part.strip() for part in ((item,) if len(ids) == 1 else item))
        skills = skills.strip()
        names.append(name)
        if skills.lower() != "nan":
            entries.update((name, k) for k in skills.split(f.skill_sep) if k)
    items, item_of_pair = _code(names)
    days = np.frombuffer(stamps)
    if f.seconds_per_unit != 86400.0:  # day stamps are kept as parsed
        days = days * f.seconds_per_unit / 86400.0
    ds = Dataset(students, items, student_of[np.frombuffer(student, np.int64)],
                 item_of_pair[np.frombuffer(pair, np.int64)], days,
                 np.frombuffer(correct, np.int8), QMatrix(entries))
    return ds.take(np.argsort(ds.student, kind="stable"))


def _label(text):
    correct = int(text)
    if correct not in (0, 1):
        raise ValueError(f"correct must be 0/1, got {correct}")
    return correct


def preprocess(dataset, min_interactions=10):
    """Apply the standard cleaning pipeline.

    Order: drop rows of items the q-matrix does not tag, drop duplicate
    (user, item, timestamp) rows keeping the first in row order, drop
    students with fewer than `min_interactions` remaining rows, then sort
    each student by time (stable, input order breaks ties) and rebase
    timestamps to days since the student's first remaining interaction.
    """
    ds, qm = dataset, dataset.qmatrix
    keep = np.array([bool(qm.skills_of(j)) for j in ds.items],
                    dtype=bool)[ds.item]
    # lexsort is stable: a key's rows stay in row order, the first one kept
    order = np.lexsort((ds.timestamp, ds.item, ds.student))
    dup = np.ones(max(len(order) - 1, 0), dtype=bool)
    for column in (ds.student, ds.item, ds.timestamp):
        dup &= column[order[1:]] == column[order[:-1]]
    keep[order[1:][dup]] = False
    count = np.bincount(ds.student[keep], minlength=len(ds.students))
    keep &= (count >= min_interactions)[ds.student]
    if not keep.any():
        raise EmptyDatasetError("no interactions left after preprocessing")
    rows = np.flatnonzero(keep)
    ds = ds.take(rows[np.lexsort((ds.timestamp[rows], ds.student[rows]))])
    students, student = _compact(ds.students, ds.student)
    items, item = _compact(ds.items, ds.item)
    t = ds.timestamp
    return Dataset(students, items, student, item,
                   t - t[np.searchsorted(student, student)], ds.correct,
                   qm.restricted_to(items))


def dataset_stats(dataset):
    """Corpus-level counts and the two temporal summary means."""
    ds, n = dataset, dataset.n_interactions
    if n == 0:
        return StatsReport(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, empty=True)
    qm, t = ds.qmatrix, ds.timestamp
    skills_per_item = np.mean([len(qm.skills_of(i)) for i in qm.items])
    first = np.flatnonzero(np.diff(ds.student, prepend=-1))
    last = np.append(first[1:], n) - 1
    # the gap between consecutive rows of a student on one skill
    row, skill, _ = ds.tag_pairs()
    group = ds.student[row] * len(qm.skills) + skill
    order = np.argsort(group, kind="stable")
    delays = np.diff(t[row[order]])[np.diff(group[order]) == 0]
    return StatsReport(
        users=len(ds.students),
        items=len(qm.items),
        skills=len(qm.skills),
        interactions=n,
        mean_correctness=int(ds.correct.sum()) / n,
        skills_per_item=float(skills_per_item),
        mean_skill_delay=float(np.mean(delays)) if len(delays) else 0.0,
        mean_study_period=float(np.mean(t[last] - t[first])),
    )


def student_kfold(dataset, k, seed):
    """Balanced, seeded partition of students into k disjoint folds."""
    students = dataset.students
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if k > len(students):
        raise ConfigError(f"k={k} exceeds student count {len(students)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(students))
    assignment = {}
    for pos, idx in enumerate(order):
        assignment[students[idx]] = pos % k
    return FoldAssignment(assignment, k=k, seed=seed)


def save_dataset(dataset, path):
    """Write a dataset in the canonical `generic` text format (days); each
    row's skills field is its item's sorted q-matrix skills. The bytes are
    those `csv.writer` writes; each distinct id and skills field is escaped
    once."""
    ds, qm = dataset, dataset.qmatrix
    sep = FORMATS["generic"].skill_sep
    tags = [sep.join(qm.skills_of(j)) for j in ds.items]

    def per_row(names, codes):
        return np.array(_escaped(names), dtype=object)[codes].tolist()

    with atomic_open(path, "w", newline="") as fh:
        fh.write("user,item,timestamp,correct,skills\r\n")
        fh.writelines(map("{},{},{!r},{},{}\r\n".format,
                          per_row(ds.students, ds.student),
                          per_row(ds.items, ds.item), ds.timestamp.tolist(),
                          ds.correct.tolist(), per_row(tags, ds.item)))


def _escaped(fields):
    """Each of `fields` as `csv.writer` writes it in a row of two or more
    fields (alone, an empty field is written as `""`)."""
    buf, out = io.StringIO(), []
    writer = csv.writer(buf)
    for text in fields:
        buf.seek(0)
        buf.truncate()
        writer.writerow((text, ""))
        out.append(buf.getvalue()[:-len(",\r\n")])
    return out


def load_prepared(path):
    """Load a dataset previously written by `save_dataset` (already clean)."""
    ds = load_interactions(path, fmt="generic")
    if ds.backwards().any():
        ds = ds.take(np.lexsort((ds.timestamp, ds.student)))
    return ds


def load_qmatrix_triplets(path):
    """A separate q-matrix file: one (item, skill) pair per row, neither blank."""
    entries = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header and header[0].strip().lower() not in ("item", "item_id"):
            fh.seek(0)
            reader = csv.reader(fh)
        for row in reader:
            item, skill = (cell.strip() for cell in (row + ["", ""])[:2])
            if item and skill:
                entries.add((item, skill))
    return QMatrix(entries)
