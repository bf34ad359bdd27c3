"""Interaction log ingestion, preprocessing, statistics and student-level folds.

Input files are delimiter-separated text with a header row. Each format tag
maps the logical columns (user, item, timestamp, correct, skills) onto actual
column names, fixes the timestamp unit, and says how the item id is built.
Timestamps are converted to fractional days internally; `preprocess` rebases
them to days since each student's first interaction. A row holds no skills of
its own: the skills column (and any separate q-matrix file) feeds one
`QMatrix`, and a row's skills are always `qmatrix.skills_of(row.item)`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, EmptyDatasetError, ParseError

# Separator used to build a single item id out of KDD-style problem/step
# pairs. Two characters, unlikely to occur in real ids.
KDD_ITEM_SEP = "@@"


@dataclass(frozen=True)
class Interaction:
    """One answer event: student s answered item j at time t, correctly or not.

    The item's skills are those of the dataset's q-matrix.
    """

    student: str
    item: str
    timestamp: float  # days
    correct: int


class QMatrix:
    """Binary item-to-skill tagging."""

    def __init__(self, entries):
        skills_of, items_of = {}, {}
        for item, skill in entries:
            skills_of.setdefault(item, set()).add(skill)
            items_of.setdefault(skill, set()).add(item)
        self._skills_of = {i: frozenset(s) for i, s in skills_of.items()}
        self._items_of = {k: frozenset(s) for k, s in items_of.items()}

    @property
    def items(self):
        return sorted(self._skills_of)

    @property
    def skills(self):
        return sorted(self._items_of)

    @property
    def item_count(self):
        return len(self._skills_of)

    @property
    def skill_count(self):
        return len(self.skills)

    def skills_of(self, item):
        return self._skills_of.get(item, frozenset())

    def items_of(self, skill):
        return self._items_of.get(skill, frozenset())

    def __contains__(self, item):
        return item in self._skills_of

    def entries(self):
        return {(i, k) for i, s in self._skills_of.items() for k in s}

    def restricted_to(self, items):
        keep = set(items)
        return QMatrix((i, k) for (i, k) in self.entries() if i in keep)


@dataclass
class Dataset:
    """Per-student chronologically ordered interactions plus the q-matrix."""

    interactions: dict[str, list[Interaction]]
    qmatrix: QMatrix

    @property
    def students(self):
        return sorted(self.interactions)

    @property
    def student_count(self):
        return len(self.interactions)

    @property
    def n_interactions(self):
        return sum(len(v) for v in self.interactions.values())

    def iter_rows(self):
        for s in self.students:
            yield from self.interactions[s]


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
    user: str
    item: str | None
    timestamp: str
    correct: str
    skills: str
    skill_sep: str
    seconds_per_unit: float
    # KDD-style formats build the item id from two columns.
    problem: str | None = None
    step: str | None = None


FORMATS = {
    "generic": _Format(
        user="user", item="item", timestamp="timestamp", correct="correct",
        skills="skills", skill_sep="~", seconds_per_unit=86400.0,
    ),
    "assist12": _Format(
        user="user", item="item", timestamp="timestamp", correct="correct",
        skills="skills", skill_sep="~", seconds_per_unit=1.0,
    ),
    "kddcup": _Format(
        user="user", item=None, timestamp="timestamp", correct="correct",
        skills="skills", skill_sep="~~", seconds_per_unit=1e-3,
        problem="problem", step="step",
    ),
}


def load_interactions(path, fmt="generic"):
    """Parse a delimited interaction log into a Dataset with raw day timestamps.

    Every row's skills field adds its (item, skill) pairs to the q-matrix,
    so an item's skills are the union over its rows. Rows with an empty
    skills field are kept; `preprocess` removes those of untagged items.
    """
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format tag {fmt!r}; known: {sorted(FORMATS)}")
    f = FORMATS[fmt]
    per_student: dict[str, list[Interaction]] = {}
    entries = set()
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delim = "\t" if "\t" in sample.splitlines()[0] else ","
        reader = csv.DictReader(fh, delimiter=delim)
        needed = [f.user, f.timestamp, f.correct, f.skills]
        needed += [f.item] if f.item else [f.problem, f.step]
        missing = [c for c in needed if c not in (reader.fieldnames or [])]
        if missing:
            raise ParseError(1, f"missing columns {missing} in header")
        for line_no, row in enumerate(reader, start=2):
            try:
                student = row[f.user].strip()
                if f.item:
                    item = row[f.item].strip()
                else:
                    item = row[f.problem].strip() + KDD_ITEM_SEP + row[f.step].strip()
                ts = float(row[f.timestamp]) * f.seconds_per_unit / 86400.0
                correct = int(row[f.correct])
                if correct not in (0, 1):
                    raise ValueError(f"correct must be 0/1, got {correct}")
                raw_skills = (row[f.skills] or "").strip()
                if raw_skills.lower() == "nan":
                    raw_skills = ""
            except (KeyError, ValueError, AttributeError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            per_student.setdefault(student, []).append(
                Interaction(student, item, ts, correct))
            entries.update((item, k) for k in raw_skills.split(f.skill_sep)
                           if k)
    return Dataset(per_student, QMatrix(entries))


def preprocess(dataset, min_interactions=10):
    """Apply the standard cleaning pipeline.

    Order: drop rows of items the q-matrix does not tag, drop duplicate
    (user, item, timestamp) rows keeping the first in file order, drop
    students with fewer than `min_interactions` remaining rows, then sort
    each student by time (stable, input order breaks ties) and rebase
    timestamps to days since the student's first remaining interaction.
    """
    out: dict[str, list[Interaction]] = {}
    for student in dataset.students:
        rows = [r for r in dataset.interactions[student]
                if dataset.qmatrix.skills_of(r.item)]
        seen = set()
        deduped = []
        for r in rows:
            key = (r.student, r.item, r.timestamp)
            if key in seen:
                continue
            seen.add(key)
            deduped.append(r)
        if len(deduped) < min_interactions:
            continue
        deduped.sort(key=lambda r: r.timestamp)  # stable: ties keep input order
        t0 = deduped[0].timestamp
        out[student] = [replace(r, timestamp=r.timestamp - t0) for r in deduped]
    if not out:
        raise EmptyDatasetError("no interactions left after preprocessing")
    items = {r.item for rows in out.values() for r in rows}
    return Dataset(out, dataset.qmatrix.restricted_to(items))


def dataset_stats(dataset):
    """Corpus-level counts and the two temporal summary means."""
    n = dataset.n_interactions
    if n == 0:
        return StatsReport(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, empty=True)
    qm = dataset.qmatrix
    correct = sum(r.correct for r in dataset.iter_rows())
    skills_per_item = np.mean([len(qm.skills_of(i)) for i in qm.items])
    delays = []
    periods = []
    for s in dataset.students:
        rows = dataset.interactions[s]
        periods.append(rows[-1].timestamp - rows[0].timestamp)
        last_seen: dict[str, float] = {}
        for r in rows:
            for k in qm.skills_of(r.item):
                if k in last_seen:
                    delays.append(r.timestamp - last_seen[k])
                last_seen[k] = r.timestamp
    return StatsReport(
        users=dataset.student_count,
        items=qm.item_count,
        skills=qm.skill_count,
        interactions=n,
        mean_correctness=correct / n,
        skills_per_item=float(skills_per_item),
        mean_skill_delay=float(np.mean(delays)) if delays else 0.0,
        mean_study_period=float(np.mean(periods)),
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
    row's skills field is its item's sorted q-matrix skills."""
    qm = dataset.qmatrix
    tags = {item: "~".join(sorted(qm.skills_of(item))) for item in qm.items}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "item", "timestamp", "correct", "skills"])
        for r in dataset.iter_rows():
            w.writerow([r.student, r.item, repr(r.timestamp), r.correct,
                        tags.get(r.item, "")])


def load_prepared(path):
    """Load a dataset previously written by `save_dataset` (already clean)."""
    ds = load_interactions(path, fmt="generic")
    for s in ds.interactions:
        ds.interactions[s].sort(key=lambda r: r.timestamp)
    return ds


def load_qmatrix_triplets(path):
    """Optional separate q-matrix file: one (item_id, skill_id) pair per row."""
    entries = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header and header[0].strip().lower() not in ("item", "item_id"):
            fh.seek(0)
            reader = csv.reader(fh)
        for row in reader:
            if len(row) < 2:
                continue
            entries.add((row[0].strip(), row[1].strip()))
    return QMatrix(entries)
