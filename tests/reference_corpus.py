"""Row-object reference of the corpus layer: one `Interaction` per row,
grouped in a dict by student. The columnar `skillmem.corpus` must load,
clean, write and re-read a log exactly as these functions do."""

import csv
import math
from dataclasses import dataclass, replace

from skillmem.corpus import FORMATS, KDD_ITEM_SEP, QMatrix
from skillmem.errors import EmptyDatasetError, ParseError


@dataclass(frozen=True)
class Interaction:
    student: str
    item: str
    timestamp: float  # days
    correct: int


def load_interactions(path, fmt="generic"):
    """(per-student rows in file order, q-matrix) of a delimited log."""
    f = FORMATS[fmt]
    per_student, entries = {}, set()
    with open(path, newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delim = "\t" if "\t" in sample.splitlines()[0] else ","
        reader = csv.DictReader(fh, delimiter=delim)
        for line_no, row in enumerate(reader, start=2):
            try:
                student = row["user"].strip()
                item = KDD_ITEM_SEP.join(row[c].strip()
                                         for c in f.item_columns)
                ts = float(row["timestamp"])
                if not math.isfinite(ts):
                    raise ValueError(f"timestamp {ts} is not finite")
                if f.seconds_per_unit != 86400.0:  # days are kept as parsed
                    ts = ts * f.seconds_per_unit / 86400.0
                correct = int(row["correct"])
                if correct not in (0, 1):
                    raise ValueError(f"correct must be 0/1, got {correct}")
                raw_skills = (row["skills"] or "").strip()
                if raw_skills.lower() == "nan":
                    raw_skills = ""
            except (KeyError, ValueError, AttributeError) as exc:
                raise ParseError(line_no, str(exc)) from exc
            per_student.setdefault(student, []).append(
                Interaction(student, item, ts, correct))
            entries.update((item, k) for k in raw_skills.split(f.skill_sep)
                           if k)
    return per_student, QMatrix(entries)


def preprocess(log, min_interactions):
    """Drop untagged items' rows and later duplicates, drop sparse students,
    sort each student by time (stable) and rebase to the first row."""
    per_student, qm = log
    out = {}
    for student in sorted(per_student):
        seen, deduped = set(), []
        for r in per_student[student]:
            key = (r.student, r.item, r.timestamp)
            if qm.skills_of(r.item) and key not in seen:
                seen.add(key)
                deduped.append(r)
        if len(deduped) < min_interactions:
            continue
        deduped.sort(key=lambda r: r.timestamp)
        t0 = deduped[0].timestamp
        out[student] = [replace(r, timestamp=r.timestamp - t0)
                        for r in deduped]
    if not out:
        raise EmptyDatasetError("no interactions left after preprocessing")
    items = {r.item for rows in out.values() for r in rows}
    return out, qm.restricted_to(items)


def rows(log):
    """Every row as a (student, item, timestamp, correct) tuple, students in
    sorted order."""
    per_student, _ = log
    return [(r.student, r.item, r.timestamp, r.correct)
            for s in sorted(per_student) for r in per_student[s]]


def save_dataset(log, path):
    per_student, qm = log
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["user", "item", "timestamp", "correct", "skills"])
        for student, item, t, correct in rows(log):
            w.writerow([student, item, repr(t), correct,
                        "~".join(sorted(qm.skills_of(item)))])


def load_prepared(path):
    per_student, qm = load_interactions(path)
    return {s: sorted(v, key=lambda r: r.timestamp)
            for s, v in per_student.items()}, qm
