"""Sparse feature encoding with strictly-prior time-window practice counters.

Every model family is a choice of sparse feature blocks over the same
per-student practice counters, and `FAMILY_TABLE` is the single definition
of each one: its one-hot indicator blocks (users, items, skills), what its
history counters are keyed by (the row's skills or its item), the statistic
(log(1+count) per nested time window, or raw all-time totals), whether
history weights are per key or shared across keys, and its history blocks
in order. Layout sizes, family names, the vectorized batch `encode_dataset`
and the one online row walk (`_walk`) all come from that table; an oracle
test holds the batch encoder to the walk's rows. Online scoring
(`ModelFile.probability`) runs that walk with its columns bound one of two
ways: to their ids, collecting the row an FM scores (`row_builder`), or to
a linear model's weights, summing the logit in index order without
building the row (`row_logit`). Online, `row_counter` alone reads a
student's `_Counter`s, and a row is scored from its query and those window
counts. Counters always reflect strictly prior interactions of the same
student: a row is emitted before the counters are updated with its outcome.

What a family's encode counts does not depend on the family, so it is kept
with the `Dataset` (`Dataset.memo`, whose arrays are never written in
place) and shared by every later `encode_dataset` of that instance: the
(row, skill) pairs, and per (history key, window width) the prior
(attempts, wins) counts of each pair. das3h, das3h_1p and dash_kc count the
same windows, and das3h_plaincounts, pfa and afm das3h's infinite one. The
pairs' sort by (student, key), with its group starts and win prefix sums,
is redone by each encode that counts a width not counted yet, and is not
kept: at 24 bytes a pair, three times the counts of one window, it would
outlive every encode's sparse assembly and raise its peak memory, to spare
only an encode that counts widths the earlier ones did not (dash_kc's
finite windows after pfa's infinite one).
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy import sparse

from .corpus import atomic_open
from .errors import ConfigError, EncodingError

DEFAULT_WINDOWS = (1 / 24, 1.0, 7.0, 30.0, math.inf)

# Per-window statistic of a counter's (attempts, wins) lists, by history block.
_STATISTICS = {
    "wins": lambda a, c: c,
    "attempts": lambda a, c: a,
    "fails": lambda a, c: [x - y for x, y in zip(a, c)],
}


@dataclass(frozen=True)
class Family:
    """One model family as a choice of feature blocks.

    `indicators` are one-hot blocks from ("users", "items", "skills") and
    `history` blocks from `_STATISTICS`, each in layout order. History
    counters are keyed by the row's skills or by its item (`key` is
    "skills" or "items"). A windowed family holds log(1+count) per window
    of the spec, the others the raw all-time total. With `per_key` every
    key has its own weights; otherwise one weight per window is shared and
    the values of the keys are summed, in sorted key order.
    """

    indicators: tuple[str, ...]
    history: tuple[str, ...] = ()
    key: str = "skills"
    windowed: bool = False
    per_key: bool = False

    def columns(self, layout, name):
        """Column ids of block `name` of `layout`: one per id of an indicator
        block, (keys, windows) of a per-key history block (its key count is
        the size of the key's indicator block) and (windows,) of a shared
        one. Every reader of a weight's place asks this."""
        off, size = layout.blocks[name]
        cols = np.arange(off, off + size)
        if name in self.indicators or not self.per_key:
            return cols
        return cols.reshape(layout.size(self.key), -1)

    def counting(self, windows):
        """(widths, value of a count); totals count in one infinite window."""
        return (windows.widths, math.log1p) if self.windowed else (
            (math.inf,), float)

    def history_keys(self, item, skills):
        """Counter keys a row of `item` over `skills` reads and updates."""
        return (item,) if self.key == "items" else skills


_UI = ("users", "items")
_UIS = ("users", "items", "skills")
_WA = ("wins", "attempts")
_WF = ("wins", "fails")

FAMILY_TABLE = {
    "irt": Family(_UI),
    "mirtb": Family(_UI),
    "afm": Family(("skills",), ("attempts",), per_key=True),
    "pfa": Family(("skills",), _WF, per_key=True),
    "dash_items": Family(_UI, _WA, key="items", windowed=True),
    "dash_kc": Family(_UI, _WA, windowed=True),
    "das3h": Family(_UIS, _WA, windowed=True, per_key=True),
    "das3h_1p": Family(_UIS, _WA, windowed=True),
    "das3h_plaincounts": Family(_UIS, _WF, per_key=True),
}

FAMILIES = tuple(FAMILY_TABLE)


@dataclass(frozen=True)
class WindowSet:
    """Nested lookback widths in days; strictly increasing, last one infinite."""

    widths: tuple[float, ...] = DEFAULT_WINDOWS

    def __post_init__(self):
        w = self.widths
        if any(math.isnan(x) or x <= 0 for x in w):
            raise ConfigError(f"window widths must be positive numbers: {w}")
        if not w or any(b <= a for a, b in zip(w, w[1:])):
            raise ConfigError(f"window widths must be strictly increasing: {w}")
        if not math.isinf(w[-1]):
            raise ConfigError("last window width must be +inf")

    def __len__(self):
        return len(self.widths)


@dataclass(frozen=True)
class ModelSpec:
    family: str
    dim: int = 0
    windows: WindowSet = field(default_factory=WindowSet)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; known: {FAMILIES}")
        if self.dim < 0:
            raise ConfigError("dim must be >= 0")
        if self.family == "mirtb" and self.dim == 0:
            raise ConfigError("mirtb requires dim > 0 (use irt for dim 0)")
        if self.family == "irt" and self.dim != 0:
            raise ConfigError("irt requires dim = 0 (use mirtb for dim > 0)")

    @property
    def label(self):
        return f"{self.family}(d={self.dim})"


@dataclass(frozen=True)
class LayoutDescriptor:
    """Named contiguous feature blocks tiling [0, n_features), over the
    sorted ids they were built from; built only by `feature_layout`."""

    blocks: dict[str, tuple[int, int]]  # name -> (offset, size)
    n_features: int
    students: list[str]
    items: list[str]
    skills: list[str]

    def offset(self, name):
        return self.blocks[name][0]

    def size(self, name):
        return self.blocks[name][1]

    def group_of_feature(self):
        """Group id per feature column, for hierarchical regularization."""
        g = np.empty(self.n_features, dtype=np.int64)
        for gid, (name, (off, size)) in enumerate(self.blocks.items()):
            g[off:off + size] = gid
        return g

    def to_dict(self):
        return {**vars(self),
                "blocks": {k: list(v) for k, v in self.blocks.items()}}

    @classmethod
    def from_dict(cls, d, spec):
        """`feature_layout` of `spec` over the ids `d` stores; ValueError
        when an id is not a string (`json_value`) or `d` is not that
        layout's `to_dict()`."""
        ids = [json_value(d[name], "strs", name)
               for name in ("students", "items", "skills")]
        layout = feature_layout(spec, *ids)
        if d != layout.to_dict():
            raise ValueError(f"layout blocks {d.get('blocks')} are not those "
                             f"of {spec.label} over its ids: {layout.blocks}")
        return layout


def feature_layout(spec, students, items, skills):
    """The layout of `spec` over sorted student, item and skill ids: one
    column per id of an indicator block (skills at least one), then the
    history blocks; ConfigError for a zero-sized block."""
    family = FAMILY_TABLE[spec.family]
    sizes = {"users": len(students), "items": len(items),
             "skills": max(len(skills), 1)}
    width = ((sizes[family.key] if family.per_key else 1)
             * (len(spec.windows) if family.windowed else 1))
    blocks, off = {}, 0
    for name in family.indicators + family.history:
        size = sizes.get(name, width)
        if size <= 0:
            raise ConfigError(f"zero-sized block {name} for {len(students)} "
                              f"students and {len(items)} items")
        blocks[name] = (off, size)
        off += size
    return LayoutDescriptor(blocks, off, students, items, skills)


def build_layout(spec, dataset):
    """The layout of `spec` over a preprocessed dataset's ids."""
    return feature_layout(spec, dataset.students, dataset.qmatrix.items,
                          dataset.qmatrix.skills)


def window_counts(history, query_time, windows):
    """Per-window attempt and win counts over strictly prior history.

    `history` is an ordered list of (time, correct) with all times <= the
    query time (equal times are earlier in input order, hence prior). An
    attempt at t' falls in window w iff query_time - t' < w (strict).
    """
    counter = _Counter()
    for t, c in history:
        counter.push(t, c)
    return tuple(map(tuple, _counts_from(
        counter.times, counter.wins_prefix, query_time, windows.widths)))


def _counts_from(times, wins_prefix, query_time, widths):
    """Count attempts/wins with elapsed = query_time - t < width (strict).

    The window test is the definition's, `t - query_time > -width` (exactly
    `-(query_time - t) > -width`); thresholding `t > query_time - width` is
    not float-equivalent. Both tests are monotone on non-decreasing times,
    so a finite window is found by the C `bisect_right(times, query_time -
    width)` and a walk from there, backward over the times before it that
    pass the exact test and forward over those after it that fail, to the
    first time that passes. The walk covers only times a few ulps from the
    boundary (and their repeats), so a query costs one bisection and a
    short walk per finite window, and nothing is set up per call.
    """
    n = len(times)
    if not n:
        return [0] * len(widths), [0] * len(widths)
    total = wins_prefix[n]
    attempts, wins = [], []
    for w in widths:
        lo = 0
        if w < math.inf:
            lo = bisect_right(times, query_time - w)
            while lo and times[lo - 1] - query_time > -w:
                lo -= 1
            while lo < n and not times[lo] - query_time > -w:
                lo += 1
        attempts.append(n - lo)
        wins.append(total - wins_prefix[lo])
    return attempts, wins


class _Counter:
    """Streaming per-(student, key) history: sorted times + win prefix sums."""

    __slots__ = ("times", "wins_prefix")

    def __init__(self):
        self.times = []
        self.wins_prefix = [0]

    def push(self, t, correct):
        self.times.append(t)
        self.wins_prefix.append(self.wins_prefix[-1] + int(correct))


def record(counters, keys, t, correct):
    """Push the answer `correct` at `t` to the `_Counter` of each of `keys`
    in `counters`, creating the counter of a key that has none."""
    for key in keys:
        counter = counters.get(key)
        if counter is None:
            counter = counters[key] = _Counter()
        counter.push(t, correct)


@dataclass
class DesignMatrix:
    """Encoded rows (CSR), labels, the student of each row, layout and spec."""

    X: sparse.csr_matrix
    y: np.ndarray
    students: list[str]
    layout: LayoutDescriptor
    spec: ModelSpec

    @property
    def n_rows(self):
        return self.X.shape[0]

    def row(self, i):
        start, end = self.X.indptr[i], self.X.indptr[i + 1]
        return SparseVector(indices=self.X.indices[start:end].copy(),
                            values=self.X.data[start:end].copy())


SparseVector = namedtuple("SparseVector", "indices values")


_EMPTY = _Counter()


def row_counter(spec):
    """`count(counters, query_time, item, skills)` -> `_counts_from`'s
    (attempts, wins) of each history key a row of `spec`'s family reads, an
    absent key counting an empty history, or () for a family with no
    history blocks: all that the row walk (`_walk`) reads of counters."""
    family = FAMILY_TABLE[spec.family]
    if not family.history:
        return lambda counters, query_time, item, skills: ()
    widths, keys = family.counting(spec.windows)[0], family.history_keys

    def count(counters, query_time, item, skills):
        counts = []
        for key in keys(item, skills):
            c = counters.get(key, _EMPTY)
            counts.append(_counts_from(c.times, c.wins_prefix, query_time,
                                       widths))
        return counts

    return count


class _Column(int):
    """A column id bound into `row_builder`'s walk: times a value, it is
    the row term (id, value)."""

    __slots__ = ()

    def __mul__(self, value):
        return int(self), value


class _Row(tuple):
    """`row_builder`'s walk total, the row's (indices, values) lists: `+=` a
    term appends its id and value, and `+=` a bare `_Column` its id and 1.0."""

    __slots__ = ()

    def __new__(cls):
        return super().__new__(cls, ([], []))

    def __iadd__(self, term):
        i, v = term if type(term) is tuple else (int(term), 1.0)
        self[0].append(i)
        self[1].append(v)
        return self


def _walk(spec, layout, at, start):
    """`walk(counts, student, item, skills)` -> `start()` plus each term of
    the row of `spec`'s family over `layout`, in index order. The row reads
    what `row_counter(spec)` counts for the same query before the row's own
    outcome and nothing else; `skills` is its sorted skill list. Each column
    is bound to `at[col]` once, here, per indicator block by id and per
    history block by key (per key) or by window (shared), so a row costs its
    id lookups and its values. An indicator adds its bound column, and a
    history value the column times that value; a zero value (a count of 0,
    or a shared sum of 0.0) adds nothing. A student or item outside the
    layout, or None (a virtual query), adds no indicator."""
    family = FAMILY_TABLE[spec.family]
    widths, transform = family.counting(spec.windows)
    windows = range(len(widths))
    per_key, history_keys = family.per_key, family.history_keys
    ids = {"users": layout.students, "items": layout.items,
           "skills": layout.skills}
    bound = {name: at[family.columns(layout, name)].tolist()
             for name in layout.blocks}
    # the row's one id an indicator block reads: 0 the student, 1 the
    # item, None each of the row's skills
    indicators = [({"users": 0, "items": 1}.get(name),
                   dict(zip(ids[name], bound[name])))
                  for name in family.indicators]
    history = [(dict(zip(ids[family.key], bound[name])) if per_key
                else bound[name], _STATISTICS[name])
               for name in family.history]

    def walk(counts, student, item, skills):
        z = start()
        for one, by_id in indicators:
            if one is None:
                for k in skills:
                    z += by_id[k]
            else:
                w = by_id.get(item if one else student)
                if w is not None:
                    z += w
        if per_key:
            keys = history_keys(item, skills)
            for key_bound, stat in history:
                for key, (a, c) in zip(keys, counts):
                    for w, n in zip(key_bound[key], stat(a, c)):
                        if n:
                            z += w * transform(n)
        else:
            for window_bound, stat in history:
                per_key_values = [stat(a, c) for a, c in counts]
                for w in windows:
                    v = 0.0
                    for n in per_key_values:
                        v += transform(n[w])
                    if v != 0.0:
                        z += window_bound[w] * v
        return z

    return walk


def row_builder(spec, layout):
    """`build(counts, student, item, skills)` -> the (indices, values) of
    the row `_walk` walks, in index order, zero values dropped: its columns
    bound to their ids, and each term collected into a `_Row`."""
    return _walk(spec, layout, np.array(
        [_Column(i) for i in range(layout.n_features)], dtype=object), _Row)


def row_logit(spec, layout, weights):
    """`logit(counts, student, item, skills)`: the sum of `weights[i] * v`
    over the row `row_builder(spec, layout)` builds from the same arguments,
    without building it: `_walk` with each column bound to its weight, from
    0.0. An indicator adds its weight (`w * 1.0` is `w`), a history value
    `w * v`, in index order, so the sum is bit for bit the one over the
    row."""
    return _walk(spec, layout, np.asarray(weights), float)


def encode_dataset(dataset, spec):
    """Encode every interaction into a DesignMatrix, per-student chronological.

    One numpy pass builds, bit for bit, the rows `row_builder` builds from
    `row_counter`'s counts of `_Counter`s pushed after each row. Raises
    EncodingError for an item outside the q-matrix or a student whose rows
    are out of time order.
    """
    layout = build_layout(spec, dataset)
    family = FAMILY_TABLE[spec.family]
    students = layout.students
    item_pos = {j: p for p, j in enumerate(layout.items)}
    user, y = dataset.student, dataset.correct
    n = len(y)
    item = np.array([item_pos.get(j, -1) for j in dataset.items],
                    dtype=np.int64)[dataset.item]
    if (item < 0).any():
        bad = dataset.items[dataset.item[np.argmax(item < 0)]]
        raise EncodingError(f"item {bad!r} missing from q-matrix")
    back = dataset.backwards()
    if back.any():
        bad = students[user[np.argmax(back)]]
        raise EncodingError(f"rows of student {bad!r} are not in time order")

    # (row, skill) pairs, row-major, each row's skills in sorted order
    pair_row, pair_skill, rank = dataset.tag_pairs()
    blocks = {"users": (np.arange(n), user), "items": (np.arange(n), item),
              "skills": (pair_row, pair_skill)}
    segments = [(at, family.columns(layout, name)[pos],
                 np.broadcast_to(1.0, pos.shape))
                for name in family.indicators for at, pos in [blocks[name]]]
    if family.history:
        key_rank = rank if family.key == "skills" else np.zeros_like(item)
        segments += _history_segments(dataset, family, spec, layout,
                                      *blocks[family.key], key_rank)
    # segments are sorted by row, then column, and come in column-block
    # order: each fills its rows' next free slots and is dropped once placed
    indptr = np.concatenate(([0], np.cumsum(sum(
        np.bincount(at, minlength=n) for at, _, _ in segments))))
    # column ids in int32 where they fit, the dtype `csr_matrix` keeps, so
    # that it does not copy them
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=(
        np.int32 if layout.n_features <= np.iinfo(np.int32).max else np.int64))
    fill = indptr[:-1].copy()
    while segments:
        at, cols, vals = segments.pop(0)
        counts = np.bincount(at, minlength=n)
        pos = (fill - np.cumsum(counts) + counts)[at] + np.arange(len(at))
        data[pos], indices[pos] = vals, cols
        fill += counts
    X = sparse.csr_matrix((data, indices, indptr),
                          shape=(n, layout.n_features))
    return DesignMatrix(X=X, y=y, layout=layout, spec=spec, students=np.array(
        students, dtype=object)[user].tolist())


def _history_segments(dataset, family, spec, layout, key_row, key, rank):
    """The history blocks of `family` as (rows, columns, values) segments,
    from the dataset's (row, key) pairs in row-major order, each row's keys
    sorted and `rank` a pair's place among them. Each window's counts are
    found once per dataset, history key and width (`Dataset.memo`); those a
    dataset lacks are found together, in one block of memory."""
    widths, transform = family.counting(spec.windows)
    W, n = len(widths), dataset.n_interactions
    user, t, y = dataset.student, dataset.timestamp, dataset.correct
    attempts, wins = zip(*dataset.memo(
        [("counts", family.key, width) for width in widths],
        lambda missing: _prior_counts(
            [width for *_, width in missing],
            user[key_row] * (int(key.max(initial=0)) + 1) + key, t[key_row],
            y[key_row]).swapaxes(0, 1)))
    table = np.array([transform(c) for c in range(
        max(a.max(initial=0) for a in attempts) + 1)])
    segments = []
    for name in family.history:
        vals = np.empty((len(key_row), W))  # pair x window
        for w, c in enumerate(_STATISTICS[name](attempts, wins)):
            vals[:, w] = table[c]
        at, cols = key_row, family.columns(layout, name)
        if not family.per_key:  # add each row's keys rank by rank from 0.0
            total = np.zeros((n, W))
            for r in range(rank.max(initial=-1) + 1):
                total[key_row[rank == r]] += vals[rank == r]
            vals, at = total, np.arange(n)
        i, w = np.nonzero(vals)  # a zero count has value 0.0, and only it
        segments.append((at[i], cols[key[i], w] if family.per_key else cols[w],
                         vals[i, w]))
        del vals, i, w
    return segments


def _prior_counts(widths, group, t, y):
    """Attempts and wins, shape (2, windows, pairs), among the pairs before
    each pair in its `group` (a group's pairs come in time order), counted
    per window as `_counts_from` counts them."""
    order = np.argsort(group, kind="stable")
    group, times = group[order], t[order]
    wins = np.concatenate(([0], np.cumsum(y[order], dtype=np.int64)))
    here = np.arange(len(group))
    start = np.searchsorted(group, group)
    counts = np.empty((2, len(widths), len(group)), dtype=np.int32)
    for w, width in enumerate(widths):
        # bisect_right over [start, here) probing `_counts_from`'s predicate
        lo, hi = start.copy(), here.copy()
        while not math.isinf(width) and (lo < hi).any():
            mid = (lo + hi) // 2
            inside = times[mid] - times > -width
            lo, hi = (np.where((lo < hi) & ~inside, mid + 1, lo),
                      np.where((lo < hi) & inside, mid, hi))
        counts[:, w, order] = here - lo, wins[here] - wins[lo]
    return counts


def spec_to_dict(spec):
    return {"family": spec.family, "dim": spec.dim,
            "windows": ["inf" if math.isinf(w) else w for w in spec.windows.widths]}


# each `json_value` kind, or a list kind's leaf: the Python types that JSON
# reads it as, and what an error calls it
_JSON_KINDS = {"int": ({int}, "a number written as an integer"),
               "float": ({int, float}, "a number"), "str": ({str}, "a string"),
               "bool": ({bool}, "a boolean"), "dict": ({dict}, "an object")}


def json_value(value, kind, name):
    """`value`, read from JSON where a value of `kind` is stored: an "int",
    a "float" (finite, returned as a float), a "bool", a "dict", a "str",
    "strs" (a list of strings) or "floats" (a list of finite numbers nested
    as an array's rows, returned as a float array). Else ValueError naming
    `name`: a JSON boolean is no number, though Python's `bool` is an int."""
    one = kind.removesuffix("s")
    types, what = _JSON_KINDS[one]
    leaves = value if one != kind else [value]
    if type(leaves) is not list:
        raise ValueError(f"{name} is {json.dumps(value)}, not a list")
    try:
        if kind == "floats":  # an array's leaves lie at its depth
            value = np.asarray(value, float)
            for _ in range(value.ndim - 1):
                leaves = chain.from_iterable(leaves)
        elif kind == "float" and type(value) in types:
            value = float(value)
    except OverflowError:  # an integer past the largest float
        raise ValueError(f"{name} is not finite") from None
    except TypeError:  # an object among the numbers
        raise ValueError(f"a value of {name} is not {what}") from None
    if not set(map(type, leaves)) <= types:
        raise ValueError(f"a value of {name} is not {what}" if one != kind
                         else f"{name} is {json.dumps(value)}, not {what}")
    if one == "float" and not (math.isfinite(value) if one == kind
                               else np.isfinite(value).all()):
        raise ValueError(f"{name} is not finite")
    return value


def spec_from_dict(d):
    widths = tuple(math.inf if w == "inf"
                   else json_value(w, "float", "a window width")
                   for w in d["windows"])
    return ModelSpec(d["family"], json_value(d["dim"], "int", "dim"),
                     WindowSet(widths))


def save_design(dm, path):
    """Write a design as one uncompressed `.npz` archive at exactly `path`.

    It holds the CSR `data`, `indices`, `indptr` and `shape`, the int8
    labels `y`, each row's student as a unicode array `students` and the
    sha256 of its sidecar's bytes as `sidecar_sha256`, so it loads with
    `allow_pickle=False`. The layout and the spec go to a JSON sidecar at
    `path + ".json"`, written after the archive; the digest ties the two
    files together, so a crash between the two writes cannot pair the new
    archive with an old sidecar.
    """
    X = dm.X
    sidecar = json.dumps({"layout": dm.layout.to_dict(),
                          "spec": spec_to_dict(dm.spec)}).encode()
    # a file handle keeps numpy from appending ".npz" to the path
    with atomic_open(path, "wb") as fh:
        np.savez(fh, data=X.data, indices=X.indices, indptr=X.indptr,
                 shape=np.asarray(X.shape, dtype=np.int64), y=dm.y,
                 students=np.asarray(dm.students, dtype=str),
                 sidecar_sha256=np.asarray(hashlib.sha256(sidecar).hexdigest()))
    with atomic_open(path + ".json", "wb") as fh:
        fh.write(sidecar)


def load_design(path):
    """Read a design written by `save_design`, arrays bit for bit.

    Raises EncodingError naming `path` when the file is not such an archive,
    its sidecar is missing or is not the one written with it, its layout is
    not its spec's (`LayoutDescriptor.from_dict`), or the arrays are not a
    CSR matrix of the layout's columns with a label of 0 or 1 per row.
    """
    try:
        npz = np.load(path, allow_pickle=False)
        if not isinstance(npz, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with npz:
            a = {name: npz[name] for name in ("data", "indices", "indptr",
                                              "shape", "y", "students",
                                              "sidecar_sha256")}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        raise EncodingError(f"{path} is not a design archive") from None
    try:
        with open(path + ".json", "rb") as fh:
            raw = fh.read()
        if hashlib.sha256(raw).hexdigest() != str(a["sidecar_sha256"]):
            raise ValueError(f"{path}.json was not written with it")
        sidecar = json.loads(raw)
        spec = spec_from_dict(sidecar["spec"])
        layout = LayoutDescriptor.from_dict(sidecar["layout"], spec)
        shape, indptr, cols, y = a["shape"], a["indptr"], a["indices"], a["y"]
        n = layout.n_features
        if not (shape.shape == (2,) and shape[1] == n
                and len(indptr) == shape[0] + 1
                and len(y) == len(a["students"]) == shape[0]
                and len(cols) == len(a["data"]) == indptr[-1]):
            raise ValueError(
                f"array lengths disagree with shape {shape.tolist()}, "
                f"{len(y)} labels and {n} layout features")
        if not (indptr[0] == 0 and (np.diff(indptr) >= 0).all()
                and cols.min(initial=0) >= 0 and cols.max(initial=-1) < n):
            raise ValueError("row pointers or column indices are not a CSR "
                             f"matrix of {n} columns")
        if not ((y == 0) | (y == 1)).all():
            raise ValueError("a label is not 0 or 1")
    except (OSError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise EncodingError(f"{path}: {type(exc).__name__}: {exc}") from None
    X = sparse.csr_matrix((a["data"], cols, indptr),
                          shape=(int(shape[0]), int(shape[1])))
    return DesignMatrix(X=X, y=y, students=a["students"].tolist(),
                        layout=layout, spec=spec)
