import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Row, rows_of
from skillmem.corpus import Dataset, QMatrix
from skillmem.encoder import (DEFAULT_WINDOWS, FAMILIES, FAMILY_TABLE,
                              ModelSpec, WindowSet, encode_dataset,
                              feature_layout, load_design, save_design,
                              window_counts)
from skillmem.errors import ConfigError, EncodingError
from skillmem.synth import SynthConfig, make_synthetic

DEFAULT = WindowSet()


def brute_force_window_counts(history, query_time, windows):
    """Independent oracle: plain linear scan over the history list."""
    attempts, wins = [], []
    for w in windows.widths:
        a = sum(1 for t, _ in history if query_time - t < w)
        c = sum(1 for t, corr in history if query_time - t < w and corr)
        attempts.append(a)
        wins.append(c)
    return tuple(attempts), tuple(wins)


@st.composite
def spread_histories(draw):
    """(history, query time): up to 40 answers in [0, 50] days, queried up
    to 60 days after the last one."""
    raw = sorted(draw(st.lists(st.tuples(st.floats(0, 50), st.booleans()),
                               max_size=40)), key=lambda p: p[0])
    hist = [(t, int(c)) for t, c in raw]
    return hist, (hist[-1][0] if hist else 0.0) + draw(st.floats(0, 60))


@st.composite
def boundary_histories(draw):
    """(history, query time): answers a few ulps on either side of
    `query - width` for the finite default widths, some of them repeated,
    at query times up to 1e6 days, where `t > query - width` and
    `t - query > -width` disagree: either way round below about twice the
    width, where `t - query` rounds, and only one way above it. The query
    is drawn uniformly: `query - width` is exact for the round values that
    `st.floats` favours, and then the two tests agree."""
    rnd = draw(st.randoms(use_true_random=True))
    query = rnd.uniform(0.0, draw(st.sampled_from((64.0, 1e6))))
    hist = []
    for _ in range(draw(st.integers(1, 24))):
        t = query - draw(st.sampled_from(DEFAULT.widths[:-1]))
        ulps = draw(st.integers(-3, 3))
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
        hist += [(min(t, query), int(draw(st.booleans())))
                 ] * draw(st.integers(1, 3))
    hist.sort(key=lambda p: p[0])
    return hist, query


class TestWindowCounts:
    def test_empty_history(self):
        a, c = window_counts([], 5.0, DEFAULT)
        assert a == (0, 0, 0, 0, 0)
        assert c == (0, 0, 0, 0, 0)

    def test_two_attempts(self):
        # elapsed 2 and 1.5 days against widths {1/24, 1, 7, 30, inf}
        hist = [(0.0, 1), (0.5, 0)]
        a, c = window_counts(hist, 2.0, DEFAULT)
        assert a == (0, 0, 2, 2, 2)
        assert c == (0, 0, 1, 1, 1)
        assert (a, c) == brute_force_window_counts(hist, 2.0, DEFAULT)[0:2]

    def test_three_wins(self):
        hist = [(0.0, 1), (1.5, 1), (1.99, 1)]
        a, c = window_counts(hist, 2.0, DEFAULT)
        assert a == (1, 2, 3, 3, 3)
        assert c == a

    def test_strict_boundary(self):
        # elapsed exactly one width is outside that window
        hist = [(0.0, 1)]
        a, _ = window_counts(hist, 1.0, DEFAULT)
        assert a == (0, 0, 1, 1, 1)

    def test_boundary_uses_elapsed_not_threshold(self):
        # 1.0 - 0.9 < 0.1 holds in floats, but 0.9 > 1.0 - 0.1 does not
        assert window_counts([(0.9, 1)], 1.0, WindowSet((0.1, math.inf))) \
            == ((1, 1), (1, 1))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(spread_histories(), boundary_histories()))
    def test_matches_oracle(self, case):
        hist, query = case
        assert window_counts(hist, query, DEFAULT) == \
            brute_force_window_counts(hist, query, DEFAULT)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 50), st.booleans()), max_size=40),
           st.floats(0, 10))
    def test_nesting(self, raw, extra):
        raw.sort(key=lambda p: p[0])
        hist = [(t, int(c)) for t, c in raw]
        query = (hist[-1][0] if hist else 0.0) + extra
        a, c = window_counts(hist, query, DEFAULT)
        assert list(a) == sorted(a) and list(c) == sorted(c)
        assert all(ci <= ai for ai, ci in zip(a, c))


class TestWindowSet:
    def test_not_increasing(self):
        with pytest.raises(ConfigError):
            WindowSet((1.0, 1.0, math.inf))

    def test_missing_inf(self):
        with pytest.raises(ConfigError):
            WindowSet((1.0, 7.0))

    @pytest.mark.parametrize("widths", [(math.nan, math.inf),
                                        (1.0, math.nan, math.inf),
                                        (0.0, math.inf), (-1.0, math.inf)])
    def test_nan_or_non_positive(self, widths):
        with pytest.raises(ConfigError, match="positive"):
            WindowSet(widths)


class TestModelSpec:
    def test_mirtb_needs_dim(self):
        with pytest.raises(ConfigError):
            ModelSpec("mirtb", 0)

    def test_irt_dim_zero_only(self):
        with pytest.raises(ConfigError):
            ModelSpec("irt", 5)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            ModelSpec("dkt", 0)

    def test_negative_dim(self):
        with pytest.raises(ConfigError, match="dim must be >= 0"):
            ModelSpec("das3h", -1)


class TestLayout:
    def test_das3h_size(self):
        lay = feature_layout(ModelSpec("das3h", 0), (2, 3, 2))
        assert lay.n_features == 2 + 3 + 2 + 2 * (2 * 5)
        assert lay.blocks["wins"] == (7, 10)

    def test_irt_size(self):
        lay = feature_layout(ModelSpec("irt", 0), (10, 7, 1))
        assert lay.n_features == 17

    def test_shared_vs_per_skill_gap(self):
        S, J, K, W = 4, 6, 3, 5
        full = feature_layout(ModelSpec("das3h", 0), (S, J, K)).n_features
        shared = feature_layout(ModelSpec("das3h_1p", 0), (S, J, K)).n_features
        assert full - shared == 2 * W * (K - 1)

    def test_blocks_tile(self):
        for fam in ("irt", "afm", "pfa", "dash_items", "das3h", "das3h_1p",
                    "das3h_plaincounts"):
            lay = feature_layout(ModelSpec(fam, 0), (4, 6, 3))
            offsets = sorted(lay.blocks.values())
            pos = 0
            for off, size in offsets:
                assert off == pos
                pos += size
            assert pos == lay.n_features

    @pytest.mark.parametrize("family", FAMILIES)
    def test_columns_tile_the_layout_once(self, family):
        # K = 3 skills, J = 6 items and W = 2 windows: a block read with
        # keys and windows swapped has the wrong shape
        spec = ModelSpec(family, int(family == "mirtb"),
                         WindowSet((1.0, math.inf)))
        lay = feature_layout(spec, (4, 6, 3))
        fam = FAMILY_TABLE[family]
        cols = [fam.columns(lay, name) for name in lay.blocks]
        assert np.array_equal(np.sort(np.concatenate([c.ravel() for c in cols])),
                              np.arange(lay.n_features))
        n_windows = 2 if fam.windowed else 1
        keys = {"skills": 3, "items": 6}[fam.key]
        for name, c in zip(lay.blocks, cols):
            assert c.shape == ((lay.size(name),) if name in fam.indicators
                               else (keys, n_windows) if fam.per_key
                               else (n_windows,))

    def test_zero_dim_error(self):
        with pytest.raises(ConfigError):
            feature_layout(ModelSpec("das3h", 0), (0, 3, 2))


def _toy_dataset():
    """One student, one single-skill item, two attempts 0.5 days apart."""
    qm = QMatrix([("i1", "k1")])
    rows = [Row("u1", "i1", 0.0, 1), Row("u1", "i1", 0.5, 0)]
    return Dataset.from_rows(rows, qm)


class TestEncodeDataset:
    def test_first_interaction_all_history_zero(self, fixture_dataset):
        dm = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
        lay = dm.layout
        seen = set()
        for i in range(dm.n_rows):
            s = dm.students[i]
            if s in seen:
                continue
            seen.add(s)
            row = dm.row(i)
            for j in row.indices:
                assert lay.block_of(j) in ("users", "items", "skills")

    def test_second_row_win_features(self):
        dm = encode_dataset(_toy_dataset(), ModelSpec("das3h", 0))
        row = dm.row(1)
        lay = dm.layout
        vals = {int(j): v for j, v in zip(row.indices, row.values)}
        w_off = lay.offset("wins")
        a_off = lay.offset("attempts")
        # elapsed 0.5 days: in windows {1, 7, 30, inf}, not 1/24
        expected = [0.0] + [math.log(2)] * 4
        for w in range(5):
            assert vals.get(w_off + w, 0.0) == pytest.approx(expected[w])
            assert vals.get(a_off + w, 0.0) == pytest.approx(expected[w])

    def test_one_win_sits_at_its_skill_win_columns(self):
        # K = 2 skills, W = 3 windows; a win on k2 half a day before the row
        qm = QMatrix([("i1", "k2"), ("i2", "k1")])
        rows = [Row("u1", "i1", 0.0, 1), Row("u1", "i1", 0.5, 0)]
        dm = encode_dataset(Dataset.from_rows(rows, qm), ModelSpec(
            "das3h", 0, WindowSet((1 / 24, 1.0, math.inf))))
        wins = FAMILY_TABLE["das3h"].columns(dm.layout, "wins")
        row = dm.row(1)
        got = {int(j): v for j, v in zip(row.indices, row.values)
               if j in set(wins.ravel().tolist())}
        k = dm.layout.skills.index("k2")
        assert got == {int(wins[k, 1]): math.log(2), int(wins[k, 2]): math.log(2)}

    def test_single_skill_1p_equals_das3h_values(self):
        ds = _toy_dataset()
        full = encode_dataset(ds, ModelSpec("das3h", 0))
        shared = encode_dataset(ds, ModelSpec("das3h_1p", 0))
        for i in range(full.n_rows):
            assert np.allclose(np.sort(full.row(i).values),
                               np.sort(shared.row(i).values))

    def test_missing_item_error(self):
        qm = QMatrix([("i1", "k1")])
        ds = Dataset.from_rows([Row("u1", "i2", 0.0, 1)], qm)
        with pytest.raises(EncodingError, match="i2"):
            encode_dataset(ds, ModelSpec("irt", 0))

    def test_determinism(self, fixture_dataset):
        a = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
        b = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
        assert (a.X != b.X).nnz == 0
        assert np.array_equal(a.y, b.y)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from("abc"), unique=True,
                                   max_size=3),
                          st.floats(0, 50), st.booleans()), max_size=20))
def test_record_is_pushing_by_hand(answers):
    # `record` keeps a key's counter and creates one for a key without any
    from skillmem.encoder import _Counter, record

    kept = _Counter()
    counters, by_hand = {"a": kept}, {"a": _Counter()}
    for keys, t, correct in answers:
        record(counters, keys, t, correct)
        for key in keys:
            by_hand.setdefault(key, _Counter()).push(t, correct)
    assert counters["a"] is kept
    assert sorted(counters) == sorted(by_hand)
    for key, counter in by_hand.items():
        assert counters[key].times == counter.times
        assert counters[key].wins_prefix == counter.wins_prefix


def recompute_row_from_scratch(dataset, spec, student, row_pos):
    """No-leakage oracle: rebuild one row's features using only the rows
    strictly before it in the student's stream."""
    from skillmem.encoder import (FAMILY_TABLE, _Counter, build_layout,
                                  row_builder, row_counter)

    layout = build_layout(spec, dataset)
    family = FAMILY_TABLE[spec.family]
    rows = rows_of(dataset, student)
    counters = {}
    for r in rows[:row_pos]:
        for key in family.history_keys(
                r.item, sorted(dataset.qmatrix.skills_of(r.item))):
            counters.setdefault(key, _Counter()).push(r.timestamp, r.correct)
    r = rows[row_pos]
    skills = sorted(dataset.qmatrix.skills_of(r.item))
    counts = row_counter(spec)(counters, r.timestamp, r.item, skills)
    idx, val = row_builder(spec, layout)(counts, student, r.item, skills)
    return np.asarray(idx, dtype=np.int64), np.asarray(val)


def streaming_encode(dataset, spec):
    """Streaming reference of `encode_dataset`: one `row_builder` row per
    interaction over per-student `_Counter`s, pushed after the row is
    emitted. Returns the CSR, the labels and each row's student."""
    from scipy import sparse

    from skillmem.encoder import (FAMILY_TABLE, _Counter, build_layout,
                                  row_builder, row_counter)

    layout = build_layout(spec, dataset)
    family = FAMILY_TABLE[spec.family]
    count, build = row_counter(spec), row_builder(spec, layout)
    qm = dataset.qmatrix
    data, indices, indptr, labels, row_students = [], [], [0], [], []
    for student in dataset.students:
        counters = {}
        for r in rows_of(dataset, student):
            skills = sorted(qm.skills_of(r.item))
            idx, val = build(count(counters, r.timestamp, r.item, skills),
                             student, r.item, skills)
            indices.extend(idx)
            data.extend(val)
            indptr.append(len(indices))
            labels.append(r.correct)
            row_students.append(student)
            for key in family.history_keys(r.item, skills):
                counters.setdefault(key, _Counter()).push(r.timestamp,
                                                          r.correct)
    X = sparse.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int64),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), layout.n_features))
    return X, np.asarray(labels, dtype=np.int8), row_students


# day offsets that sit on, just inside and just past window boundaries
_BOUNDARY_DAYS = (0.0, 1 / 24, 0.04, 0.5, 1.0, 1 + 1 / 24, 2.0, 7.0, 7.5,
                  30.0, 31.0, 0.1 + 0.2, 0.3)


@st.composite
def histories(draw):
    """A multi-student, multi-skill Dataset with equal timestamps, gaps past
    every finite window and students without rows."""
    n_skills = draw(st.integers(1, 4))
    skills = [f"k{k}" for k in range(n_skills)]
    tags = draw(st.lists(st.sets(st.sampled_from(skills), min_size=1),
                         min_size=1, max_size=5))
    items = [f"i{j}" for j in range(len(tags))]
    qm = QMatrix([(j, k) for j, ks in zip(items, tags) for k in ks])
    step = st.one_of(st.sampled_from(_BOUNDARY_DAYS), st.floats(0, 40))
    rows, students = [], [f"u{s}" for s in range(draw(st.integers(1, 4)))]
    for s in range(len(students)):
        gaps = draw(st.lists(step, max_size=12))
        t = draw(st.floats(0, 5))
        for gap in gaps:
            t += gap
            rows.append(Row(f"u{s}", draw(st.sampled_from(items)), t,
                            draw(st.integers(0, 1))))
    return Dataset.from_rows(rows, qm, students)


@settings(max_examples=150, deadline=None)
@given(histories(), st.sampled_from([DEFAULT, WindowSet((0.1, 2.0, math.inf)),
                                     WindowSet((math.inf,))]))
def test_batch_encoder_matches_streaming_reference(dataset, windows):
    """The vectorized batch path and the streaming `row_builder` path are two
    readings of `FAMILY_TABLE`; they must agree byte for byte."""
    for family in FAMILIES:
        spec = ModelSpec(family, 1 if family == "mirtb" else 0, windows)
        dm = encode_dataset(dataset, spec)
        X, y, students = streaming_encode(dataset, spec)
        for name in ("data", "indices", "indptr"):
            a, b = getattr(dm.X, name), getattr(X, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert dm.X.shape == X.shape
        assert dm.y.dtype == y.dtype and np.array_equal(dm.y, y)
        assert dm.students == students


_WINDOW_SETS = (DEFAULT, WindowSet((0.1, 2.0, math.inf)),
                WindowSet((math.inf,)))


def _same_design(a, b):
    for name in ("data", "indices", "indptr"):
        x, z = getattr(a.X, name), getattr(b.X, name)
        assert x.dtype == z.dtype and x.tobytes() == z.tobytes(), name
    assert a.X.shape == b.X.shape
    assert a.y.dtype == b.y.dtype and a.y.tobytes() == b.y.tobytes()
    assert a.layout.to_dict() == b.layout.to_dict()
    assert a.students == b.students and a.spec == b.spec


@settings(max_examples=100, deadline=None)
@given(histories(), st.lists(st.tuples(st.sampled_from(FAMILIES),
                                       st.sampled_from(_WINDOW_SETS)),
                             min_size=1, max_size=12))
def test_encodes_sharing_a_dataset_match_fresh_ones(dataset, order):
    """Families and window sets encoded one after another on one dataset,
    in any order and some twice, reading the counts the earlier encodes
    kept, give each the CSR, labels and layout of an encode of a fresh
    copy of the dataset."""
    for family, windows in order:
        spec = ModelSpec(family, 1 if family == "mirtb" else 0, windows)
        fresh = dataset.take(np.arange(dataset.n_interactions))
        _same_design(encode_dataset(dataset, spec),
                     encode_dataset(fresh, spec))


def test_each_window_is_counted_once_per_dataset(monkeypatch,
                                                 fixture_dataset):
    """Every family at two window sets, encoded twice over: each (history
    key, width) window is counted once per dataset, and a second dataset
    counts its own."""
    from skillmem import encoder

    counted, count = [], encoder._prior_counts
    monkeypatch.setattr(encoder, "_prior_counts", lambda widths, *a: (
        counted.append(widths) or count(widths, *a)))
    specs = [ModelSpec(f, 1 if f == "mirtb" else 0, windows)
             for windows in _WINDOW_SETS[:2] for f in FAMILIES]
    for _ in range(2):
        ds = fixture_dataset.take(np.arange(fixture_dataset.n_interactions))
        for spec in specs + specs:
            encode_dataset(ds, spec)
    widths = sorted(set(DEFAULT.widths) | set(_WINDOW_SETS[1].widths))
    # a skills and an items key per dataset
    assert sorted(w for ws in counted for w in ws) == sorted(widths * 2 * 2)


def test_derived_datasets_do_not_read_the_parents_counts(fixture_dataset):
    """`take` of an encoded dataset, and `preprocess` of an encoded one that
    drops students, encode as the same steps on copies never encoded."""
    from skillmem.corpus import preprocess

    def copy():
        return fixture_dataset.take(np.arange(fixture_dataset.n_interactions))

    specs = [ModelSpec(family, 0) for family in ("das3h", "dash_items")]
    late = np.flatnonzero(fixture_dataset.timestamp
                          >= np.median(fixture_dataset.timestamp))
    steps = [lambda d: d.take(late), lambda d: preprocess(d, 6)]
    for n in range(1, len(steps) + 1):
        parent, pristine = copy(), copy()
        for step in steps[:n - 1]:
            parent, pristine = step(parent), step(pristine)
        for spec in specs:
            encode_dataset(parent, spec)
        derived, want = steps[n - 1](parent), steps[n - 1](pristine)
        assert derived.n_interactions < parent.n_interactions
        for spec in specs:
            _same_design(encode_dataset(derived, spec),
                         encode_dataset(want, spec))


@settings(max_examples=100, deadline=None)
@given(histories(), st.integers(0, 2**32 - 1))
def test_linear_probability_sums_the_built_row(dataset, seed):
    """A linear model's `probability` builds no row, yet equals `sigmoid` of
    the sum of `weights[i] * v` over `row_builder`'s row in index order, plus
    the intercept, plus the offset, bit for bit: for every family, weights
    of magnitudes 1e-6 to 1e3 (some -0.0), and a student and an item in or
    out of the layout. One offset cancels the logit, where `sigmoid` is
    steepest, so a sum taken in another order shows."""
    from skillmem.encoder import (_Counter, build_layout, row_builder,
                                  row_counter)
    from skillmem.glm import LinearParams, sigmoid
    from skillmem.modelio import ModelFile

    rng = np.random.default_rng(seed)
    for family in FAMILIES:
        spec = ModelSpec(family, 1 if family == "mirtb" else 0)
        layout = build_layout(spec, dataset)
        n = layout.n_features
        weights = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 3, n)
        weights[rng.random(n) < 0.1] = -0.0
        intercept = float(rng.normal(0, 10))
        probability = ModelFile(spec, layout, LinearParams(
            weights, intercept, 0.0), {}).probability
        count, build = row_counter(spec), row_builder(spec, layout)
        w, keys = weights.tolist(), FAMILY_TABLE[family].history_keys
        for student in dataset.students:
            counters = {}
            for r in rows_of(dataset, student):
                skills = sorted(dataset.qmatrix.skills_of(r.item))
                who = (student, "nobody", None)[int(rng.integers(3))]
                what = (r.item, "unknown", None)[int(rng.integers(3))]
                counts = count(counters, r.timestamp, what, skills)
                z = 0.0
                for i, v in zip(*build(counts, who, what, skills)):
                    z += w[i] * v
                for offset in (float(rng.normal()), -(z + intercept)):
                    assert (probability(counts, who, what, skills, offset)
                            == sigmoid((z + intercept) + offset))
                for key in keys(r.item, skills):
                    counters.setdefault(key, _Counter()).push(r.timestamp,
                                                              r.correct)


def test_rows_out_of_time_order_fail_naming_the_student():
    qm = QMatrix([("i1", "k1")])
    ds = Dataset.from_rows([Row("u1", "i1", 0.0, 1), Row("u1", "i1", 1.0, 1),
                            Row("u2", "i1", 2.0, 1), Row("u2", "i1", 1.0, 0)],
                           qm)
    with pytest.raises(EncodingError, match="u2"):
        encode_dataset(ds, ModelSpec("irt", 0))


@pytest.mark.parametrize("family", ["das3h", "das3h_1p", "dash_kc",
                                    "dash_items", "pfa", "afm"])
def test_no_leakage(fixture_dataset, family):
    spec = ModelSpec(family, 0)
    dm = encode_dataset(fixture_dataset, spec)
    rng = np.random.default_rng(0)
    picks = rng.choice(dm.n_rows, size=20, replace=False)
    pos_in_student = {}
    for i in range(dm.n_rows):
        s = dm.students[i]
        pos_in_student[i] = pos_in_student.get(("n", s), 0)
        pos_in_student[("n", s)] = pos_in_student[i] + 1
    for i in picks:
        i = int(i)
        idx, val = recompute_row_from_scratch(
            fixture_dataset, spec, dm.students[i], pos_in_student[i])
        row = dm.row(i)
        assert np.array_equal(idx, row.indices)
        assert np.allclose(val, row.values)


def test_nesting_monotonicity_on_fixture(fixture_dataset):
    spec = ModelSpec("das3h", 0)
    dm = encode_dataset(fixture_dataset, spec)
    lay = dm.layout
    W = len(spec.windows)
    for i in range(dm.n_rows):
        row = dm.row(i)
        vals = {int(j): v for j, v in zip(row.indices, row.values)}
        for block in ("wins", "attempts"):
            off = lay.offset(block)
            for k in range(len(lay.skills)):
                series = [vals.get(off + k * W + w, 0.0) for w in range(W)]
                assert series == sorted(series)


def test_1p_is_skill_sum_of_das3h(fixture_dataset):
    """Each shared-window feature equals the sum over the item's skills of
    the per-skill feature values."""
    full = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
    shared = encode_dataset(fixture_dataset, ModelSpec("das3h_1p", 0))
    W = 5
    for i in range(full.n_rows):
        fr, sr = full.row(i), shared.row(i)
        fvals = {int(j): v for j, v in zip(fr.indices, fr.values)}
        svals = {int(j): v for j, v in zip(sr.indices, sr.values)}
        for block in ("wins", "attempts"):
            foff = full.layout.offset(block)
            soff = shared.layout.offset(block)
            for w in range(W):
                total = sum(fvals.get(foff + k * W + w, 0.0)
                            for k in range(len(full.layout.skills)))
                assert svals.get(soff + w, 0.0) == pytest.approx(total)


def test_plaincounts_match_pfa_blocks(fixture_dataset):
    """The plain-counts ablation carries exactly the PFA win/fail values."""
    abl = encode_dataset(fixture_dataset, ModelSpec("das3h_plaincounts", 0))
    pfa = encode_dataset(fixture_dataset, ModelSpec("pfa", 0))
    for i in range(abl.n_rows):
        ar, pr = abl.row(i), pfa.row(i)
        avals = {int(j): v for j, v in zip(ar.indices, ar.values)}
        pvals = {int(j): v for j, v in zip(pr.indices, pr.values)}
        for block in ("wins", "fails"):
            aoff = abl.layout.offset(block)
            poff = pfa.layout.offset(block)
            for k in range(len(abl.layout.skills)):
                assert avals.get(aoff + k, 0.0) == pvals.get(poff + k, 0.0)


def test_design_roundtrip(tmp_path, fixture_dataset):
    dm = encode_dataset(fixture_dataset, ModelSpec("das3h", 0))
    path = str(tmp_path / "design.npz")
    save_design(dm, path)
    assert sorted(os.listdir(tmp_path)) == ["design.npz", "design.npz.json"]
    with np.load(path, allow_pickle=False) as npz:
        assert npz["students"].dtype.kind == "U"
    with open(path + ".json") as fh:
        assert set(json.load(fh)) == {"layout", "spec"}
    back = load_design(path)
    for name in ("indptr", "indices", "data"):
        a, b = getattr(dm.X, name), getattr(back.X, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert back.X.shape == dm.X.shape
    assert back.y.dtype == np.int8 and np.array_equal(dm.y, back.y)
    assert back.students == dm.students
    assert back.layout.to_dict() == dm.layout.to_dict()
    assert back.spec == dm.spec


class TestBadDesign:
    @pytest.fixture()
    def saved(self, tmp_path, fixture_dataset):
        path = str(tmp_path / "design.npz")
        save_design(encode_dataset(fixture_dataset, ModelSpec("irt", 0)), path)
        return path

    def test_not_an_npz(self, tmp_path):
        path = str(tmp_path / "design.txt")
        with open(path, "w") as fh:
            fh.write("1 0:1 5:1\n")
        with open(path + ".json", "w") as fh:
            fh.write("{}")
        with pytest.raises(EncodingError, match="design.txt"):
            load_design(path)

    def test_single_npy_array(self, tmp_path):
        path = str(tmp_path / "design.npy")
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3))
        with pytest.raises(EncodingError, match="design.npy"):
            load_design(path)

    def test_missing_sidecar(self, saved):
        os.remove(saved + ".json")
        with pytest.raises(EncodingError, match="design.npz"):
            load_design(saved)

    @pytest.mark.parametrize("name", ["y", "students", "indices", "indptr",
                                      "shape"])
    def test_lengths_disagree(self, saved, name):
        with np.load(saved, allow_pickle=False) as npz:
            arrays = dict(npz)
        arrays[name] = arrays[name][:-1]
        with open(saved, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(EncodingError, match="design.npz"):
            load_design(saved)


# sha256 of the CSR indptr, indices and data bytes of every family encoded
# on data/fixture_small.csv, taken from the encoder before the family table
# replaced its per-family branches; the table must reproduce it bit for bit.
GOLDEN_CSR = {
    "irt": (
        "bc089c332c0cf81267c0d7b10af4e1955b6201bfc073a17098e905d25740f6df",
        "92efaa94faecb3de793fab32aa1bad1d9d46f9428b4aaaacf12ed2cb515ba0aa",
        "c989f2eabb21cbdde37bc2c0fcd498b1c2c95014933dd6d6560c3ffb18e7b5bb",
    ),
    "mirtb": (
        "bc089c332c0cf81267c0d7b10af4e1955b6201bfc073a17098e905d25740f6df",
        "92efaa94faecb3de793fab32aa1bad1d9d46f9428b4aaaacf12ed2cb515ba0aa",
        "c989f2eabb21cbdde37bc2c0fcd498b1c2c95014933dd6d6560c3ffb18e7b5bb",
    ),
    "afm": (
        "a8b3aec37f0a1be88d5e69a518259ff99deb9847c25432ca243b1ca6bc855228",
        "8238f99bc26a56044f2c41b9de18c7c893bfca5e30e0fc7550e87cd9d9a421cd",
        "5095d0d44943eeb4941c30b1e6cecca2c609c0fa0192388f2e150025daec8ff2",
    ),
    "pfa": (
        "08380d2e9a27ce64b29197a73a8467cfcdcbc743e72ec2e62c5e283ac845cb64",
        "ac809f8dad79d36a9e9c628c09cee05857041a281333bcb1be16728e64027435",
        "884a0663b3704c0240e6fece39e081161325861c19409894597506c8991159c9",
    ),
    "dash_items": (
        "09aaaae0eec7512682970a3832fcebb18792914c58fa92b36357206d1d8ec2ba",
        "3c3fc81e13c514e4f8d7970964ae8f2fc719bfe8167b433267dfd65da060d79f",
        "5e29ef1d9b36093be65e733a65d68acc485711936b62d0861d9afbf8db56b8e3",
    ),
    "dash_kc": (
        "320587965635be2347fb78db4e4daf8e67ec23822aaaf377ce39d1217774e587",
        "70dc16b52c8af5d4e14b7b1407a5ff9c3bfcc6c4a7bfe52ed8530a213c672189",
        "47ef7ea252446b2ade34812be7a8240e3c4d9d4834bdb1c1f1782b38942dbc92",
    ),
    "das3h": (
        "490528eaf318a8a40e5086cb2589f8043e276aa92fdd926520b9dae4af03a7e4",
        "f2b3af0fb77e04fd7f3088be1568d88d1194891d154105c9cb6012009f21f808",
        "827480d2f294651fbf6eb2e0c51558cdcd744a3cdda9acbe9537bd8124644bd4",
    ),
    "das3h_1p": (
        "fff5f768b7547f721581f85a6f66942ac077a7bf8d1cfd2ae1fa37c4496e2bac",
        "71229c486888dae1c7a13097bd348f3fdf5f695c6cd20e55ab1590631ae4f988",
        "d4de9c4ad122cb14a88d8df1c9dac3315d3bbe3fbda67d18cfd6a28b95d1f2f1",
    ),
    "das3h_plaincounts": (
        "27e80ebca95653c2125fa14b220009d0da6ea11c2f865411f178ced4c2754237",
        "1c7584356a8cb85ca2a6f68b915630c37c10d1faff97c673de58e07d33c36a6f",
        "7c7284118b9581e543780c31e5d4440e4232d7a88eb0069c0c534f5b00593a2a",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_CSR))
def test_golden_csr(fixture_dataset, family):
    assert set(GOLDEN_CSR) == set(FAMILIES)
    spec = ModelSpec(family, 1 if family == "mirtb" else 0)
    X = encode_dataset(fixture_dataset, spec).X
    assert (X.indptr.dtype, X.indices.dtype, X.data.dtype) == \
        (np.int32, np.int32, np.float64)
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (X.indptr, X.indices, X.data))
    assert digests == GOLDEN_CSR[family]
