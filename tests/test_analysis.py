import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillmem.analysis import (forgetting_slope, history_counters,
                               recall_probability, slope_report)
from conftest import Row, rows_of
from skillmem.corpus import Dataset, QMatrix, load_interactions
from skillmem.encoder import (FAMILY_TABLE, ModelSpec, _Counter, build_layout,
                              encode_dataset)
from skillmem.errors import ConfigError
from skillmem.fm import FMFit, FMParams, _scores_matrix, probit
from skillmem.glm import LinearParams, sigmoid
from skillmem import modelio
from skillmem.modelio import ModelFile
from skillmem.synth import SynthConfig, make_synthetic

LOG2 = math.log(2.0)


def history(rows, qmatrix):
    """A history Dataset of `rows`, grouped by student."""
    return Dataset.from_rows(rows, qmatrix)


def linear_das3h_model(dataset, fill=0.0):
    spec = ModelSpec("das3h", 0)
    layout = build_layout(spec, dataset)
    params = LinearParams(np.full(layout.n_features, fill), 0.0, 0.0)
    return params, layout, spec


def closed_form_slope(models, layouts, skill):
    """The readout's formula as a closed form over the das3h weights: mean
    and std over folds of the mean drop when one window's win/attempt pair
    is removed from intercept + mean user bias + mean item bias + beta +
    ln 2 * sum over windows of (win + attempt weight)."""
    per_fold = []
    for params, layout in zip(models, layouts):
        k = layout.skills.index(skill)
        w = {name: params.weights[FAMILY_TABLE["das3h"].columns(layout, name)]
             for name in layout.blocks}
        pair_w = w["wins"][k] + w["attempts"][k]
        z = (params.intercept + float(np.mean(w["users"]))
             + float(np.mean(w["items"])) + w["skills"][k]
             + LOG2 * sum(pair_w))
        drops = [sigmoid(z) - sigmoid(z - LOG2 * pw) for pw in pair_w[:-1]]
        per_fold.append(100.0 * float(np.mean(drops)))
    return float(np.mean(per_fold)), float(np.std(per_fold))


def random_das3h_folds():
    """Three das3h fold models of seeded random weights over six skills,
    the window weights nonnegative."""
    rng = np.random.default_rng(4)
    models, layouts = [], []
    for seed in range(3):
        ds, _ = make_synthetic(SynthConfig(seed=seed, n_items=18, n_skills=6))
        params, layout, _ = linear_das3h_model(ds)
        params.weights[:] = rng.normal(size=layout.n_features)
        params.intercept = float(rng.normal())
        for block in ("wins", "attempts"):
            cols = FAMILY_TABLE["das3h"].columns(layout, block)
            params.weights[cols] = np.abs(params.weights[cols])
        models.append(params)
        layouts.append(layout)
    return models, layouts


class TestForgettingSlope:
    def test_zero_window_weights_zero_slope(self, small_synth):
        ds, truth = small_synth
        params, layout, _ = linear_das3h_model(ds, fill=0.0)
        entry = forgetting_slope([params], [layout], layout.skills[0])
        assert entry.mean_drop_pct == 0.0

    def test_plugin_arithmetic_oracle(self, small_synth):
        # wins weight 0.5 per window, attempts 0, everything else 0:
        # z = W * 0.5 * ln2, each transition removes 0.5 * ln2
        ds, truth = small_synth
        params, layout, _ = linear_das3h_model(ds, fill=0.0)
        off = layout.offset("wins")
        params.weights[off:off + layout.size("wins")] = 0.5
        W = layout.size("wins") // len(layout.skills)
        z = W * 0.5 * LOG2
        expected = 100.0 * (sigmoid(z) - sigmoid(z - 0.5 * LOG2))
        entry = forgetting_slope([params], [layout], layout.skills[1])
        assert entry.mean_drop_pct == pytest.approx(expected, abs=1e-10)
        assert entry.n_pairs == W - 1

    def test_positive_weights_nonnegative_slope(self, small_synth):
        ds, truth = small_synth
        rng = np.random.default_rng(0)
        params, layout, _ = linear_das3h_model(ds)
        params.weights[:] = rng.normal(size=layout.n_features)
        for block in ("wins", "attempts"):
            off, size = layout.blocks[block]
            params.weights[off:off + size] = np.abs(
                params.weights[off:off + size])
        for skill in layout.skills:
            entry = forgetting_slope([params], [layout], skill)
            assert entry.mean_drop_pct >= 0.0

    def test_matches_the_closed_form(self):
        # three folds of seeded random weights over six skills; window
        # weights nonnegative, so every drop is, and no mean cancels
        models, layouts = random_das3h_folds()
        for skill in layouts[0].skills:
            entry = forgetting_slope(models, layouts, skill)
            mean, std = closed_form_slope(models, layouts, skill)
            assert entry.mean_drop_pct == pytest.approx(mean, rel=1e-12)
            assert entry.std_pct == pytest.approx(std, rel=1e-12, abs=1e-12)
            assert (entry.n_folds, entry.n_pairs) == (3, 4)

    def test_report_sets_up_each_fold_once(self, monkeypatch):
        # the report's entries are the per-skill readouts bit for bit, from
        # one row builder per fold model whatever the number of skills
        models, layouts = random_das3h_folds()
        skills = sorted({k for lay in layouts for k in lay.skills})
        want = [forgetting_slope(models, layouts, k) for k in skills]
        calls, build = [], modelio.row_builder
        monkeypatch.setattr(modelio, "row_builder",
                            lambda *a: calls.append(a) or build(*a))
        assert slope_report(models, layouts).entries == want
        assert len(calls) == len(models) == 3 and len(skills) == 6

    def test_unseen_skill_warns(self, small_synth):
        ds, _ = small_synth
        params, layout, _ = linear_das3h_model(ds)
        with pytest.warns(UserWarning, match="unseen"):
            entry = forgetting_slope([params], [layout], "nope")
        assert entry.unseen

    def test_report_csv(self, small_synth, tmp_path):
        ds, _ = small_synth
        params, layout, _ = linear_das3h_model(ds, fill=0.2)
        report = slope_report([params], [layout])
        path = tmp_path / "slopes.csv"
        report.write_csv(str(path))
        assert path.read_text().startswith("skill_id,")
        assert len(report.entries) == len(layout.skills)


@pytest.fixture(scope="module")
def truth_model():
    ds, truth = make_synthetic(SynthConfig(seed=21))
    return ds, truth, truth.to_model_file(ds)


class TestRecallProbability:
    def test_empty_skill_set_rejected(self, truth_model):
        ds, truth, mf = truth_model
        with pytest.raises(ConfigError):
            recall_probability(mf, {}, [], 1.0, qmatrix=truth.qmatrix)

    def test_recent_wins_beat_idle(self, truth_model):
        ds, truth, mf = truth_model
        student = ds.students[0]
        skill = mf.layout.skills[0]
        item = next(i for i in mf.layout.items
                    if skill in truth.qmatrix.skills_of(i))
        wins = [Row(student, item, float(t) * 0.2, 1)
                for t in range(5)]
        counters, who = history_counters(
            mf, history(wins, QMatrix([(item, skill)])), 1.1)
        soon = recall_probability(mf, counters, [skill], 1.1, student=who,
                                  qmatrix=truth.qmatrix)
        later = recall_probability(mf, counters, [skill], 31.0, student=who,
                                   qmatrix=truth.qmatrix)
        assert soon > later

    def test_no_history_is_bias_only(self, truth_model):
        ds, truth, mf = truth_model
        off = mf.layout.offset("items")
        for skills in (mf.layout.skills[:1], mf.layout.skills[:2]):
            p = recall_probability(mf, {}, skills, 0.0, qmatrix=truth.qmatrix)
            # the proxy pool: every layout item tagged with a queried skill
            pool = [i for i, it in enumerate(mf.layout.items)
                    if set(skills).intersection(truth.qmatrix.skills_of(it))]
            proxy = float(np.mean(mf.params.weights[off + np.asarray(pool)]))
            expected = sigmoid(sum(truth.skill_w[k] for k in skills) + proxy)
            assert p == pytest.approx(float(expected))

    def test_item_over_skills_it_is_not_tagged_with_rejected(self):
        # the seed-0 truth tags i000 with k0 alone
        ds, truth = make_synthetic(SynthConfig(seed=0))
        mf, qm = truth.to_model_file(ds), truth.qmatrix
        assert qm.skills_of("i000") == ("k0",)
        with pytest.raises(ConfigError, match=r"'i000'.*\['k0'\].*"
                                              r"\['k1', 'k2'\]"):
            recall_probability(mf, {}, ["k1", "k2"], 1.0, item="i000",
                               qmatrix=qm)
        p = recall_probability(mf, {}, ["k0"], 1.0, item="i000", qmatrix=qm)
        assert p == truth.prob(None, "i000", {}, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_history_at_a_time_that_is_not_finite_rejected(self, truth_model,
                                                           t):
        ds, truth, mf = truth_model
        rows = rows_of(ds, ds.students[0])
        with pytest.raises(ConfigError, match="finite"):
            history_counters(mf, history(rows, ds.qmatrix), t)

    def test_item_proxy_is_pooled_once_per_skill_set(self, truth_model,
                                                     monkeypatch):
        ds, truth, _ = truth_model
        mf = truth.to_model_file(ds)
        qm, scanned = truth.qmatrix, []
        items_of = qm.items_of
        monkeypatch.setattr(qm, "items_of",
                            lambda k: scanned.append(k) or items_of(k))
        skills = mf.layout.skills[:2]
        p = [recall_probability(mf, {}, skills, t, qmatrix=qm)
             for t in (0.0, 5.0, 9.0)]
        assert scanned == skills and p[0] == p[1] == p[2]
        # another q-matrix object is pooled on its own, to the same value
        assert recall_probability(mf, {}, skills, 0.0,
                                  qmatrix=QMatrix(qm.entries())) == p[0]
        assert scanned == skills

    def test_future_events_ignored(self, truth_model):
        ds, truth, mf = truth_model
        student = ds.students[0]
        skill = mf.layout.skills[0]
        qm = QMatrix([(mf.layout.items[0], skill)])
        hist = [Row(student, mf.layout.items[0], 1.0, 1)]
        future = hist + [Row(student, mf.layout.items[0], 9.0, 1)]
        c1, s1 = history_counters(mf, history(hist, qm), 5.0)
        c2, s2 = history_counters(mf, history(future, qm), 5.0)
        assert s1 == s2 == student
        p1 = recall_probability(mf, c1, [skill], 5.0, student=s1,
                                qmatrix=truth.qmatrix)
        p2 = recall_probability(mf, c2, [skill], 5.0, student=s2,
                                qmatrix=truth.qmatrix)
        assert p1 == p2

    def test_extra_zero_weight_skill_no_effect(self, truth_model):
        ds, truth, mf = truth_model
        lay = mf.layout
        k1, k2 = lay.skills[0], lay.skills[1]
        params = mf.params
        # zero out k2 entirely (easiness + window weights)
        i2 = lay.skills.index(k2)
        W = lay.size("wins") // len(lay.skills)
        params = LinearParams(params.weights.copy(), params.intercept, 0.0)
        params.weights[lay.offset("skills") + i2] = 0.0
        params.weights[lay.offset("wins") + i2 * W:
                       lay.offset("wins") + (i2 + 1) * W] = 0.0
        params.weights[lay.offset("attempts") + i2 * W:
                       lay.offset("attempts") + (i2 + 1) * W] = 0.0
        mf2 = ModelFile(spec=mf.spec, layout=lay, params=params,
                        training_config={})
        hist = [Row("x", lay.items[0], 0.5, 1)]
        counters, _ = history_counters(
            mf2, history(hist, QMatrix([(lay.items[0], k1)])), 2.0)
        # every item tagged with both skills: both queries pool all items
        every = QMatrix([(i, k) for i in lay.items for k in (k1, k2)])
        single = recall_probability(mf2, counters, [k1], 2.0, qmatrix=every)
        both = recall_probability(mf2, counters, [k1, k2], 2.0, qmatrix=every)
        assert single == pytest.approx(both)

    def test_unknown_skill_rejected(self, truth_model):
        ds, truth, mf = truth_model
        with pytest.raises(ConfigError):
            recall_probability(mf, {}, ["ghost"], 0.0, qmatrix=truth.qmatrix)

    def test_unknown_item_rejected(self, truth_model):
        ds, truth, mf = truth_model
        skill = mf.layout.skills[0]
        with pytest.raises(ConfigError, match="ghost"):
            recall_probability(mf, {}, [skill], 0.0, item="ghost",
                               qmatrix=truth.qmatrix)

    def test_history_of_several_students_rejected(self, truth_model):
        ds, truth, mf = truth_model
        a, b = ds.students[0], ds.students[1]
        skill = mf.layout.skills[0]
        item = mf.layout.items[0]
        hist = [Row(a, item, 1.0, 1), Row(b, item, 0.5, 0)]
        with pytest.raises(ConfigError, match=f"{a}.*{b}"):
            history_counters(mf, history(hist, QMatrix([(item, skill)])), 5.0)

    def test_history_keeps_its_student_before_its_first_row(self, truth_model):
        # a query earlier than every row still scores the history's student
        ds, truth, mf = truth_model
        student = ds.students[0]
        skill = mf.layout.skills[0]
        item = sorted(truth.qmatrix.items_of(skill))[0]
        hist = history([Row(student, item, 3.0, 1),
                        Row(student, item, 4.0, 0)], truth.qmatrix)
        counters, who = history_counters(mf, hist, 1.0)
        assert counters == {} and who == student
        assert history_counters(mf, history([], truth.qmatrix), 1.0) == (
            {}, None)
        with_bias = recall_probability(mf, counters, [skill], 1.0,
                                       student=who, qmatrix=truth.qmatrix)
        without = recall_probability(mf, counters, [skill], 1.0,
                                     qmatrix=truth.qmatrix)
        assert with_bias != without


def _seeded_model(spec, layout):
    """A linear model (dim 0) or an FM fit (dim > 0) with seeded weights."""
    rng = np.random.default_rng(17)
    n = layout.n_features
    if spec.dim == 0:
        params = LinearParams(rng.normal(size=n), 0.3, 0.0)
    else:
        point = FMParams(0.3, rng.normal(size=n),
                         0.3 * rng.normal(size=(n, spec.dim)))
        params = FMFit(posterior_mean=point)
    return ModelFile(spec=spec, layout=layout, params=params,
                     training_config={})


@pytest.mark.parametrize("family,dim", [
    *(pytest.param(f, 0, id=f) for f in [
        "irt", "afm", "pfa", "dash_items", "dash_kc", "das3h", "das3h_1p",
        "das3h_plaincounts"]),
    *(pytest.param(f, 2, id=f"{f}-d2") for f in [
        "mirtb", "dash_items", "das3h"])])
def test_online_recall_matches_batch_encoder(fixture_dataset, family, dim):
    # each row of one student, scored online from the counters of the rows
    # before it, against the batch encoder's row under the same weights
    dm = encode_dataset(fixture_dataset, ModelSpec(family, dim))
    mf = _seeded_model(dm.spec, dm.layout)
    qm = fixture_dataset.qmatrix
    student = fixture_dataset.students[0]
    rows = rows_of(fixture_dataset, student)
    assert dm.students[:len(rows)] == [student] * len(rows)
    X = dm.X[:len(rows)]
    if dim == 0:
        batch = sigmoid(X @ mf.params.weights + mf.params.intercept)
    else:
        batch = probit(_scores_matrix(mf.params.posterior_mean, X))
    for r, row in enumerate(rows):
        counters, _ = history_counters(mf, history(rows[:r], qm),
                                       row.timestamp)
        online = recall_probability(mf, counters, qm.skills_of(row.item),
                                    row.timestamp, item=row.item,
                                    student=student, qmatrix=qm)
        assert online == pytest.approx(batch[r], rel=0, abs=1e-12)


@pytest.mark.parametrize("family", ["das3h", "dash_kc"])
def test_online_recall_of_an_item_tagged_differently_across_rows(
        tmp_path, family):
    # i1 is tagged k1 in two rows and k1~k2 in one: the loaded history's
    # q-matrix holds the union, which both batch and online recall read
    path = tmp_path / "log.csv"
    path.write_text("user,item,timestamp,correct,skills\n"
                    "s0,i1,0,1,k1\n"
                    "s0,i2,0.5,0,k2\n"
                    "s0,i1,1,1,k1~k2\n"
                    "s0,i1,2,0,k1\n"
                    "s0,i2,3,1,k2\n")
    log = load_interactions(str(path))
    assert log.qmatrix.skills_of("i1") == ("k1", "k2")
    dm = encode_dataset(log, ModelSpec(family, 0))
    mf = _seeded_model(dm.spec, dm.layout)
    batch = sigmoid(dm.X @ mf.params.weights + mf.params.intercept)
    rows = rows_of(log, "s0")
    for r, row in enumerate(rows):
        counters, _ = history_counters(mf, history(rows[:r], log.qmatrix),
                                       row.timestamp)
        online = recall_probability(mf, counters,
                                    log.qmatrix.skills_of(row.item),
                                    row.timestamp, item=row.item,
                                    student="s0", qmatrix=log.qmatrix)
        assert online == pytest.approx(batch[r], rel=0, abs=1e-12)


def test_fm_recall_of_an_empty_row(fixture_dataset):
    # mirtb without a student or an item has no active feature: the score is
    # the global bias plus the proxy, the mean bias over all layout items
    spec = ModelSpec("mirtb", 2)
    layout = build_layout(spec, fixture_dataset)
    mf = _seeded_model(spec, layout)
    point = mf.params.posterior_mean
    off, size = layout.blocks["items"]
    proxy = float(np.mean(point.linear_weights[off:off + size]))
    every = QMatrix([(i, layout.skills[0]) for i in layout.items])
    p = recall_probability(mf, {}, layout.skills[:1], 3.0, qmatrix=every)
    assert p == pytest.approx(float(probit(point.global_bias + proxy)),
                              rel=0, abs=1e-12)


@pytest.mark.parametrize("family", ["afm", "pfa"])
def test_recall_without_an_item_on_a_family_without_item_biases(
        fixture_dataset, family):
    # no items block, so no item bias to proxy: the proxy is 0
    spec = ModelSpec(family, 0)
    mf = _seeded_model(spec, build_layout(spec, fixture_dataset))
    qm = fixture_dataset.qmatrix
    student = fixture_dataset.students[0]
    rows = rows_of(fixture_dataset, student)
    t = rows[-1].timestamp + 1.0
    counters, _ = history_counters(mf, history(rows, qm), t)
    skills = mf.layout.skills[:2]
    p = recall_probability(mf, counters, skills, t, student=student,
                           qmatrix=qm)
    counts = mf.counts(counters, t, None, skills)
    assert p == mf.probability(counts, student, None, skills)


_MEMO_QM = QMatrix([("i0", "k0"), ("i1", "k1"), ("i2", "k0"), ("i2", "k2"),
                    ("i3", "k1"), ("i3", "k2")])
# steps between events: repeats (0), the window widths, so that a query can
# sit exactly on a boundary of an earlier push, and off-grid gaps
_MEMO_STEPS = (0.0, 0.0, 1 / 24, 1.0, 7.0, 30.0, 0.1, 0.2, 2.5)


@st.composite
def memo_events(draw):
    """Non-decreasing (time, event) pairs: a push (item, correct) or a query
    (student, item or None, skills)."""
    t, events = 0.0, []
    for _ in range(draw(st.integers(1, 40))):
        t += draw(st.sampled_from(_MEMO_STEPS))
        if draw(st.booleans()):
            events.append((t, ("push", draw(st.sampled_from(_MEMO_QM.items)),
                               draw(st.integers(0, 1)))))
            continue
        student = draw(st.sampled_from(["s0", "s1", "ghost", None]))
        item = draw(st.sampled_from([None, *_MEMO_QM.items]))
        skills = (list(_MEMO_QM.skills_of(item)) if item else
                  draw(st.lists(st.sampled_from(_MEMO_QM.skills), min_size=1,
                                max_size=3)))
        events.append((t, ("query", student, item, skills)))
    return events


_MEMO_SPECS = [ModelSpec("das3h", 0), ModelSpec("pfa", 0),
               ModelSpec("dash_items", 0), ModelSpec("das3h", 1)]
_MEMO_DATA = Dataset.from_rows([], _MEMO_QM, ["s0", "s1"])


@settings(max_examples=60, deadline=None)
@given(memo_events())
def test_recall_memo_answers_as_a_fresh_model(events):
    # a model answering from its memo gives the float a model without one
    # scores, and keeps one entry per distinct answered query; dash_items
    # counts practice by item, so it answers no query without one
    models = [_seeded_model(spec, build_layout(spec, _MEMO_DATA))
              for spec in _MEMO_SPECS]
    counters, answered = {}, [set() for _ in models]
    for t, event in events:
        if event[0] == "push":
            _, item, correct = event
            for key in {*_MEMO_QM.skills_of(item), item}:
                counters.setdefault(key, _Counter()).push(t, correct)
            continue
        _, student, item, skills = event
        for mf, queries in zip(models, answered):
            fresh = ModelFile(spec=mf.spec, layout=mf.layout,
                              params=mf.params, training_config={})
            args = counters, skills, t, item, student
            if item is None and mf.spec.family == "dash_items":
                for model in (mf, fresh):
                    with pytest.raises(ConfigError, match="needs an item"):
                        recall_probability(model, *args, qmatrix=_MEMO_QM)
                continue
            assert (recall_probability(mf, *args, qmatrix=_MEMO_QM)
                    == recall_probability(fresh, *args, qmatrix=_MEMO_QM))
            queries.add((student, item, tuple(sorted(set(skills)))))
    for mf, queries in zip(models, answered):
        assert len(mf.recalls) == len(queries)
