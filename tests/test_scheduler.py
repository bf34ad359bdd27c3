import numpy as np
import pytest

from skillmem.analysis import history_counters, recall_probability
from skillmem.corpus import Dataset, QMatrix
from skillmem.errors import ConfigError, SchedulingError
from skillmem.scheduler import (SchedulerConfig, next_item, next_skill,
                                random_policy, simulate_policy,
                                threshold_policy)
from skillmem.synth import SynthConfig, make_synthetic


def distance(recalls, config):
    """The steps' `distance` from a dict of recalls, as a pick takes it."""
    return {k: abs(r - config.threshold) for k, r in recalls.items()
            }.__getitem__


class TestNextSkill:
    def test_closest_to_threshold(self):
        qm = QMatrix([("i1", "a"), ("i2", "b")])
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        assert next_skill(distance({"a": 0.4, "b": 0.9}, cfg), cfg) == "a"

    def test_tie_break_lowest_id(self):
        qm = QMatrix([("i1", "a"), ("i2", "b"), ("i3", "c")])
        recalls = {"a": 0.6, "b": 0.6, "c": 0.6}
        cfg = SchedulerConfig(threshold=0.5, skills=["c", "b", "a"], qmatrix=qm)
        assert next_skill(distance(recalls, cfg), cfg) == "a"

    def test_empty_pool(self):
        cfg = SchedulerConfig(threshold=0.5, skills=[], qmatrix=QMatrix([]))
        with pytest.raises(SchedulingError):
            next_skill({}.__getitem__, cfg)

    def test_decay_changes_selection_over_idle_time(self):
        ds, truth = make_synthetic(SynthConfig(seed=13))
        mf = truth.to_model_file(ds)
        skills = mf.layout.skills
        cfg = SchedulerConfig(threshold=0.6, skills=skills,
                              qmatrix=truth.qmatrix)
        # heavy recent practice on one skill only
        k0 = skills[0]
        item = next(i for i in mf.layout.items
                    if k0 in truth.qmatrix.skills_of(i))
        hist = Dataset.from_rows([("s", item, 0.1 * t, 1) for t in range(8)],
                                 truth.qmatrix)
        counters, _ = history_counters(mf, hist, 1.0)
        recalls = {k: recall_probability(mf, counters, [k], 1.0,
                                         qmatrix=truth.qmatrix)
                   for k in skills}
        early = next_skill(distance(recalls, cfg), cfg)
        assert early != k0  # freshly practiced skill is far above threshold
        late = recall_probability(mf, counters, [k0], 200.0,
                                  qmatrix=truth.qmatrix)
        assert late < recalls[k0]  # decays toward re-eligibility

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(threshold=1.5)

    def test_threshold_policy_needs_qmatrix(self):
        cfg = SchedulerConfig(threshold=0.7, skills=["a"])
        with pytest.raises(ConfigError, match="q-matrix"):
            threshold_policy(None, cfg)

    def test_threshold_pick_over_a_pool_of_some_skills(self):
        # the covering items also read recalls of skills outside the pool
        ds, truth = make_synthetic(SynthConfig(multi_skill_fraction=1.0))
        mf, qm = truth.to_model_file(ds), truth.qmatrix
        cfg = SchedulerConfig(threshold=0.7, skills=qm.skills[:1], qmatrix=qm)
        item = threshold_policy(mf, cfg)({}, 0.0, None)
        recalls = {k: recall_probability(mf, {}, [k], 0.0, qmatrix=qm)
                   for k in qm.skills}
        assert item == next_item(qm.skills[0], distance(recalls, cfg), cfg)


class TestNextItem:
    def test_single_eligible(self):
        qm = QMatrix([("i1", "a"), ("i2", "b")])
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        dist = distance({"a": 0.3, "b": 0.9}, cfg)
        assert next_item("a", dist, cfg) == "i1"

    def test_prefers_focused_item(self):
        # i2 also covers skill b, whose recall is far from threshold
        qm = QMatrix([("i1", "a"), ("i2", "a"), ("i2", "b")])
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        dist = distance({"a": 0.5, "b": 0.99}, cfg)
        assert next_item("a", dist, cfg) == "i1"

    def test_tie_break_lowest_item(self):
        qm = QMatrix([("i2", "a"), ("i1", "a")])
        cfg = SchedulerConfig(threshold=0.5, skills=["a"], qmatrix=qm)
        dist = distance({"a": 0.5}, cfg)
        assert next_item("a", dist, cfg) == "i1"

    def test_no_cover_error(self):
        qm = QMatrix([("i1", "a")])
        cfg = SchedulerConfig(threshold=0.5, skills=["a"], qmatrix=qm)
        dist = distance({"a": 0.5}, cfg)
        with pytest.raises(SchedulingError):
            next_item("zz", dist, cfg)

    def test_never_returns_uncovered_item(self):
        qm = QMatrix([("i1", "a"), ("i2", "b"), ("i3", "a")])
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        dist = distance({"a": 0.5, "b": 0.5}, cfg)
        item = next_item("a", dist, cfg)
        assert "a" in qm.skills_of(item)


def test_threshold_pick_queries_each_skill_once(monkeypatch):
    # every pick asks for each skill's recall once, shared by both steps
    import skillmem.scheduler as sched

    ds, truth = make_synthetic(SynthConfig(seed=5, n_items=15, n_skills=4,
                                           multi_skill_fraction=0.5))
    mf = truth.to_model_file(ds)
    cfg = SchedulerConfig(threshold=0.6, skills=truth.qmatrix.skills,
                          qmatrix=truth.qmatrix)
    queried = []

    def counting(model, counters, skills, now, **kwargs):
        queried.append(tuple(skills))
        return recall_probability(model, counters, skills, now, **kwargs)

    monkeypatch.setattr(sched, "recall_probability", counting)
    pick = threshold_policy(mf, cfg)
    rng = np.random.default_rng(0)
    counters = {}
    for t in np.linspace(0, 20, 12).tolist():
        queried.clear()
        item = pick(counters, t, rng)
        assert sorted(queried) == [(k,) for k in sorted(cfg.skills)]
        truth.respond(None, item, counters, t, rng)


@pytest.fixture(scope="module")
def setup():
    cfg = SynthConfig(seed=3, n_items=15, item_skill_probs=(0.7, 0.2, 0.1),
                      win_weights=(2.0, 1.5, 1.0, 0.5, 0.2),
                      attempt_weights=(-0.2,) * 5,
                      multi_skill_fraction=0.1)
    ds, truth = make_synthetic(cfg)
    mf = truth.to_model_file(ds)
    sched_cfg = SchedulerConfig(threshold=0.7, skills=truth.qmatrix.skills,
                                qmatrix=truth.qmatrix)
    return ds, truth, mf, sched_cfg


class TestSimulate:
    def test_reproducible(self, setup):
        ds, truth, mf, cfg = setup
        pols = {"random": random_policy(truth.qmatrix.items)}
        times = np.linspace(0, 20, 8).tolist()
        a = simulate_policy(truth, pols, times, 30.0, seeds=range(3))
        b = simulate_policy(truth, pols, times, 30.0, seeds=range(3))
        assert a.per_seed == b.per_seed

    def test_horizon_zero_is_initial_state(self, setup):
        ds, truth, mf, cfg = setup
        pols = {"random": random_policy(truth.qmatrix.items)}
        res = simulate_policy(truth, pols, [], 0.0, seeds=range(2))
        # no practice happened: recall is the bias-only probability
        expected = float(np.mean([
            truth.prob(None, None, {}, 0.0, skills=[k])
            for k in truth.qmatrix.skills]))
        assert res.per_seed["random"] == [expected, expected]

    def test_threshold_beats_random(self, setup):
        ds, truth, mf, cfg = setup
        pols = {"threshold": threshold_policy(mf, cfg),
                "random": random_policy(truth.qmatrix.items)}
        times = np.linspace(0, 48, 25).tolist()
        res = simulate_policy(truth, pols, times, 60.0, seeds=range(30))
        t = np.array(res.per_seed["threshold"])
        r = np.array(res.per_seed["random"])
        assert t.mean() >= r.mean()

    @pytest.mark.parametrize("times,horizon,seeds,reason", [
        ([0.0, 1.0], 5.0, range(0), "no seeds"),
        ([0.0, -2.0, -4.0], 5.0, range(2), "must not decrease"),
        ([0.0, 4.0, 8.0], 5.0, range(2), "before the last session"),
        ([0.0, 1.0], float("nan"), range(2), "must be finite"),
        ([0.0, float("nan")], 5.0, range(2), "must be finite"),
        ([0.0, float("inf")], float("inf"), range(2), "must be finite"),
    ], ids=["no-seeds", "decreasing-times", "horizon-too-early",
            "horizon-nan", "session-nan", "infinite-times"])
    def test_impossible_runs_fail_typed(self, setup, times, horizon, seeds,
                                        reason):
        ds, truth, mf, cfg = setup
        pols = {"random": random_policy(truth.qmatrix.items)}
        with pytest.raises(ConfigError, match=reason):
            simulate_policy(truth, pols, times, horizon, seeds=seeds)

    def test_csv_output(self, setup, tmp_path):
        ds, truth, mf, cfg = setup
        pols = {"random": random_policy(truth.qmatrix.items)}
        res = simulate_policy(truth, pols, [0.0, 1.0], 5.0, seeds=range(2))
        path = tmp_path / "sim.csv"
        res.write_csv(str(path))
        assert path.read_text().startswith("policy,seed_index,mean_end_recall")
