import numpy as np
import pytest

from skillmem.analysis import history_counters, recall_probability
from skillmem.corpus import Interaction, QMatrix
from skillmem.errors import ConfigError, SchedulingError
from skillmem.scheduler import (SchedulerConfig, next_item, next_skill,
                                random_policy, simulate_policy,
                                threshold_policy)
from skillmem.synth import SynthConfig, make_synthetic


class FixedRecallModel:
    """Stub for unit tests: fixed recall per skill, ignores history."""

    def __init__(self, recalls, qmatrix):
        self.recalls = recalls
        self.qmatrix = qmatrix


def _patched_recalls(monkeypatch, recalls):
    import skillmem.scheduler as sched

    def fake(model, counters, skills, now, item=None, student=None,
             qmatrix=None):
        return model.recalls[skills[0]]

    monkeypatch.setattr(sched, "recall_probability", fake)


class TestNextSkill:
    def test_closest_to_threshold(self, monkeypatch):
        qm = QMatrix([("i1", "a"), ("i2", "b")])
        model = FixedRecallModel({"a": 0.4, "b": 0.9}, qm)
        _patched_recalls(monkeypatch, model.recalls)
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        assert next_skill(model, {}, cfg, now=0.0) == "a"

    def test_tie_break_lowest_id(self, monkeypatch):
        qm = QMatrix([("i1", "a"), ("i2", "b"), ("i3", "c")])
        model = FixedRecallModel({"a": 0.6, "b": 0.6, "c": 0.6}, qm)
        _patched_recalls(monkeypatch, model.recalls)
        cfg = SchedulerConfig(threshold=0.5, skills=["c", "b", "a"], qmatrix=qm)
        assert next_skill(model, {}, cfg, now=0.0) == "a"

    def test_empty_pool(self):
        cfg = SchedulerConfig(threshold=0.5, skills=[], qmatrix=QMatrix([]))
        with pytest.raises(SchedulingError):
            next_skill(None, {}, cfg, now=0.0)

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
        hist = [Interaction("s", item, 0.1 * t, 1, (k0,)) for t in range(8)]
        counters, _ = history_counters(mf, hist, 1.0)
        early = next_skill(mf, counters, cfg, now=1.0)
        assert early != k0  # freshly practiced skill is far above threshold
        soon = recall_probability(mf, counters, [k0], 1.0,
                                  qmatrix=truth.qmatrix)
        late = recall_probability(mf, counters, [k0], 200.0,
                                  qmatrix=truth.qmatrix)
        assert late < soon  # decays toward re-eligibility

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(threshold=1.5)

    def test_threshold_policy_needs_qmatrix(self):
        cfg = SchedulerConfig(threshold=0.7, skills=["a"])
        with pytest.raises(ConfigError, match="q-matrix"):
            threshold_policy(None, cfg)


class TestNextItem:
    def test_single_eligible(self, monkeypatch):
        qm = QMatrix([("i1", "a"), ("i2", "b")])
        model = FixedRecallModel({"a": 0.3, "b": 0.9}, qm)
        _patched_recalls(monkeypatch, model.recalls)
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        assert next_item(model, "a", ["i1", "i2"], {}, cfg, now=0.0) == "i1"

    def test_prefers_focused_item(self, monkeypatch):
        # i2 also covers skill b, whose recall is far from threshold
        qm = QMatrix([("i1", "a"), ("i2", "a"), ("i2", "b")])
        model = FixedRecallModel({"a": 0.5, "b": 0.99}, qm)
        _patched_recalls(monkeypatch, model.recalls)
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        assert next_item(model, "a", ["i1", "i2"], {}, cfg, now=0.0) == "i1"

    def test_tie_break_lowest_item(self, monkeypatch):
        qm = QMatrix([("i1", "a"), ("i2", "a")])
        model = FixedRecallModel({"a": 0.5}, qm)
        _patched_recalls(monkeypatch, model.recalls)
        cfg = SchedulerConfig(threshold=0.5, skills=["a"], qmatrix=qm)
        assert next_item(model, "a", ["i2", "i1"], {}, cfg, now=0.0) == "i1"

    def test_no_cover_error(self, monkeypatch):
        qm = QMatrix([("i1", "a")])
        model = FixedRecallModel({"a": 0.5}, qm)
        cfg = SchedulerConfig(threshold=0.5, skills=["a"], qmatrix=qm)
        with pytest.raises(SchedulingError):
            next_item(model, "zz", ["i1"], {}, cfg, now=0.0)

    def test_never_returns_uncovered_item(self, monkeypatch):
        qm = QMatrix([("i1", "a"), ("i2", "b"), ("i3", "a")])
        model = FixedRecallModel({"a": 0.5, "b": 0.5}, qm)
        _patched_recalls(monkeypatch, model.recalls)
        cfg = SchedulerConfig(threshold=0.5, skills=["a", "b"], qmatrix=qm)
        item = next_item(model, "a", ["i1", "i2", "i3"], {}, cfg, now=0.0)
        assert "a" in qm.skills_of(item)


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

    def test_csv_output(self, setup, tmp_path):
        ds, truth, mf, cfg = setup
        pols = {"random": random_policy(truth.qmatrix.items)}
        res = simulate_policy(truth, pols, [0.0, 1.0], 5.0, seeds=range(2))
        path = tmp_path / "sim.csv"
        res.write_csv(str(path))
        assert path.read_text().startswith("policy,seed_index,mean_end_recall")
