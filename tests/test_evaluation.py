import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from skillmem.encoder import ModelSpec
from skillmem.errors import MetricError
from skillmem.evaluation import (ABLATION_PAIRS, MetricsTable, FoldResult,
                                 _average_ranks, accuracy, auc,
                                 cross_validate, nll)
from skillmem.fm import GibbsConfig
from skillmem.glm import FitConfig


def brute_force_auc(scores, labels):
    """O(n^2) pairwise-count oracle; ties contribute 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.4] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_single_class_error(self):
        with pytest.raises(MetricError):
            auc([0.1, 0.9], [1, 1])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 30))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == pytest.approx(
            brute_force_auc(scores, labels), abs=1e-12)

    def test_nan_score_rejected(self):
        with pytest.raises(MetricError, match="NaN"):
            auc([0.2, np.nan, 0.7], [1, 0, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 0.5,
                                     3.0, np.inf]), min_size=1, max_size=60)
           | st.lists(st.floats(allow_nan=False), min_size=1, max_size=60),
           st.integers(0, 2**32 - 1))
    def test_ranks_and_auc_match_rankdata(self, values, seed):
        # heavy ties, +-inf and -0.0 beside 0.0: the numpy ranks are
        # rankdata's exactly, and so is the AUC of its rank formula
        x = np.array(values)
        ranks = _average_ranks(x)
        assert np.array_equal(ranks, rankdata(x))
        labels = np.random.default_rng(seed).integers(0, 2, size=len(x))
        labels[0] = 1
        labels = np.append(labels, 0)
        x = np.append(x, values[0])
        n_pos, n_neg = int(labels.sum()), int((labels == 0).sum())
        want = float((np.sum(rankdata(x)[labels == 1])
                      - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
        assert auc(x, labels) == want

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 0, 1
        a1 = auc(scores, labels)
        a2 = auc(np.exp(3 * scores) + 7, labels)
        assert a1 == pytest.approx(a2)


class TestNll:
    def test_half_everywhere(self):
        assert nll([0.5, 0.5], [1, 0]) == pytest.approx(math.log(2))

    def test_perfect_predictions_near_zero(self):
        assert nll([1.0, 0.0], [1, 0]) < 1e-10

    def test_hand_arithmetic(self):
        expected = -(math.log(0.8) + math.log(0.7)) / 2
        assert nll([0.8, 0.3], [1, 0]) == pytest.approx(expected, abs=1e-12)

    def test_beats_baseline_on_informative_labels(self):
        y = [1, 1, 1, 0]
        assert nll([0.99, 0.99, 0.99, 0.01], y) <= nll([0.5] * 4, y)


class TestAccuracy:
    def test_perfect_and_inverted(self):
        assert accuracy([0.9, 0.1], [1, 0]) == 1.0
        assert accuracy([0.1, 0.9], [1, 0]) == 0.0

    def test_ties_at_threshold_predict_positive(self):
        assert accuracy([0.6, 0.6], [1, 0], threshold=0.6) == 0.5


@pytest.fixture(scope="module")
def cv_table(fixture_dataset):
    specs = [ModelSpec("irt", 0), ModelSpec("das3h", 0)]
    return cross_validate(fixture_dataset, specs, k=4, seed=0,
                          glm_config=FitConfig(l2_strength=0.01))


class TestCrossValidate:
    def test_each_interaction_tested_once(self, fixture_dataset, cv_table):
        total = sum(f.n_test for f in cv_table.results["irt(d=0)"])
        assert total == fixture_dataset.n_interactions

    def test_aggregate_shape(self, cv_table):
        agg = cv_table.aggregate()
        for label in ("irt(d=0)", "das3h(d=0)"):
            a = agg[label]
            assert 0.0 <= a["auc_mean"] <= 1.0
            assert a["nll_mean"] >= 0.0
            assert a["auc_std"] >= 0.0

    def test_unseen_student_guarantee(self, fixture_dataset):
        from skillmem.corpus import student_kfold
        folds = student_kfold(fixture_dataset, 4, seed=0)
        for f in range(4):
            test = set(folds.students_in(f))
            train = set(fixture_dataset.students) - test
            assert not (test & train)

    def test_json_and_table_render(self, cv_table):
        assert "das3h" in cv_table.to_json()
        assert "AUC" in cv_table.format_table()

    def test_unconverged_folds_warn(self, fixture_dataset):
        from skillmem.fm import GibbsConfig
        with pytest.warns(UserWarning, match="without converging") as caught:
            table = cross_validate(
                fixture_dataset, [ModelSpec("das3h", 0), ModelSpec("mirtb", 1)],
                k=2, seed=0, glm_config=FitConfig(max_iterations=2),
                gibbs_config=GibbsConfig(iterations=2, seed=0))
        messages = [str(w.message) for w in caught]
        assert [m for m in messages if "converg" in m] == [
            f"das3h(d=0) fold {f}: L-BFGS stopped after 2 iterations "
            "without converging" for f in range(2)]
        folds = json.loads(table.to_json())["folds"]
        assert [(f["converged"], f["n_iter"]) for f in folds["das3h(d=0)"]] \
            == [(False, 2)] * 2
        assert [(f["converged"], f["n_iter"]) for f in folds["mirtb(d=1)"]] \
            == [(None, None)] * 2

    def test_linear_folds_report_final_loss_and_gradient_norm(
            self, fixture_dataset):
        from skillmem.fm import GibbsConfig
        table = cross_validate(
            fixture_dataset, [ModelSpec("das3h", 0), ModelSpec("mirtb", 1)],
            k=2, seed=0, glm_config=FitConfig(l2_strength=0.01),
            gibbs_config=GibbsConfig(iterations=2, seed=0))
        folds = json.loads(table.to_json())["folds"]
        for f in folds["das3h(d=0)"]:
            assert f["final_loss"] > 0 and 0 <= f["grad_norm"] < 1e-3
        assert [(f["final_loss"], f["grad_norm"])
                for f in folds["mirtb(d=1)"]] == [(None, None)] * 2

    def test_single_class_fold_warns(self):
        from skillmem.corpus import Dataset, QMatrix
        qm = QMatrix([("i1", "k1")])
        rows = []
        for i in range(4):
            s = f"u{i}"
            # students u0/u1 answer everything right: their folds may be
            # single-class
            label = 1 if i < 2 else i % 2
            rows += [(s, "i1", float(t), label if i < 2 else t % 2)
                     for t in range(6)]
        ds = Dataset.from_rows(rows, qm)
        with pytest.warns(UserWarning, match="single-class"):
            table = cross_validate(ds, [ModelSpec("irt", 0)], k=4, seed=0)
        folds = table.results["irt(d=0)"]
        assert any(f.auc is None for f in folds)


class TestAblation:
    def test_suite_structure(self, fixture_dataset):
        families = ["das3h", "das3h_plaincounts", "das3h_1p", "dash_items",
                    "dash_kc"]
        table = cross_validate(fixture_dataset,
                               [ModelSpec(f, 0) for f in families], k=3,
                               seed=0, glm_config=FitConfig(l2_strength=0.01))
        deltas = table.paired_deltas()
        assert list(deltas) == [f"{name}(d=0)" for name in ABLATION_PAIRS]
        for name, (a, b) in ABLATION_PAIRS.items():
            d = deltas[f"{name}(d=0)"]
            folds_a = table.results[f"{a}(d=0)"]
            folds_b = table.results[f"{b}(d=0)"]
            assert d["per_fold"] == [fa.auc - fb.auc
                                     for fa, fb in zip(folds_a, folds_b)]
            assert d["mean"] == pytest.approx(np.mean(d["per_fold"]))
        assert json.loads(table.to_json())["paired_deltas"] == deltas

    def test_a_pair_per_shared_dim(self, fixture_dataset):
        specs = [ModelSpec(f, d) for f in ("das3h", "das3h_1p")
                 for d in (0, 2)]
        table = cross_validate(fixture_dataset, specs, k=2, seed=0,
                               glm_config=FitConfig(l2_strength=0.01),
                               gibbs_config=GibbsConfig(iterations=4, seed=0))
        deltas = table.paired_deltas()
        assert sorted(deltas) == ["per_skill_vs_shared(d=0)",
                                  "per_skill_vs_shared(d=2)"]
        assert all(len(d["per_fold"]) == 2 for d in deltas.values())

    def test_undefined_folds_skipped(self):
        table = MetricsTable(k=3)
        for fold, (a, b) in enumerate([(0.7, 0.6), (None, 0.5), (0.9, None)]):
            table.add("dash_items(d=0)", FoldResult(fold, a, 0.5, 0.5, 10))
            table.add("dash_kc(d=0)", FoldResult(fold, b, 0.5, 0.5, 10))
        table.add("das3h(d=0)", FoldResult(0, 0.8, 0.5, 0.5, 10))
        deltas = table.paired_deltas()
        assert list(deltas) == ["items_vs_kc(d=0)"]
        assert deltas["items_vs_kc(d=0)"]["per_fold"] == [0.7 - 0.6]
