import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from skillmem.errors import FitError
from skillmem.evaluation import auc
from skillmem.fm import (INIT_STDEV, FMFit, FMParams, GibbsConfig,
                         _column_runs, _draw_truncnorm, _scores_matrix,
                         fit_fm_gibbs, fm_score, probit)


def brute_force_score(params, idx, val):
    """O(nnz^2 d) double-loop oracle for the FM score."""
    s = params.global_bias
    for i, v in zip(idx, val):
        s += params.linear_weights[i] * v
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            s += val[a] * val[b] * float(
                params.embeddings[idx[a]] @ params.embeddings[idx[b]])
    return s


def random_params(rng, n=12, d=3):
    return FMParams(float(rng.normal()), rng.normal(size=n),
                    rng.normal(size=(n, d)))


class TestFmScore:
    def test_zero_embeddings_linear(self):
        rng = np.random.default_rng(0)
        p = FMParams(0.5, rng.normal(size=6), np.zeros((6, 2)))
        idx = np.array([1, 4])
        val = np.array([1.0, 2.0])
        expected = 0.5 + p.linear_weights[1] + 2 * p.linear_weights[4]
        assert fm_score(p, (idx, val)) == pytest.approx(expected)

    def test_single_active_feature_no_pairwise(self):
        rng = np.random.default_rng(1)
        p = random_params(rng)
        idx, val = np.array([3]), np.array([2.0])
        expected = p.global_bias + 2.0 * p.linear_weights[3]
        assert fm_score(p, (idx, val)) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = random_params(rng, n=12, d=2)
            nnz = rng.integers(1, 6)
            idx = rng.choice(12, size=nnz, replace=False)
            val = rng.normal(size=nnz)
            assert fm_score(p, (idx, val)) == pytest.approx(
                brute_force_score(p, idx, val), abs=1e-10)

    def test_empty_row_is_global_bias(self):
        p = random_params(np.random.default_rng(4))
        assert fm_score(p, ([], [])) == p.global_bias

    def test_index_out_of_range(self):
        p = random_params(np.random.default_rng(3), n=5)
        with pytest.raises(FitError):
            fm_score(p, (np.array([9]), np.array([1.0])))


def toy_problem(rng, n=80):
    """Strong signal: feature 0 drives positives, feature 1 negatives."""
    rows = []
    y = []
    for i in range(n):
        pos = i % 2 == 0
        rows.append([1.0, 0.0, 1.0] if pos else [0.0, 1.0, 1.0])
        y.append(int(pos) if rng.uniform() < 0.95 else 1 - int(pos))
    return sparse.csr_matrix(np.array(rows)), np.array(y)


def fixed_problem(n=240, users=30, items=20, skills=4, windows=3, seed=11):
    """A seeded DAS3H-shaped design: one-hot users and items, one or two
    skills per row, and log1p wins/attempts counts per skill and window.

    The last five users have no rows (as if they appeared only in test
    folds), so their columns are empty. Returns X, y and two groupings: one
    group per block, and groups interleaved across the blocks.
    """
    rng = np.random.default_rng(seed)
    off_items = users
    off_skills = off_items + items
    off_counts = off_skills + skills
    N = off_counts + 2 * skills * windows
    rows, cols, vals = [], [], []

    def put(r, c, v):
        if v != 0.0:
            rows.append(r)
            cols.append(c)
            vals.append(v)

    for r in range(n):
        put(r, rng.integers(users - 5), 1.0)
        put(r, off_items + rng.integers(items), 1.0)
        for k in rng.choice(skills, size=rng.integers(1, 3), replace=False):
            put(r, off_skills + k, 1.0)
            for wdx in range(windows):
                attempts = rng.integers(0, 4)
                base = off_counts + 2 * (k * windows + wdx)
                put(r, base, np.log1p(rng.integers(0, attempts + 1)))
                put(r, base + 1, np.log1p(attempts))
    X = sparse.csr_matrix((vals, (rows, cols)), shape=(n, N))
    y = (rng.uniform(size=n) < 0.6).astype(int)
    layout_groups = np.repeat(np.arange(4), [users, items, skills, N - off_counts])
    interleaved_groups = np.arange(N) % 3
    return X, y, layout_groups, interleaved_groups


def column_by_column_gibbs(X, y, d, config, groups=None, eval_X=None):
    """Reference sampler: each weight and embedding entry drawn on its own,
    column after column, with one rng.normal per draw."""
    rng = np.random.default_rng(config.seed)
    X = sparse.csr_matrix(X, dtype=float)
    Xc = X.tocsc()
    n, N = X.shape
    positive = np.asarray(y) > 0
    burn_in = config.iterations // 2
    groups = np.zeros(N, dtype=np.int64) if groups is None else np.asarray(groups)
    group_ids = np.unique(groups)
    group_cols = {g: np.where(groups == g)[0] for g in group_ids}

    w = np.zeros(N)
    V = rng.normal(0.0, INIT_STDEV, size=(N, d))
    mu0 = 0.0
    mu_w = {g: 0.0 for g in group_ids}
    lam_w = {g: 1.0 for g in group_ids}
    mu_v = {g: np.zeros(d) for g in group_ids}
    lam_v = {g: np.ones(d) for g in group_ids}
    col_rows = [Xc.getcol(j).indices.copy() for j in range(N)]
    col_vals = [Xc.getcol(j).data.copy() for j in range(N)]

    scores = _scores_matrix(FMParams(mu0, w, V), X)
    Q = np.asarray(X @ V)
    _draw_truncnorm(rng, scores, positive)
    sum_mu, sum_w, sum_V = 0.0, np.zeros(N), np.zeros((N, d))
    n_kept = 0
    eval_prob_sum = None if eval_X is None else np.zeros(eval_X.shape[0])

    for it in range(config.iterations):
        e = _draw_truncnorm(rng, scores, positive) - scores
        prec = n + 1.0
        mu_new = rng.normal((np.sum(e) + n * mu0) / prec, 1.0 / np.sqrt(prec))
        e -= mu_new - mu0
        scores += mu_new - mu0
        mu0 = mu_new

        for g in group_ids:
            cols_g = group_cols[g]
            ng = len(cols_g)
            theta = w[cols_g]
            lam_w[g] = rng.gamma(1.0 + ng / 2.0,
                                 1.0 / (1.0 + 0.5 * np.sum((theta - mu_w[g]) ** 2)))
            prec_mu = lam_w[g] * ng + 1.0
            mu_w[g] = rng.normal(lam_w[g] * np.sum(theta) / prec_mu,
                                 1.0 / np.sqrt(prec_mu))
            Vg = V[cols_g]
            for f in range(d):
                lam_v[g][f] = rng.gamma(
                    1.0 + ng / 2.0,
                    1.0 / (1.0 + 0.5 * np.sum((Vg[:, f] - mu_v[g][f]) ** 2)))
                prec_mu = lam_v[g][f] * ng + 1.0
                mu_v[g][f] = rng.normal(lam_v[g][f] * np.sum(Vg[:, f]) / prec_mu,
                                        1.0 / np.sqrt(prec_mu))

        for j in range(N):
            rows_j, vals_j = col_rows[j], col_vals[j]
            if len(rows_j) == 0:
                continue
            g = groups[j]
            prec = float(vals_j @ vals_j) + lam_w[g]
            resid = e[rows_j] + vals_j * w[j]
            mean = (vals_j @ resid + lam_w[g] * mu_w[g]) / prec
            w_new = rng.normal(mean, 1.0 / np.sqrt(prec))
            e[rows_j] -= vals_j * (w_new - w[j])
            scores[rows_j] += vals_j * (w_new - w[j])
            w[j] = w_new

        for f in range(d):
            qf = Q[:, f]
            for j in range(N):
                rows_j, vals_j = col_rows[j], col_vals[j]
                if len(rows_j) == 0:
                    continue
                g = groups[j]
                h = vals_j * (qf[rows_j] - vals_j * V[j, f])
                prec = float(h @ h) + lam_v[g][f]
                resid = e[rows_j] + h * V[j, f]
                mean = (h @ resid + lam_v[g][f] * mu_v[g][f]) / prec
                v_new = rng.normal(mean, 1.0 / np.sqrt(prec))
                delta = v_new - V[j, f]
                e[rows_j] -= h * delta
                scores[rows_j] += h * delta
                qf[rows_j] += vals_j * delta
                V[j, f] = v_new

        if it >= burn_in:
            n_kept += 1
            sum_mu += mu0
            sum_w += w
            sum_V += V
            if eval_X is not None:
                eval_prob_sum += probit(_scores_matrix(FMParams(mu0, w, V), eval_X))

    return FMFit(
        posterior_mean=FMParams(sum_mu / n_kept, sum_w / n_kept, sum_V / n_kept),
        final_sample=FMParams(mu0, w.copy(), V.copy()),
        eval_probs=None if eval_X is None else eval_prob_sum / n_kept,
    )


class TestBlockedScan:
    def test_runs_are_maximal_row_disjoint_ranges(self):
        X, _, layout_groups, _ = fixed_problem()
        Xc = X.tocsc()
        runs = _column_runs(Xc, layout_groups)
        nonempty = np.flatnonzero(np.diff(Xc.indptr))
        assert np.array_equal(np.concatenate([r.cols for r in runs]), nonempty)
        for run, nxt in zip(runs, runs[1:] + [None]):
            rows = [set(Xc.getcol(j).indices) for j in run.cols]
            assert sum(map(len, rows)) == len(set().union(*rows))
            assert np.array_equal(run.groups, layout_groups[run.cols])
            if nxt is not None:  # the next column shares a row with the run
                assert set(Xc.getcol(nxt.cols[0]).indices) & set().union(*rows)
        lengths = [len(r.cols) for r in runs]
        # users and items form one run each; skills and counts split up
        assert lengths[:2] == [25, 20] and 1 in lengths

    @pytest.mark.parametrize("grouping", ["none", "layout", "interleaved"])
    def test_matches_column_by_column_reference(self, grouping):
        X, y, layout_groups, interleaved_groups = fixed_problem()
        groups = {"none": None, "layout": layout_groups,
                  "interleaved": interleaved_groups}[grouping]
        cfg = GibbsConfig(iterations=16, seed=5)
        got = fit_fm_gibbs(X, y, 2, cfg, groups=groups, eval_X=X[:60])
        ref = column_by_column_gibbs(X, y, 2, cfg, groups=groups, eval_X=X[:60])
        for kind in ("posterior_mean", "final_sample"):
            a, b = getattr(got, kind), getattr(ref, kind)
            assert abs(a.global_bias - b.global_bias) < 1e-12
            np.testing.assert_allclose(a.linear_weights, b.linear_weights,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.embeddings, b.embeddings,
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.eval_probs, ref.eval_probs,
                                   rtol=0, atol=1e-12)


class TestTruncnorm:
    @settings(max_examples=200, deadline=None)
    @given(means=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=40),
           positive=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(means=[-8.0, -40.0, 7.5], positive=True, seed=0)
    @example(means=[8.0, 40.0, -7.5], positive=False, seed=0)
    def test_sign_right_for_any_mean(self, means, positive, seed):
        mean = np.array(means)
        z = _draw_truncnorm(np.random.default_rng(seed), mean,
                            np.full(len(mean), positive))
        assert np.all(np.isfinite(z))
        assert np.all(z > 0) if positive else np.all(z < 0)

    def test_latents_follow_labels_at_tail_scores(self):
        X, y, _, _ = fixed_problem()
        rng = np.random.default_rng(12)
        N = X.shape[1]
        params = FMParams(0.0, rng.normal(0.0, 8.0, N), rng.normal(0.0, 2.0, (N, 2)))
        scores = _scores_matrix(params, X)
        assert np.mean(np.abs(scores) > 8.0) > 0.3
        z = _draw_truncnorm(rng, scores, y > 0)
        assert np.all(np.isfinite(z))
        assert np.array_equal(z > 0, y > 0)

    def test_bulk_draws_keep_the_inverse_cdf_map(self):
        from scipy.special import ndtr, ndtri
        mean = np.linspace(-3.0, 3.0, 61)
        positive = np.arange(61) % 2 == 0
        z = _draw_truncnorm(np.random.default_rng(3), mean, positive)
        u = np.random.default_rng(3).uniform(size=61)
        lo = ndtr(-mean)
        want = mean + ndtri(np.where(positive, lo + u * (1 - lo), u * lo))
        np.testing.assert_allclose(z, want, rtol=0, atol=1e-9)


class TestGibbs:
    def test_signal_separation(self):
        rng = np.random.default_rng(4)
        X, y = toy_problem(rng)
        fit = fit_fm_gibbs(X, y, d=1, config=GibbsConfig(iterations=60, seed=0),
                           eval_X=X)
        pos_mean = fit.eval_probs[y == 1].mean()
        neg_mean = fit.eval_probs[y == 0].mean()
        assert pos_mean > neg_mean

    def test_seeded_determinism_bitwise(self):
        rng = np.random.default_rng(5)
        X, y = toy_problem(rng, n=40)
        cfg = GibbsConfig(iterations=30, seed=42)
        a = fit_fm_gibbs(X, y, d=2, config=cfg, eval_X=X)
        b = fit_fm_gibbs(X, y, d=2, config=cfg, eval_X=X)
        assert np.array_equal(a.eval_probs, b.eval_probs)
        assert a.posterior_mean.global_bias == b.posterior_mean.global_bias
        assert np.array_equal(a.posterior_mean.linear_weights,
                              b.posterior_mean.linear_weights)
        assert np.array_equal(a.final_sample.embeddings,
                              b.final_sample.embeddings)

    def test_label_noise_auc_near_half(self):
        rng = np.random.default_rng(6)
        n = 200
        X = sparse.csr_matrix((rng.uniform(size=(n, 8)) < 0.3).astype(float))
        y_train = rng.integers(0, 2, size=n)
        X_test = sparse.csr_matrix((rng.uniform(size=(n, 8)) < 0.3).astype(float))
        y_test = rng.integers(0, 2, size=n)
        fit = fit_fm_gibbs(X, y_train, d=1,
                           config=GibbsConfig(iterations=40, seed=1),
                           eval_X=X_test)
        assert abs(auc(fit.eval_probs, y_test) - 0.5) < 0.1

    def test_dim_zero_rejected(self):
        X = sparse.csr_matrix(np.ones((4, 2)))
        with pytest.raises(FitError):
            fit_fm_gibbs(X, np.array([1, 0, 1, 0]), d=0)

    @pytest.mark.parametrize("bad", ["labels", "groups", "eval_columns"])
    def test_mismatched_shapes_rejected(self, bad):
        X = sparse.csr_matrix(np.ones((4, 2)))
        args = {"y": np.array([1, 0, 1, 0]), "groups": None, "eval_X": None}
        args[{"labels": "y", "groups": "groups", "eval_columns": "eval_X"}[bad]] = {
            "labels": np.array([1, 0, 1]),
            "groups": np.array([0, 1, 1]),
            "eval_columns": sparse.csr_matrix(np.ones((2, 3))),
        }[bad]
        with pytest.raises(FitError):
            fit_fm_gibbs(X, args["y"], d=1, config=GibbsConfig(iterations=2),
                         groups=args["groups"], eval_X=args["eval_X"])

    def test_burn_in_must_be_smaller(self):
        X = sparse.csr_matrix(np.ones((4, 2)))
        with pytest.raises(FitError):
            fit_fm_gibbs(X, np.array([1, 0, 1, 0]), d=1,
                         config=GibbsConfig(iterations=0))

    def test_predictions_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(7)
        X, y = toy_problem(rng, n=40)
        fit = fit_fm_gibbs(X, y, d=1, config=GibbsConfig(iterations=30, seed=2),
                           eval_X=X)
        assert np.all(fit.eval_probs > 0.0)
        assert np.all(fit.eval_probs < 1.0)


class TestProbit:
    def test_probit_symmetry(self):
        assert probit(0.0) == pytest.approx(0.5)
        assert probit(1.3) + probit(-1.3) == pytest.approx(1.0)
