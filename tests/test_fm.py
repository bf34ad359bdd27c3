import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from skillmem.errors import FitError
from skillmem.evaluation import auc
from skillmem.fm import (INIT_STDEV, FMFit, FMParams, GibbsConfig,
                         _column_levels, _draw_truncnorm, _scores_matrix,
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
        eval_probs=None if eval_X is None else eval_prob_sum / n_kept,
    )


def one_skill_per_item_design(n=3000, users=40, skills=60, windows=3, seed=3):
    """A DAS3H-shaped design at an assist12-like shape: every item carries
    one skill (two items per skill), with wins/attempts counts per skill
    and window laid out skill-major."""
    rng = np.random.default_rng(seed)
    items = 2 * skills
    off_items, off_skills = users, users + items
    off_counts = off_skills + skills
    N = off_counts + 2 * skills * windows
    rows, cols, vals = [], [], []
    for r in range(n):
        item = rng.integers(items)
        k = item % skills
        entries = [(rng.integers(users), 1.0), (off_items + item, 1.0),
                   (off_skills + k, 1.0)]
        for wdx in range(windows):
            attempts = rng.integers(1, 4)
            base = off_counts + 2 * (k * windows + wdx)
            entries += [(base, np.log1p(rng.integers(0, attempts + 1))),
                        (base + 1, np.log1p(attempts))]
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, N))


def greedy_runs(Xc):
    """Number of maximal ranges of consecutive non-empty columns that share
    no row, taken from the left: the draws of a run-by-run scan."""
    runs, seen = 0, set()
    for j in range(Xc.shape[1]):
        rows_j = set(Xc.indices[Xc.indptr[j]:Xc.indptr[j + 1]])
        if not rows_j:
            continue
        if not seen or rows_j & seen:
            runs, seen = runs + 1, set()
        seen |= rows_j
    return runs


@st.composite
def sparse_designs(draw):
    """Small random designs with empty columns and repeated rows."""
    n_base = draw(st.integers(1, 8))
    N = draw(st.integers(1, 9))
    cells = draw(st.lists(
        st.tuples(st.integers(0, n_base - 1), st.integers(0, N - 1),
                  st.sampled_from([0.5, 1.0, 2.0, float(np.log1p(3.0))])),
        max_size=4 * n_base))
    dense = np.zeros((n_base, N))
    for r, c, v in cells:
        dense[r, c] = v
    dense[:, draw(st.lists(st.integers(0, N - 1), max_size=3))] = 0.0
    repeats = draw(st.lists(st.integers(0, n_base - 1), max_size=4))
    dense = np.vstack([dense, dense[repeats]])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(dense),
                               max_size=len(dense))))
    groups = np.array(draw(st.lists(st.integers(0, 2), min_size=N, max_size=N)))
    return sparse.csr_matrix(dense), y, groups


class TestBlockedScan:
    def test_levels_are_row_disjoint_longest_path_layers(self):
        X, _, layout_groups, _ = fixed_problem()
        Xc = X.tocsc()
        sched = _column_levels(Xc, layout_groups)
        nonempty = np.flatnonzero(np.diff(Xc.indptr))
        # every non-empty column once, no empty column, ranked in column order
        assert np.array_equal(np.sort(sched.cols), nonempty)
        assert np.array_equal(sched.cols, nonempty[sched.rank])
        assert np.array_equal(sched.groups, layout_groups[sched.cols])
        rows_of = {j: list(Xc.getcol(j).indices) for j in nonempty}
        level_of = {}
        for i, lev in enumerate(sched.levels):
            cols = sched.cols[lev.span]
            assert len(cols) and np.all(np.diff(cols) > 0)
            taken = [r for j in cols for r in rows_of[j]]
            assert len(taken) == len(set(taken))  # no two share a row
            assert list(lev.rows) == sorted(taken)
            for p, j in enumerate(cols):  # each column's nonzeros, in order
                mine = lev.local == p
                assert list(lev.rows[mine]) == rows_of[j]
                assert np.array_equal(lev.vals[mine], Xc.getcol(j).data)
                assert lev.vv[p] == np.bincount(lev.local, lev.vals ** 2)[p]
            level_of.update(dict.fromkeys(cols.tolist(), i))
        assert sum(lev.span.stop - lev.span.start
                   for lev in sched.levels) == len(nonempty)
        for j in nonempty:
            earlier = [level_of[k] for k in nonempty
                       if k < j and set(rows_of[k]) & set(rows_of[j])]
            assert level_of[j] == (max(earlier) + 1 if earlier else 0)
        assert len(sched.levels) <= greedy_runs(Xc)

    def test_one_skill_per_item_needs_few_levels(self):
        windows = 3
        Xc = one_skill_per_item_design(windows=windows).tocsc()
        levels = _column_levels(Xc, np.zeros(Xc.shape[1], dtype=np.int64)).levels
        # users, items, skills, then one level per count column of a skill
        assert len(levels) <= 3 + 2 * windows
        assert greedy_runs(Xc) > 10 * len(levels)

    @settings(max_examples=60, deadline=None)
    @given(design=sparse_designs(), d=st.integers(1, 2),
           iterations=st.integers(1, 5), seed=st.integers(0, 2**16))
    # level order differs from column order: column 2 is level 0, column 1
    # level 1; and the one-skill-per-item shape, whose skills share levels
    @example(design=(sparse.csr_matrix([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0]]),
                     np.array([1, 0, 1]), np.array([0, 1, 1])),
             d=1, iterations=3, seed=0)
    @example(design=(one_skill_per_item_design(n=200, users=10, skills=6,
                                               windows=2),
                     np.arange(200) % 3 > 0, np.repeat([0, 1, 2, 3], 13)),
             d=2, iterations=4, seed=1)
    def test_random_designs_match_column_by_column_reference(
            self, design, d, iterations, seed):
        X, y, groups = design
        cfg = GibbsConfig(iterations=iterations, seed=seed)
        got = fit_fm_gibbs(X, y, d, cfg, groups=groups, eval_X=X)
        ref = column_by_column_gibbs(X, y, d, cfg, groups=groups, eval_X=X)
        a, b = got.posterior_mean, ref.posterior_mean
        assert abs(a.global_bias - b.global_bias) < 1e-12
        np.testing.assert_allclose(a.linear_weights, b.linear_weights,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.embeddings, b.embeddings,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.eval_probs, ref.eval_probs,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("grouping", ["none", "layout", "interleaved"])
    def test_matches_column_by_column_reference(self, grouping):
        X, y, layout_groups, interleaved_groups = fixed_problem()
        groups = {"none": None, "layout": layout_groups,
                  "interleaved": interleaved_groups}[grouping]
        cfg = GibbsConfig(iterations=16, seed=5)
        got = fit_fm_gibbs(X, y, 2, cfg, groups=groups, eval_X=X[:60])
        ref = column_by_column_gibbs(X, y, 2, cfg, groups=groups, eval_X=X[:60])
        a, b = got.posterior_mean, ref.posterior_mean
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
        assert np.array_equal(a.posterior_mean.embeddings,
                              b.posterior_mean.embeddings)

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
