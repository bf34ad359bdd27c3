"""Factorization machine for dim>0 families, trained by Gibbs sampling.

Bayesian FM with a probit link: binary labels are handled through truncated
normal latent responses (unit noise variance), and every weight and embedding
component carries a normal prior N(mu_g, 1/lambda_g) whose (mu_g, lambda_g)
are sampled per feature group under hyperpriors mu ~ N(0,1), lambda ~ Gamma(1,1).
The first half of the sweeps is burn-in. Held-out rows passed to the fit
get per-sample probit probabilities averaged over the second half. The fit
returns the posterior mean, a saved model holds only that, and one row is
scored at that mean by `fm_score`.

Each sweep draws the latents, the global bias, the group hyperparameters,
then the linear weights and each embedding factor in column order, as a
blocked scan over runs: maximal ranges of consecutive non-empty columns in
which no two columns share a row (the one-hot users and items blocks are one
run each; skill and count columns that share rows are runs of length 1).
Given everything else, a run's columns are conditionally independent and
each one's conditional reads only rows that the others leave alone, so one
vectorized draw per run, with its noise taken from the generator in column
order, gives the same chain as drawing the columns one by one. The cost of a
sweep grows with nnz and the number of runs, not with the number of users
and items.

The sweep keeps one residual per row, e = z - score for the latent z: every
draw updates e in place, and the score is derived once per sweep as z - e,
for the next sweep's latent draw (equal to a separately kept score up to
rounding).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import log_ndtr, ndtr, ndtri_exp

from .errors import FitError

INIT_STDEV = 0.1  # sd of the embeddings' initial draws


@dataclass
class GibbsConfig:
    iterations: int = 300  # sweeps; the first iterations // 2 are burn-in
    seed: int = 0


@dataclass
class FMParams:
    global_bias: float
    linear_weights: np.ndarray           # (N,)
    embeddings: np.ndarray               # (N, d)
    hyperparams: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.embeddings.shape[1]


@dataclass
class FMFit:
    """Result of a Gibbs run: the posterior mean."""

    posterior_mean: FMParams
    eval_probs: np.ndarray | None = None  # chain-averaged probs for eval rows
    # an L-BFGS fit's diagnostics (`LinearParams`); a Gibbs chain has none
    converged = n_iter = final_loss = grad_norm = None


def fm_score(params, row):
    """mu + sum w_i x_i + pairwise interactions, via the O(Nd) identity, of
    one row given as an `(indices, values)` pair."""
    idx, val = row
    idx = np.asarray(idx, dtype=np.int64)
    val = np.asarray(val, dtype=float)
    N = len(params.linear_weights)
    if len(idx) and (idx.max() >= N or idx.min() < 0):
        raise FitError(f"feature index out of range [0, {N})")
    s = params.global_bias + float(params.linear_weights[idx] @ val)
    V = params.embeddings[idx]  # (nnz, d)
    q = val @ V                 # (d,)
    sq = (val ** 2) @ (V ** 2)  # (d,)
    s += 0.5 * float(np.sum(q * q - sq))
    return s


def _scores_matrix(params, X):
    """Scores for every row of a CSR matrix, vectorized."""
    lin = params.global_bias + X @ params.linear_weights
    Q = X @ params.embeddings                      # (n, d)
    SQ = X.multiply(X) @ (params.embeddings ** 2)  # (n, d)
    return np.asarray(lin).ravel() + 0.5 * np.sum(np.asarray(Q) ** 2 - np.asarray(SQ), axis=1)


def probit(s):
    """Standard normal CDF, stable in the tails."""
    return ndtr(s)


def _draw_truncnorm(rng, mean, positive):
    """Draw z ~ N(mean, 1) truncated to z>0 (positive) or z<0, by inverse CDF.

    Each side is drawn through its own lower tail in log space, so the sign
    is right for any finite mean: with u ~ U[0, 1), a positive row gets
    mean - ndtri((1-u) * ndtr(mean)) and a negative row gets
    mean + ndtri(u * ndtr(-mean)).
    """
    u = rng.uniform(size=mean.shape)
    z = np.empty_like(mean)
    pos, neg = positive, ~positive
    z[pos] = mean[pos] - ndtri_exp(np.log1p(-u[pos]) + log_ndtr(mean[pos]))
    u_neg = np.maximum(u[neg], np.finfo(float).tiny)  # log(0) is -inf
    z[neg] = mean[neg] + ndtri_exp(np.log(u_neg) + log_ndtr(-mean[neg]))
    return z


@dataclass
class _Run:
    """Consecutive non-empty columns that share no row, and their nonzeros."""

    cols: np.ndarray     # (k,) column ids
    groups: np.ndarray   # (k,) group index of each column
    local: np.ndarray    # (nnz,) position in `cols` of each nonzero's column
    rows: np.ndarray     # (nnz,) row of each nonzero
    vals: np.ndarray     # (nnz,) value of each nonzero


def _column_runs(Xc, group_index):
    """Split the non-empty columns of a canonical CSC matrix into runs.

    A run is a maximal range of consecutive non-empty columns in which no two
    columns share a row, taken greedily from the left. Empty columns are
    never drawn, so they belong to no run and do not split one.
    """
    counts = np.diff(Xc.indptr)
    cols = np.flatnonzero(counts)
    m = len(cols)
    if m == 0:
        return []
    pos = np.repeat(np.arange(m), counts[cols])  # column position per nonzero
    # per nonzero, the position of the previous column holding its row
    order = np.lexsort((pos, Xc.indices))
    prev = np.full(len(pos), -1)
    same_row = Xc.indices[order[1:]] == Xc.indices[order[:-1]]
    prev[order[1:]] = np.where(same_row, pos[order[:-1]], -1)
    # per column, the last earlier column it shares a row with
    last = np.maximum.reduceat(prev, Xc.indptr[cols])
    bounds = [0]
    while bounds[-1] < m:
        s = bounds[-1]
        hit = np.flatnonzero(last[s + 1:] >= s)
        bounds.append(s + 1 + int(hit[0]) if len(hit) else m)
    runs = []
    for s, t in zip(bounds[:-1], bounds[1:]):
        a, b = Xc.indptr[cols[s]], Xc.indptr[cols[t - 1] + 1]
        runs.append(_Run(cols=cols[s:t], groups=group_index[cols[s:t]],
                         local=pos[a:b] - s, rows=Xc.indices[a:b],
                         vals=Xc.data[a:b]))
    return runs


def _draw_run(rng, coef, run, h, lam, mu, e):
    """Draw coef[run.cols] from their full conditionals in one step.

    The score is linear in each coefficient with per-nonzero slope `h`; the
    prior of column j is N(mu[j], 1/lam[j]). The run's columns touch
    disjoint rows, so each conditional reads `e` only at rows that no other
    column of the run changes, and one batched draw gives the same chain as
    drawing the columns one after another. `e` is updated in place; returns
    the change of the coefficient at each nonzero.
    """
    k = len(run.cols)
    old = coef[run.cols]
    resid = e[run.rows] + h * old[run.local]
    prec = np.bincount(run.local, h * h, k) + lam
    mean = (np.bincount(run.local, h * resid, k) + lam * mu) / prec
    new = mean + (1.0 / np.sqrt(prec)) * rng.standard_normal(k)
    coef[run.cols] = new
    delta = (new - old)[run.local]
    e[run.rows] -= h * delta
    return delta


def _draw_prior(rng, theta, mu):
    """(lambda, mu) of a group's coefficients `theta` from their Normal-Gamma
    conditional, given the group's current `mu`; lambda is drawn first."""
    n = len(theta)
    lam = rng.gamma(1.0 + n / 2.0,
                    1.0 / (1.0 + 0.5 * np.sum((theta - mu) ** 2)))
    prec_mu = lam * n + 1.0
    return lam, rng.normal(lam * np.sum(theta) / prec_mu,
                           1.0 / np.sqrt(prec_mu))


def fit_fm_gibbs(X, y, d, config=None, groups=None, eval_X=None):
    """Run the Gibbs chain and return posterior summaries.

    `groups` assigns each feature column to a regularization group (one
    (mu, lambda) pair per group, per parameter kind); defaults to a single
    group. `eval_X` rows get chain-averaged predicted probabilities.
    """
    config = config or GibbsConfig()
    if d < 1:
        raise FitError(f"dim must be >= 1, got {d}")
    X = sparse.csr_matrix(X, dtype=float)
    n, N = X.shape
    y = np.asarray(y)
    if y.shape != (n,):
        raise FitError(f"{y.size} labels for {n} rows")
    groups = np.zeros(N, dtype=np.int64) if groups is None else np.asarray(groups)
    if groups.shape != (N,):
        raise FitError(f"{groups.size} groups for {N} feature columns")
    if eval_X is not None and eval_X.shape[1] != N:
        raise FitError(f"eval_X has {eval_X.shape[1]} columns, X has {N}")
    if config.iterations < 1:
        raise FitError(f"iterations must be >= 1, got {config.iterations}")
    burn_in = config.iterations // 2
    rng = np.random.default_rng(config.seed)
    positive = y > 0

    Xc = X.tocsc()
    Xc.sum_duplicates()  # a repeated entry would share a row within a column
    group_ids, group_index = np.unique(groups, return_inverse=True)
    group_cols = [np.flatnonzero(group_index == i) for i in range(len(group_ids))]
    runs = _column_runs(Xc, group_index)

    w = np.zeros(N)
    V = rng.normal(0.0, INIT_STDEV, size=(N, d))
    mu0 = 0.0

    # per-group (mu, lambda) for w, and per-(group, factor) for V
    mu_w = np.zeros(len(group_ids))
    lam_w = np.ones(len(group_ids))
    mu_v = np.zeros((len(group_ids), d))
    lam_v = np.ones((len(group_ids), d))

    scores = _scores_matrix(FMParams(mu0, w, V), X)
    Q = np.asarray(X @ V)  # (n, d), maintained incrementally
    _draw_truncnorm(rng, scores, positive)  # discarded; fixes the RNG stream

    sum_mu, sum_w, sum_V = 0.0, np.zeros(N), np.zeros((N, d))
    n_kept = 0
    eval_prob_sum = None if eval_X is None else np.zeros(eval_X.shape[0])

    for it in range(config.iterations):
        # latent responses
        z = _draw_truncnorm(rng, scores, positive)
        e = z - scores

        # global bias, prior N(0, 1)
        prec = n + 1.0
        mean = (np.sum(e) + n * mu0) / prec
        mu_new = rng.normal(mean, 1.0 / np.sqrt(prec))
        e -= mu_new - mu0
        mu0 = mu_new

        # hyperparameters per group
        for g, cols_g in enumerate(group_cols):
            lam_w[g], mu_w[g] = _draw_prior(rng, w[cols_g], mu_w[g])
            Vg = V[cols_g]
            for f in range(d):
                lam_v[g, f], mu_v[g, f] = _draw_prior(rng, Vg[:, f],
                                                      mu_v[g, f])

        # linear weights: the score's slope in w_j is x_ij
        for run in runs:
            _draw_run(rng, w, run, run.vals, lam_w[run.groups],
                      mu_w[run.groups], e)

        # embeddings: the slope in V_jf is x_ij * (Q_if - x_ij V_jf)
        for f in range(d):
            vf, qf = V[:, f], Q[:, f]
            for run in runs:
                h = run.vals * (qf[run.rows] - run.vals * vf[run.cols][run.local])
                delta = _draw_run(rng, vf, run, h, lam_v[run.groups, f],
                                  mu_v[run.groups, f], e)
                qf[run.rows] += run.vals * delta
        scores = z - e

        if not (np.isfinite(mu0) and np.all(np.isfinite(w)) and np.all(np.isfinite(V))):
            raise FitError(f"divergent Gibbs chain at iteration {it}")

        if it >= burn_in:
            n_kept += 1
            sum_mu += mu0
            sum_w += w
            sum_V += V
            if eval_X is not None:
                eval_prob_sum += probit(_scores_matrix(FMParams(mu0, w, V),
                                                       eval_X))

    hyper = {
        "mu_w": {int(g): float(v) for g, v in zip(group_ids, mu_w)},
        "lambda_w": {int(g): float(v) for g, v in zip(group_ids, lam_w)},
    }
    return FMFit(
        posterior_mean=FMParams(sum_mu / n_kept, sum_w / n_kept,
                                sum_V / n_kept, hyperparams=hyper),
        eval_probs=None if eval_X is None else eval_prob_sum / n_kept,
    )
