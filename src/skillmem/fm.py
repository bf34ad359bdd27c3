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
then the linear weights and each embedding factor, as a blocked scan over
dependency levels. A non-empty column's level is one more than the highest
level among the earlier columns that share a row with it, and 0 when there
are none: the one-hot users form level 0 and the items level 1, and a
skill's nested window counts, which share rows, sit one level apart. The
columns of a level share no row, and every earlier column that shares a row
with one of them sits at a lower level. Given everything else, a level's
columns are conditionally independent, and each one's conditional reads the
rows as the column-by-column scan leaves them, so one vectorized draw per
level, levels in order, with each phase's noise drawn in column order, gives
the same chain as drawing the columns one by one. The cost of a sweep grows
with nnz and the number of levels, not with the number of users, items or
skills.

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


def _scores_matrix(params, X, XX=None):
    """Scores for every row of a CSR matrix, vectorized; `XX` is
    X.multiply(X), when already taken."""
    XX = X.multiply(X) if XX is None else XX
    lin = params.global_bias + X @ params.linear_weights
    Q = X @ params.embeddings                      # (n, d)
    SQ = XX @ (params.embeddings ** 2)             # (n, d)
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
class _Level:
    """Non-empty columns that share no row, and their nonzeros by row."""

    span: slice          # the level's positions in the level-ordered columns
    local: np.ndarray    # (nnz,) position in the level of each nonzero's column
    rows: np.ndarray     # (nnz,) row of each nonzero, increasing
    vals: np.ndarray     # (nnz,) value of each nonzero
    vv: np.ndarray       # per column of the level, its sum of x_ij^2


@dataclass
class _Schedule:
    """The non-empty columns in level order, and the levels that slice it."""

    cols: np.ndarray     # (m,) column ids, by level, in column order within one
    rank: np.ndarray     # (m,) position of each in column order
    groups: np.ndarray   # (m,) group index of each column
    levels: list         # _Level per level, in level order


def _column_levels(X, group_index):
    """Schedule the non-empty columns of a sparse matrix by level.

    A column's level is one more than the highest level among the earlier
    columns that share a row with it, and 0 when there are none. So columns
    of one level share no row, and every earlier column that shares a row
    with one of them sits at a lower level. Empty columns are never drawn
    and belong to no level. One pass over the columns finds every level.

    A level's nonzeros are kept in row order, which keeps each column's own
    nonzeros in the order of its CSC slice, so a per-column sum over them
    adds the same terms in the same order.
    """
    Xc = sparse.csc_matrix(X)
    Xc.sum_duplicates()  # a repeated entry would share a row within a column
    n = Xc.shape[0]
    counts = np.diff(Xc.indptr)
    cols = np.flatnonzero(counts)
    m = len(cols)

    # per column in column order, one more than the highest level among the
    # earlier columns holding its rows: levels grow along a row, so that is
    # the level of the last column seen on each row (-1 for none)
    top = np.full(n, -1)
    level = np.empty(m, dtype=np.int64)
    for p, (a, b) in enumerate(zip(Xc.indptr[cols].tolist(),
                                   Xc.indptr[cols + 1].tolist())):
        level[p] = top[Xc.indices[a:b]].max() + 1
        top[Xc.indices[a:b]] = level[p]

    rank = np.argsort(level, kind="stable")
    cb = np.concatenate([[0], np.cumsum(np.bincount(level))])
    nb = np.concatenate([[0], np.cumsum(counts[cols[rank]])])[cb]
    within = np.empty(m, dtype=np.int64)
    within[rank] = np.arange(m) - np.repeat(cb[:-1], np.diff(cb))
    # the nonzeros by level, then row (no two share both)
    nz = np.argsort(np.repeat(level * n, counts[cols]) + Xc.indices)
    rows = Xc.indices[nz].astype(np.intp)
    vals = Xc.data[nz]
    local = np.repeat(within, counts[cols])[nz]
    levels = []
    for c0, c1, n0, n1 in zip(cb[:-1], cb[1:], nb[:-1], nb[1:]):
        loc, v = local[n0:n1], vals[n0:n1]
        levels.append(_Level(slice(c0, c1), loc, rows[n0:n1], v,
                             np.bincount(loc, v * v, c1 - c0)))
    return _Schedule(cols[rank], rank, group_index[cols[rank]], levels)


def _draw_level(coef, level, lam, lam_mu, noise, e, qf=None):
    """Draw coef[level.span] from their full conditionals in one step.

    `coef`, `lam`, `lam_mu` (lam * mu) and `noise` hold one entry per
    non-empty column, in level order; the prior of column j is N(mu[j],
    1/lam[j]). The score is linear in each coefficient: with `qf` None the
    coefficients are linear weights, of slope x_ij at a nonzero; otherwise
    they are factor f of the embeddings, of slope x_ij * (Q_if - x_ij V_jf),
    with `qf` = Q[f]. The level's columns touch disjoint rows, and every
    earlier column that shares a row with one of them has been drawn, so
    each conditional reads `e` as the column-by-column scan would, and one
    batched draw gives the same chain. `e` and `qf` are updated in place.
    Per-nonzero arrays are reused in place, which leaves every value as the
    plain expressions in the comments give it.
    """
    s, rows, vals, local = level.span, level.rows, level.vals, level.local
    old = coef[s]
    x = old[local]  # each nonzero's current coefficient
    er = e[rows]
    t = vals * x
    if qf is None:
        h, hh = vals, level.vv
    else:
        qr = qf[rows]
        h = np.subtract(qr, t, out=t)
        h *= vals  # vals * (qr - vals * x)
        t = h * h
        hh = np.bincount(local, t, len(old))
        np.multiply(h, x, out=t)
    t += er
    t *= h  # h * (er + h * x)
    prec = hh + lam[s]
    mean = (np.bincount(local, t, len(old)) + lam_mu[s]) / prec
    new = mean + (1.0 / np.sqrt(prec)) * noise[s]
    delta = (new - old)[local]
    coef[s] = new
    er -= np.multiply(h, delta, out=t)
    e[rows] = er  # er - h * delta
    if qf is not None:
        delta *= vals
        qr += delta
        qf[rows] = qr  # qr + vals * delta


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

    group_ids, group_index = np.unique(groups, return_inverse=True)
    group_cols = [np.flatnonzero(group_index == i) for i in range(len(group_ids))]
    sched = _column_levels(X, group_index)
    m = len(sched.cols)

    w = np.zeros(N)
    V = rng.normal(0.0, INIT_STDEV, size=(N, d))
    mu0 = 0.0

    # per-group (mu, lambda) for w, and per-(group, factor) for V
    mu_w = np.zeros(len(group_ids))
    lam_w = np.ones(len(group_ids))
    mu_v = np.zeros((len(group_ids), d))
    lam_v = np.ones((len(group_ids), d))

    scores = _scores_matrix(FMParams(mu0, w, V), X)
    Q = np.ascontiguousarray((X @ V).T)  # (d, n), maintained incrementally
    # (coefficients, their groups' lambda and mu, Q[f] or None) per phase
    phases = [(w, lam_w, mu_w, None)] + [
        (V[:, f], lam_v[:, f], mu_v[:, f], Q[f]) for f in range(d)]
    _draw_truncnorm(rng, scores, positive)  # discarded; fixes the RNG stream

    sum_mu, sum_w, sum_V = 0.0, np.zeros(N), np.zeros((N, d))
    n_kept = 0
    eval_prob_sum = None if eval_X is None else np.zeros(eval_X.shape[0])
    eval_XX = None if eval_X is None else eval_X.multiply(eval_X)

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

        # linear weights, then each factor of the embeddings: each phase
        # draws its noise in column order and works on a level-ordered copy
        for coef, lam_g, mu_g, qf in phases:
            noise = rng.standard_normal(m)[sched.rank]
            cl, lam = coef[sched.cols], lam_g[sched.groups]
            lam_mu = lam * mu_g[sched.groups]
            for level in sched.levels:
                _draw_level(cl, level, lam, lam_mu, noise, e, qf)
            coef[sched.cols] = cl
        scores = z - e

        if not (np.isfinite(mu0) and np.all(np.isfinite(w)) and np.all(np.isfinite(V))):
            raise FitError(f"divergent Gibbs chain at iteration {it}")

        if it >= burn_in:
            n_kept += 1
            sum_mu += mu0
            sum_w += w
            sum_V += V
            if eval_X is not None:
                eval_prob_sum += probit(_scores_matrix(
                    FMParams(mu0, w, V), eval_X, eval_XX))

    hyper = {
        "mu_w": {int(g): float(v) for g, v in zip(group_ids, mu_w)},
        "lambda_w": {int(g): float(v) for g, v in zip(group_ids, lam_w)},
    }
    return FMFit(
        posterior_mean=FMParams(sum_mu / n_kept, sum_w / n_kept,
                                sum_V / n_kept, hyperparams=hyper),
        eval_probs=None if eval_X is None else eval_prob_sum / n_kept,
    )
