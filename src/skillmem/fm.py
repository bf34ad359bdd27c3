"""Factorization machine for dim>0 families, trained by Gibbs sampling.

Bayesian FM with a probit link: binary labels are handled through truncated
normal latent responses (unit noise variance), and every weight and embedding
component carries a normal prior N(mu_g, 1/lambda_g) whose (mu_g, lambda_g)
are sampled per feature group under hyperpriors mu ~ N(0,1), lambda ~ Gamma(1,1).
Predictions average per-sample probit probabilities over the post-burn-in
chain; a point-estimate mode applies probit to the posterior-mean score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import ndtr, ndtri

from .errors import FitError


@dataclass
class GibbsConfig:
    iterations: int = 300
    seed: int = 0
    burn_in: int | None = None  # defaults to iterations // 2
    init_stdev: float = 0.1

    def resolved_burn_in(self):
        b = self.iterations // 2 if self.burn_in is None else self.burn_in
        if b >= self.iterations:
            raise FitError(f"burn_in {b} must be < iterations {self.iterations}")
        return b


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
    """Result of a Gibbs run: posterior mean and final sample."""

    posterior_mean: FMParams
    final_sample: FMParams
    eval_probs: np.ndarray | None = None  # chain-averaged probs for eval rows


def fm_score(params, row):
    """mu + sum w_i x_i + pairwise interactions, via the O(Nd) identity."""
    from .encoder import SparseVector

    if isinstance(row, SparseVector):
        idx, val = row.indices, row.values
    else:
        idx, val = row
        idx = np.asarray(idx)
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
    """Draw z ~ N(mean, 1) truncated to z>0 (positive) or z<0, by inverse CDF."""
    lo = ndtr(-mean)  # P(z <= 0)
    u = rng.uniform(size=mean.shape)
    # positive side: quantile in (P(z<=0), 1); negative side: (0, P(z<=0))
    p = np.where(positive, lo + u * (1 - lo), u * lo)
    p = np.clip(p, 1e-12, 1 - 1e-12)
    return mean + ndtri(p)


def fit_fm_gibbs(X, y, d, config=None, groups=None, eval_X=None):
    """Run the Gibbs chain and return posterior summaries.

    `groups` assigns each feature column to a regularization group (one
    (mu, lambda) pair per group, per parameter kind); defaults to a single
    group. `eval_X` rows get chain-averaged predicted probabilities.
    """
    config = config or GibbsConfig()
    if d < 1:
        raise FitError(f"dim must be >= 1, got {d}")
    rng = np.random.default_rng(config.seed)
    X = sparse.csr_matrix(X, dtype=float)
    Xc = X.tocsc()
    n, N = X.shape
    y = np.asarray(y)
    positive = y > 0
    burn_in = config.resolved_burn_in()

    groups = np.zeros(N, dtype=np.int64) if groups is None else np.asarray(groups)
    group_ids = np.unique(groups)
    group_cols = {g: np.where(groups == g)[0] for g in group_ids}

    w = np.zeros(N)
    V = rng.normal(0.0, config.init_stdev, size=(N, d))
    mu0 = 0.0

    # per-group (mu, lambda) for w, and per-(group, factor) for V
    mu_w = {g: 0.0 for g in group_ids}
    lam_w = {g: 1.0 for g in group_ids}
    mu_v = {g: np.zeros(d) for g in group_ids}
    lam_v = {g: np.ones(d) for g in group_ids}

    cols = [Xc.getcol(j) for j in range(N)]
    col_rows = [c.indices.copy() for c in cols]
    col_vals = [c.data.copy() for c in cols]
    col_sq = [float(v @ v) for v in col_vals]

    scores = _scores_matrix(FMParams(mu0, w, V), X)
    Q = np.asarray(X @ V)  # (n, d), maintained incrementally
    z = _draw_truncnorm(rng, scores, positive)
    e = z - scores

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
        scores += mu_new - mu0
        mu0 = mu_new

        # hyperparameters per group
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
                mu_v[g][f] = rng.normal(
                    lam_v[g][f] * np.sum(Vg[:, f]) / prec_mu,
                    1.0 / np.sqrt(prec_mu))

        # linear weights
        for j in range(N):
            rows_j, vals_j = col_rows[j], col_vals[j]
            if len(rows_j) == 0:
                continue
            g = groups[j]
            prec = col_sq[j] + lam_w[g]
            resid = e[rows_j] + vals_j * w[j]
            mean = (vals_j @ resid + lam_w[g] * mu_w[g]) / prec
            w_new = rng.normal(mean, 1.0 / np.sqrt(prec))
            delta = w_new - w[j]
            e[rows_j] -= vals_j * delta
            scores[rows_j] += vals_j * delta
            w[j] = w_new

        # embeddings
        for f in range(d):
            qf = Q[:, f]
            for j in range(N):
                rows_j, vals_j = col_rows[j], col_vals[j]
                if len(rows_j) == 0:
                    continue
                g = groups[j]
                h = vals_j * (qf[rows_j] - vals_j * V[j, f])
                h_sq = float(h @ h)
                prec = h_sq + lam_v[g][f]
                resid = e[rows_j] + h * V[j, f]
                mean = (h @ resid + lam_v[g][f] * mu_v[g][f]) / prec
                v_new = rng.normal(mean, 1.0 / np.sqrt(prec))
                delta = v_new - V[j, f]
                e[rows_j] -= h * delta
                scores[rows_j] += h * delta
                qf[rows_j] += vals_j * delta
                V[j, f] = v_new

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
        "mu_w": {int(g): float(v) for g, v in mu_w.items()},
        "lambda_w": {int(g): float(v) for g, v in lam_w.items()},
    }
    posterior_mean = FMParams(sum_mu / n_kept, sum_w / n_kept, sum_V / n_kept,
                              hyperparams=hyper)
    final_sample = FMParams(mu0, w.copy(), V.copy(), hyperparams=hyper)
    return FMFit(
        posterior_mean=posterior_mean,
        final_sample=final_sample,
        eval_probs=None if eval_X is None else eval_prob_sum / n_kept,
    )


def fm_predict(model, row):
    """Predicted probability for one row.

    `model` may be an FMParams (point estimate: probit of its score), a list
    of FMParams (chain average of per-sample probabilities), or an FMFit
    (its posterior mean).
    """
    if isinstance(model, FMFit):
        model = model.posterior_mean
    if isinstance(model, FMParams):
        return float(probit(fm_score(model, row)))
    probs = [probit(fm_score(p, row)) for p in model]
    return float(np.mean(probs))
