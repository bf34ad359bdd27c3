"""L2-penalized logistic regression for the dim=0 model families.

The objective is the per-row mean negative log-likelihood plus an L2 penalty
on the weights (the intercept is unpenalized). The penalty is not rescaled by
the row count so that duplicating every row leaves the optimum unchanged.
Optimization uses L-BFGS with an analytic gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize, sparse

from .errors import FitError


@dataclass
class FitConfig:
    l2_strength: float = 1.0
    max_iterations: int = 500
    tolerance: float = 1e-6


@dataclass
class LinearParams:
    weights: np.ndarray
    intercept: float
    l2_strength: float
    converged: bool = True
    n_iter: int = 0

    @property
    def n_features(self):
        return len(self.weights)


def sigmoid(x):
    """Overflow-safe logistic function, elementwise."""
    x = np.asarray(x, dtype=float)
    ex = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, ex) / (1.0 + ex)
    return out if out.ndim else float(out)


def _log1pexp(x):
    """log(1 + exp(x)) without overflow."""
    out = np.empty_like(x)
    big = x > 30
    out[big] = x[big]
    out[~big] = np.log1p(np.exp(x[~big]))
    return out


def loss_and_gradient(params, X, y):
    """Penalized mean log-loss and its gradient w.r.t. (weights, intercept).

    Returns (loss, grad_weights, grad_intercept).
    """
    n, d = X.shape
    if len(y) != n:
        raise FitError(f"row count {n} != label count {len(y)}")
    y = np.asarray(y, dtype=float)
    z = X @ params.weights + params.intercept
    # mean NLL = mean(log(1+exp(z)) - y*z)
    loss = float(np.mean(_log1pexp(z) - y * z))
    loss += 0.5 * params.l2_strength * float(params.weights @ params.weights)
    p = sigmoid(z)
    resid = (p - y) / n
    grad_w = np.asarray(X.T @ resid).ravel() + params.l2_strength * params.weights
    grad_b = float(resid.sum())
    return loss, grad_w, grad_b


def fit_logistic(X, y, config=None):
    """Deterministic batch fit; raises FitError on non-finite features."""
    config = config or FitConfig()
    if sparse.issparse(X):
        if not np.all(np.isfinite(X.data)):
            raise FitError("non-finite values in feature matrix")
        X = X.tocsr()
    else:
        X = np.asarray(X, dtype=float)
        if not np.all(np.isfinite(X)):
            raise FitError("non-finite values in feature matrix")
    y = np.asarray(y, dtype=float)
    n, d = X.shape

    def objective(theta):
        p = LinearParams(theta[:d], theta[d], config.l2_strength)
        loss, gw, gb = loss_and_gradient(p, X, y)
        return loss, np.concatenate([gw, [gb]])

    theta0 = np.zeros(d + 1)
    res = optimize.minimize(
        objective, theta0, jac=True, method="L-BFGS-B",
        options={
            "maxiter": config.max_iterations,
            "gtol": config.tolerance,
            "ftol": 1e-14,
        },
    )
    return LinearParams(
        weights=res.x[:d].copy(),
        intercept=float(res.x[d]),
        l2_strength=config.l2_strength,
        converged=bool(res.success),
        n_iter=int(res.nit),
    )


def predict_proba(params, X):
    """Probabilities of the rows of a CSR matrix or a dense array."""
    return sigmoid(X @ params.weights + params.intercept)
