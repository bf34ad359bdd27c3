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
    """Overflow-safe logistic function, elementwise; a float for a scalar."""
    if isinstance(x, float):
        e = float(np.exp(-abs(x)))
        return (1.0 if x >= 0 else e) / (1.0 + e)
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
    loss, grad = _objective(X, np.asarray(y, dtype=float), params.l2_strength)(
        np.append(params.weights, params.intercept))
    return loss, grad[:-1], float(grad[-1])


def _objective(X, y, l2):
    """theta = (weights, intercept) -> (loss, gradient) of
    `loss_and_gradient`; `X.T` is built once, not per call."""
    (n, d), XT = X.shape, X.T
    if len(y) != n:
        raise FitError(f"row count {n} != label count {len(y)}")

    def objective(theta):
        w = theta[:d]
        z = X @ w + theta[d]
        # mean NLL = mean(log(1+exp(z)) - y*z)
        loss = float(np.mean(_log1pexp(z) - y * z)) + 0.5 * l2 * float(w @ w)
        resid = (sigmoid(z) - y) / n
        grad = np.empty(d + 1)
        np.add(np.asarray(XT @ resid).ravel(), l2 * w, out=grad[:d])
        grad[d] = resid.sum()
        return loss, grad

    return objective


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
    d = X.shape[1]
    theta0 = np.zeros(d + 1)
    res = optimize.minimize(
        _objective(X, y, config.l2_strength), theta0, jac=True,
        method="L-BFGS-B",
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
