"""Reference objective of the GLM fit: the mask-and-scatter `_log1pexp`,
`np.mean` and the CSC view of `X.T`. `skillmem.glm._objective` must give
the same loss and gradient as this one, bit for bit."""

import numpy as np

from skillmem.errors import FitError
from skillmem.glm import sigmoid


def _log1pexp(x):
    """log(1 + exp(x)) without overflow."""
    out = np.empty_like(x)
    big = x > 30
    out[big] = x[big]
    out[~big] = np.log1p(np.exp(x[~big]))
    return out


def objective(X, y, l2):
    """theta = (weights, intercept) -> (penalized mean log-loss, gradient)."""
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
