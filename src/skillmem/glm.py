"""L2-penalized logistic regression for the dim=0 model families.

The objective is the per-row mean negative log-likelihood plus an L2 penalty
on the weights (the intercept is unpenalized). The penalty is not rescaled by
the row count so that duplicating every row leaves the optimum unchanged.
Optimization uses L-BFGS with an analytic gradient, to a gradient tolerance
of `GTOL`.

Two things keep a fit from wasting work without changing one bit of it:

- L-BFGS-B runs with one thread of the OpenBLAS that scipy's wheel bundles
  (`scipy.libs/libscipy_openblas-*.so`, a separate copy from numpy's). Its
  BLAS calls are on vectors of length d + 1, far too small to share out,
  yet a second OpenBLAS thread spins between them and doubles the fit's CPU
  time. The count is set to one around `optimize.minimize` and restored
  after it, also when it raises; where scipy's library or its symbols are
  not found, nothing is changed. `scipy.optimize` is imported inside
  `fit_logistic`, so only a process that fits pays for it, and before
  `_one_blas_thread`, since importing it loads that library. The lookup
  keeps a library once found and never a miss, so a lookup made before the
  load does not stop later fits from pinning.
- The gradient's product `X.T @ resid` runs on `X.T` converted to CSR once
  per fit, not on the CSC view of the CSR design. Each output is then a
  sum held in a register rather than a scatter-add into memory, over the
  same rows in the same ascending order, so it is bit-equal. It costs a
  second copy of the design's nonzeros for the length of the fit.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import sparse

from .errors import ConfigError, FitError

GTOL = 1e-6  # L-BFGS-B's projected-gradient tolerance


@dataclass
class FitConfig:
    l2_strength: float = 1.0
    max_iterations: int = 500

    def __post_init__(self):
        if not (np.isfinite(self.l2_strength) and self.l2_strength >= 0):
            raise ConfigError(f"l2 strength must be finite and >= 0, "
                              f"got {self.l2_strength}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1, "
                              f"got {self.max_iterations}")


@dataclass
class LinearParams:
    weights: np.ndarray
    intercept: float
    l2_strength: float
    converged: bool = True
    n_iter: int = 0
    # L-BFGS's final penalized loss and gradient norm; None when not fitted
    final_loss: float | None = None
    grad_norm: float | None = None

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
    """log(1 + exp(x)), taken as x above 30; exp overflows only there."""
    with np.errstate(over="ignore"):
        return np.where(x > 30, x, np.log1p(np.exp(x)))


def loss_and_gradient(params, X, y):
    """Penalized mean log-loss and its gradient w.r.t. (weights, intercept).

    Returns (loss, grad_weights, grad_intercept).
    """
    loss, grad = _objective(X, np.asarray(y, dtype=float), params.l2_strength)(
        np.append(params.weights, params.intercept))
    return loss, grad[:-1], float(grad[-1])


def _objective(X, y, l2):
    """theta = (weights, intercept) -> (loss, gradient) of
    `loss_and_gradient` over a sparse `X`; `X.T` is built once, as CSR."""
    (n, d), XT = X.shape, X.T.tocsr()
    if len(y) != n:
        raise FitError(f"row count {n} != label count {len(y)}")

    def objective(theta):
        w = theta[:d]
        z = X @ w + theta[d]
        # mean NLL = mean(log(1+exp(z)) - y*z)
        loss = (float((_log1pexp(z) - y * z).sum() / n)
                + 0.5 * l2 * float(w @ w))
        resid = (sigmoid(z) - y) / n
        grad = np.empty(d + 1)
        np.add(np.asarray(XT @ resid).ravel(), l2 * w, out=grad[:d])
        grad[d] = resid.sum()
        return loss, grad

    return objective


_OPENBLAS = []  # scipy's OpenBLAS (get, set) once found; a miss is not kept


def _scipy_openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with scipy,
    when that library is loaded; None otherwise. A found library is kept;
    a miss is looked up again on the next call, as the library may load
    later (importing `scipy.optimize` loads it)."""
    if _OPENBLAS:
        return _OPENBLAS[0]
    pkg = os.path.dirname(scipy.__file__)
    # where scipy's Linux and Windows wheels, and its macOS wheels, put it
    paths = (glob.glob(os.path.join(pkg + ".libs", "*openblas*"))
             + glob.glob(os.path.join(pkg, ".dylibs", "*openblas*")))
    for path in sorted(paths):
        try:  # RTLD_NOLOAD: find the loaded copy, never load another
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
            get = lib.scipy_openblas_get_num_threads
            set_ = lib.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        _OPENBLAS.append((get, set_))
        return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with scipy's OpenBLAS on one thread, then restore the
    count it had. The count is process-wide, so fits must not overlap."""
    blas = _scipy_openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def fit_logistic(X, y, config=None):
    """Deterministic batch fit of `X` as CSR; FitError on non-finite values."""
    config = config or FitConfig()
    X = sparse.csr_matrix(X)
    if not np.all(np.isfinite(X.data)):
        raise FitError("non-finite values in feature matrix")
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    theta0 = np.zeros(d + 1)
    objective = _objective(X, y, config.l2_strength)
    from scipy import optimize  # loads scipy's OpenBLAS: see module doc
    with _one_blas_thread():
        res = optimize.minimize(
            objective, theta0, jac=True, method="L-BFGS-B",
            options={
                "maxiter": config.max_iterations,
                "gtol": GTOL,
                "ftol": 1e-14,
            },
        )
    return LinearParams(
        weights=res.x[:d].copy(),
        intercept=float(res.x[d]),
        l2_strength=config.l2_strength,
        converged=bool(res.success),
        n_iter=int(res.nit),
        final_loss=float(res.fun),
        grad_norm=float(np.linalg.norm(res.jac)),
    )


def predict_proba(params, X):
    """Probabilities of the rows of a CSR matrix or a dense array."""
    return sigmoid(X @ params.weights + params.intercept)
