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
- The objective keeps one CSC copy of the design per fit. `X @ w` runs on
  it as a scatter over the columns, which adds each row's terms in
  ascending column order, as the CSR product does on sorted rows, so it is
  bit-equal. The gradient's `X.T @ resid` runs on the CSR view of the same
  arrays: each output is a sum over its column's rows in ascending order,
  held in a register. Every elementwise step over the rows writes into two
  float buffers and one mask, allocated once per fit; each element is the
  operation on the same operands that `sigmoid` and log(1 + exp(z)) (taken
  as z above 30) apply, so the loss and the gradient are bit-equal. Each
  call returns a new gradient array, since scipy keeps the previous one.
  `fit_logistic` hands scipy the loss and the gradient as two functions
  that share a one-entry memo (the last theta and its gradient), in place
  of `jac=True`, whose `MemoizeJac` copies and compares theta again on
  every call.
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


def loss_and_gradient(params, X, y):
    """Penalized mean log-loss and its gradient w.r.t. (weights, intercept).

    Returns (loss, grad_weights, grad_intercept).
    """
    loss, grad = _objective(X, np.asarray(y, dtype=float), params.l2_strength)(
        np.append(params.weights, params.intercept))
    return loss, grad[:-1], float(grad[-1])


def _objective(X, y, l2):
    """theta = (weights, intercept) -> (loss, gradient) of
    `loss_and_gradient` over a sparse `X`, copied once as CSC. Every call
    writes its row-length steps into the same three buffers and returns a
    new gradient array."""
    Xc = sparse.csc_matrix(X)
    (n, d), XT = Xc.shape, Xc.T  # XT: the CSR view of Xc's arrays
    if len(y) != n:
        raise FitError(f"row count {n} != label count {len(y)}")
    a, b, mask = np.empty(n), np.empty(n), np.empty(n, dtype=bool)

    def objective(theta):
        w = theta[:d]
        z = Xc @ w
        z += theta[d]
        # mean NLL = mean(log(1+exp(z)) - y*z); log(1+exp(z)) is taken as
        # z above 30, where exp may overflow
        np.greater(z, 30, out=mask)
        with np.errstate(over="ignore"):
            np.exp(z, out=a)
        np.log1p(a, out=a)
        np.copyto(a, z, where=mask)
        np.multiply(y, z, out=b)
        np.subtract(a, b, out=a)
        loss = float(a.sum() / n) + 0.5 * l2 * float(w @ w)
        # resid = (sigmoid(z) - y) / n; sigmoid(z) = where(z >= 0, 1, e)
        # / (1 + e) with e = exp(-|z|), as `sigmoid` takes it
        np.abs(z, out=a)
        np.negative(a, out=a)
        np.exp(a, out=a)
        np.add(a, 1.0, out=b)
        np.divide(a, b, out=a)
        np.greater_equal(z, 0, out=mask)
        np.divide(1.0, b, out=a, where=mask)
        np.subtract(a, y, out=a)
        np.divide(a, n, out=a)
        grad = np.empty(d + 1)
        np.add(XT @ a, l2 * w, out=grad[:d])
        grad[d] = a.sum()
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
    """Deterministic batch fit of `X` as CSC; FitError on non-finite values."""
    config = config or FitConfig()
    X = sparse.csc_matrix(X)
    if not np.all(np.isfinite(X.data)):
        raise FitError("non-finite values in feature matrix")
    y = np.asarray(y, dtype=float)
    d = X.shape[1]
    theta0 = np.zeros(d + 1)
    objective = _objective(X, y, config.l2_strength)
    last = [None, None]  # the last theta evaluated and its gradient

    def loss(theta):
        value, last[1] = objective(theta)
        last[0] = theta  # scipy passes a copy of its iterate
        return value

    def gradient(theta):
        if not (theta == last[0]).all():
            loss(theta)
        return last[1]

    from scipy import optimize  # loads scipy's OpenBLAS: see module doc
    with _one_blas_thread():
        res = optimize.minimize(
            loss, theta0, jac=gradient, method="L-BFGS-B",
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
