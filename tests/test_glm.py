import glob
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy
from scipy import optimize, sparse

import reference_glm as reference
from skillmem import glm
from skillmem.encoder import ModelSpec, encode_dataset
from skillmem.errors import ConfigError, FitError
from skillmem.glm import (FitConfig, LinearParams, fit_logistic,
                          loss_and_gradient, predict_proba, sigmoid)


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for x in (0.3, 1.7, 5.0):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0)

    def test_extremes_no_overflow(self):
        assert sigmoid(710.0) == pytest.approx(1.0)
        assert sigmoid(-710.0) == pytest.approx(0.0)
        assert np.isfinite(sigmoid(-710.0))

    def test_against_mpmath_style_reference(self):
        # high-precision reference values via the exact formula at modest x
        for x in (-30.0, -3.0, 0.5, 12.0):
            ref = 1.0 / (1.0 + math.exp(-x))
            assert sigmoid(x) == pytest.approx(ref, rel=1e-14)


def random_instance(rng, n=20, d=6):
    X = rng.normal(size=(n, d)) * (rng.uniform(size=(n, d)) < 0.4)
    y = rng.integers(0, 2, size=n)
    params = LinearParams(rng.normal(size=d) * 0.5, float(rng.normal()), 0.3)
    return params, sparse.csr_matrix(X), y


def finite_difference_gradient(params, X, y, eps=1e-6):
    d = params.n_features
    grad = np.zeros(d + 1)
    for j in range(d + 1):
        def at(delta):
            w = params.weights.copy()
            b = params.intercept
            if j < d:
                w[j] += delta
            else:
                b += delta
            loss, _, _ = loss_and_gradient(
                LinearParams(w, b, params.l2_strength), X, y)
            return loss
        grad[j] = (at(eps) - at(-eps)) / (2 * eps)
    return grad


class TestLossAndGradient:
    def test_zero_weights_balanced(self):
        X = sparse.csr_matrix(np.ones((4, 2)))
        y = np.array([1, 0, 1, 0])
        params = LinearParams(np.zeros(2), 0.0, 0.0)
        loss, gw, gb = loss_and_gradient(params, X, y)
        assert loss == pytest.approx(math.log(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            params, X, y = random_instance(rng)
            loss, gw, gb = loss_and_gradient(params, X, y)
            fd = finite_difference_gradient(params, X, y)
            analytic = np.concatenate([gw, [gb]])
            assert np.allclose(analytic, fd, rtol=1e-5, atol=1e-7)

    def test_dimension_mismatch(self):
        X = sparse.csr_matrix(np.ones((3, 2)))
        with pytest.raises(FitError):
            loss_and_gradient(LinearParams(np.zeros(2), 0.0, 0.0), X,
                              np.array([1, 0]))

    def test_gradient_descent_decreases_loss(self):
        X = sparse.csr_matrix(np.array([[1.0]]))
        y = np.array([1])
        params = LinearParams(np.zeros(1), 0.0, 0.0)
        losses = []
        for _ in range(5):
            loss, gw, gb = loss_and_gradient(params, X, y)
            losses.append(loss)
            params = LinearParams(params.weights - 0.5 * gw,
                                  params.intercept - 0.5 * gb, 0.0)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_convexity_probes(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            _, X, y = random_instance(rng)
            d = X.shape[1]
            t1 = rng.normal(size=d + 1)
            t2 = rng.normal(size=d + 1)
            lam = rng.uniform()
            def loss_of(t):
                p = LinearParams(t[:d], t[d], 0.3)
                return loss_and_gradient(p, X, y)[0]
            mid = lam * t1 + (1 - lam) * t2
            assert loss_of(mid) <= lam * loss_of(t1) + (1 - lam) * loss_of(t2) + 1e-10


@pytest.mark.parametrize("kwargs", [
    {"l2_strength": math.nan}, {"l2_strength": math.inf},
    {"l2_strength": -1.0}, {"max_iterations": 0}])
def test_fit_config_rejects_impossible_values(kwargs):
    with pytest.raises(ConfigError):
        FitConfig(**kwargs)


class TestFitLogistic:
    def test_intercept_only(self):
        X = sparse.csr_matrix(np.zeros((100, 1)))
        y = np.array([1] * 75 + [0] * 25)
        params = fit_logistic(X, y, FitConfig(l2_strength=1e-9))
        assert params.intercept == pytest.approx(math.log(3), abs=1e-3)

    def test_duplicated_rows_identical_params(self):
        rng = np.random.default_rng(2)
        _, X, y = random_instance(rng, n=30)
        cfg = FitConfig(l2_strength=0.1)
        p1 = fit_logistic(X, y, cfg)
        X2 = sparse.vstack([X, X])
        y2 = np.concatenate([y, y])
        p2 = fit_logistic(X2, y2, cfg)
        assert np.allclose(p1.weights, p2.weights, atol=1e-6)
        assert p1.intercept == pytest.approx(p2.intercept, abs=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        _, X, y = random_instance(rng, n=40)
        cfg = FitConfig(l2_strength=0.1)
        p1 = fit_logistic(X, y, cfg)
        perm = rng.permutation(40)
        p2 = fit_logistic(X[perm], y[perm], cfg)
        assert np.allclose(p1.weights, p2.weights, atol=1e-6)

    def test_nan_features_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(FitError):
            fit_logistic(X, np.array([1, 0]))

    def test_monotone_penalized_loss(self):
        rng = np.random.default_rng(8)
        _, X, y = random_instance(rng, n=50)
        params = fit_logistic(X, y, FitConfig(l2_strength=0.05))
        start = loss_and_gradient(LinearParams(np.zeros(X.shape[1]), 0.0, 0.05),
                                  X, y)[0]
        end = loss_and_gradient(params, X, y)[0]
        assert end <= start

    def test_irt_ability_ordering_recovered(self):
        # simulate two students with known abilities on two items
        rng = np.random.default_rng(4)
        abilities = {"good": 2.0, "weak": -2.0}
        difficulties = {"easy": -0.5, "hard": 0.5}
        from skillmem.corpus import Dataset, QMatrix
        qm = QMatrix([("easy", "k"), ("hard", "k")])
        rows = []
        for s, a in abilities.items():
            for t in range(200):
                j = "easy" if t % 2 == 0 else "hard"
                p = sigmoid(a - difficulties[j])
                rows.append((s, j, float(t), int(rng.uniform() < p)))
        ds = Dataset.from_rows(rows, qm)
        dm = encode_dataset(ds, ModelSpec("irt", 0))
        params = fit_logistic(dm.X, dm.y, FitConfig(l2_strength=1e-4))
        off = dm.layout.offset("users")
        fitted = {s: params.weights[off + i]
                  for i, s in enumerate(dm.layout.students)}
        assert fitted["good"] > fitted["weak"]

    def test_separable_held_in_probs(self):
        X = sparse.csr_matrix(np.array([[1.0, 0.0]] * 10 + [[0.0, 1.0]] * 10))
        y = np.array([1] * 10 + [0] * 10)
        params = fit_logistic(X, y, FitConfig(l2_strength=1e-6))
        probs = predict_proba(params, X)
        assert np.all(probs[:10] >= 0.9)


class TestPredictProba:
    def test_all_zero_row(self):
        params = LinearParams(np.zeros(3), 0.7, 0.0)
        row = sparse.csr_matrix((1, 3))
        assert predict_proba(params, row) == pytest.approx([sigmoid(0.7)])


@st.composite
def objective_cases(draw):
    """(X, y, l2, thetas): a CSR design whose rows include logits
    near 30.5, 35, -35 and 800 (exp overflows there) and a zero row,
    and three points to evaluate at; at the second and third the intercept
    is 0, so the zero row's logit is exactly 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(0, 30)), draw(st.integers(1, 8))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    scale = draw(st.sampled_from([0.01, 1.0, 30.0, 1e3]))
    intercept = draw(st.sampled_from([-1.5, 0.0, 2.0]))
    w = rng.normal(size=d)
    X = rng.normal(scale=scale, size=(n, d)) * (rng.uniform(size=(n, d))
                                                < density)
    j = int(np.argmax(np.abs(w)))
    extremes = np.zeros((5, d))
    logits = np.array([30.5, 35.0, -35.0, 800.0])
    extremes[:4, j] = (logits - intercept) / w[j]
    X = np.vstack([X, extremes])[rng.permutation(n + 5)]
    y = rng.integers(0, 2, size=n + 5).astype(float)
    thetas = [np.append(w, intercept), np.append(w, 0.0), np.zeros(d + 1)]
    l2 = draw(st.sampled_from([0.0, 1e-5, 1.0]))
    return sparse.csr_matrix(X), y, l2, thetas


class TestObjectiveMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(objective_cases())
    def test_loss_and_gradient_bits(self, case):
        X, y, l2, thetas = case
        ours, ref = glm._objective(X, y, l2), reference.objective(X, y, l2)
        for theta in thetas:
            (loss, grad), (ref_loss, ref_grad) = ours(theta), ref(theta)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert grad.tobytes() == ref_grad.tobytes()

    def test_fit_equals_lbfgs_on_reference(self, small_synth):
        dm = encode_dataset(small_synth[0], ModelSpec("das3h", 0))
        cfg = FitConfig(l2_strength=1e-3, max_iterations=60)
        params = fit_logistic(dm.X, dm.y, cfg)
        res = optimize.minimize(
            reference.objective(dm.X, dm.y.astype(float), cfg.l2_strength),
            np.zeros(dm.X.shape[1] + 1), jac=True, method="L-BFGS-B",
            options={"maxiter": cfg.max_iterations, "gtol": glm.GTOL,
                     "ftol": 1e-14})
        assert params.weights.tobytes() == res.x[:-1].tobytes()
        assert params.intercept == res.x[-1]
        assert (params.n_iter, params.converged) == (res.nit, res.success)
        assert params.final_loss == res.fun
        assert params.grad_norm == np.linalg.norm(res.jac)


def scipy_bundled_openblas():
    """The OpenBLAS files of scipy's wheel, where Linux, Windows and macOS
    wheels put them; none for a scipy built against a system BLAS."""
    pkg = os.path.dirname(scipy.__file__)
    return (glob.glob(os.path.join(pkg + ".libs", "*openblas*"))
            + glob.glob(os.path.join(pkg, ".dylibs", "*openblas*")))


@pytest.mark.skipif(not scipy_bundled_openblas(),
                    reason="scipy's wheel bundles no OpenBLAS")
def test_a_fresh_process_fit_finds_scipys_openblas():
    # importing glm does not load scipy.optimize; the fit imports it before
    # the thread count is first looked up, so the cached lookup finds it
    code = ("import sys, numpy as np; from skillmem import glm; "
            "assert 'scipy.optimize' not in sys.modules; "
            "glm.fit_logistic(np.eye(3), np.array([1, 0, 1])); "
            "print(glm._scipy_openblas() is not None)")
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


@pytest.mark.skipif(glm._scipy_openblas() is None,
                    reason="scipy's bundled OpenBLAS is not loaded here "
                           "(no scipy_openblas thread-count symbols)")
class TestBlasThreads:
    def test_one_thread_in_the_fit_restored_after(self, monkeypatch):
        get_threads = glm._scipy_openblas()[0]
        before, during = get_threads(), []
        objective = glm._objective

        def counting(*args):
            f = objective(*args)

            def counted(theta):
                during.append(get_threads())
                return f(theta)
            return counted

        monkeypatch.setattr(glm, "_objective", counting)
        rng = np.random.default_rng(0)
        _, X, y = random_instance(rng, n=30)
        fit_logistic(X, y, FitConfig(l2_strength=0.1))
        assert during and set(during) == {1}
        assert get_threads() == before

    def test_restored_when_the_fit_raises(self, monkeypatch):
        get_threads = glm._scipy_openblas()[0]
        before = get_threads()

        def failing(*args):
            def objective(theta):
                raise RuntimeError("objective failed")
            return objective

        monkeypatch.setattr(glm, "_objective", failing)
        with pytest.raises(RuntimeError, match="objective failed"):
            fit_logistic(np.eye(3), np.array([1, 0, 1]))
        assert get_threads() == before
