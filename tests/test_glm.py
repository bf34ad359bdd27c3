import math

import numpy as np
import pytest
from scipy import sparse

from skillmem.encoder import ModelSpec, encode_dataset
from skillmem.errors import FitError
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
        from skillmem.corpus import Dataset, Interaction, QMatrix
        qm = QMatrix([("easy", "k"), ("hard", "k")])
        interactions = {}
        for s, a in abilities.items():
            rows = []
            for t in range(200):
                j = "easy" if t % 2 == 0 else "hard"
                p = sigmoid(a - difficulties[j])
                rows.append(Interaction(s, j, float(t),
                                        int(rng.uniform() < p)))
            interactions[s] = rows
        ds = Dataset(interactions, qm)
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
