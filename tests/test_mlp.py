"""Tests for the MLP trainers."""

import numpy as np
import pytest

from repro.ml.mlp import MLPClassifier, MLPRegressor


def _blobs(n_per_class=80, k=3, spread=0.4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, size=(k, 4))
    X = np.concatenate([
        np.clip(center + rng.normal(0, spread / 3, size=(n_per_class, 4)),
                0, 1)
        for center in centers])
    y = np.repeat(np.arange(k), n_per_class)
    order = rng.permutation(len(y))
    return X[order], y[order]


class TestMLPClassifier:
    def test_learns_separable_blobs(self):
        X, y = _blobs()
        model = MLPClassifier(hidden_layer_sizes=(4,), seed=0,
                              max_epochs=200).fit(X, y)
        assert model.score(X, y) > 0.9

    def test_predict_returns_original_labels(self):
        X, y = _blobs()
        y = y + 5  # labels 5, 6, 7
        model = MLPClassifier(hidden_layer_sizes=(4,), seed=0,
                              max_epochs=100).fit(X, y)
        assert set(np.unique(model.predict(X))) <= {5, 6, 7}

    def test_decision_function_shape(self):
        X, y = _blobs(k=3)
        model = MLPClassifier(hidden_layer_sizes=(3,), seed=0,
                              max_epochs=50).fit(X, y)
        assert model.decision_function(X).shape == (len(X), 3)

    def test_loss_decreases(self):
        X, y = _blobs()
        model = MLPClassifier(hidden_layer_sizes=(4,), seed=0,
                              max_epochs=100).fit(X, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_deterministic_given_seed(self):
        X, y = _blobs()
        a = MLPClassifier(seed=7, max_epochs=30).fit(X, y)
        b = MLPClassifier(seed=7, max_epochs=30).fit(X, y)
        for wa, wb in zip(a.coefs_, b.coefs_):
            np.testing.assert_array_equal(wa, wb)

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        with pytest.raises(ValueError, match="two classes"):
            MLPClassifier(max_epochs=1).fit(X, np.zeros(10))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            MLPClassifier(max_epochs=1).fit(np.zeros(10), np.zeros(10))

    def test_paper_topology_one_hidden_layer(self):
        """Section III-A: one hidden layer with up to five neurons."""
        X, y = _blobs(k=3)
        model = MLPClassifier(hidden_layer_sizes=(5,), seed=0,
                              max_epochs=50).fit(X, y)
        assert len(model.coefs_) == 2
        assert model.coefs_[0].shape == (4, 5)
        assert model.coefs_[1].shape == (5, 3)

    def test_early_stopping_respects_patience(self):
        X, y = _blobs(n_per_class=20)
        model = MLPClassifier(hidden_layer_sizes=(2,), seed=0,
                              max_epochs=500, patience=5, tol=10.0).fit(X, y)
        # Huge tol means no epoch ever counts as improvement.
        assert len(model.loss_curve_) <= 10


class TestMLPRegressor:
    def test_fits_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(300, 3))
        y = 3.0 * X[:, 0] + 1.0 * X[:, 1] + 2.0
        model = MLPRegressor(hidden_layer_sizes=(6,), seed=0,
                             max_epochs=400).fit(X, y)
        predictions = model.predict(X)
        assert np.mean((predictions - y) ** 2) < 0.05

    def test_label_range_learned(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(50, 2))
        y = rng.integers(3, 9, 50)
        model = MLPRegressor(max_epochs=5, seed=0).fit(X, y)
        assert model.y_min_ == 3
        assert model.y_max_ == 8

    def test_score_is_label_accuracy(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(200, 2))
        y = np.rint(2 * X[:, 0] + 1).astype(int)
        model = MLPRegressor(hidden_layer_sizes=(4,), seed=0,
                             max_epochs=300).fit(X, y)
        assert model.score(X, y) > 0.7

    def test_no_dead_relu_collapse_on_imbalanced_targets(self):
        """Regression guard for the constant-prediction failure mode."""
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(400, 5))
        score = X @ np.array([2.0, -1.0, 0.5, 0.0, 1.0])
        y = (score > np.quantile(score, 0.8)).astype(int) \
            + (score > np.quantile(score, 0.95)).astype(int)
        model = MLPRegressor(hidden_layer_sizes=(3,), seed=0,
                             max_epochs=300).fit(X, y)
        predictions = model.predict(X)
        assert predictions.std() > 0.05  # not a constant predictor

    def test_output_layer_in_label_units(self):
        """_post_fit must fold the target standardization back in."""
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(200, 2))
        y = 100.0 * X[:, 0]  # large-scale targets
        model = MLPRegressor(hidden_layer_sizes=(4,), seed=0,
                             max_epochs=300).fit(X, y)
        assert abs(model.predict(X).mean() - y.mean()) < 10.0


# ----------------------------------------------------------------------
# Flat-buffer Adam against the per-array oracle
# ----------------------------------------------------------------------
class _PerArrayAdam:
    """The per-array Adam update the flat buffer replaced (oracle)."""

    def __init__(self, shapes):
        self.m = [np.zeros(shape) for shape in shapes]
        self.v = [np.zeros(shape) for shape in shapes]
        self.t = 0

    def step(self, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.t += 1
        correction1 = 1.0 - beta1 ** self.t
        correction2 = 1.0 - beta2 ** self.t
        for index, (param, grad) in enumerate(zip(params, grads)):
            self.m[index] = beta1 * self.m[index] + (1.0 - beta1) * grad
            self.v[index] = beta2 * self.v[index] + (1.0 - beta2) * grad * grad
            m_hat = self.m[index] / correction1
            v_hat = self.v[index] / correction2
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _per_array_grads(model, coefs, intercepts, X, targets):
    activations = [X]
    for layer in range(len(coefs) - 1):
        pre = activations[-1] @ coefs[layer] + intercepts[layer]
        activations.append(np.maximum(pre, 0.0))
    logits = activations[-1] @ coefs[-1] + intercepts[-1]
    loss, delta = model._output_grad(logits, targets)
    coef_grads = [None] * len(coefs)
    bias_grads = [None] * len(coefs)
    for layer in range(len(coefs) - 1, -1, -1):
        coef_grads[layer] = (activations[layer].T @ delta
                             + model.alpha * coefs[layer])
        bias_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ coefs[layer].T) * (activations[layer] > 0)
    l2 = 0.5 * model.alpha * sum(float(np.sum(c * c)) for c in coefs)
    return loss + l2, coef_grads + bias_grads


def _per_array_fit(model, X, y):
    """``fit`` as it ran on separate parameter arrays: returns
    ``(coefs, intercepts, loss_curve)``."""
    X = np.asarray(X, dtype=float)
    rng = np.random.default_rng(model.seed)
    n_outputs = model._n_outputs(np.asarray(y))
    sizes = [X.shape[1], *model.hidden_layer_sizes, n_outputs]
    coefs, intercepts = [], []
    for index, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        coefs.append(rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                size=(fan_in, fan_out)))
        intercepts.append(np.full(fan_out, 0.1) if index < len(sizes) - 2
                          else np.zeros(fan_out))
    targets = model._targets(np.asarray(y), n_outputs)
    params = coefs + intercepts
    adam = _PerArrayAdam([param.shape for param in params])
    best, stale, n = np.inf, 0, len(X)
    batch = min(model.batch_size, n)
    curve = []
    for _ in range(model.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch):
            chunk = order[start:start + batch]
            loss, grads = _per_array_grads(model, coefs, intercepts,
                                           X[chunk], targets[chunk])
            epoch_loss += loss * len(chunk)
            adam.step(params, grads, model.lr)
        epoch_loss /= n
        curve.append(epoch_loss)
        if epoch_loss < best - model.tol:
            best, stale = epoch_loss, 0
        else:
            stale += 1
            if stale >= model.patience:
                break
    if isinstance(model, MLPRegressor):
        coefs[-1] = coefs[-1] * model._y_std
        intercepts[-1] = intercepts[-1] * model._y_std + model._y_mean
    return coefs, intercepts, curve


class TestFlatAdamMatchesPerArrayOracle:
    """One Adam step over the flat buffer rounds every element exactly
    as the per-array loop did (same machine; no cross-platform pins)."""

    @pytest.mark.parametrize("make,hidden", [
        (MLPClassifier, (4,)), (MLPClassifier, (5, 3)),
        (MLPRegressor, (3,)), (MLPRegressor, (2, 2))])
    def test_fit_is_identical(self, make, hidden):
        X, y = _blobs(n_per_class=50, k=3, seed=1)
        if make is MLPRegressor:
            y = y * 2.5 + X[:, 0]
        model = make(hidden_layer_sizes=hidden, seed=3, max_epochs=40)
        model.fit(X, y)
        coefs, intercepts, curve = _per_array_fit(
            make(hidden_layer_sizes=hidden, seed=3, max_epochs=40), X, y)
        assert len(model.coefs_) == len(coefs)
        for ours, oracle in zip(model.coefs_ + model.intercepts_,
                                coefs + intercepts):
            assert np.array_equal(ours, oracle)
        assert np.array_equal(model.loss_curve_, curve)

    def test_parameters_are_views_of_one_buffer(self):
        X, y = _blobs()
        model = MLPClassifier(hidden_layer_sizes=(4,), seed=0,
                              max_epochs=2).fit(X, y)
        params = model.coefs_ + model.intercepts_
        assert all(p.base is not None for p in params)
        assert len({id(p.base) for p in params}) == 1
