"""Multi-layer perceptrons trained with Adam.

The paper's MLPs have one hidden layer of up to five neurons with ReLU
activation (Section III-A) — exactly the configurations this module is
built for, though any number of hidden layers is supported.  Training is
minibatch Adam on softmax cross-entropy (classifier) or mean squared error
(regressor), with L2 regularization, mirroring sklearn's ``MLPClassifier``
and ``MLPRegressor`` defaults closely enough that the trained coefficient
distributions look the same to the downstream quantization and
approximation flow.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator
from .metrics import accuracy_score, regression_label_accuracy

__all__ = ["MLPClassifier", "MLPRegressor"]


class _AdamState:
    """Adam moment estimates over one flat parameter buffer."""

    def __init__(self, size: int) -> None:
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self._num = np.empty(size)
        self._den = np.empty(size)
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float,
             beta1: float = 0.9, beta2: float = 0.999,
             eps: float = 1e-8) -> None:
        """Update the flat ``params`` in place from the flat ``grads``.

        In-place ufuncs in the textbook update's operation order
        (``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g``,
        ``p -= lr*m_hat / (sqrt(v_hat) + eps)``): every element rounds
        exactly as a per-array update would round it.
        """
        self.t += 1
        correction1 = 1.0 - beta1 ** self.t
        correction2 = 1.0 - beta2 ** self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= beta1
        np.multiply(grads, 1.0 - beta1, out=num)
        m += num
        v *= beta2
        np.multiply(grads, 1.0 - beta2, out=den)
        den *= grads
        v += den
        np.divide(m, correction1, out=num)
        num *= lr
        np.divide(v, correction2, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        params -= num


def _flat_views(buffer: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Consecutive views of ``buffer`` shaped as ``shapes``."""
    views = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buffer[offset:offset + size].reshape(shape))
        offset += size
    return views


class _BaseMLP(BaseEstimator):
    """Shared forward/backward machinery for both MLP heads."""

    def __init__(self, hidden_layer_sizes=(3,), lr: float = 0.01,
                 alpha: float = 1e-4, max_epochs: int = 400,
                 batch_size: int = 32, seed: int = 0,
                 tol: float = 1e-6, patience: int = 25) -> None:
        self.hidden_layer_sizes = hidden_layer_sizes
        self.lr = lr
        self.alpha = alpha
        self.max_epochs = max_epochs
        self.batch_size = batch_size
        self.seed = seed
        self.tol = tol
        self.patience = patience

    # -- subclass hooks -------------------------------------------------
    def _n_outputs(self, y: np.ndarray) -> int:
        raise NotImplementedError

    def _targets(self, y: np.ndarray, n_outputs: int) -> np.ndarray:
        raise NotImplementedError

    def _output_grad(self, logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        """Return (loss, dL/dlogits) averaged over the batch."""
        raise NotImplementedError

    # -- training -------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "_BaseMLP":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X must be 2-D and aligned with y")
        rng = np.random.default_rng(self.seed)
        n_outputs = self._n_outputs(y)
        layer_sizes = [X.shape[1], *self.hidden_layer_sizes, n_outputs]
        pairs = list(zip(layer_sizes, layer_sizes[1:]))
        # Every parameter lives in one flat buffer (coefficients, then
        # intercepts), so one Adam step is a handful of whole-buffer
        # ufuncs; ``coefs_``/``intercepts_`` are views into it.
        shapes = pairs + [(fan_out,) for _fan_in, fan_out in pairs]
        params = np.empty(sum(int(np.prod(shape)) for shape in shapes))
        views = _flat_views(params, shapes)
        self.coefs_: list[np.ndarray] = views[:len(pairs)]
        self.intercepts_: list[np.ndarray] = views[len(pairs):]
        for index, (fan_in, fan_out) in enumerate(pairs):
            bound = np.sqrt(2.0 / fan_in)  # He initialization for ReLU
            self.coefs_[index][...] = rng.normal(0.0, bound,
                                                 size=(fan_in, fan_out))
            is_hidden = index < len(pairs) - 1
            # Hidden units start slightly positive so the [0, 1]-normalized
            # inputs cannot kill every ReLU at initialization.
            self.intercepts_[index][...] = 0.1 if is_hidden else 0.0

        targets = self._targets(y, n_outputs)
        grads = np.empty_like(params)
        grad_views = _flat_views(grads, shapes)
        adam = _AdamState(params.size)
        best_loss = np.inf
        stale_epochs = 0
        n = len(X)
        batch = min(self.batch_size, n)
        self.loss_curve_: list[float] = []
        for _ in range(self.max_epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch):
                chunk = order[start:start + batch]
                loss = self._loss_and_grads(X[chunk], targets[chunk],
                                            grad_views)
                epoch_loss += loss * len(chunk)
                adam.step(params, grads, self.lr)
            epoch_loss /= n
            self.loss_curve_.append(epoch_loss)
            if epoch_loss < best_loss - self.tol:
                best_loss = epoch_loss
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= self.patience:
                    break
        self._post_fit()
        return self

    def _post_fit(self) -> None:
        """Hook for subclasses to adjust learned parameters after training."""

    def _loss_and_grads(self, X: np.ndarray, targets: np.ndarray,
                        grads: list[np.ndarray]) -> float:
        """The batch loss; dL/dparams land in ``grads`` (views ordered
        like ``coefs_ + intercepts_``)."""
        activations = [X]
        for layer in range(len(self.coefs_) - 1):
            pre = activations[-1] @ self.coefs_[layer] + self.intercepts_[layer]
            activations.append(np.maximum(pre, 0.0))
        logits = activations[-1] @ self.coefs_[-1] + self.intercepts_[-1]
        loss, delta = self._output_grad(logits, targets)

        n_layers = len(self.coefs_)
        for layer in range(n_layers - 1, -1, -1):
            coef_grad = grads[layer]
            np.matmul(activations[layer].T, delta, out=coef_grad)
            coef_grad += self.alpha * self.coefs_[layer]
            np.sum(delta, axis=0, out=grads[n_layers + layer])
            if layer > 0:
                delta = (delta @ self.coefs_[layer].T) * (activations[layer] > 0)
        l2 = 0.5 * self.alpha * sum(float(np.sum(c * c)) for c in self.coefs_)
        return loss + l2

    def _forward(self, X: np.ndarray) -> np.ndarray:
        hidden = np.asarray(X, dtype=float)
        for layer in range(len(self.coefs_) - 1):
            hidden = np.maximum(
                hidden @ self.coefs_[layer] + self.intercepts_[layer], 0.0)
        return hidden @ self.coefs_[-1] + self.intercepts_[-1]


class MLPClassifier(_BaseMLP):
    """Single-output-per-class MLP with softmax cross-entropy training.

    ``predict`` returns the argmax over output neurons — the same decision
    rule the bespoke hardware implements with a comparator tree, so float
    model and circuit agree by construction once quantized.
    """

    def _n_outputs(self, y: np.ndarray) -> int:
        self.classes_ = np.unique(y)
        self.n_classes_ = len(self.classes_)
        if self.n_classes_ < 2:
            raise ValueError("need at least two classes")
        return self.n_classes_

    def _targets(self, y: np.ndarray, n_outputs: int) -> np.ndarray:
        index_of = {label: index for index, label in enumerate(self.classes_)}
        onehot = np.zeros((len(y), n_outputs))
        onehot[np.arange(len(y)), [index_of[label] for label in y]] = 1.0
        return onehot

    def _output_grad(self, logits, targets):
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probabilities = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.mean(
            np.sum(targets * np.log(probabilities + 1e-12), axis=1)))
        return loss, (probabilities - targets) / len(logits)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._forward(X), axis=1)]

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return accuracy_score(y, self.predict(X))


class MLPRegressor(_BaseMLP):
    """Single-output MLP trained on mean squared error.

    Following the printed-ML convention, ``score`` reports label accuracy
    after rounding, so regressors compare directly against classifiers in
    Table I.
    """

    def _n_outputs(self, y: np.ndarray) -> int:
        self.y_min_ = int(np.floor(np.min(y)))
        self.y_max_ = int(np.ceil(np.max(y)))
        return 1

    def _targets(self, y: np.ndarray, n_outputs: int) -> np.ndarray:
        # Standardized targets condition the MSE optimization; _post_fit
        # folds the unscaling back into the output layer so the learned
        # network predicts labels directly (what quantization expects).
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0
        return (y - self._y_mean) / self._y_std

    def _post_fit(self) -> None:
        self.coefs_[-1] *= self._y_std
        self.intercepts_[-1] *= self._y_std
        self.intercepts_[-1] += self._y_mean

    def _output_grad(self, logits, targets):
        diff = logits - targets
        loss = float(0.5 * np.mean(diff * diff))
        return loss, diff / len(logits)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._forward(X).ravel()

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        return regression_label_accuracy(y, self.predict(X),
                                         self.y_min_, self.y_max_)
