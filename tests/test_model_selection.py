"""Tests for splitting and randomized hyperparameter search."""

import numpy as np
import pytest

from repro.ml.base import BaseEstimator
from repro.ml.model_selection import (
    KFold,
    ParameterSampler,
    RandomizedSearchCV,
    train_test_split,
)


class TestTrainTestSplit:
    def _data(self, n=100):
        rng = np.random.default_rng(0)
        return rng.normal(size=(n, 3)), rng.integers(0, 3, n)

    def test_sizes_default_70_30(self):
        X, y = self._data(100)
        X_train, X_test, y_train, y_test = train_test_split(X, y)
        assert len(X_test) == 30
        assert len(X_train) == 70
        assert len(y_train) == 70 and len(y_test) == 30

    def test_deterministic_per_seed(self):
        X, y = self._data()
        a = train_test_split(X, y, seed=5)
        b = train_test_split(X, y, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        c = train_test_split(X, y, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_partition_is_complete_and_disjoint(self):
        X, y = self._data(50)
        X = X + np.arange(50)[:, None]  # make rows unique
        X_train, X_test, _, _ = train_test_split(X, y, seed=1)
        combined = np.vstack([X_train, X_test])
        assert combined.shape == X.shape
        assert len(np.unique(combined[:, 0])) == 50

    def test_stratified_preserves_priors(self):
        rng = np.random.default_rng(0)
        y = np.array([0] * 800 + [1] * 150 + [2] * 50)
        X = rng.normal(size=(1000, 2))
        _, _, y_train, y_test = train_test_split(X, y, seed=0, stratify=True)
        for label, prior in [(0, 0.8), (1, 0.15), (2, 0.05)]:
            assert np.mean(y_test == label) == pytest.approx(prior, abs=0.02)

    def test_bad_test_size_rejected(self):
        X, y = self._data(10)
        with pytest.raises(ValueError):
            train_test_split(X, y, test_size=0.0)
        with pytest.raises(ValueError):
            train_test_split(X, y, test_size=1.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 2)), np.zeros(4))


class TestKFold:
    def test_folds_partition_everything(self):
        folds = list(KFold(5, seed=0).split(53))
        assert len(folds) == 5
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test) == list(range(53))

    def test_train_test_disjoint(self):
        for train, test in KFold(4, seed=1).split(40):
            assert not set(train) & set(test)
            assert len(train) + len(test) == 40

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            list(KFold(5).split(3))

    def test_too_few_folds_rejected(self):
        with pytest.raises(ValueError):
            KFold(1)


class TestParameterSampler:
    def test_samples_from_lists(self):
        sampler = ParameterSampler({"a": [1, 2, 3]}, n_iter=20, seed=0)
        draws = [s["a"] for s in sampler]
        assert len(draws) == 20
        assert set(draws) <= {1, 2, 3}

    def test_samples_from_scipy_distribution(self):
        """Anything with scipy's ``rvs(random_state=)`` is sampled."""
        class Uniform:
            def rvs(self, random_state):
                return np.random.default_rng(random_state).uniform(0.0, 2.0)

        sampler = ParameterSampler({"c": Uniform()}, n_iter=10, seed=0)
        draws = [s["c"] for s in sampler]
        assert all(0.0 <= value <= 2.0 for value in draws)
        assert len(set(draws)) == 10

    def test_deterministic(self):
        spec = {"a": [1, 2, 3], "b": ["x", "y"]}
        first = list(ParameterSampler(spec, 5, seed=3))
        second = list(ParameterSampler(spec, 5, seed=3))
        assert first == second

    def test_len(self):
        assert len(ParameterSampler({"a": [1]}, 7)) == 7


class _NearestMean(BaseEstimator):
    """Tiny classifier whose quality depends on a `shrink` parameter."""

    def __init__(self, shrink=0.0):
        self.shrink = shrink

    def fit(self, X, y):
        self.classes_ = np.unique(y)
        self.means_ = np.stack([X[y == c].mean(axis=0) * (1 - self.shrink)
                                for c in self.classes_])
        return self

    def predict(self, X):
        distances = np.linalg.norm(
            X[:, None, :] - self.means_[None, :, :], axis=2)
        return self.classes_[np.argmin(distances, axis=1)]

    def score(self, X, y):
        return float(np.mean(self.predict(X) == y))


class TestRandomizedSearchCV:
    def _problem(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0.0, 0.0], [4.0, 4.0]])
        y = rng.integers(0, 2, 200)
        X = centers[y] + rng.normal(size=(200, 2))
        return X, y

    def test_finds_good_parameters(self):
        X, y = self._problem()
        search = RandomizedSearchCV(
            _NearestMean(), {"shrink": [0.0, 0.9]}, n_iter=6, cv=5, seed=0)
        search.fit(X, y)
        assert search.best_params_["shrink"] == 0.0
        assert search.best_score_ > 0.9

    def test_best_estimator_is_refit(self):
        X, y = self._problem()
        search = RandomizedSearchCV(
            _NearestMean(), {"shrink": [0.0, 0.5]}, n_iter=4, cv=3, seed=0)
        search.fit(X, y)
        assert search.best_estimator_.is_fitted()
        assert search.best_estimator_.score(X, y) > 0.9

    def test_results_record_every_candidate(self):
        X, y = self._problem()
        search = RandomizedSearchCV(
            _NearestMean(), {"shrink": [0.0, 0.5]}, n_iter=5, cv=3, seed=0)
        search.fit(X, y)
        assert len(search.results_) == 5
        assert all(len(result.fold_scores) == 3 for result in search.results_)

    def test_custom_scorer(self):
        X, y = self._problem()
        calls = []

        def scorer(model, X_valid, y_valid):
            calls.append(1)
            return model.score(X_valid, y_valid)

        RandomizedSearchCV(_NearestMean(), {"shrink": [0.0]}, n_iter=2,
                           cv=3, seed=0, scorer=scorer).fit(X, y)
        assert len(calls) == 6
