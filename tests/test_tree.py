"""Tests for the decision-tree baseline (trainer, quantizer, circuit)."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.hw.bespoke import CLASS_OUTPUT, input_payload
from repro.hw.bespoke_tree import build_bespoke_tree_netlist
from repro.hw.simulate import simulate
from repro.ml.tree import DecisionTreeClassifier
from repro.quant import quantize_inputs
from repro.quant.qtree import QuantDecisionTree


def _blobs(n_per_class=60, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.8]])
    X = np.concatenate([
        np.clip(center + rng.normal(0, 0.08, size=(n_per_class, 2)), 0, 1)
        for center in centers])
    y = np.repeat(np.arange(3), n_per_class)
    return X, y


class TestDecisionTreeClassifier:
    def test_learns_axis_aligned_data(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.score(X, y) > 0.9

    def test_depth_budget_respected(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth <= 2

    def test_single_class_becomes_leaf(self):
        X = np.random.default_rng(0).uniform(size=(20, 3))
        tree = DecisionTreeClassifier().fit(X, np.zeros(20, dtype=int))
        assert tree.root_.is_leaf
        assert tree.n_nodes == 1

    def test_min_samples_leaf(self):
        X, y = _blobs(n_per_class=4)
        tree = DecisionTreeClassifier(max_depth=10,
                                      min_samples_leaf=6).fit(X, y)
        # 12 samples, leaves must hold >= 6: at most one split.
        assert tree.depth <= 1

    def test_labels_preserved(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y + 7)
        assert set(np.unique(tree.predict(X))) <= {7, 8, 9}

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros(5), np.zeros(5))

    def test_deterministic(self):
        X, y = _blobs()
        a = DecisionTreeClassifier(max_depth=4).fit(X, y)
        b = DecisionTreeClassifier(max_depth=4).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_redwine_beats_majority(self):
        split = load_dataset("redwine").standard_split(seed=0)
        tree = DecisionTreeClassifier(max_depth=4).fit(
            split.X_train, split.y_train)
        majority = np.mean(
            split.y_test == np.bincount(split.y_train).argmax())
        assert tree.score(split.X_test, split.y_test) >= majority - 0.02


class TestQuantDecisionTree:
    def test_integer_thresholds(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        quant = QuantDecisionTree.from_tree(tree)

        def walk(node):
            if node.is_leaf:
                return
            assert 0 <= node.threshold <= 15
            walk(node.left)
            walk(node.right)

        walk(quant.root)

    def test_agrees_with_float_tree_off_boundary(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        quant = QuantDecisionTree.from_tree(tree)
        Xq = quantize_inputs(X)
        agreement = np.mean(quant.predict_int(Xq) == tree.predict(X))
        assert agreement > 0.9  # differences only within one LSB of a split

    def test_node_and_feature_counts(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        quant = QuantDecisionTree.from_tree(tree)
        assert quant.n_nodes == tree.n_nodes
        assert quant.n_features <= 2


class TestBespokeTreeCircuit:
    def _quant_tree(self):
        X, y = _blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        return QuantDecisionTree.from_tree(tree), X

    def test_circuit_matches_golden_model(self):
        quant, X = self._quant_tree()
        netlist = build_bespoke_tree_netlist(quant, n_features=2)
        Xq = quantize_inputs(X)
        sim = simulate(netlist, input_payload(Xq))
        predictions = quant.classes[np.clip(sim.bus_ints(CLASS_OUTPUT), 0,
                                            len(quant.classes) - 1)]
        np.testing.assert_array_equal(predictions, quant.predict_int(Xq))

    def test_tree_circuits_are_tiny(self):
        """The MICRO'20 point: trees are printable where MLPs are not."""
        from repro.hw.area import area_mm2
        split = load_dataset("redwine").standard_split(seed=0)
        tree = DecisionTreeClassifier(max_depth=4).fit(
            split.X_train, split.y_train)
        quant = QuantDecisionTree.from_tree(tree)
        netlist = build_bespoke_tree_netlist(quant,
                                             n_features=split.n_features)
        assert area_mm2(netlist) < 500.0  # well under any MLP-C baseline

    def test_meta_set_for_pruning(self):
        quant, _ = self._quant_tree()
        netlist = build_bespoke_tree_netlist(quant, n_features=2)
        assert netlist.meta["kind"] == "classifier"
        assert netlist.watch

    def test_single_leaf_tree_rejected_without_features(self):
        from repro.quant.qtree import QuantTreeNode
        leaf_only = QuantDecisionTree(QuantTreeNode(class_index=0),
                                      np.array([0]))
        with pytest.raises(ValueError, match="at least one input"):
            build_bespoke_tree_netlist(leaf_only)

    def test_prunable_with_generic_machinery(self):
        from repro.core.pruning import NetlistPruner
        from repro.eval.accuracy import CircuitEvaluator
        split = load_dataset("redwine").standard_split(seed=0)
        tree = DecisionTreeClassifier(max_depth=4).fit(
            split.X_train, split.y_train)
        quant = QuantDecisionTree.from_tree(tree)
        netlist = build_bespoke_tree_netlist(quant,
                                             n_features=split.n_features)
        evaluator = CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test)
        designs = NetlistPruner(netlist, evaluator,
                                tau_grid=(0.9,)).explore()
        assert designs  # the generic pruning flow handles tree circuits
