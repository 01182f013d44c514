"""Integration tests: the full pipeline from data to approximate circuit."""

import numpy as np
import pytest

from repro import (
    CrossLayerFramework,
    MLPRegressor,
    build_bespoke_netlist,
    critical_path_ms,
    load_dataset,
    quantize_model,
    simulate,
)
from repro.core.pruning import NetlistPruner
from repro.eval.accuracy import CircuitEvaluator
from repro.hw.bespoke import input_payload
from repro.hw.synthesis import synthesize_arrays
from repro.ml import LinearSVMClassifier
from repro.quant import quantize_inputs


class TestFullPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        split = load_dataset("whitewine").standard_split(seed=0)
        model = MLPRegressor(hidden_layer_sizes=(4,), seed=1,
                             max_epochs=300).fit(split.X_train, split.y_train)
        quant = quantize_model(model)
        framework = CrossLayerFramework(tau_grid=(0.90, 0.95, 0.99))
        return framework.explore(quant, split.X_train, split.X_test,
                                 split.y_test, name="ww_mlp_r")

    def test_cross_layer_beats_single_layers_at_1pct(self, result):
        """The paper's core claim on one circuit."""
        cross = result.best_within_loss("cross")
        coeff = result.best_within_loss("coeff")
        prune = result.best_within_loss("prune")
        assert cross.area_mm2 <= coeff.area_mm2 + 1e-9
        assert cross.area_mm2 <= prune.area_mm2 + 1e-9
        assert cross.area_mm2 < result.baseline.area_mm2

    def test_meaningful_area_reduction(self, result):
        cross = result.best_within_loss("cross")
        reduction = 1.0 - result.normalized_area(cross)
        assert reduction > 0.2  # paper averages 47%

    def test_power_tracks_area(self, result):
        """Static-dominated EGT: power gain within ~12pp of area gain."""
        cross = result.best_within_loss("cross")
        area_gain = 1.0 - cross.area_mm2 / result.baseline.area_mm2
        power_gain = 1.0 - cross.power_mw / result.baseline.power_mw
        assert abs(area_gain - power_gain) < 0.12


class TestTimingClosure:
    def test_bespoke_circuits_meet_relaxed_clock(self):
        """Section III-A: circuits synthesize at 200 ms clocks."""
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMClassifier(seed=1, max_epochs=150).fit(
            split.X_train, split.y_train)
        netlist = build_bespoke_netlist(quantize_model(model))
        assert critical_path_ms(netlist) < 200.0


class TestPrunedCircuitConsistency:
    def test_pruned_netlist_still_simulates_and_scores(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMClassifier(seed=1, max_epochs=150).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        netlist = build_bespoke_netlist(quant)
        evaluator = CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test)
        pruner = NetlistPruner(netlist, evaluator, tau_grid=(0.95,))
        space = pruner.space()
        phi_c = space.phi_levels(0.95)[-1]
        pruned = pruner.prune(0.95, phi_c)
        assert pruned.n_gates < netlist.n_gates
        record = evaluator.evaluate(pruned)
        assert 0.0 <= record.accuracy <= 1.0

    def test_resynthesis_of_pruned_netlist_is_stable(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMClassifier(seed=1, max_epochs=150).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        netlist = build_bespoke_netlist(quant)
        evaluator = CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test)
        pruner = NetlistPruner(netlist, evaluator, tau_grid=(0.9,))
        space = pruner.space()
        pruned = pruner.prune(0.9, space.phi_levels(0.9)[0])
        again = synthesize_arrays(pruned)[0]
        assert again.n_gates == pruned.n_gates


class TestDeterminism:
    def test_repeated_pipeline_identical(self):
        split = load_dataset("redwine").standard_split(seed=0)

        def run_once():
            model = LinearSVMClassifier(seed=1, max_epochs=100).fit(
                split.X_train, split.y_train)
            quant = quantize_model(model)
            netlist = build_bespoke_netlist(quant)
            Xq = quantize_inputs(split.X_test[:50])
            sim = simulate(netlist, input_payload(Xq))
            return netlist.n_gates, sim.bus_ints("class_idx")

        gates_a, out_a = run_once()
        gates_b, out_b = run_once()
        assert gates_a == gates_b
        np.testing.assert_array_equal(out_a, out_b)
