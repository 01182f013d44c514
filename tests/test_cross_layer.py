"""Tests for the end-to-end cross-layer framework."""

import numpy as np
import pytest

from repro.core import (
    TECHNIQUE_LABELS,
    TECHNIQUES,
    CrossLayerFramework,
    DesignPoint,
    ExplorationResult,
)
from repro.datasets import load_dataset
from repro.ml import LinearSVMRegressor, MLPClassifier
from repro.quant import quantize_model


@pytest.fixture(scope="module")
def exploration():
    """A small but real exploration, shared across the module's tests."""
    split = load_dataset("redwine").standard_split(seed=0)
    model = LinearSVMRegressor(seed=1, max_epochs=250).fit(
        split.X_train, split.y_train)
    quant = quantize_model(model)
    framework = CrossLayerFramework(tau_grid=(0.85, 0.90, 0.95, 0.99))
    return framework.explore(quant, split.X_train, split.X_test,
                             split.y_test, name="rw_svm_r")


class TestExploration:
    def test_all_techniques_present(self, exploration):
        present = {p.technique for p in exploration.points}
        assert present == set(TECHNIQUES)

    def test_labels_cover_all_techniques(self):
        assert set(TECHNIQUE_LABELS) == set(TECHNIQUES)

    def test_exactly_one_exact_and_one_coeff(self, exploration):
        assert len(exploration.technique("exact")) == 1
        assert len(exploration.technique("coeff")) == 1

    def test_baseline_properties(self, exploration):
        baseline = exploration.baseline
        assert baseline.technique == "exact"
        assert exploration.normalized_area(baseline) == pytest.approx(1.0)

    def test_coeff_point_smaller_than_baseline(self, exploration):
        """Section IV: the red star sits left of the black triangle."""
        assert exploration.coeff_point.area_mm2 < exploration.baseline.area_mm2

    def test_all_approximate_designs_not_larger(self, exploration):
        """Fig. 3 observation: every approximate design has lower area."""
        baseline_area = exploration.baseline.area_mm2
        for point in exploration.technique("coeff", "prune", "cross"):
            assert point.area_mm2 <= baseline_area + 1e-9

    def test_cross_designs_derive_from_coeff_netlist(self, exploration):
        """Green dots are pruned red-star derivatives: never larger."""
        coeff_area = exploration.coeff_point.area_mm2
        for point in exploration.technique("cross"):
            assert point.area_mm2 <= coeff_area + 1e-9

    def test_runtime_recorded(self, exploration):
        assert exploration.runtime_s > 0

    def test_design_counts(self, exploration):
        assert exploration.n_designs == len(exploration.points)
        assert exploration.n_unique_designs <= exploration.n_designs

    def test_coeff_reports_one_per_weighted_sum(self, exploration):
        assert len(exploration.coeff_reports) == 1  # SVM-R: one score unit


class TestParetoAndSelection:
    def test_pareto_front_is_subset(self, exploration):
        front = exploration.pareto("cross")
        cross = exploration.technique("cross")
        assert all(point in cross for point in front)

    def test_best_within_loss_meets_threshold(self, exploration):
        baseline = exploration.baseline
        for technique in TECHNIQUES:
            best = exploration.best_within_loss(technique, max_loss=0.01)
            assert best.accuracy >= baseline.accuracy - 0.01 - 1e-9

    def test_best_cross_at_least_as_good_as_parents(self, exploration):
        cross = exploration.best_within_loss("cross")
        coeff = exploration.best_within_loss("coeff")
        assert cross.area_mm2 <= coeff.area_mm2 + 1e-9

    def test_impossible_threshold_falls_back_to_baseline(self, exploration):
        best = exploration.best_within_loss("prune", max_loss=-1.0)
        assert best == exploration.baseline

    def test_unknown_technique_rejected(self, exploration):
        with pytest.raises(ValueError, match="unknown technique"):
            exploration.best_within_loss("quantum")


class TestFrameworkOptions:
    def test_include_subset_skips_families(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMRegressor(seed=1, max_epochs=150).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        framework = CrossLayerFramework(tau_grid=(0.95,))
        result = framework.explore(quant, split.X_train, split.X_test,
                                   split.y_test, include=("coeff",))
        techniques = {p.technique for p in result.points}
        assert techniques == {"exact", "coeff"}

    def test_design_point_from_record(self):
        from repro.eval.accuracy import EvaluationRecord
        record = EvaluationRecord(0.9, 150.0, 4.5, 321)
        point = DesignPoint.from_record("cross", record, tau_c=0.9, phi_c=3)
        assert point.accuracy == 0.9
        assert point.area_cm2 == pytest.approx(1.5)
        assert point.tau_c == 0.9

    def test_mlp_classifier_end_to_end_smoke(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = MLPClassifier(hidden_layer_sizes=(2,), seed=1,
                              max_epochs=80).fit(split.X_train, split.y_train)
        quant = quantize_model(model)
        framework = CrossLayerFramework(tau_grid=(0.95,))
        result = framework.explore(quant, split.X_train, split.X_test,
                                   split.y_test)
        assert result.baseline.accuracy > 0.3
        assert result.technique("cross")

    @pytest.mark.parametrize("model", ("svm_r", "mlp_c"))
    def test_array_builds_explore_without_a_netlist(self, model,
                                                    monkeypatch):
        """The default (array) builder's circuits are scored and pruned
        as built: no ``Netlist`` is materialized or converted back, and
        the design list equals the per-gate builder's."""
        from repro.experiments.zoo import get_case
        from repro.hw.synthesis import ArrayCircuit

        case = get_case("redwine", model)
        split = case.split
        args = (case.quant_model, split.X_train, split.X_test, split.y_test)
        gate = CrossLayerFramework(e=4, clock_ms=case.clock_ms,
                                   builder="gate").explore(*args)

        def forbid(*_args, **_kwargs):
            raise AssertionError("the array path built a Netlist")

        monkeypatch.setattr(ArrayCircuit, "to_netlist", forbid)
        monkeypatch.setattr(ArrayCircuit, "from_netlist",
                            staticmethod(forbid))
        array = CrossLayerFramework(e=4, clock_ms=case.clock_ms).explore(
            *args)
        assert array.points == gate.points


class TestESweep:
    def _quant_svm(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMRegressor(seed=1, max_epochs=150).fit(
            split.X_train, split.y_train)
        return split, quantize_model(model)

    def test_sweep_matches_per_e_explore(self):
        """The sweep's records equal a naive per-e explore loop's."""
        split, quant = self._quant_svm()
        framework = CrossLayerFramework(tau_grid=(0.9, 0.95))
        sweep = framework.sweep_e(quant, split.X_train, split.X_test,
                                  split.y_test, e_values=(1, 2),
                                  include=("coeff", "cross"))
        assert sweep.e_values == (1, 2)
        for e in (1, 2):
            naive = CrossLayerFramework(e=e, tau_grid=(0.9, 0.95)).explore(
                quant, split.X_train, split.X_test, split.y_test,
                include=("coeff", "cross"))
            got = sweep.coeff_point(e)
            want = naive.coeff_point
            assert (got.accuracy, got.area_mm2, got.power_mw, got.n_gates) \
                == (want.accuracy, want.area_mm2, want.power_mw,
                    want.n_gates)
            cross_got = [(p.tau_c, p.phi_c, p.accuracy, p.area_mm2,
                          p.duplicate)
                         for p in sweep.family(e) if p.technique == "cross"]
            cross_want = [(p.tau_c, p.phi_c, p.accuracy, p.area_mm2,
                           p.duplicate)
                          for p in naive.technique("cross")]
            assert cross_got == cross_want
        assert sweep.baseline.technique == "exact"
        assert sweep.baseline.e is None

    def test_coeff_only_sweep_and_pareto_union(self):
        split, quant = self._quant_svm()
        framework = CrossLayerFramework(tau_grid=(0.95,))
        sweep = framework.sweep_e(quant, split.X_train, split.X_test,
                                  split.y_test, e_values=(1, 4, 8),
                                  include=("coeff",))
        assert [p.e for p in sweep.technique("coeff")] == [1, 4, 8]
        front = sweep.pareto()
        assert front  # the union front is never empty
        areas = [p.area_mm2 for p in front]
        assert areas == sorted(areas)

    def test_bigint_engine_sweep_matches_compiled(self):
        """The array-form fast path must stay off engines that need
        netlists; records are engine-identical either way."""
        split, quant = self._quant_svm()
        sweep = CrossLayerFramework(tau_grid=(0.95,), engine="bigint") \
            .sweep_e(quant, split.X_train, split.X_test, split.y_test,
                     e_values=(1, 2), include=("coeff",))
        reference = CrossLayerFramework(tau_grid=(0.95,)).sweep_e(
            quant, split.X_train, split.X_test, split.y_test,
            e_values=(1, 2), include=("coeff",))
        assert sweep.points == reference.points
