"""Equivalence tests for the compiled engines against their references.

Three layers are pinned down:

* the word-parallel simulation engine vs the legacy bigint loop — net
  waveforms, activity statistics, and decoded buses must be bit-identical
  on randomized netlists and stimulus, including vector counts that are
  not a multiple of the 64-bit word size;
* the compiled array synthesis engine vs the builder-replay reference —
  gate-for-gate structural identity, with and without forced constants;
* the incremental/trie pruning exploration vs the legacy per-grid-point
  loop, and the framework's family executor vs the in-process run —
  identical design lists (records included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.eval.accuracy import CircuitEvaluator
from repro.hw.bespoke import build_bespoke_netlist, input_payload
from repro.hw.compiled import CELL_OF_OP, CompiledNetlist, pack_stimulus
from repro.hw.netlist import CONST0, CONST1, Netlist
from repro.hw.simulate import simulate, simulate_bigint
from repro.hw.synthesis import (
    ArrayCircuit,
    synthesize,
    synthesize_arrays,
    synthesize_reference,
)
import repro.core.cross_layer as cross_layer
from repro.core.cross_layer import CrossLayerFramework
from repro.core.pruning import NetlistPruner
from repro.ml import LinearSVMRegressor
from repro.quant import quantize_model
from random_circuits import random_circuit, random_netlist



class TestSimulationEquivalence:
    @given(seed=st.integers(0, 10_000),
           n_vectors=st.sampled_from([1, 3, 63, 64, 65, 127, 128, 200]))
    @settings(max_examples=30, deadline=None)
    def test_compiled_matches_bigint(self, seed, n_vectors):
        """Waveforms, activity, and bus decode agree bit-for-bit."""
        rng = np.random.default_rng(seed)
        nl = random_circuit(rng, int(rng.integers(1, 60)),
                            int(rng.integers(1, 6)))
        width = len(nl.input_buses["x"])
        stimulus = {"x": rng.integers(0, 1 << width, n_vectors)}
        fast = simulate(nl, stimulus, engine="auto")
        oracle = simulate_bigint(nl, stimulus)
        np.testing.assert_array_equal(fast.bus_ints("y"), oracle.bus_ints("y"))
        for net in range(nl.n_nets):
            np.testing.assert_array_equal(fast.net_bits(net),
                                          oracle.net_bits(net))
        got, want = fast.activity(), oracle.activity()
        np.testing.assert_array_equal(got.prob_one, want.prob_one)
        np.testing.assert_array_equal(got.tau, want.tau)
        np.testing.assert_array_equal(got.const_value, want.const_value)
        np.testing.assert_array_equal(got.toggles_per_cycle,
                                      want.toggles_per_cycle)
        np.testing.assert_array_equal(got.ones, want.ones)
        np.testing.assert_array_equal(got.flips, want.flips)

    def test_non_word_multiple_tail_is_masked(self):
        """prob_one/tau ignore garbage bits past n_vectors in the last word."""
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [nl.add_gate("INV", a)])
        nl = ArrayCircuit.from_netlist(nl)[0]
        for n in (1, 63, 65, 100):
            stimulus = {"x": np.zeros(n, dtype=int)}
            sim = simulate(nl, stimulus, engine="auto")
            assert sim.prob_one(nl.output_buses["y"][0]) == 1.0
            activity = sim.activity()
            assert activity.prob_one[0] == 1.0
            assert activity.ones[0] == n

    def test_prepacked_stimulus_matches_inline_packing(self):
        rng = np.random.default_rng(7)
        nl = random_circuit(rng, 40, 5)
        data = {"x": rng.integers(0, 32, 101)}
        arrays = {"x": np.asarray(data["x"], dtype=np.int64)}
        packed = pack_stimulus(arrays, {"x": 5}, 101)
        plan = nl.compiled()
        a = plan.simulate(arrays, 101)
        b = plan.simulate(arrays, 101, packed=packed)
        np.testing.assert_array_equal(a.bus_ints("y"), b.bus_ints("y"))

    def test_engine_selector_matches_every_layer(self, monkeypatch):
        """``simulate`` takes ``auto|bigint`` like the evaluator: on a
        host without the compiled word layout ``"auto"`` runs the bigint
        engine, and the retired ``"compiled"`` value is refused."""
        import importlib

        from repro.hw.simulate import SimulationResult

        # ``repro.hw.simulate`` the attribute is the function; the module
        # holds the host flag.
        simulate_module = importlib.import_module("repro.hw.simulate")

        nl = random_circuit(np.random.default_rng(5), 20, 3)
        stimulus = {"x": np.arange(8)}
        monkeypatch.setattr(simulate_module, "HOST_SUPPORTS_COMPILED", False)
        sim = simulate(nl, stimulus, engine="auto")
        assert isinstance(sim, SimulationResult)
        np.testing.assert_array_equal(
            sim.bus_ints("y"), simulate_bigint(nl, stimulus).bus_ints("y"))
        with pytest.raises(ValueError):
            simulate(nl, stimulus, engine="compiled")

    def test_plan_cached_on_the_circuit(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        nl.set_output_bus("y", [nl.add_gate("AND2", a, b)])
        circ = ArrayCircuit.from_netlist(nl)[0]
        plan = circ.compiled()
        assert circ.compiled() is plan
        assert plan.n_gates == 1


class TestPlanReferences:
    """A cached plan must not keep its circuit alive through a cycle."""

    @pytest.mark.parametrize("form", ["arrays", "netlist"])
    def test_evaluated_circuit_freed_without_cyclic_gc(self, form):
        import gc
        import weakref

        from repro.experiments.zoo import get_case
        from repro.hw.array_builder import build_bespoke_arrays

        case = get_case("redwine", "svm_r")
        evaluator = CircuitEvaluator.from_split(
            case.quant_model, case.split.X_train, case.split.X_test,
            case.split.y_test)
        build = build_bespoke_arrays if form == "arrays" \
            else build_bespoke_netlist
        circuits = [build(case.quant_model), build(case.quant_model)]
        refs = [weakref.ref(circuit) for circuit in circuits]
        gc.disable()
        try:
            evaluator.evaluate(circuits[0])
            evaluator.evaluate_many(circuits)
            del circuits
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def _structurally_identical(a: ArrayCircuit, reference: Netlist) -> bool:
    """``a`` has the rows, ports and meta of the reference replay's
    netlist."""
    b = ArrayCircuit.from_netlist(reference)[0]
    return (a.ops == b.ops and a.ina == b.ina and a.inb == b.inb
            and a.inc == b.inc and a.input_buses == b.input_buses
            and a.output_buses == b.output_buses
            and a.output_signed == b.output_signed and a.meta == b.meta
            and a.watch == b.watch)


class TestSynthesisEquivalence:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_compiled_fold_matches_reference(self, seed):
        """Array-engine synthesis is gate-for-gate the builder replay."""
        rng = np.random.default_rng(seed)
        nl = random_netlist(rng, int(rng.integers(1, 80)),
                             int(rng.integers(1, 5)))
        assert _structurally_identical(synthesize(nl),
                                       synthesize_reference(nl))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_compiled_fold_matches_reference_with_pruning(self, seed):
        rng = np.random.default_rng(seed)
        nl = random_netlist(rng, int(rng.integers(5, 80)),
                             int(rng.integers(1, 5)))
        n_forced = int(rng.integers(1, max(2, nl.n_gates // 2)))
        gates = rng.choice(nl.n_gates, size=n_forced, replace=False)
        force = {int(g): int(rng.integers(0, 2)) for g in gates}
        assert _structurally_identical(
            synthesize(nl, force_constants=force),
            synthesize_reference(nl, force_constants=force))

    def test_net_map_tracks_signals(self):
        """The node map sends nodes to live images, ties, or -1."""
        rng = np.random.default_rng(3)
        nl = random_netlist(rng, 50, 4)
        circ, _node_of = ArrayCircuit.from_netlist(nl)
        optimized, node_map = synthesize_arrays(circ)
        assert len(node_map) == circ.n_nets
        assert node_map[CONST0] == CONST0 and node_map[CONST1] == CONST1
        for node in range(circ.n_nets):
            assert -1 <= node_map[node] < optimized.n_nets
        for old, new in zip(circ.outputs["y"], optimized.outputs["y"]):
            assert node_map[old] == new

    def test_array_roundtrip_preserves_structure(self):
        rng = np.random.default_rng(11)
        nl = random_netlist(rng, 60, 4)
        circ, node_of = ArrayCircuit.from_netlist(nl)
        back = circ.to_netlist()
        assert back.n_gates == nl.n_gates
        assert back.gate_type == nl.gate_type
        assert back.gate_inputs == nl.gate_inputs
        assert circ.n_gates == nl.n_gates
        assert [CELL_OF_OP[op] for op in circ.ops] == nl.gate_type
        assert CompiledNetlist(circ).n_gates == nl.n_gates


@pytest.fixture(scope="module")
def svm_setup():
    split = load_dataset("redwine").standard_split(seed=0)
    model = LinearSVMRegressor(seed=1, max_epochs=250).fit(
        split.X_train, split.y_train)
    quant = quantize_model(model)
    netlist = build_bespoke_netlist(quant)
    evaluator = CircuitEvaluator.from_split(
        quant, split.X_train, split.X_test, split.y_test)
    return netlist, evaluator


class TestExplorationEquivalence:
    def test_incremental_explore_matches_legacy(self, svm_setup):
        """Trie/incremental exploration reproduces the per-point loop."""
        netlist, evaluator = svm_setup
        grid = (0.85, 0.90, 0.95, 0.99)
        new = NetlistPruner(netlist, evaluator, grid).explore()
        legacy = NetlistPruner(netlist, evaluator, grid).explore_legacy()
        assert new == legacy

    def test_bigint_evaluator_still_explores(self, svm_setup):
        """A bigint evaluator runs the oracle walk to the same list."""
        netlist, compiled_eval = svm_setup
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMRegressor(seed=1, max_epochs=250).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        bigint_eval = CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test,
            engine="bigint")
        grid = (0.95,)
        a = NetlistPruner(netlist, bigint_eval, grid).explore()
        b = NetlistPruner(netlist, compiled_eval, grid).explore()
        assert a == b


class TestEvaluatorSharing:
    def test_accuracy_matches_evaluate_record(self, svm_setup):
        """accuracy() on a netlist equals the accuracy evaluate() records."""
        netlist, _ = svm_setup
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMRegressor(seed=1, max_epochs=250).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        evaluator = CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test)
        record = evaluator.evaluate(netlist)
        assert evaluator.accuracy(netlist) == record.accuracy


class TestFamilyExecutor:
    """``CrossLayerFramework(n_workers=2)`` runs each pruning family as
    one task on the process-wide executor, to the in-process result."""

    GRID = (0.90, 0.95, 0.99)

    @staticmethod
    def _points(**kwargs):
        from repro.experiments.zoo import get_case

        case = get_case("redwine", "svm_r")
        split = case.split
        framework = CrossLayerFramework(e=4, clock_ms=case.clock_ms,
                                        tau_grid=TestFamilyExecutor.GRID,
                                        **kwargs)
        return framework.explore(case.quant_model, split.X_train,
                                 split.X_test, split.y_test).points

    @pytest.mark.parametrize("engine", ["auto", "bigint"])
    def test_families_match_in_process(self, engine, fresh_executor):
        serial = self._points(engine=engine)
        assert {p.technique for p in serial} \
            == {"exact", "coeff", "prune", "cross"}
        assert self._points(engine=engine, n_workers=2) == serial

    def test_broken_executor_warns_and_runs_in_process(
            self, fresh_executor, monkeypatch):
        def broken_executor(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(cross_layer, "ProcessPoolExecutor",
                            broken_executor)
        with pytest.warns(RuntimeWarning, match="in process"):
            points = self._points(n_workers=2)
        assert points == self._points()
        assert cross_layer._EXECUTOR is None

    def test_explore_calls_share_one_executor(self, fresh_executor):
        first = self._points(n_workers=2)
        executor = cross_layer._EXECUTOR[1]
        assert self._points(n_workers=2) == first
        assert cross_layer._EXECUTOR[1] is executor

    def test_one_family_stays_in_process(self, fresh_executor):
        from repro.experiments.zoo import get_case

        case = get_case("redwine", "svm_r")
        split = case.split
        CrossLayerFramework(e=4, clock_ms=case.clock_ms, tau_grid=self.GRID,
                            n_workers=2).explore(
            case.quant_model, split.X_train, split.X_test, split.y_test,
            include=("exact", "prune"))
        assert cross_layer._EXECUTOR is None
