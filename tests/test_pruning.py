"""Tests for netlist pruning: tau/phi statistics and the full search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pruning import (
    DEFAULT_TAU_GRID,
    NetlistPruner,
    PruneSpace,
    compute_phi,
)
from repro.datasets import load_dataset
from repro.eval.accuracy import CircuitEvaluator, DecodeSpec
from repro.experiments.zoo import get_case
from repro.hw.bespoke import (
    REGRESSOR_OUTPUT,
    build_bespoke_netlist,
    input_payload,
)
from repro.hw.netlist import Netlist
from repro.hw.simulate import simulate
from repro.hw.synthesis import (ArrayCircuit, synthesize_arrays,
                                synthesize_reference)
from repro.ml import LinearSVMClassifier, LinearSVMRegressor
from repro.quant import quantize_inputs, quantize_model
from random_circuits import random_netlist

BENCH_CIRCUITS = (("redwine", "svm_r"), ("redwine", "mlp_c"),
                  ("redwine", "svm_c"), ("whitewine", "svm_c"),
                  ("cardio", "svm_c"))


def _rows(nl: Netlist) -> ArrayCircuit:
    """A hand-built netlist as array-circuit rows (inputs declared
    first, so node ids are its net ids)."""
    return ArrayCircuit.from_netlist(nl)[0]


class TestComputePhi:
    def test_direct_output_connection(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        low_bit = nl.add_gate("AND2", a, b)    # drives output bit 0
        high_bit = nl.add_gate("XOR2", a, b)   # drives output bit 2
        nl.set_output_bus("y", [low_bit, a, high_bit])
        phi = compute_phi(_rows(nl), [nl.output_buses["y"]])
        assert phi[0] == 0
        assert phi[1] == 2

    def test_transitive_propagation(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        deep = nl.add_gate("AND2", a, b)        # feeds gate on bit 3
        mid = nl.add_gate("OR2", deep, a)
        nl.set_output_bus("y", [a, b, a, mid])
        phi = compute_phi(_rows(nl), [nl.output_buses["y"]])
        assert phi[0] == 3
        assert phi[1] == 3

    def test_max_over_multiple_buses(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        shared = nl.add_gate("AND2", a, b)
        nl.set_output_bus("o1", [shared])          # bit 0 of bus 1
        nl.set_output_bus("o2", [a, b, shared])    # bit 2 of bus 2
        phi = compute_phi(_rows(nl),
                          [nl.output_buses["o1"], nl.output_buses["o2"]])
        assert phi[0] == 2  # the max across watch buses (Section III-C)

    def test_unwatched_gate_gets_minus_one(self):
        """Gates past the watch point (inside argmax) have phi = -1."""
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        watched = nl.add_gate("AND2", a, b)
        post = nl.add_gate("INV", watched)  # downstream of the watch bus
        nl.set_output_bus("y", [post])
        phi = compute_phi(_rows(nl), [[watched]])
        assert phi[0] == 0
        assert phi[1] == -1

    def test_defaults_to_meta_watch_buses(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        gate = nl.add_gate("AND2", a, b)
        nl.set_output_bus("y", [gate])
        nl.meta["watch_buses"] = [[gate, a]]
        phi = compute_phi(_rows(nl))
        assert phi[0] == 0

    def test_falls_back_to_output_buses(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        gate = nl.add_gate("AND2", a, b)
        nl.set_output_bus("y", [a, gate])
        phi = compute_phi(_rows(nl))
        assert phi[0] == 1


def _reference_phi(nl: Netlist, watch_buses=None) -> np.ndarray:
    """The net-space sweep over a netlist's gate lists (the oracle)."""
    if watch_buses is None:
        watch_buses = nl.meta.get("watch_buses")
        if watch_buses is None:
            watch_buses = list(nl.output_buses.values())
    net_phi = [-1] * nl.n_nets
    for bus in watch_buses:
        for bit, net in enumerate(bus):
            net_phi[net] = max(net_phi[net], bit)
    gate_phi = [-1] * nl.n_gates
    for gate in range(nl.n_gates - 1, -1, -1):
        gate_phi[gate] = net_phi[nl.gate_out[gate]]
        if gate_phi[gate] >= 0:
            for net in nl.gate_inputs[gate]:
                net_phi[net] = max(net_phi[net], gate_phi[gate])
    return np.array(gate_phi, dtype=np.int64)


def _assert_phi_agrees(nl: Netlist, watch_bus: list[int]) -> None:
    """A netlist's array form gives the oracle's phi, for the default
    watch buses and for an explicit one."""
    arrays, node_of = ArrayCircuit.from_netlist(nl)
    assert np.array_equal(compute_phi(arrays), _reference_phi(nl))
    assert np.array_equal(
        compute_phi(arrays, [[node_of[net] for net in watch_bus]]),
        _reference_phi(nl, [watch_bus]))


class TestPhiAcrossForms:
    """``compute_phi`` is one node-space sweep; a netlist's array form
    and a pruner's prune space agree with the net-space oracle."""

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_random_netlists(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 6))
        nl = random_netlist(rng, int(rng.integers(1, 80)), width,
                            output=REGRESSOR_OUTPUT, signed=False)
        watch_bus = [int(net) for net in
                     rng.integers(0, nl.n_nets, int(rng.integers(1, 6)))]
        _assert_phi_agrees(nl, watch_bus)
        # The pruner folds the raw netlist; its prune space indexes the
        # gates of the folded form.
        evaluator = CircuitEvaluator(
            DecodeSpec("regressor", y_min=0, y_max=15),
            {"x": rng.integers(0, 1 << width, 48)},
            {"x": rng.integers(0, 1 << width, 8)}, rng.integers(0, 16, 8))
        space = NetlistPruner(ArrayCircuit.from_netlist(nl)[0],
                              evaluator).space()
        assert np.array_equal(space.phi,
                              _reference_phi(synthesize_reference(nl)))

    @pytest.mark.parametrize("dataset, model", BENCH_CIRCUITS)
    def test_bench_circuits(self, dataset, model):
        case = get_case(dataset, model)
        circuit = build_bespoke_netlist(case.quant_model)
        nl = circuit.to_netlist()
        _assert_phi_agrees(nl, next(iter(nl.output_buses.values())))
        split = case.split
        evaluator = CircuitEvaluator.from_split(
            case.quant_model, split.X_train, split.X_test, split.y_test)
        space = NetlistPruner(circuit, evaluator).space()
        assert np.array_equal(space.phi, _reference_phi(nl))


def _svm_regressor_setup():
    split = load_dataset("redwine").standard_split(seed=0)
    model = LinearSVMRegressor(seed=1, max_epochs=250).fit(
        split.X_train, split.y_train)
    quant = quantize_model(model)
    netlist = build_bespoke_netlist(quant)
    evaluator = CircuitEvaluator.from_split(
        quant, split.X_train, split.X_test, split.y_test)
    return quant, netlist, evaluator, split


@pytest.fixture(scope="module")
def svm_setup():
    return _svm_regressor_setup()


class TestPruneSpace:
    def test_candidates_shrink_with_tau(self, svm_setup):
        _, netlist, evaluator, _ = svm_setup
        space = PruneSpace.from_activity(
            netlist, evaluator.train_activity(netlist))
        loose = space.candidates(0.80)
        tight = space.candidates(0.99)
        assert len(tight) <= len(loose)
        assert set(tight) <= set(loose)

    def test_phi_levels_are_unique_sorted(self, svm_setup):
        _, netlist, evaluator, _ = svm_setup
        space = PruneSpace.from_activity(
            netlist, evaluator.train_activity(netlist))
        levels = space.phi_levels(0.9)
        assert levels == sorted(set(levels))

    def test_prune_set_respects_both_constraints(self, svm_setup):
        _, netlist, evaluator, _ = svm_setup
        space = PruneSpace.from_activity(
            netlist, evaluator.train_activity(netlist))
        for phi_c in space.phi_levels(0.9):
            for gate in space.prune_set(0.9, phi_c):
                assert space.tau[gate] >= 0.9 - 1e-9
                assert space.phi[gate] <= phi_c


class TestErrorBound:
    def test_pruned_regressor_error_below_phi_bound(self, svm_setup):
        """Section III-C: max output error < 2^(phi_c + 1)."""
        quant, netlist, evaluator, split = svm_setup
        Xq = quantize_inputs(split.X_test)
        exact = simulate(netlist, input_payload(Xq)).bus_ints(REGRESSOR_OUTPUT)
        space = PruneSpace.from_activity(
            netlist, evaluator.train_activity(netlist))
        for tau_c in (0.90, 0.99):
            for phi_c in space.phi_levels(tau_c)[:4]:
                force = space.prune_set(tau_c, phi_c)
                if not force:
                    continue
                pruned = synthesize_arrays(netlist, {
                    netlist.n_fixed + gate: value
                    for gate, value in force.items()})[0]
                approx = simulate(pruned, input_payload(Xq)).bus_ints(
                    REGRESSOR_OUTPUT)
                max_error = np.abs(approx - exact).max()
                assert max_error < 2 ** (phi_c + 1)


class TestExploration:
    def test_explore_returns_grid_points(self, svm_setup):
        _, netlist, evaluator, _ = svm_setup
        pruner = NetlistPruner(netlist, evaluator,
                               tau_grid=(0.85, 0.95))
        designs = pruner.explore()
        assert designs
        for design in designs:
            assert design.tau_c in (0.85, 0.95)
            assert design.n_pruned > 0
            assert design.record.area_mm2 >= 0

    def test_pruned_designs_never_larger(self, svm_setup):
        _, netlist, evaluator, _ = svm_setup
        from repro.hw.area import area_mm2
        baseline = area_mm2(netlist)
        pruner = NetlistPruner(netlist, evaluator, tau_grid=(0.9,))
        for design in pruner.explore():
            assert design.record.area_mm2 <= baseline

    def test_duplicates_marked_and_share_records(self, svm_setup):
        _, netlist, evaluator, _ = svm_setup
        pruner = NetlistPruner(netlist, evaluator)
        designs = pruner.explore()
        duplicates = [d for d in designs if d.duplicate_of is not None]
        if duplicates:  # duplicate sets occur on real grids
            by_key = {(d.tau_c, d.phi_c): d for d in designs
                      if d.duplicate_of is None}
            for dup in duplicates:
                original = by_key[dup.duplicate_of]
                assert dup.record == original.record

    def test_aggressive_tau_prunes_more(self, svm_setup):
        _, netlist, evaluator, _ = svm_setup
        space = NetlistPruner(netlist, evaluator).space()
        max_phi = max(space.phi.max(), 0)
        aggressive = space.prune_set(0.80, int(max_phi))
        conservative = space.prune_set(0.99, int(max_phi))
        assert len(aggressive) >= len(conservative)

    def test_default_grid_matches_paper(self):
        assert DEFAULT_TAU_GRID[0] == pytest.approx(0.80)
        assert DEFAULT_TAU_GRID[-1] == pytest.approx(0.99)
        assert len(DEFAULT_TAU_GRID) == 20


class TestClassifierPruning:
    def test_classifier_phi_uses_pre_argmax_buses(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMClassifier(seed=1, max_epochs=150).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        netlist = build_bespoke_netlist(quant)
        phi = compute_phi(netlist)
        # Gates exist both inside the score logic (phi >= 0) and inside
        # the vote/argmax head (phi == -1), the Section III-C split.
        assert (phi >= 0).any()
        assert (phi == -1).any()

    def test_classifier_exploration_keeps_accuracy_reasonable(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMClassifier(seed=1, max_epochs=150).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        netlist = build_bespoke_netlist(quant)
        evaluator = CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test)
        baseline = evaluator.evaluate(netlist)
        pruner = NetlistPruner(netlist, evaluator, tau_grid=(0.99,))
        designs = pruner.explore()
        # At tau_c = 99% the error rate is bounded to ~1% per gate, so at
        # least one design must stay close to the baseline accuracy.
        best = max(designs, key=lambda d: d.record.accuracy)
        assert best.record.accuracy >= baseline.accuracy - 0.05
