"""Tests for the synthesis pass (folding rebuild + dead-gate stripping)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.netlist import CONST0, CONST1, Netlist
from repro.hw.simulate import simulate
from repro.hw.synthesis import (ArrayCircuit, rebuild_folded, strip_dead,
                                synthesize, synthesize_arrays)


def _random_netlist(seed: int, n_inputs: int = 4, n_gates: int = 40) -> Netlist:
    """A random combinational netlist over one input bus."""
    rng = np.random.default_rng(seed)
    nl = Netlist(cse=False)  # raw duplicates for the optimizer to find
    nets = list(nl.add_input_bus("x", n_inputs)) + [CONST0, CONST1]
    cells = ["INV", "AND2", "OR2", "XOR2", "NAND2", "NOR2", "XNOR2", "MUX2"]
    for _ in range(n_gates):
        cell = cells[rng.integers(0, len(cells))]
        arity = {"INV": 1, "MUX2": 3}.get(cell, 2)
        chosen = [nets[rng.integers(0, len(nets))] for _ in range(arity)]
        nets.append(nl.add_gate(cell, *chosen))
    outputs = [nets[rng.integers(0, len(nets))] for _ in range(4)]
    nl.set_output_bus("y", outputs)
    return nl


def _behaviour(circuit, vectors: np.ndarray) -> np.ndarray:
    """Output values of a synthesized circuit or a (converted) netlist."""
    if isinstance(circuit, Netlist):
        circuit = ArrayCircuit.from_netlist(circuit)[0]
    return simulate(circuit, {"x": vectors}).bus_ints("y")


class TestFunctionPreservation:
    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_synthesize_preserves_function(self, seed):
        nl = _random_netlist(seed)
        vectors = np.arange(16)  # exhaustive over 4 inputs
        optimized = synthesize(nl)
        np.testing.assert_array_equal(
            _behaviour(nl, vectors), _behaviour(optimized, vectors))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_synthesize_never_grows(self, seed):
        nl = _random_netlist(seed)
        assert synthesize(nl).n_gates <= nl.n_gates

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_synthesize_idempotent(self, seed):
        once = synthesize(_random_netlist(seed))
        twice = synthesize_arrays(once)[0]
        assert twice.n_gates == once.n_gates
        vectors = np.arange(16)
        np.testing.assert_array_equal(
            _behaviour(once, vectors), _behaviour(twice, vectors))

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_rebuild_matches_strip_composition(self, seed):
        nl = _random_netlist(seed)
        vectors = np.arange(16)
        np.testing.assert_array_equal(
            _behaviour(strip_dead(rebuild_folded(nl)), vectors),
            _behaviour(nl, vectors))


class TestConstantForcing:
    def test_forced_gate_becomes_constant(self):
        nl = Netlist()
        a, b = nl.add_input_bus("x", 2)
        gate_out = nl.add_gate("AND2", a, b)
        downstream = nl.add_gate("OR2", gate_out, a)
        nl.set_output_bus("y", [downstream])
        forced = synthesize(nl, force_constants={0: 1})
        # OR2(1, a) folds to constant 1 -> the whole circuit disappears.
        assert forced.n_gates == 0
        sim = simulate(forced, {"x": np.arange(4)})
        np.testing.assert_array_equal(sim.bus_ints("y"), np.ones(4))

    def test_forcing_zero_enables_propagation(self):
        nl = Netlist()
        a, b = nl.add_input_bus("x", 2)
        gate_out = nl.add_gate("AND2", a, b)
        downstream = nl.add_gate("AND2", gate_out, a)
        nl.set_output_bus("y", [downstream])
        forced = synthesize(nl, force_constants={0: 0})
        assert forced.n_gates == 0
        sim = simulate(forced, {"x": np.arange(4)})
        np.testing.assert_array_equal(sim.bus_ints("y"), np.zeros(4))

    def test_forcing_keeps_unaffected_logic(self):
        nl = Netlist()
        a, b = nl.add_input_bus("x", 2)
        pruned = nl.add_gate("AND2", a, b)
        kept = nl.add_gate("XOR2", a, b)
        nl.set_output_bus("y", [pruned, kept])
        forced = synthesize(nl, force_constants={0: 1})
        assert forced.n_gates == 1
        sim = simulate(forced, {"x": np.arange(4)})
        values = sim.bus_ints("y")
        expected = 1 + 2 * (np.arange(4) % 2 ^ (np.arange(4) // 2))
        np.testing.assert_array_equal(values, expected)

    @given(st.integers(0, 10**5), st.integers(0, 39), st.integers(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_forced_synthesis_equals_folded_rebuild(self, seed, gate, const):
        nl = _random_netlist(seed)
        gate = gate % nl.n_gates
        vectors = np.arange(16)
        full = synthesize(nl, force_constants={gate: const})
        folded_only = rebuild_folded(nl, force_constants={gate: const})
        np.testing.assert_array_equal(
            _behaviour(full, vectors), _behaviour(folded_only, vectors))


class TestStructuralCleanup:
    def test_dead_gates_removed(self):
        nl = Netlist()
        a, b = nl.add_input_bus("x", 2)
        live = nl.add_gate("AND2", a, b)
        nl.add_gate("XOR2", a, b)  # dead
        nl.set_output_bus("y", [live])
        assert synthesize(nl).n_gates == 1

    def test_double_inverter_chain_collapses(self):
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        net = a
        for _ in range(6):
            net = nl.add_gate("INV", net)
        nl.set_output_bus("y", [net])
        optimized = synthesize(nl)
        assert optimized.n_gates == 0  # even chain = wire

    def test_duplicate_gates_shared(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        first = nl.add_gate("AND2", a, b)
        second = nl.add_gate("AND2", b, a)
        nl.set_output_bus("y", [nl.add_gate("XOR2", first, second)])
        optimized = synthesize(nl)
        # XOR(g, g) = 0 after CSE merges the two ANDs.
        assert optimized.n_gates == 0

    def test_ports_preserved(self):
        nl = _random_netlist(3)
        optimized = synthesize(nl)
        assert set(optimized.input_buses) == {"x"}
        assert set(optimized.output_buses) == {"y"}
        assert len(optimized.output_buses["y"]) == 4
        assert optimized.output_signed["y"] == nl.output_signed["y"]

    def test_meta_watch_buses_remapped(self):
        nl = Netlist()
        a, b = nl.add_input_bus("x", 2)
        gate = nl.add_gate("AND2", a, b)
        nl.meta["watch_buses"] = [[gate]]
        nl.meta["kind"] = "regressor"
        nl.set_output_bus("y", [gate])
        optimized = synthesize(nl)
        assert optimized.meta["kind"] == "regressor"
        watched = optimized.watch[0][0]
        assert watched == optimized.output_buses["y"][0]

    def test_meta_watch_bus_net_can_become_constant(self):
        nl = Netlist()
        (a,) = nl.add_input_bus("x", 1)
        gate = nl.add_gate("AND2", a, CONST0)  # folds to constant 0
        nl.meta["watch_buses"] = [[gate]]
        nl.set_output_bus("y", [gate])
        optimized = synthesize(nl)
        assert optimized.watch[0][0] == CONST0

    def test_validate_after_synthesis(self):
        optimized = synthesize(_random_netlist(11))
        optimized.to_netlist().validate()
