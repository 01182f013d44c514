"""Tests for the bit-parallel simulator and activity extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.netlist import CONST0, CONST1, Netlist
from repro.hw.simulate import (
    ActivityReport,
    pack_vectors,
    simulate,
    unpack_bits,
)
from repro.hw.synthesis import ArrayCircuit


def _simulate(nl: Netlist, inputs: dict):
    """Simulate a hand-built netlist through the rows it converts to."""
    return simulate(ArrayCircuit.from_netlist(nl)[0], inputs)


class TestPacking:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_pack_unpack_roundtrip(self, bits):
        packed = pack_vectors(np.array(bits))
        np.testing.assert_array_equal(unpack_bits(packed, len(bits)), bits)

    def test_pack_bit_order_is_vector_index(self):
        assert pack_vectors(np.array([1, 0, 0])) == 1
        assert pack_vectors(np.array([0, 0, 1])) == 4


class TestGateEvaluation:
    def _one_gate(self, cell, arity):
        nl = Netlist(cse=False)
        nets = nl.add_input_bus("x", arity)
        out = nl.add_gate(cell, *nets)
        nl.set_output_bus("y", [out])
        vectors = np.arange(2 ** arity)
        sim = _simulate(nl, {"x": vectors})
        bits = [(vectors >> position) & 1 for position in range(arity)]
        return sim.bus_ints("y"), bits

    def test_all_cell_functions(self):
        got, (a,) = self._one_gate("INV", 1)
        np.testing.assert_array_equal(got, 1 - a)
        got, (a,) = self._one_gate("BUF", 1)
        np.testing.assert_array_equal(got, a)
        got, (a, b) = self._one_gate("AND2", 2)
        np.testing.assert_array_equal(got, a & b)
        got, (a, b) = self._one_gate("OR2", 2)
        np.testing.assert_array_equal(got, a | b)
        got, (a, b) = self._one_gate("XOR2", 2)
        np.testing.assert_array_equal(got, a ^ b)
        got, (a, b) = self._one_gate("XNOR2", 2)
        np.testing.assert_array_equal(got, 1 - (a ^ b))
        got, (a, b) = self._one_gate("NAND2", 2)
        np.testing.assert_array_equal(got, 1 - (a & b))
        got, (a, b) = self._one_gate("NOR2", 2)
        np.testing.assert_array_equal(got, 1 - (a | b))
        got, (a, b, sel) = self._one_gate("MUX2", 3)
        np.testing.assert_array_equal(got, np.where(sel, b, a))

    def test_constants_available(self):
        nl = Netlist()
        nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [CONST0, CONST1])
        sim = _simulate(nl, {"x": np.zeros(5, dtype=int)})
        np.testing.assert_array_equal(sim.bus_ints("y"), np.full(5, 2))

    def test_signed_bus_decode(self):
        nl = Netlist()
        nets = nl.add_input_bus("x", 3)
        nl.set_output_bus("y", nets, signed=True)
        sim = _simulate(nl, {"x": np.arange(8)})
        expected = np.where(np.arange(8) >= 4, np.arange(8) - 8, np.arange(8))
        np.testing.assert_array_equal(sim.bus_ints("y"), expected)


class TestInputValidation:
    def test_mismatched_lengths_rejected(self):
        nl = Netlist()
        nl.add_input_bus("a", 1)
        nl.add_input_bus("b", 1)
        nl.set_output_bus("y", [CONST0])
        with pytest.raises(ValueError, match="vector counts differ"):
            _simulate(nl, {"a": np.zeros(3, int), "b": np.zeros(4, int)})

    def test_missing_bus_rejected(self):
        nl = Netlist()
        nl.add_input_bus("a", 1)
        nl.set_output_bus("y", [CONST0])
        with pytest.raises(ValueError, match="do not match buses"):
            _simulate(nl, {})

    def test_out_of_range_input_rejected(self):
        nl = Netlist()
        nl.add_input_bus("a", 2)
        nl.set_output_bus("y", [CONST0])
        with pytest.raises(ValueError, match="exceeds"):
            _simulate(nl, {"a": np.array([4])})


class TestActivity:
    def test_prob_and_tau(self):
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        out = nl.add_gate("BUF", a)
        nl.set_output_bus("y", [out])
        stimulus = np.array([1, 1, 1, 0])  # 75% ones
        activity = _simulate(nl, {"x": stimulus}).activity()
        assert activity.prob_one[0] == pytest.approx(0.75)
        assert activity.tau[0] == pytest.approx(0.75)
        assert activity.const_value[0] == 1

    def test_tau_of_mostly_zero_gate(self):
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        out = nl.add_gate("BUF", a)
        nl.set_output_bus("y", [out])
        stimulus = np.array([0, 0, 0, 0, 1])
        activity = _simulate(nl, {"x": stimulus}).activity()
        assert activity.tau[0] == pytest.approx(0.8)
        assert activity.const_value[0] == 0

    def test_toggle_counting(self):
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        out = nl.add_gate("BUF", a)
        nl.set_output_bus("y", [out])
        stimulus = np.array([0, 1, 0, 1, 1])  # 3 toggles in 4 transitions
        activity = _simulate(nl, {"x": stimulus}).activity()
        assert activity.toggles_per_cycle[0] == pytest.approx(0.75)

    def test_single_vector_has_zero_toggles(self):
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [nl.add_gate("INV", a)])
        activity = _simulate(nl, {"x": np.array([1])}).activity()
        assert activity.toggles_per_cycle[0] == 0.0

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_activity_matches_reference(self, bits):
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [nl.add_gate("BUF", a)])
        stimulus = np.array(bits)
        activity = _simulate(nl, {"x": stimulus}).activity()
        assert activity.prob_one[0] == pytest.approx(stimulus.mean())
        toggles = np.abs(np.diff(stimulus)).mean()
        assert activity.toggles_per_cycle[0] == pytest.approx(toggles)

    def test_tau_bounds(self):
        rng = np.random.default_rng(0)
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        nl.set_output_bus("y", [nl.add_gate("AND2", a, b),
                                nl.add_gate("XOR2", a, b)])
        activity = _simulate(nl, {"x": rng.integers(0, 4, 100)}).activity()
        assert np.all(activity.tau >= 0.5)
        assert np.all(activity.tau <= 1.0)
