"""Tests for the netlist IR and its folding builders."""

import pytest

from repro.hw.netlist import CONST0, CONST1, Netlist, bus_value


@pytest.fixture
def nl():
    return Netlist()


class TestStructure:
    def test_constants_preallocated(self, nl):
        assert nl.const_value(CONST0) == 0
        assert nl.const_value(CONST1) == 1
        assert nl.n_nets == 2
        assert nl.n_gates == 0

    def test_input_bus_allocates_nets(self, nl):
        nets = nl.add_input_bus("x", 4)
        assert len(nets) == 4
        assert nl.input_buses["x"] == nets
        assert all(nl.driver_gate(net) is None for net in nets)

    def test_duplicate_input_bus_rejected(self, nl):
        nl.add_input_bus("x", 2)
        with pytest.raises(ValueError, match="already exists"):
            nl.add_input_bus("x", 2)

    def test_zero_width_bus_rejected(self, nl):
        with pytest.raises(ValueError, match="positive"):
            nl.add_input_bus("x", 0)

    def test_output_bus_checks_nets(self, nl):
        with pytest.raises(ValueError, match="does not exist"):
            nl.set_output_bus("y", [99])

    def test_duplicate_output_bus_rejected(self, nl):
        nl.set_output_bus("y", [CONST0])
        with pytest.raises(ValueError, match="already exists"):
            nl.set_output_bus("y", [CONST1])

    def test_add_gate_arity_check(self, nl):
        a, b = nl.add_input_bus("x", 2)
        with pytest.raises(ValueError, match="expects 2 inputs"):
            nl.add_gate("AND2", a)
        with pytest.raises(ValueError, match="expects 1 inputs"):
            nl.add_gate("INV", a, b)

    def test_gate_outputs_are_topologically_ordered(self, nl):
        a, b = nl.add_input_bus("x", 2)
        c = nl.add_gate("AND2", a, b)
        d = nl.add_gate("OR2", c, a)
        nl.set_output_bus("y", [d])
        nl.validate()

    def test_live_gates_marks_output_cone_only(self, nl):
        a, b = nl.add_input_bus("x", 2)
        live_gate = nl.add_gate("AND2", a, b)
        nl.add_gate("XOR2", a, b)  # dead
        nl.set_output_bus("y", [live_gate])
        assert nl.live_gates() == [True, False]


class TestFoldingBuilders:
    def test_not_of_constants(self, nl):
        assert nl.not_(CONST0) == CONST1
        assert nl.not_(CONST1) == CONST0

    def test_double_inversion_cancels(self, nl):
        (a,) = nl.add_input_bus("a", 1)
        assert nl.not_(nl.not_(a)) == a

    def test_and_identities(self, nl):
        (a,) = nl.add_input_bus("a", 1)
        assert nl.and_(a, CONST0) == CONST0
        assert nl.and_(CONST0, a) == CONST0
        assert nl.and_(a, CONST1) == a
        assert nl.and_(CONST1, a) == a
        assert nl.and_(a, a) == a

    def test_and_with_complement_is_zero(self, nl):
        (a,) = nl.add_input_bus("a", 1)
        assert nl.and_(a, nl.not_(a)) == CONST0

    def test_or_identities(self, nl):
        (a,) = nl.add_input_bus("a", 1)
        assert nl.or_(a, CONST1) == CONST1
        assert nl.or_(a, CONST0) == a
        assert nl.or_(a, a) == a
        assert nl.or_(a, nl.not_(a)) == CONST1

    def test_xor_identities(self, nl):
        (a,) = nl.add_input_bus("a", 1)
        assert nl.xor_(a, CONST0) == a
        assert nl.xor_(a, a) == CONST0
        assert nl.xor_(a, nl.not_(a)) == CONST1
        inverted = nl.xor_(a, CONST1)
        gate = nl.driver_gate(inverted)
        assert nl.gate_type[gate] == "INV"

    def test_xnor_via_xor_inversion(self, nl):
        (a,) = nl.add_input_bus("a", 1)
        assert nl.xnor_(a, CONST1) == a
        assert nl.xnor_(a, a) == CONST1

    def test_nand_nor_identities(self, nl):
        (a,) = nl.add_input_bus("a", 1)
        assert nl.nand_(a, CONST0) == CONST1
        assert nl.nor_(a, CONST1) == CONST0
        not_a = nl.not_(a)
        assert nl.nand_(a, CONST1) == not_a
        assert nl.nor_(a, CONST0) == not_a
        assert nl.nand_(a, a) == not_a

    def test_mux_constant_select(self, nl):
        a, b = nl.add_input_bus("x", 2)
        assert nl.mux_(a, b, CONST0) == a
        assert nl.mux_(a, b, CONST1) == b

    def test_mux_equal_branches(self, nl):
        a, b = nl.add_input_bus("x", 2)
        assert nl.mux_(a, a, b) == a

    def test_mux_constant_branches_decay_to_logic(self, nl):
        a, s = nl.add_input_bus("x", 2)
        # mux(0, a, s) = a & s
        out = nl.mux_(CONST0, a, s)
        assert nl.gate_type[nl.driver_gate(out)] == "AND2"
        # mux(a, 1, s) = a | s
        out = nl.mux_(a, CONST1, s)
        assert nl.gate_type[nl.driver_gate(out)] == "OR2"

    def test_cse_shares_commutative_duplicates(self, nl):
        a, b = nl.add_input_bus("x", 2)
        first = nl.and_(a, b)
        second = nl.and_(b, a)
        assert first == second
        assert nl.n_gates == 1

    def test_cse_does_not_merge_distinct_ops(self, nl):
        a, b = nl.add_input_bus("x", 2)
        assert nl.and_(a, b) != nl.or_(a, b)

    def test_cse_disabled(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        assert nl.and_(a, b) != nl.and_(a, b)
        assert nl.n_gates == 2


class TestBusValue:
    def test_unsigned(self):
        assert bus_value([1, 0, 1]) == 5

    def test_signed_negative(self):
        assert bus_value([0, 1], signed=True) == -2
        assert bus_value([1, 1, 1], signed=True) == -1

    def test_signed_positive(self):
        assert bus_value([1, 1, 0], signed=True) == 3

    def test_empty(self):
        assert bus_value([]) == 0
