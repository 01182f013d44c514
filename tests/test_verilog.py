"""Tests for the structural Verilog emitter."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.hw.bespoke import build_bespoke_netlist
from repro.hw.blocks import Value, bespoke_multiplier
from repro.hw.netlist import CONST0, CONST1, Netlist
from repro.hw.synthesis import ArrayCircuit
from repro.hw.verilog import emit_cell_models, to_verilog
from repro.ml import LinearSVMRegressor
from repro.quant import quantize_model


def _rows(nl: Netlist) -> ArrayCircuit:
    """A hand-built netlist as the rows the emitter reads."""
    return ArrayCircuit.from_netlist(nl)[0]


def _adder_netlist() -> ArrayCircuit:
    nl = Netlist()
    a = Value.input_bus(nl, "a", 3)
    b = Value.input_bus(nl, "b", 3)
    total = a.add(b)
    nl.set_output_bus("sum", total.nets, signed=total.signed)
    return _rows(nl)


class TestToVerilog:
    def test_module_structure(self):
        text = to_verilog(_adder_netlist(), module_name="adder3")
        assert text.startswith("//")
        assert "module adder3 (a, b, sum);" in text
        assert "input  wire [2:0] a;" in text
        assert "input  wire [2:0] b;" in text
        assert "output wire [3:0] sum;" in text
        assert text.rstrip().endswith("endmodule")

    def test_one_instance_per_gate(self):
        nl = _adder_netlist()
        text = to_verilog(nl)
        instance_lines = [line for line in text.splitlines()
                          if line.strip().startswith(
                              ("AND2", "OR2", "XOR2", "INV", "NAND2",
                               "NOR2", "XNOR2", "MUX2", "BUF"))]
        assert len(instance_lines) == nl.n_gates

    def test_constant_ties(self):
        nl = Netlist()
        nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [CONST1, CONST0])
        text = to_verilog(_rows(nl))
        assert "assign y[0] = 1'b1;" in text
        assert "assign y[1] = 1'b0;" in text

    def test_signed_output_bus(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        negated = x.neg()
        nl.set_output_bus("y", negated.nets, signed=True)
        text = to_verilog(_rows(nl))
        assert "output wire signed" in text

    def test_name_sanitization(self):
        nl = Netlist(name="my design-v2")
        nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [CONST0])
        text = to_verilog(_rows(nl))
        assert "module my_design_v2 (" in text

    def test_full_bespoke_circuit_emits(self):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMRegressor(seed=1, max_epochs=100).fit(
            split.X_train, split.y_train)
        netlist = build_bespoke_netlist(quantize_model(model))
        text = to_verilog(netlist, module_name="rw_svm_r")
        assert text.count("endmodule") == 1
        assert f"// {netlist.n_gates} cells" in text

    def test_pin_connections_reference_defined_wires(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 4)
        product = bespoke_multiplier(x, -93)
        nl.set_output_bus("p", product.nets, signed=True)
        text = to_verilog(_rows(nl))
        # Every instantiated wire must be declared.
        declared = {line.split()[1].rstrip(";")
                    for line in text.splitlines()
                    if line.strip().startswith("wire ")}
        for line in text.splitlines():
            if ".y(" in line:
                wire = line.split(".y(")[1].split(")")[0]
                assert wire in declared


class TestCellModels:
    def test_all_cells_modelled(self):
        text = emit_cell_models()
        for cell in ("INV", "BUF", "AND2", "OR2", "XOR2", "XNOR2",
                     "NAND2", "NOR2", "MUX2"):
            assert f"module {cell} (" in text

    def test_mux_semantics_documented(self):
        assert "s ? b : a" in emit_cell_models()

    def test_model_count(self):
        text = emit_cell_models()
        assert text.count("endmodule") == 9
