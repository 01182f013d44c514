"""Structural Verilog emission for printed netlists.

The paper's framework generates bespoke RTL that Synopsys Design Compiler
maps onto the EGT library.  This module closes the loop in the other
direction: any :class:`~repro.hw.synthesis.ArrayCircuit` — including every
pruned or coefficient-approximated variant — can be exported as a structural
Verilog module over the same cell names, ready for an external EDA flow or
for equivalence checking against this package's simulator.

The emitted module instantiates one primitive per gate (``INV``, ``NAND2``,
..., ``MUX2``); a matching behavioural model of the EGT cell set can be
emitted alongside (:func:`emit_cell_models`) so the file is simulable with
any Verilog simulator as-is.
"""

from __future__ import annotations

from .cells import EGT_LIBRARY
from .compiled import ARITY_OF_OP, CELL_OF_OP
from .netlist import CONST0, CONST1

__all__ = ["to_verilog", "emit_cell_models"]

# Pin names per cell, matching the behavioural models below.
_PINS = {
    1: ("a",),
    2: ("a", "b"),
    3: ("a", "b", "s"),
}

_CELL_BODY = {
    "BUF": "assign y = a;",
    "INV": "assign y = ~a;",
    "AND2": "assign y = a & b;",
    "OR2": "assign y = a | b;",
    "XOR2": "assign y = a ^ b;",
    "XNOR2": "assign y = ~(a ^ b);",
    "NAND2": "assign y = ~(a & b);",
    "NOR2": "assign y = ~(a | b);",
    "MUX2": "assign y = s ? b : a;",
}


def _sanitize(name: str) -> str:
    """Make a bus name a legal Verilog identifier."""
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "n_" + cleaned
    return cleaned


def _net_ref(net: int, net_names: dict[int, str]) -> str:
    if net == CONST0:
        return "1'b0"
    if net == CONST1:
        return "1'b1"
    return net_names[net]


def to_verilog(circ, module_name: str | None = None) -> str:
    """Emit the circuit as one structural Verilog module.

    Input/output buses become vector ports (LSB at index 0); gate *k*
    becomes instance ``u<k>`` driving wire ``w<node>`` (its node id
    ``n_fixed + k``); constants are literal ties.
    """
    module = _sanitize(module_name if module_name is not None else circ.name)
    net_names: dict[int, str] = {}
    port_decls: list[str] = []
    port_names: list[str] = []

    for name, nodes in circ.input_buses.items():
        port = _sanitize(name)
        port_names.append(port)
        port_decls.append(f"  input  wire [{len(nodes) - 1}:0] {port};")
        for bit, node in enumerate(nodes):
            net_names[node] = f"{port}[{bit}]"

    assigns: list[str] = []
    for name, nodes in circ.output_buses.items():
        port = _sanitize(name)
        port_names.append(port)
        signed = " signed" if circ.output_signed[name] else ""
        port_decls.append(
            f"  output wire{signed} [{len(nodes) - 1}:0] {port};")

    wires: list[str] = []
    instances: list[str] = []
    rows = zip(circ.ops, circ.ina, circ.inb, circ.inc)
    for gate_idx, (op, *operands) in enumerate(rows):
        cell = CELL_OF_OP[op]
        wire = f"w{circ.n_fixed + gate_idx}"
        pins = _PINS[ARITY_OF_OP[op]]
        connections = ", ".join(
            f".{pin}({_net_ref(node, net_names)})"
            for pin, node in zip(pins, operands))
        net_names[circ.n_fixed + gate_idx] = wire
        wires.append(f"  wire {wire};")
        instances.append(
            f"  {cell} u{gate_idx} ({connections}, .y({wire}));")

    for name, nodes in circ.output_buses.items():
        port = _sanitize(name)
        for bit, node in enumerate(nodes):
            assigns.append(
                f"  assign {port}[{bit}] = {_net_ref(node, net_names)};")

    lines = [
        f"// Generated by repro.hw.verilog from netlist {circ.name!r}",
        f"// {circ.n_gates} cells on the printed EGT library",
        f"module {module} ({', '.join(port_names)});",
        *port_decls,
        *wires,
        *instances,
        *assigns,
        "endmodule",
    ]
    return "\n".join(lines)


def emit_cell_models() -> str:
    """Behavioural Verilog models of the EGT cell set (for simulation)."""
    modules = []
    for name, spec in sorted(EGT_LIBRARY.items()):
        pins = _PINS[spec.n_inputs]
        ports = ", ".join([*pins, "y"])
        decls = "\n".join(f"  input wire {pin};" for pin in pins)
        modules.append(
            f"module {name} ({ports});\n{decls}\n  output wire y;\n"
            f"  {_CELL_BODY[name]}\nendmodule")
    return "\n\n".join(modules)
