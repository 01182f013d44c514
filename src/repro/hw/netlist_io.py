"""Netlist serialization (JSON).

Bespoke circuits are designs a user may want to keep: the exact baseline,
the Pareto-optimal pruned variant selected for printing, intermediate
points of a long exploration.  This module round-trips a
:class:`~repro.hw.netlist.Netlist` — structure, ports, signedness, and the
``meta`` used by the pruning pass — through a plain JSON document.

:func:`encode_netlist` writes that document straight from a circuit —
a ``Netlist`` or a synthesis :class:`~repro.hw.synthesis.ArrayCircuit`,
with no per-gate dicts and no ``Netlist`` materialization — in the two
forms the design store needs: the canonical (sorted-key, compact,
name-less) bytes content keys hash, and the compact stored text.  The
gate rows dominate both and are identical in both (their keys are
already sorted), so they are encoded once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .cells import EGT_LIBRARY
from .compiled import OPCODES
from .netlist import Netlist

__all__ = ["netlist_to_dict", "netlist_from_dict", "save_netlist",
           "load_netlist", "EncodedNetlist", "encode_netlist"]

_FORMAT_VERSION = 1

_compact = json.JSONEncoder(separators=(",", ":")).encode
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# One ``%`` template per opcode for a gate row of the ``netlist_to_dict``
# document, formatted with the uniform ``(ina, inb, inc, out)`` tuple:
# ``%.0s`` swallows the operand slots the cell does not have.
_OPERANDS = {1: "%d%.0s%.0s", 2: "%d,%d%.0s", 3: "%d,%d,%d"}
_ROW_OF_OP = [
    '{"cell":%s,"inputs":[%s],"out":%%d}'
    % (json.dumps(cell), _OPERANDS[EGT_LIBRARY[cell].n_inputs])
    for cell in sorted(OPCODES, key=OPCODES.get)
]


class EncodedNetlist(NamedTuple):
    """One netlist, encoded once (see :func:`encode_netlist`)."""

    canonical: bytes  # canonical JSON of the document minus ``name``
    text: str         # compact, insertion-ordered JSON of the document


def netlist_to_dict(nl: Netlist) -> dict:
    """Plain-data description of a netlist (stable across sessions)."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": nl.name,
        "inputs": {name: len(nets) for name, nets in nl.input_buses.items()},
        "input_nets": {name: list(nets)
                       for name, nets in nl.input_buses.items()},
        "gates": [
            {"cell": nl.gate_type[i],
             "inputs": list(nl.gate_inputs[i]),
             "out": nl.gate_out[i]}
            for i in range(nl.n_gates)
        ],
        "outputs": {name: list(nets)
                    for name, nets in nl.output_buses.items()},
        "output_signed": dict(nl.output_signed),
        "meta": {
            "kind": nl.meta.get("kind"),
            "watch_buses": nl.meta.get("watch_buses"),
        },
    }


def netlist_from_dict(data: dict) -> Netlist:
    """Rebuild a netlist from :func:`netlist_to_dict` output."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported netlist format version {version!r}")
    nl = Netlist(name=data["name"], cse=False)
    net_map: dict[int, int] = {0: 0, 1: 1}
    for name, old_nets in data["input_nets"].items():
        new_nets = nl.add_input_bus(name, len(old_nets))
        for old, new in zip(old_nets, new_nets):
            net_map[old] = new
    for gate in data["gates"]:
        mapped = [net_map[net] for net in gate["inputs"]]
        net_map[gate["out"]] = nl.add_gate(gate["cell"], *mapped)
    for name, nets in data["outputs"].items():
        nl.set_output_bus(name, [net_map[net] for net in nets],
                          signed=data["output_signed"][name])
    meta = data.get("meta") or {}
    if meta.get("kind") is not None:
        nl.meta["kind"] = meta["kind"]
    if meta.get("watch_buses") is not None:
        nl.meta["watch_buses"] = [
            [net_map[net] for net in bus] for bus in meta["watch_buses"]]
    return nl


def encode_netlist(circuit, name: str | None = None) -> EncodedNetlist:
    """``netlist_to_dict(circuit)`` as canonical bytes plus stored text.

    ``circuit`` is a :class:`Netlist` or an array circuit; an array
    circuit encodes exactly as its ``to_netlist()`` would — input nets
    allocated in bus declaration order from net 2, gate *k* driving the
    net after them — without building it.  ``canonical`` equals
    ``canonical_json`` of the document with ``name`` dropped (the
    content-key hash input); ``text`` is the compact JSON of the whole
    document, keys in :func:`netlist_to_dict` order, with ``name``
    overridden when given.
    """
    input_nets: dict[str, list[int]] = {}
    if isinstance(circuit, Netlist):
        for bus, nets in circuit.input_buses.items():
            input_nets[bus] = list(nets)
        cells = {cell: json.dumps(cell) for cell in set(circuit.gate_type)}
        gates = ",".join([
            f'{{"cell":{cells[cell]},"inputs":[{",".join(map(str, ins))}]'
            f',"out":{out}}}'
            for cell, ins, out in zip(circuit.gate_type, circuit.gate_inputs,
                                      circuit.gate_out)])
        outputs = circuit.output_buses
        signed = circuit.output_signed
        watch = circuit.meta.get("watch_buses")
    else:
        net = 2  # nets 0/1 are the constant ties
        for bus, nodes in circuit.input_buses.items():
            input_nets[bus] = list(range(net, net + len(nodes)))
            net += len(nodes)
        ops, ina, inb, inc = circuit.ops, circuit.ina, circuit.inb, circuit.inc
        rows = _ROW_OF_OP
        gates = ",".join([
            rows[op] % (a, b, c, out)
            for op, a, b, c, out in zip(ops, ina, inb, inc,
                                        range(net, net + len(ops)))])
        outputs = circuit.outputs
        signed = {bus: circuit.signed[bus] for bus in outputs}
        watch = circuit.watch
    inputs = {bus: len(nets) for bus, nets in input_nets.items()}
    outputs = {bus: list(nets) for bus, nets in outputs.items()}
    meta = {"kind": circuit.meta.get("kind"),
            "watch_buses": None if watch is None
            else [list(bus) for bus in watch]}
    canonical = (
        f'{{"format_version":{_FORMAT_VERSION},"gates":[{gates}],'
        f'"input_nets":{_canonical(input_nets)},"inputs":{_canonical(inputs)},'
        f'"meta":{_canonical(meta)},"output_signed":{_canonical(signed)},'
        f'"outputs":{_canonical(outputs)}}}')
    text = (
        f'{{"format_version":{_FORMAT_VERSION},'
        f'"name":{_compact(circuit.name if name is None else name)},'
        f'"inputs":{_compact(inputs)},"input_nets":{_compact(input_nets)},'
        f'"gates":[{gates}],"outputs":{_compact(outputs)},'
        f'"output_signed":{_compact(signed)},"meta":{_compact(meta)}}}')
    return EncodedNetlist(canonical.encode("utf-8"), text)


def save_netlist(nl: Netlist, path: str | Path) -> None:
    """Write a netlist to a JSON file."""
    Path(path).write_text(json.dumps(netlist_to_dict(nl)))


def load_netlist(path: str | Path) -> Netlist:
    """Read a netlist back from :func:`save_netlist` output."""
    return netlist_from_dict(json.loads(Path(path).read_text()))
