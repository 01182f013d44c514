"""Circuit serialization (JSON).

Bespoke circuits are designs a user may want to keep: the exact baseline,
the Pareto-optimal pruned variant selected for printing, intermediate
points of a long exploration.  This module round-trips an
:class:`~repro.hw.synthesis.ArrayCircuit` — structure, ports,
signedness, and the ``kind``/watch-bus meta the pruning pass reads —
through a plain JSON document.

One writer, :func:`encode_netlist`, produces that document straight
from the circuit's rows (no per-gate dicts), in the two forms the design
store needs: the canonical (sorted-key, compact, name-less) bytes
content keys hash, and the compact stored text.  The gate rows dominate
both and are identical in both (their keys are already sorted), so they
are encoded once.  :func:`netlist_to_dict` is that text, parsed.

:func:`netlist_from_dict` decodes a document back into rows.  Stored and
saved documents come from outside the program, so every malformed
document raises ``ValueError``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .compiled import ARITY_OF_OP, CELL_OF_OP, OPCODES
from .synthesis import ArrayCircuit

__all__ = ["netlist_to_dict", "netlist_from_dict", "save_netlist",
           "load_netlist", "EncodedNetlist", "encode_netlist"]

_FORMAT_VERSION = 1

_compact = json.JSONEncoder(separators=(",", ":")).encode
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# One ``%`` template per opcode for a gate row of the document,
# formatted with the uniform ``(ina, inb, inc, out)`` tuple: ``%.0s``
# swallows the operand slots the cell does not have.
_OPERANDS = {1: "%d%.0s%.0s", 2: "%d,%d%.0s", 3: "%d,%d,%d"}
_ROW_OF_OP = [
    '{"cell":%s,"inputs":[%s],"out":%%d}'
    % (json.dumps(cell), _OPERANDS[arity])
    for cell, arity in zip(CELL_OF_OP, ARITY_OF_OP)
]

_DOCUMENT_KEYS = ("name", "input_nets", "gates", "outputs", "output_signed")


class EncodedNetlist(NamedTuple):
    """One circuit, encoded once (see :func:`encode_netlist`)."""

    canonical: bytes  # canonical JSON of the document minus ``name``
    text: str         # compact, insertion-ordered JSON of the document


def netlist_to_dict(circ: ArrayCircuit) -> dict:
    """Plain-data description of a circuit (stable across runs):
    the parsed text of :func:`encode_netlist`."""
    return json.loads(encode_netlist(circ).text)


def netlist_from_dict(data: dict) -> ArrayCircuit:
    """Rebuild a circuit from a :func:`netlist_to_dict` document.

    Nets are renumbered into nodes (input bits from node 2 in bus
    order, gate *k* at node ``n_fixed + k``), exactly as
    ``ArrayCircuit.from_netlist`` numbers a netlist.  The result is
    not marked ``folded``.  Raises ``ValueError`` on an unsupported
    ``format_version``, a missing field, an unknown cell, a wrong
    operand count, a net used before it is defined, a net defined
    twice, or an output bus without its ``output_signed`` entry.
    """
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported netlist format version {version!r}")
    missing = [key for key in _DOCUMENT_KEYS if key not in data]
    if missing:
        raise ValueError(f"netlist document lacks {missing}")
    node_of: dict[int, int] = {0: 0, 1: 1}
    get = node_of.get

    def lookup(nets, what) -> list[int]:
        nodes = [get(net, -1) for net in nets]
        if -1 in nodes:
            raise ValueError(f"{what} reads undefined net "
                             f"{nets[nodes.index(-1)]!r}")
        return nodes

    circ = ArrayCircuit()
    circ.name = data["name"]
    for name, nets in data["input_nets"].items():
        if not nets:
            raise ValueError(f"input bus {name!r} has no bits")
        for net in nets:
            if net in node_of:
                raise ValueError(f"input bus {name!r} redefines net {net!r}")
            node_of[net] = len(node_of)
        circ.input_buses[name] = [node_of[net] for net in nets]
    circ.n_fixed = len(node_of)
    for k, gate in enumerate(data["gates"]):
        op = OPCODES.get(gate.get("cell"))
        if op is None:
            raise ValueError(f"gate {k} has unknown cell {gate.get('cell')!r}")
        inputs = gate.get("inputs", ())
        arity = ARITY_OF_OP[op]
        if len(inputs) != arity:
            raise ValueError(f"gate {k}: {CELL_OF_OP[op]} expects {arity} "
                             f"inputs, got {len(inputs)}")
        operands = [get(net, -1) for net in inputs]
        if -1 in operands:
            raise ValueError(f"gate {k} reads undefined net "
                             f"{inputs[operands.index(-1)]!r}")
        out = gate.get("out")
        if out in node_of:
            raise ValueError(f"gate {k} redefines net {out!r}")
        node_of[out] = len(node_of)
        circ.ops.append(op)
        circ.ina.append(operands[0])
        circ.inb.append(operands[1] if arity > 1 else 0)
        circ.inc.append(operands[2] if arity > 2 else 0)
    signed = data["output_signed"]
    for name, nets in data["outputs"].items():
        if name not in signed:
            raise ValueError(f"output bus {name!r} has no output_signed entry")
        circ.outputs[name] = lookup(nets, f"output bus {name!r}")
        circ.signed[name] = signed[name]
    meta = data.get("meta") or {}
    if meta.get("kind") is not None:
        circ.meta["kind"] = meta["kind"]
    if meta.get("watch_buses") is not None:
        circ.watch = [lookup(bus, "watch bus") for bus in meta["watch_buses"]]
    return circ


def encode_netlist(circuit: ArrayCircuit,
                   name: str | None = None) -> EncodedNetlist:
    """The circuit's document as canonical bytes plus stored text.

    The document numbers nets as ``circuit.to_netlist()`` would — input
    nets allocated in bus declaration order from net 2, gate *k*
    driving the net after them — without building it.  ``canonical``
    equals ``canonical_json`` of the document with ``name`` dropped
    (the content-key hash input); ``text`` is the compact JSON of the
    whole document (keys: ``format_version``, ``name``, ``inputs``,
    ``input_nets``, ``gates``, ``outputs``, ``output_signed``,
    ``meta``), with ``name`` overridden when given.
    """
    input_nets: dict[str, list[int]] = {}
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
    inputs = {bus: len(nets) for bus, nets in input_nets.items()}
    outputs = {bus: list(nodes) for bus, nodes in circuit.outputs.items()}
    signed = {bus: circuit.signed[bus] for bus in outputs}
    watch = circuit.watch
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


def save_netlist(circ: ArrayCircuit, path: str | Path) -> None:
    """Write a circuit to a JSON file."""
    Path(path).write_text(json.dumps(netlist_to_dict(circ)))


def load_netlist(path: str | Path) -> ArrayCircuit:
    """Read a circuit back from :func:`save_netlist` output."""
    return netlist_from_dict(json.loads(Path(path).read_text()))
