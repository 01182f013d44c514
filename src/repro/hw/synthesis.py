"""Netlist optimization — the stand-in for Design Compiler's compile step.

The flow in the paper synthesizes (a) the bespoke RTL emitted for each model
and (b) every pruned netlist variant, relying on the tool's constant
propagation to shrink logic after gates are tied to constants (Section
III-C, step 5).  :func:`synthesize` reproduces that: constant propagation,
algebraic simplification, double-inverter removal, and structural hashing
are iterated to a fixpoint, and every gate outside the fan-in cone of the
primary outputs is stripped.  Gate pruning is expressed through
``force_constants``, which ties selected gate outputs to '0'/'1' before
the rebuild, exactly like replacing the gate with a tie cell.

Two implementations apply the folding rules:

* the **compiled array engine** (the default behind :func:`synthesize`):
  one fold pass replays the flat opcode/operand rows through a
  :class:`~repro.hw.fold.RowFolder` — the rule kernel the array builder
  and the incremental cone rewrite use too — so no intermediate
  :class:`Netlist` objects and no per-gate driver-table lookups.
  Synthesis sits on the design-space-exploration hot path (hundreds of
  resynthesized prune variants per circuit), which is why it is
  compiled alongside the word-parallel simulation engine.

* the **reference builder replay** (:func:`synthesize_reference`): the
  original, readable implementation that replays every gate through the
  folding builders of :class:`~repro.hw.netlist.Netlist`.  The compiled
  engine is equivalence-tested against it gate-for-gate
  (``tests/test_compiled.py``), and it anchors the legacy baseline of
  ``benchmarks/bench_simulate.py``.  Dead logic is stripped *between*
  its folding passes, not only at the end: a pruning tie kills whole
  fanout cones, and stripping their (now unread) fanin logic early
  keeps the fixpoint iteration from re-replaying it.

:func:`synthesize_arrays` also returns the old-node → new-node
correspondence (``-1`` for nodes stripped as dead), which the pruning
exploration uses to locate a base-circuit gate inside its folded form.
"""

from __future__ import annotations

from .compiled import CELL_OF_OP, OP_BUF, OP_INV, OP_MUX, OPCODES
from .fold import RowFolder
from .netlist import CONST0, CONST1, Netlist

__all__ = [
    "ArrayCircuit",
    "synthesize",
    "synthesize_arrays",
    "synthesize_reference",
    "rebuild_folded",
    "strip_dead",
]

_BUILDERS = {
    "INV": "not_",
    "BUF": "buf_",
    "AND2": "and_",
    "OR2": "or_",
    "XOR2": "xor_",
    "XNOR2": "xnor_",
    "NAND2": "nand_",
    "NOR2": "nor_",
    "MUX2": "mux_",
}


def _map_interface(nl: Netlist, new: Netlist, net_map: list[int]) -> None:
    """Copy the input buses of ``nl`` into ``new``, filling ``net_map``."""
    net_map[CONST0] = CONST0
    net_map[CONST1] = CONST1
    for name, nets in nl.input_buses.items():
        new_nets = new.add_input_bus(name, len(nets))
        for old, fresh in zip(nets, new_nets):
            net_map[old] = fresh


def _finish_interface(nl: Netlist, new: Netlist, net_map: list[int]) -> None:
    """Re-declare the output buses of ``nl`` on ``new`` and carry meta."""
    for name, nets in nl.output_buses.items():
        new.set_output_bus(name, [net_map[net] for net in nets],
                           signed=nl.output_signed[name])
    new.meta = _remap_meta(nl.meta, net_map)


def rebuild_folded(nl: Netlist,
                   force_constants: dict[int, int] | None = None) -> Netlist:
    """Replay ``nl`` through the folding builder (see module docstring).

    ``force_constants`` maps *gate indices* of ``nl`` to 0/1; those gates
    are not re-instantiated and their outputs become constant ties, letting
    the folding cascade through the fanout cone (the pruning transform).
    """
    new = Netlist(name=nl.name, cse=True)
    net_map: list[int] = [0] * nl.n_nets
    _map_interface(nl, new, net_map)

    builders = {cell: getattr(new, method)
                for cell, method in _BUILDERS.items()}
    gate_type = nl.gate_type
    gate_inputs = nl.gate_inputs
    gate_out = nl.gate_out
    if force_constants:
        get_forced = force_constants.get
        for gate_idx in range(nl.n_gates):
            out = gate_out[gate_idx]
            forced = get_forced(gate_idx)
            if forced is not None:
                net_map[out] = CONST1 if forced else CONST0
                continue
            ins = gate_inputs[gate_idx]
            builder = builders[gate_type[gate_idx]]
            if len(ins) == 2:
                net_map[out] = builder(net_map[ins[0]], net_map[ins[1]])
            elif len(ins) == 1:
                net_map[out] = builder(net_map[ins[0]])
            else:
                net_map[out] = builder(net_map[ins[0]], net_map[ins[1]],
                                       net_map[ins[2]])
    else:
        for gate_idx in range(nl.n_gates):
            ins = gate_inputs[gate_idx]
            builder = builders[gate_type[gate_idx]]
            if len(ins) == 2:
                result = builder(net_map[ins[0]], net_map[ins[1]])
            elif len(ins) == 1:
                result = builder(net_map[ins[0]])
            else:
                result = builder(net_map[ins[0]], net_map[ins[1]],
                                 net_map[ins[2]])
            net_map[gate_out[gate_idx]] = result

    _finish_interface(nl, new, net_map)
    return new


def strip_dead(nl: Netlist) -> Netlist:
    """Remove every gate not reachable backwards from a primary output.

    This is a pure structural copy (no folding, no hashing), so live
    gates are appended straight into the new netlist's parallel arrays —
    re-validating each one through ``add_gate`` would double the cost of
    every synthesis pass.
    """
    live = nl.live_gates()
    new = Netlist(name=nl.name, cse=False)
    net_map: list[int] = [-1] * nl.n_nets
    _map_interface(nl, new, net_map)
    gate_type = nl.gate_type
    gate_inputs = nl.gate_inputs
    gate_out = nl.gate_out
    for gate_idx in range(nl.n_gates):
        if live[gate_idx]:
            net_map[gate_out[gate_idx]] = new._append_gate_unchecked(
                gate_type[gate_idx],
                tuple(net_map[net] for net in gate_inputs[gate_idx]))
    _finish_interface(nl, new, net_map)
    return new


def _compose(first: list[int], second: list[int]) -> list[int]:
    """Compose two net maps (old → mid → new); ``-1`` stays dead."""
    return [second[net] if net >= 0 else -1 for net in first]


def synthesize_reference(nl: Netlist,
                         force_constants: dict[int, int] | None = None,
                         max_passes: int = 4) -> Netlist:
    """The original builder-replay synthesis (equivalence oracle).

    Same transform and same result as :func:`synthesize`, implemented by
    replaying every gate through the :class:`Netlist` folding builders.
    """
    current = strip_dead(rebuild_folded(nl, force_constants))
    for _ in range(max_passes):
        folded = rebuild_folded(current)
        converged = folded.n_gates == current.n_gates
        current = folded
        if converged:
            break
    return strip_dead(current)


# ----------------------------------------------------------------------
# Compiled array engine
# ----------------------------------------------------------------------
class ArrayCircuit:
    """The circuit every consumer reads: one row per gate in flat lists.

    Gate *k* is opcode ``ops[k]`` over operand nodes ``ina[k]``,
    ``inb[k]`` and ``inc[k]`` (unused slots hold node 0) and owns node
    ``n_fixed + k``.  Nodes 0/1 are the constant ties and input-bus bits
    follow in declaration order.  Rows are topologically sorted: an
    operand always names an earlier node.  (The reference replay uses
    the same interface-first numbering, which is what keeps the two
    synthesis engines structurally identical.)

    Builders, synthesis, the pruner and the store decoder hand out this
    form, and simulation, scoring, pruning, area/power/timing reports
    and the Verilog and JSON exporters read its rows.  A
    :class:`Netlist` (the per-gate builder's IR and the reference
    oracle's) enters through :meth:`from_netlist`; :meth:`to_netlist`
    is the way back for the reference synthesis alone.  Pruning watch
    buses live in ``watch`` (node ids), never in ``meta``.

    ``folded`` marks a circuit already at the fold fixpoint: a fold and
    strip of it would rebuild the very same rows.  Only the passes that
    land there set it (:func:`synthesize_arrays` and the array
    builder's :meth:`~repro.hw.array_builder.ArrayEmitter.
    finish_synthesized`), and a marked circuit's rows are never
    mutated afterwards; the pruner takes such a base as is.
    """

    __slots__ = ("name", "input_buses", "n_fixed", "ops", "ina", "inb",
                 "inc", "levels", "outputs", "signed", "meta", "watch",
                 "folded", "_plan", "__weakref__")

    def __init__(self) -> None:
        self.input_buses: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self.signed: dict[str, bool] = {}
        self.ops: list[int] = []
        self.ina: list[int] = []
        self.inb: list[int] = []
        self.inc: list[int] = []
        # Topological depth per gate, maintained by the folding/strip
        # passes so the simulation plan never re-levelizes the circuit.
        self.levels: list[int] | None = None
        self.meta: dict = {}
        self.watch: list[list[int]] | None = None
        self.folded = False
        self._plan = None

    # -- port and size views --------------------------------------------
    @property
    def n_gates(self) -> int:
        return len(self.ops)

    @property
    def n_nets(self) -> int:
        return self.n_fixed + len(self.ops)

    @property
    def output_buses(self) -> dict[str, list[int]]:
        return self.outputs

    @property
    def output_signed(self) -> dict[str, bool]:
        return self.signed

    def compiled(self):
        """The word-parallel evaluation plan, built on first simulation
        and cached (see :class:`~repro.hw.compiled.CompiledNetlist`)."""
        plan = self._plan
        if plan is None:
            from .compiled import CompiledNetlist
            plan = CompiledNetlist(self)
            self._plan = plan
        return plan

    @staticmethod
    def from_netlist(nl: Netlist) -> tuple["ArrayCircuit", list[int]]:
        """Convert; also return the original-net → node correspondence."""
        circ = ArrayCircuit()
        circ.name = nl.name
        node_of: list[int] = [0] * nl.n_nets
        node_of[CONST1] = 1
        next_id = 2
        for name, nets in nl.input_buses.items():
            ids = []
            for net in nets:
                node_of[net] = next_id
                ids.append(next_id)
                next_id += 1
            circ.input_buses[name] = ids
        circ.n_fixed = next_id
        ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
        gate_out = nl.gate_out
        for k, ins in enumerate(nl.gate_inputs):
            ops.append(OPCODES[nl.gate_type[k]])
            ina.append(node_of[ins[0]])
            inb.append(node_of[ins[1]] if len(ins) > 1 else 0)
            inc.append(node_of[ins[2]] if len(ins) > 2 else 0)
            node_of[gate_out[k]] = next_id + k
        for name, nets in nl.output_buses.items():
            circ.outputs[name] = [node_of[net] for net in nets]
            circ.signed[name] = nl.output_signed[name]
        circ.meta = dict(nl.meta)
        watch = circ.meta.pop("watch_buses", None)
        if watch is not None:
            circ.watch = [[node_of[net] for net in bus] for bus in watch]
        return circ, node_of

    def to_netlist(self) -> Netlist:
        """The builder IR (node ids become net ids), for the reference
        synthesis replay; every other consumer reads the rows."""
        new = Netlist(name=self.name, cse=False)
        for name, ids in self.input_buses.items():
            new.add_input_bus(name, len(ids))
        ops, ina, inb, inc = self.ops, self.ina, self.inb, self.inc
        cells = CELL_OF_OP
        for k in range(len(ops)):
            op = ops[k]
            if op == OP_MUX:
                inputs = (ina[k], inb[k], inc[k])
            elif op == OP_INV or op == OP_BUF:
                inputs = (ina[k],)
            else:
                inputs = (ina[k], inb[k])
            new._append_gate_unchecked(cells[op], inputs)
        for name, nodes in self.outputs.items():
            new.set_output_bus(name, nodes, signed=self.signed[name])
        meta = dict(self.meta)
        if self.watch is not None:
            meta["watch_buses"] = [list(bus) for bus in self.watch]
        new.meta = meta
        return new

    def _shell(self) -> "ArrayCircuit":
        """A copy with the interface of ``self`` and no gates yet."""
        out = ArrayCircuit()
        out.name = self.name
        out.input_buses = self.input_buses
        out.n_fixed = self.n_fixed
        out.meta = self.meta
        return out


def _fold_arrays(circ: ArrayCircuit,
                 force_by_node: dict[int, int] | None
                 ) -> tuple[ArrayCircuit, list[int], bool]:
    """One folding pass over the arrays; returns (circuit, map, changed).

    Replays every row, in order, through a fresh
    :class:`~repro.hw.fold.RowFolder`, tying the nodes in
    ``force_by_node`` to their constants on the way.  ``changed`` is
    False when the pass was the identity transform (every gate
    re-created verbatim), which lets callers skip the rebuilt circuit.
    """
    n_fixed = circ.n_fixed
    node_map: list[int] = list(range(n_fixed))
    append_map = node_map.append
    ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
    folder = RowFolder(n_fixed)
    fold = folder.fold
    new_ops = folder.ops
    changed = False

    forced_get = force_by_node.get if force_by_node else None
    if force_by_node:
        for node, value in force_by_node.items():
            if 1 < node < n_fixed:
                node_map[node] = 1 if value else 0
                changed = True

    for k in range(len(ops)):
        node = n_fixed + k
        if forced_get is not None:
            forced = forced_get(node)
            if forced is not None:
                append_map(1 if forced else 0)
                changed = True
                continue
        op = ops[k]
        result = fold(op, node_map[ina[k]], node_map[inb[k]],
                      node_map[inc[k]])
        # A gate re-created in place may still have changed cell (a
        # NAND of one operand folds to its INV).
        if result != node or new_ops[k] != op:
            changed = True
        append_map(result)

    out = circ._shell()
    out.ops, out.ina, out.inb, out.inc = (new_ops, folder.ina, folder.inb,
                                          folder.inc)
    out.levels = folder.levels
    for name, nodes in circ.outputs.items():
        out.outputs[name] = [node_map[n] for n in nodes]
        out.signed[name] = circ.signed[name]
    if circ.watch is not None:
        out.watch = [[node_map[n] for n in bus] for bus in circ.watch]
    return out, node_map, changed


def _strip_arrays(circ: ArrayCircuit) -> tuple[ArrayCircuit, list[int]]:
    """Array form of the dead-gate strip; dead nodes map to ``-1``."""
    n_fixed = circ.n_fixed
    ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
    levels = circ.levels
    n_gates = len(ops)
    live = bytearray(n_fixed + n_gates)
    for nodes in circ.outputs.values():
        for node in nodes:
            live[node] = 1
    for k in range(n_gates - 1, -1, -1):
        if live[n_fixed + k]:
            op = ops[k]
            live[ina[k]] = 1
            if op != OP_INV and op != OP_BUF:
                live[inb[k]] = 1
                if op == OP_MUX:
                    live[inc[k]] = 1

    # Every gate live (common for small array-emitted circuits): the
    # strip is the identity — skip the rebuild.
    if live.find(0, n_fixed) == -1:
        return circ, list(range(n_fixed + n_gates))

    node_map: list[int] = list(range(n_fixed))
    new_ops: list[int] = []
    new_a: list[int] = []
    new_b: list[int] = []
    new_c: list[int] = []
    new_levels: list[int] | None = [] if levels is not None else None
    append_map = node_map.append
    append_op = new_ops.append
    append_a = new_a.append
    append_b = new_b.append
    append_c = new_c.append
    next_id = n_fixed
    for k in range(n_gates):
        if live[n_fixed + k]:
            append_op(ops[k])
            append_a(node_map[ina[k]])
            append_b(node_map[inb[k]])
            append_c(node_map[inc[k]])
            if new_levels is not None:
                new_levels.append(levels[k])
            append_map(next_id)
            next_id += 1
        else:
            append_map(-1)

    out = circ._shell()
    out.ops, out.ina, out.inb, out.inc = new_ops, new_a, new_b, new_c
    out.levels = new_levels
    for name, nodes in circ.outputs.items():
        out.outputs[name] = [node_map[n] for n in nodes]
        out.signed[name] = circ.signed[name]
    if circ.watch is not None:
        # Watch nets whose whole fanout was pruned away clamp to the
        # constant-zero tie, matching _remap_meta.
        out.watch = [[node_map[n] if node_map[n] >= 0 else CONST0
                      for n in bus] for bus in circ.watch]
    return out, node_map


def synthesize_arrays(circ: ArrayCircuit,
                      force_by_node: dict[int, int] | None = None
                      ) -> tuple[ArrayCircuit, list[int]]:
    """Fold + strip an array circuit; returns (circuit, node map).

    One fold pass is already a fixpoint of the folding rules: it visits
    gates in topological order, so every operand is fully folded before
    its consumers, in-pass structural hashing removes every duplicate,
    and a complement pair is always registered before any gate that could
    fold over it.  The reference loop's confirmation passes are therefore
    structural identities (the equivalence property tests pin this down),
    and the compiled engine runs exactly one fold and one strip.
    """
    current, total_map, _ = _fold_arrays(circ, force_by_node or None)
    current, step_map = _strip_arrays(current)
    current.folded = True
    return current, _compose(total_map, step_map)


def synthesize(nl: Netlist,
               force_constants: dict[int, int] | None = None
               ) -> ArrayCircuit:
    """Optimize a netlist (optionally pruning gates) to a fixpoint.

    Converts the per-gate builder IR once and runs one fold and one
    strip on the compiled array engine (see :func:`synthesize_arrays`);
    the result is a ``folded`` :class:`ArrayCircuit`.
    :func:`synthesize_reference` is the builder-replay equivalent,
    iterated to convergence.
    """
    circ, _node_of = ArrayCircuit.from_netlist(nl)
    force_by_node = None
    if force_constants:
        n_fixed = circ.n_fixed
        force_by_node = {n_fixed + gate_idx: value
                         for gate_idx, value in force_constants.items()}
    return synthesize_arrays(circ, force_by_node)[0]


def _remap_meta(meta: dict, net_map: list[int]) -> dict:
    """Carry builder metadata across a rebuild, remapping net references.

    Only the ``watch_buses`` key (lists of nets observed by the pruning
    pass, e.g. pre-argmax neuron buses) contains nets; everything else is
    copied verbatim.
    """
    if not meta:
        return {}
    remapped = dict(meta)
    if "watch_buses" in meta:
        # Watch nets whose whole fanout was pruned away map to the
        # constant-zero tie (matching the historical strip behavior)
        # rather than leaking the dead-net marker.
        remapped["watch_buses"] = [
            [net_map[net] if net_map[net] >= 0 else CONST0 for net in bus]
            for bus in meta["watch_buses"]
        ]
    return remapped
