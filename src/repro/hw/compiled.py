"""Compiled word-parallel netlist simulation engine.

This is the fast evaluation backend behind :func:`repro.hw.simulate.simulate`.
Instead of carrying one arbitrary-precision Python integer per net (the
legacy reference engine, kept in :mod:`repro.hw.simulate` as an equivalence
oracle), the stimulus is packed into a dense ``(n_nets, n_words)`` ``uint64``
matrix: bit *i* of the row of a net is the net's logic value for test vector
*i* (vector *i* lives in word ``i // 64``, bit ``i % 64``).

A :class:`CompiledNetlist` is a reusable evaluation plan built once per
netlist (and cached on it via :meth:`repro.hw.netlist.Netlist.compiled`):
the gate DAG is levelized so that every level only reads nets produced by
earlier levels, and each level is split into per-opcode gate groups.  One
simulation is then a short sequence of vectorized NumPy bitwise operations
— gather the operand rows of a group, apply a single ``&``/``|``/``^``/
``~``/mux expression across all of its gates and all stimulus words at
once, scatter into the value matrix.  Switching-activity statistics
(``prob_one``, ``tau``, toggle rates) and output-bus decoding become
popcount/unpack array reductions instead of per-net bigint loops.

Bits of the last stimulus word past ``n_vectors`` ("tail" bits) are allowed
to hold garbage between operations; every reduction masks them out, which
keeps the per-gate inner loop free of masking work.

On top of the single-circuit engine sits the *batched multi-variant*
engine (:class:`BatchedEvaluator`): K constant-tie variants of one
parent circuit — the pruning exploration's sibling designs — are packed
into a single ``(n_nets, K, n_words)`` evaluation of the parent's plan,
with per-variant constant-clamp masks (:class:`VariantSpec`) standing in
for the rewritten structure.  One plan build and one NumPy pass per
level then serve the whole batch; per-variant read access comes back
through :class:`BatchedVariantSim`, which mirrors the
:class:`CompiledSimulation` API.  This is the exploration fast path
``engine="auto"`` resolves to on supported hosts in
:class:`~repro.eval.accuracy.CircuitEvaluator`,
:class:`~repro.core.pruning.NetlistPruner`, and
:class:`~repro.core.cross_layer.CrossLayerFramework`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

# Lazy bridge to the service telemetry hub (the ``fault_point`` pattern
# from core/pruning.py): plan builds and batch sizes are the engine-side
# metrics ``/v1/metrics`` reports, but hw must never import the service
# package at module level — ``service -> core -> hw`` stays the only
# import direction, resolved on first use.
_telemetry = None


def _service_telemetry():
    global _telemetry
    if _telemetry is None:
        from ..service import telemetry as resolved
        _telemetry = resolved
    return _telemetry


__all__ = [
    "BatchedEvaluator",
    "BatchedVariantSim",
    "CircuitPorts",
    "CompiledNetlist",
    "CompiledSimulation",
    "HOST_SUPPORTS_COMPILED",
    "MultiNetlistSim",
    "MultiNetlistView",
    "VariantSpec",
    "pack_bit_matrix",
    "pack_stimulus",
    "unpack_bit_matrix",
]

# The word layout (uint8 views of uint64 words) assumes a little-endian
# host; on anything else :func:`repro.hw.simulate.simulate` silently falls
# back to the bigint reference engine.
HOST_SUPPORTS_COMPILED = sys.byteorder == "little"

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# Opcodes of the evaluation plan, shared with the legacy engine's tables.
OP_INV, OP_BUF, OP_AND, OP_OR, OP_XOR, OP_XNOR, OP_NAND, OP_NOR, OP_MUX = \
    range(9)

OPCODES = {
    "INV": OP_INV, "BUF": OP_BUF, "AND2": OP_AND, "OR2": OP_OR,
    "XOR2": OP_XOR, "XNOR2": OP_XNOR, "NAND2": OP_NAND, "NOR2": OP_NOR,
    "MUX2": OP_MUX,
}


if hasattr(np, "bitwise_count"):
    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        """Total set bits per row of a 2-D uint64 array."""
        # einsum sums the short word axis about twice as fast as .sum().
        return np.einsum("...w->...", np.bitwise_count(words),
                         dtype=np.int64)

    # Same reduction works for any rank; keep one implementation.
    _popcount_last = _popcount_rows
else:  # NumPy < 2.0
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.uint8)

    def _popcount_rows(words: np.ndarray) -> np.ndarray:
        as_bytes = words.reshape(words.shape[0], -1).view(np.uint8)
        return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.int64)

    def _popcount_last(words: np.ndarray) -> np.ndarray:
        as_bytes = np.ascontiguousarray(words).view(np.uint8)
        return _POPCOUNT8[as_bytes].sum(axis=-1, dtype=np.int64)


def _valid_mask(n_bits: int, n_words: int) -> np.ndarray:
    """Per-word mask with the first ``n_bits`` global bit positions set."""
    mask = np.zeros(n_words, dtype=np.uint64)
    full = n_bits // _WORD_BITS
    mask[:full] = _ALL_ONES
    rem = n_bits % _WORD_BITS
    if rem and full < n_words:
        mask[full] = np.uint64((1 << rem) - 1)
    return mask


def _toggle_counts(vals: np.ndarray, toggle_mask: np.ndarray,
                   shifted: np.ndarray | None = None,
                   carry: np.ndarray | None = None) -> np.ndarray:
    """Toggle counts of tail-clean word rows, one per row (last axis).

    Toggle i compares vectors i and i+1: XOR each row with its one-bit
    right shift (bit 0 of the next word carried into bit 63), then drop
    the invalid flip at position n-1 with ``toggle_mask``
    (``_valid_mask(n - 1, n_words)``).  ``shifted`` and ``carry`` are
    optional scratch arrays of ``vals``' shape.
    """
    shifted = np.right_shift(vals, np.uint64(1), out=shifted)
    if vals.shape[-1] > 1:
        shifted[..., :-1] |= np.left_shift(
            vals[..., 1:], np.uint64(_WORD_BITS - 1),
            out=None if carry is None else carry[..., :-1])
    shifted ^= vals
    shifted &= toggle_mask
    return _popcount_last(shifted)


def pack_bit_matrix(bits: np.ndarray, n_words: int) -> np.ndarray:
    """Pack a ``(rows, n_vectors)`` 0/1 matrix into ``(rows, n_words)`` words."""
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((bits.shape[0], n_words * 8), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view(np.uint64)


def unpack_bit_matrix(words: np.ndarray, n_vectors: int) -> np.ndarray:
    """Inverse of :func:`pack_bit_matrix`: ``(rows, n_vectors)`` 0/1 bits."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :n_vectors]


def pack_stimulus(arrays: dict[str, np.ndarray], widths: dict[str, int],
                  n_vectors: int) -> dict[str, np.ndarray]:
    """Pack per-bus integer stimulus into word rows, one matrix per bus.

    The result only depends on the stimulus and bus widths — not on any
    particular netlist variant — so callers that score many variants of
    one circuit (the pruning exploration) pack once and pass the rows to
    :meth:`CompiledNetlist.simulate`.
    """
    n_words = max(1, (n_vectors + _WORD_BITS - 1) // _WORD_BITS)
    packed: dict[str, np.ndarray] = {}
    for name, data in arrays.items():
        positions = np.arange(widths[name], dtype=np.int64)
        bits = (data[None, :] >> positions[:, None]) & 1
        packed[name] = pack_bit_matrix(bits, n_words)
    return packed


def _run_levels(words: np.ndarray, levels_plan: list,
                max_level_width: int) -> None:
    """Evaluate a levelized plan in place over 2-D ``uint64`` words.

    One gather, a handful of in-place ufuncs over contiguous opcode
    segments, and one scatter per *level*; scratch slabs sized to the
    widest level avoid per-level reallocation.  Shared by the
    single-netlist engine (:meth:`CompiledNetlist.simulate`) and the
    multi-netlist engine (:meth:`MultiNetlistSim.evaluate`) — one loop,
    one place for opcode semantics, so the engines cannot drift.  (The
    batched multi-variant engine keeps its own 3-D loop: it interleaves
    per-variant constant clamps and activity counting with the levels.)
    """
    max_rows = max(max_level_width, 1)
    n_words = words.shape[1]
    scratch_a = np.empty((max_rows, n_words), dtype=np.uint64)
    scratch_b = np.empty((max_rows, n_words), dtype=np.uint64)
    take = np.take
    for out, a, b, segments in levels_plan:
        rows = len(a)
        va_all = take(words, a, 0, out=scratch_a[:rows])
        vb_all = take(words, b, 0, out=scratch_b[:rows]) \
            if b is not None else None
        for op, s, e, c in segments:
            va = va_all[s:e]
            if op == OP_AND:
                np.bitwise_and(va, vb_all[s:e], out=va)
            elif op == OP_XOR:
                np.bitwise_xor(va, vb_all[s:e], out=va)
            elif op == OP_OR:
                np.bitwise_or(va, vb_all[s:e], out=va)
            elif op == OP_INV:
                np.invert(va, out=va)
            elif op == OP_NAND:
                np.bitwise_and(va, vb_all[s:e], out=va)
                np.invert(va, out=va)
            elif op == OP_NOR:
                np.bitwise_or(va, vb_all[s:e], out=va)
                np.invert(va, out=va)
            elif op == OP_XNOR:
                np.bitwise_xor(va, vb_all[s:e], out=va)
                np.invert(va, out=va)
            elif op == OP_MUX:
                sel = words[c]
                va[:] = (va & ~sel) | (vb_all[s:e] & sel)
            # OP_BUF: va already holds the source rows
        words[out] = va_all


class CircuitPorts:
    """The port interface of a circuit: its bus maps, no gates.

    A plan keeps this view instead of its circuit.  Circuits cache their
    plan, so a plan → circuit reference would make every evaluated
    circuit cyclic garbage, freed only by the cyclic collector; the
    plan's simulations only ever read the ports.
    """

    __slots__ = ("input_buses", "output_buses", "output_signed")

    def __init__(self, circuit) -> None:
        self.input_buses = circuit.input_buses
        self.output_buses = circuit.output_buses
        self.output_signed = circuit.output_signed


class CompiledNetlist:
    """Levelized per-opcode evaluation plan for one circuit.

    The plan is immutable and only depends on circuit structure, so it is
    built once and reused across every simulation of the circuit (training
    activity, test-set scoring, benchmarks).  Construction is a single
    linear sweep over the topologically-sorted gate list — from either a
    :class:`~repro.hw.netlist.Netlist` or the flat-array form the
    synthesis engine produces (:meth:`from_arrays`), so the exploration
    hot path never has to materialize netlist objects just to simulate.
    """

    def __init__(self, nl) -> None:
        self.netlist = CircuitPorts(nl)
        self.n_nets = nl.n_nets
        self.n_gates = nl.n_gates
        self.gate_out = np.asarray(nl.gate_out, dtype=np.int64) \
            if nl.n_gates else np.zeros(0, dtype=np.int64)

        n_gates = nl.n_gates
        if n_gates == 0:
            self._empty_plan()
            return

        # Levelize: a net's level is the level of its driving gate (inputs
        # and constants sit at level 0), a gate is one past its deepest
        # operand.  Plain lists here: this constructor runs once per
        # evaluated design variant, and NumPy scalar stores would triple
        # its cost.
        net_level = [0] * nl.n_nets
        gate_inputs = nl.gate_inputs
        gate_out = nl.gate_out
        gate_type = nl.gate_type
        opcodes = OPCODES
        levels = [0] * n_gates
        ops = [0] * n_gates
        in0 = [0] * n_gates
        in1 = [0] * n_gates
        in2 = [0] * n_gates
        for i in range(n_gates):
            ins = gate_inputs[i]
            depth = net_level[ins[0]]
            in0[i] = ins[0]
            if len(ins) > 1:
                in1[i] = ins[1]
                other = net_level[ins[1]]
                if other > depth:
                    depth = other
                if len(ins) > 2:
                    in2[i] = ins[2]
                    other = net_level[ins[2]]
                    if other > depth:
                        depth = other
            depth += 1
            net_level[gate_out[i]] = depth
            levels[i] = depth
            ops[i] = opcodes[gate_type[i]]
        self._build_plan(np.array(ops, dtype=np.int64),
                         np.array(in0, dtype=np.int64),
                         np.array(in1, dtype=np.int64),
                         np.array(in2, dtype=np.int64),
                         self.gate_out,
                         np.array(levels, dtype=np.int64))

    def _empty_plan(self) -> None:
        self.levels_plan = []
        self.n_levels = 0
        self.max_level_width = 0
        empty = np.zeros(0, dtype=np.int64)
        self.flat = (empty, empty, empty, empty, empty, empty)

    def _build_plan(self, ops: np.ndarray, ina: np.ndarray, inb: np.ndarray,
                    inc: np.ndarray, out: np.ndarray,
                    levels: np.ndarray) -> None:
        """Group gates into per-level slabs with per-opcode segments.

        One simulation step then needs only a gather, a few in-place
        ufuncs over contiguous segment views, and one scatter *per
        level* — NumPy call count scales with circuit depth, not with
        (depth × opcode) group count.
        """
        _service_telemetry().counter("engine.plan_builds")
        n_gates = len(ops)
        combined = levels << np.int64(4) | ops
        if not np.all(combined[1:] >= combined[:-1]):
            order = np.lexsort((ops, levels))
            ops = ops[order]
            ina = ina[order]
            inb = inb[order]
            inc = inc[order]
            out = out[order]
            levels = levels[order]
        level_bounds = np.flatnonzero(np.diff(levels) != 0)
        level_starts = np.concatenate(([0], level_bounds + 1))
        level_ends = np.concatenate((level_bounds + 1, [n_gates]))
        op_bounds = np.flatnonzero((np.diff(levels) != 0)
                                   | (np.diff(ops) != 0))
        seg_starts = np.concatenate(([0], op_bounds + 1)).tolist()
        seg_ends = np.concatenate((op_bounds + 1, [n_gates])).tolist()

        plan = []
        seg_idx = 0
        n_segs = len(seg_starts)
        for ls, le in zip(level_starts.tolist(), level_ends.tolist()):
            segments = []
            needs_b = False
            while seg_idx < n_segs and seg_starts[seg_idx] < le:
                s, e = seg_starts[seg_idx], seg_ends[seg_idx]
                op = int(ops[s])
                c = inc[s:e] if op == OP_MUX else None
                if op != OP_INV and op != OP_BUF:
                    needs_b = True
                segments.append((op, s - ls, e - ls, c))
                seg_idx += 1
            plan.append((out[ls:le], ina[ls:le],
                         inb[ls:le] if needs_b else None, segments))
        self.levels_plan = plan
        self.n_levels = len(plan)
        self.max_level_width = int(
            (level_ends - level_starts).max()) if n_gates else 0
        # Flat (level, op)-sorted gate arrays, retained for the
        # multi-netlist merge (:class:`MultiNetlistSim`): B plans
        # concatenate and re-plan in one vectorized pass instead of
        # re-walking their per-level segment lists in Python.
        self.flat = (ops, ina, inb, inc, out, levels)

    @staticmethod
    def from_arrays(circ) -> "CompiledNetlist":
        """Build a plan straight from a synthesis-engine array circuit.

        ``circ`` is an :class:`~repro.hw.synthesis.ArrayCircuit`: opcodes
        and operand node ids in flat lists, node ``n_fixed + k`` owned by
        gate *k*.  Skipping the netlist round-trip roughly halves the
        per-variant evaluation cost of the pruning exploration.
        """
        plan = CompiledNetlist.__new__(CompiledNetlist)
        plan.netlist = CircuitPorts(circ)
        n_fixed = circ.n_fixed
        ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
        n_gates = len(ops)
        plan.n_nets = n_fixed + n_gates
        plan.n_gates = n_gates
        plan.gate_out = np.arange(n_fixed, n_fixed + n_gates, dtype=np.int64)

        if n_gates == 0:
            plan._empty_plan()
            return plan

        levels = getattr(circ, "levels", None)
        if levels is None:
            # Derive per-gate depth (synthesis-produced circuits carry it).
            levels = [0] * n_gates
            net_level = [0] * (n_fixed + n_gates)
            for k in range(n_gates):
                op = ops[k]
                depth = net_level[ina[k]]
                if op != OP_INV and op != OP_BUF:
                    other = net_level[inb[k]]
                    if other > depth:
                        depth = other
                    if op == OP_MUX:
                        other = net_level[inc[k]]
                        if other > depth:
                            depth = other
                depth += 1
                net_level[n_fixed + k] = depth
                levels[k] = depth

        # asarray: the exploration's snapshots already arrive as sorted
        # ndarrays, so this path is copy- and sort-free for them.
        plan._build_plan(np.asarray(ops, dtype=np.int64),
                         np.asarray(ina, dtype=np.int64),
                         np.asarray(inb, dtype=np.int64),
                         np.asarray(inc, dtype=np.int64),
                         plan.gate_out,
                         np.asarray(levels, dtype=np.int64))
        return plan

    # ------------------------------------------------------------------
    def simulate(self, inputs: dict[str, np.ndarray], n_vectors: int,
                 packed: dict[str, np.ndarray] | None = None
                 ) -> "CompiledSimulation":
        """Evaluate pre-validated input arrays over the whole stimulus set.

        ``inputs`` maps each input bus to an ``int64`` array of bus values
        (one per vector); validation lives in :func:`repro.hw.simulate.simulate`.
        ``packed`` optionally supplies the word rows per bus as produced
        by :func:`pack_stimulus` — the evaluator packs its fixed test set
        once and reuses it for every explored variant.
        """
        n_words = max(1, (n_vectors + _WORD_BITS - 1) // _WORD_BITS)
        words = np.zeros((self.n_nets, n_words), dtype=np.uint64)
        words[1, :] = _ALL_ONES  # constant-one tie; tail bits masked later

        nl = self.netlist
        for name, nets in nl.input_buses.items():
            if packed is not None:
                rows = packed[name]
            else:
                data = inputs[name]
                positions = np.arange(len(nets), dtype=np.int64)
                bits = (data[None, :] >> positions[:, None]) & 1
                rows = pack_bit_matrix(bits, n_words)
            words[np.asarray(nets, dtype=np.int64)] = rows

        _run_levels(words, self.levels_plan, self.max_level_width)
        return CompiledSimulation(nl, n_vectors, words, self)


@dataclass
class CompiledSimulation:
    """All net waveforms of one compiled simulation run.

    Mirrors the read API of the legacy
    :class:`~repro.hw.simulate.SimulationResult` (``bus_ints``,
    ``decode_bus``, ``prob_one``, ``activity``) on top of the packed word
    matrix, so every consumer works with either engine.
    """

    netlist: object  # the circuit's ports (CircuitPorts)
    n_vectors: int
    words: np.ndarray  # (n_nets, n_words) uint64, tail bits undefined
    plan: CompiledNetlist

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def net_bits(self, net: int) -> np.ndarray:
        """The 0/1 waveform of one net across all vectors."""
        return unpack_bit_matrix(self.words[net:net + 1],
                                 self.n_vectors)[0]

    def bus_ints(self, name: str) -> np.ndarray:
        """Decode an output bus to per-vector integers (LSB-first bus)."""
        nets = self.netlist.output_buses[name]
        signed = self.netlist.output_signed[name]
        return self.decode_bus(nets, signed)

    def decode_bus(self, nets: list[int], signed: bool) -> np.ndarray:
        if not nets:
            return np.zeros(self.n_vectors, dtype=np.int64)
        rows = self.words[np.asarray(nets, dtype=np.int64)]
        bits = unpack_bit_matrix(rows, self.n_vectors).astype(np.int64)
        weights = np.int64(1) << np.arange(len(nets), dtype=np.int64)
        values = weights @ bits
        if signed:
            values -= bits[-1] << np.int64(len(nets))
        return values

    def prob_one(self, net: int) -> float:
        mask = _valid_mask(self.n_vectors, self.n_words)
        ones = _popcount_rows(self.words[net:net + 1] & mask)
        return float(ones[0]) / self.n_vectors

    def activity(self):
        """Per-gate :class:`~repro.hw.simulate.ActivityReport` (SAIF stand-in)."""
        from .simulate import ActivityReport  # deferred: avoids module cycle

        n = self.n_vectors
        n_gates = self.plan.n_gates
        if n_gates == 0:
            empty = np.zeros(0)
            zeros_int = np.zeros(0, dtype=np.int64)
            return ActivityReport(0, empty, empty,
                                  np.zeros(0, dtype=np.int8), empty,
                                  zeros_int, zeros_int, n)
        vals = self.words[self.plan.gate_out]
        vals &= _valid_mask(n, self.n_words)[None, :]
        ones = _popcount_rows(vals)
        prob = ones / n
        if n > 1:
            flips = _toggle_counts(vals, _valid_mask(n - 1, self.n_words))
            toggles = flips / (n - 1)
        else:
            flips = np.zeros(n_gates, dtype=np.int64)
            toggles = np.zeros(n_gates)
        tau = np.maximum(prob, 1.0 - prob)
        const_value = (prob >= 0.5).astype(np.int8)
        return ActivityReport(n_gates, prob, tau, const_value, toggles,
                              ones, flips, n)


# ----------------------------------------------------------------------
# Batched multi-variant evaluation
# ----------------------------------------------------------------------
@dataclass
class VariantSpec:
    """One constant-tie variant of a parent circuit, in parent node ids.

    Produced by :meth:`repro.hw.incremental.IncrementalCircuit.variant_spec`
    after a tie was applied; consumed by :class:`BatchedEvaluator`, whose
    shared plan is the *pre-tie* parent.  ``ties`` is the clamp set the
    rewriter actually applied (the return value of ``tie``), ``helpers``
    are the gates the rewrite created beyond the parent plan — replayed
    per variant, in level order — and ``live_nodes``/``live_ops`` name
    the surviving gates (parent part first, then helpers, in the same
    order as ``helpers``) for activity, area, and power.
    """

    ties: dict[int, int]
    live_nodes: np.ndarray
    live_ops: np.ndarray
    helpers: list[tuple[int, int, int, int]]  # (node, op, in_a, in_b)
    outputs: dict[str, list[int]]
    signed: dict[str, bool]

    @property
    def n_gates(self) -> int:
        return len(self.live_ops)


class _VariantCircuit:
    """Minimal circuit view of one batched variant (area/power consumer)."""

    __slots__ = ("ops", "n_gates")

    def __init__(self, ops: np.ndarray) -> None:
        self.ops = ops
        self.n_gates = len(ops)


class BatchedVariantSim:
    """Read API of one variant inside a batched simulation.

    Mirrors :class:`CompiledSimulation` (``bus_ints``, ``decode_bus``,
    ``net_bits``, ``prob_one``, ``activity``) over one ``k`` slice of the
    batch's ``(K, n_nets, n_words)`` value matrix plus the variant's
    replayed helper-gate rows, so
    :meth:`repro.eval.accuracy.CircuitEvaluator.evaluate_simulated` can
    score it exactly like a per-variant compiled simulation.
    """

    __slots__ = ("spec", "n_vectors", "words", "helper_rows", "_ones",
                 "_flips", "circuit")

    def __init__(self, spec: VariantSpec, n_vectors: int, words: np.ndarray,
                 helper_rows: dict[int, np.ndarray], ones: np.ndarray,
                 flips: np.ndarray) -> None:
        self.spec = spec
        self.n_vectors = n_vectors
        self.words = words  # (n_nets, n_words) slice, tail bits zeroed
        self.helper_rows = helper_rows
        self._ones = ones    # per live gate, aligned with spec.live_ops
        self._flips = flips
        self.circuit = _VariantCircuit(spec.live_ops)

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def _node_rows(self, nodes: list[int]) -> np.ndarray:
        rows = np.empty((len(nodes), self.n_words), dtype=np.uint64)
        n_parent = self.words.shape[0]
        for i, node in enumerate(nodes):
            if node == 0:
                rows[i] = 0
            elif node == 1:
                rows[i] = _ALL_ONES
            elif node < n_parent:
                rows[i] = self.words[node]
            else:
                rows[i] = self.helper_rows[node]
        return rows

    def net_bits(self, node: int) -> np.ndarray:
        """The 0/1 waveform of one node across all vectors."""
        return unpack_bit_matrix(self._node_rows([node]), self.n_vectors)[0]

    def prob_one(self, node: int) -> float:
        mask = _valid_mask(self.n_vectors, self.n_words)
        ones = _popcount_rows(self._node_rows([node]) & mask)
        return float(ones[0]) / self.n_vectors

    def bus_ints(self, name: str) -> np.ndarray:
        return self.decode_bus(self.spec.outputs[name],
                               self.spec.signed[name])

    def decode_bus(self, nets: list[int], signed: bool) -> np.ndarray:
        if not nets:
            return np.zeros(self.n_vectors, dtype=np.int64)
        bits = unpack_bit_matrix(self._node_rows(nets),
                                 self.n_vectors).astype(np.int64)
        weights = np.int64(1) << np.arange(len(nets), dtype=np.int64)
        values = weights @ bits
        if signed:
            values -= bits[-1] << np.int64(len(nets))
        return values

    def activity(self):
        """Per-gate activity of the variant's surviving gates."""
        from .simulate import ActivityReport  # deferred: avoids module cycle

        n = self.n_vectors
        n_gates = self.spec.n_gates
        if n_gates == 0:
            empty = np.zeros(0)
            zeros_int = np.zeros(0, dtype=np.int64)
            return ActivityReport(0, empty, empty,
                                  np.zeros(0, dtype=np.int8), empty,
                                  zeros_int, zeros_int, n)
        prob = self._ones / n
        toggles = self._flips / (n - 1) if n > 1 else np.zeros(n_gates)
        tau = np.maximum(prob, 1.0 - prob)
        const_value = (prob >= 0.5).astype(np.int8)
        return ActivityReport(n_gates, prob, tau, const_value, toggles,
                              self._ones, self._flips, n)


class BatchedEvaluator:
    """Evaluate K constant-tie variants of one parent circuit at once.

    The exploration's sibling variants share everything but their tie
    deltas, so instead of one snapshot + plan build + simulation per
    variant, the batch packs them into a single ``(K, n_nets, n_words)``
    ``uint64`` evaluation of the *parent's* levelized plan:

    * the plan (typically an ``IncrementalCircuit.plan()`` in stable
      node-id space) is built once and every per-level gather / opcode
      ufunc / scatter broadcasts across all K variants — amortizing the
      per-level NumPy call overhead that dominates narrow levels;
    * each variant's tie set is applied as a constant clamp on the rows
      of its tied nodes, at the level that produces them (or right after
      input scatter for clamped inputs), which reproduces the rewritten
      variant's waveforms exactly: cone rewriting only ever replaces
      nodes with functionally identical ones, so every surviving node's
      waveform equals its clamped-parent waveform;
    * helper gates a rewrite created beyond the parent plan (a few INV/
      AND/OR per tie) are replayed per variant in level order;
    * switching activity (the ``ones``/``flips`` popcounts power needs)
      is counted inside the level loop, on each level's slab right
      after its clamps and scatter while it is still in cache, then
      gathered per variant over the surviving gates;
    * batches evaluate in chunks of at most ``MAX_CHUNK_BYTES`` of value
      matrix (and at most 32 variants); :meth:`chunks` yields them one
      at a time, so a caller that scores each chunk before the next
      holds one chunk's matrix at a time.

    Equivalence with each variant's own compiled simulation (and
    transitively with the bigint oracle) is property-tested in
    ``tests/test_batched.py``.
    """

    # Cap on the value matrix size per chunk; larger batches evaluate
    # in slices.  Plan epochs shared across chains reach ~80 variants,
    # and the walk scores each chunk before simulating the next, so
    # this bounds the walk's peak memory.
    MAX_CHUNK_BYTES = 1 << 23

    def __init__(self, plan: CompiledNetlist, n_vectors: int,
                 packed: dict[str, np.ndarray]) -> None:
        self.plan = plan
        self.n_vectors = n_vectors
        self.n_words = max(1, (n_vectors + _WORD_BITS - 1) // _WORD_BITS)
        self.packed = packed
        # Node -> (level, row-within-level) of the producing gate, for
        # placing constant clamps; -1 level marks inputs/constants/dead
        # nodes (clamped right after input scatter).
        pos_level = np.full(plan.n_nets, -1, dtype=np.int64)
        pos_row = np.zeros(plan.n_nets, dtype=np.int64)
        for level_idx, (out, _a, _b, _segs) in enumerate(plan.levels_plan):
            pos_level[out] = level_idx
            pos_row[out] = np.arange(len(out), dtype=np.int64)
        self._pos_level = pos_level
        self._pos_row = pos_row
        # Node -> position in level-plan order (the concatenated
        # ``levels_plan`` outputs), where the level loop writes each
        # gate's activity popcounts.  Not ``plan.gate_out``: a
        # ``CompiledNetlist(nl)`` plan sorts its gates into levels.
        gate_pos = np.zeros(plan.n_nets, dtype=np.int64)
        gate_pos[plan.flat[4]] = np.arange(plan.n_gates, dtype=np.int64)
        self._gate_pos = gate_pos

    def evaluate(self, specs: list[VariantSpec]) -> list[BatchedVariantSim]:
        """Simulate every variant; returns one sim view per spec."""
        return [sim for sims in self.chunks(specs) for sim in sims]

    def chunks(self, specs: list[VariantSpec]):
        """Simulate ``specs`` one chunk at a time, yielding its sims.

        A caller that scores each chunk before asking for the next one
        holds a single chunk's value matrix at a time.
        """
        if not specs:
            return
        per_variant = self.plan.n_nets * self.n_words * 8
        # Beyond ~32 variants the value matrix outgrows the cache
        # hierarchy and the per-level work turns bandwidth-bound;
        # measured sweet spot on the reference container.
        chunk = max(1, min(32, self.MAX_CHUNK_BYTES // max(1, per_variant)))
        telemetry = _service_telemetry()
        telemetry.counter("engine.batches")
        telemetry.observe("engine.batch_size", len(specs))
        for start in range(0, len(specs), chunk):
            yield self._evaluate_chunk(specs[start:start + chunk])

    def _evaluate_chunk(self,
                        specs: list[VariantSpec]) -> list[BatchedVariantSim]:
        plan = self.plan
        n_words = self.n_words
        n_vectors = self.n_vectors
        n_nets = plan.n_nets
        K = len(specs)
        # (n_nets, K, n_words): a net's K variant rows sit contiguously,
        # so the per-level gather/scatter moves whole cache lines.  Every
        # row is kept tail-clean (bits past ``n_vectors`` zero): constant
        # one and clamps write the valid mask, packed inputs come padded
        # with zeros, and each level is masked before its scatter.
        mask = _valid_mask(n_vectors, n_words)
        words = np.zeros((n_nets, K, n_words), dtype=np.uint64)
        words[1] = mask

        for name, nets in plan.netlist.input_buses.items():
            words[np.asarray(nets, dtype=np.int64)] = \
                self.packed[name][:, None, :] & mask

        # Constant clamps, grouped by the level producing the clamped
        # node (vectorized: one sort of the flattened tie lists).
        counts = [len(spec.ties) for spec in specs]
        n_ties = sum(counts)
        level_forces: dict[int, tuple] = {}
        if n_ties:
            t_nodes = np.empty(n_ties, dtype=np.int64)
            t_vals = np.empty(n_ties, dtype=bool)
            t_ks = np.repeat(np.arange(K, dtype=np.int64),
                             np.asarray(counts, dtype=np.int64))
            pos = 0
            for spec in specs:
                ties = spec.ties
                t_nodes[pos:pos + len(ties)] = list(ties.keys())
                t_vals[pos:pos + len(ties)] = list(ties.values())
                pos += len(ties)
            t_levels = self._pos_level[t_nodes]
            order = np.argsort(t_levels, kind="stable")
            t_nodes, t_vals, t_ks, t_levels = (t_nodes[order], t_vals[order],
                                               t_ks[order], t_levels[order])
            # Clamped inputs (level -1) apply before any gate reads them.
            n_start = int(np.searchsorted(t_levels, 0))
            words[t_nodes[:n_start][~t_vals[:n_start]],
                  t_ks[:n_start][~t_vals[:n_start]]] = 0
            words[t_nodes[:n_start][t_vals[:n_start]],
                  t_ks[:n_start][t_vals[:n_start]]] = mask
            if n_start < n_ties:
                t_rows = self._pos_row[t_nodes]
                bounds = np.flatnonzero(np.diff(t_levels[n_start:])) + 1
                starts = np.concatenate(([0], bounds)) + n_start
                ends = np.concatenate((bounds, [n_ties - n_start])) + n_start
                for s, e in zip(starts.tolist(), ends.tolist()):
                    level_forces[int(t_levels[s])] = (t_rows[s:e],
                                                      t_ks[s:e], t_vals[s:e])

        # Switching activity (the ``ones``/``flips`` popcounts power
        # needs) is counted per level while its slab is still in cache,
        # into rows indexed by level-plan position.
        toggle_mask = _valid_mask(n_vectors - 1, n_words) \
            if n_vectors > 1 else None
        ones_live = np.empty((plan.n_gates, K), dtype=np.int64)
        flips_live = np.zeros((plan.n_gates, K), dtype=np.int64)
        max_rows = max(plan.max_level_width, 1)
        scratch_a = np.empty((max_rows, K, n_words), dtype=np.uint64)
        scratch_b = np.empty((max_rows, K, n_words), dtype=np.uint64)
        scratch_c = np.empty((max_rows, K, n_words), dtype=np.uint64)
        take = np.take
        first = 0
        for level_idx, (out, a, b, segments) in enumerate(plan.levels_plan):
            rows = len(a)
            va_all = take(words, a, 0, out=scratch_a[:rows])
            vb_all = take(words, b, 0, out=scratch_b[:rows]) \
                if b is not None else None
            for op, s, e, c in segments:
                va = va_all[s:e]
                if op == OP_AND:
                    np.bitwise_and(va, vb_all[s:e], out=va)
                elif op == OP_XOR:
                    np.bitwise_xor(va, vb_all[s:e], out=va)
                elif op == OP_OR:
                    np.bitwise_or(va, vb_all[s:e], out=va)
                elif op == OP_INV:
                    np.invert(va, out=va)
                elif op == OP_NAND:
                    np.bitwise_and(va, vb_all[s:e], out=va)
                    np.invert(va, out=va)
                elif op == OP_NOR:
                    np.bitwise_or(va, vb_all[s:e], out=va)
                    np.invert(va, out=va)
                elif op == OP_XNOR:
                    np.bitwise_xor(va, vb_all[s:e], out=va)
                    np.invert(va, out=va)
                elif op == OP_MUX:
                    sel = words[c]
                    va[:] = (va & ~sel) | (vb_all[s:e] & sel)
                # OP_BUF: va already holds the source rows
            force = level_forces.get(level_idx)
            if force is not None:
                f_rows, f_ks, f_vals = force
                va_all[f_rows[~f_vals], f_ks[~f_vals]] = 0
                va_all[f_rows[f_vals], f_ks[f_vals]] = _ALL_ONES
            va_all &= mask
            words[out] = va_all
            last = first + rows
            ones_live[first:last] = _popcount_last(va_all)
            if toggle_mask is not None:
                # vb_all is spent: scratch_b holds the carry bits.
                flips_live[first:last] = _toggle_counts(
                    va_all, toggle_mask, scratch_c[:rows], scratch_b[:rows])
            first = last

        sims = []
        for k, spec in enumerate(specs):
            words_k = words[:, k, :]
            helper_rows: dict[int, np.ndarray] = {}
            for node, op, in_a, in_b in spec.helpers:
                row_a = words_k[in_a] if in_a < n_nets \
                    else helper_rows[in_a]
                if op == OP_INV:
                    row = (~row_a) & mask
                elif op == OP_AND:
                    row = row_a & (words_k[in_b] if in_b < n_nets
                                   else helper_rows[in_b])
                else:  # OP_OR — the rewriter creates no other helpers
                    row = row_a | (words_k[in_b] if in_b < n_nets
                                   else helper_rows[in_b])
                helper_rows[node] = row
            live_idx = self._gate_pos[spec.live_nodes]
            ones = ones_live[live_idx, k]
            flips = flips_live[live_idx, k]
            if spec.helpers:
                stacked = np.stack([helper_rows[node]
                                    for node, _o, _a, _b in spec.helpers])
                helper_ones = _popcount_rows(stacked)
                if toggle_mask is None:
                    helper_flips = np.zeros(len(spec.helpers),
                                            dtype=np.int64)
                else:
                    helper_flips = _toggle_counts(stacked, toggle_mask)
                ones = np.concatenate((ones, helper_ones))
                flips = np.concatenate((flips, helper_flips))
            sims.append(BatchedVariantSim(spec, n_vectors, words_k,
                                          helper_rows, ones, flips))
        return sims


# ----------------------------------------------------------------------
# Multi-netlist batched evaluation
# ----------------------------------------------------------------------
class MultiNetlistView:
    """Read API of one netlist inside a multi-netlist simulation.

    Mirrors :class:`CompiledSimulation` (``bus_ints``, ``decode_bus``,
    ``net_bits``, ``prob_one``, ``activity``) over one netlist's strided
    slice of the batch's flat value matrix, with the activity popcounts
    precomputed by the batch pass, so
    :meth:`repro.eval.accuracy.CircuitEvaluator.evaluate_simulated` /
    ``evaluate_batch`` score it exactly like a standalone compiled
    simulation.  ``circuit`` is the original netlist (or array circuit)
    — the same object a per-netlist evaluation would score — so area and
    power reductions are bit-identical by construction.
    """

    __slots__ = ("circuit", "plan", "n_vectors", "words", "_ones", "_flips")

    def __init__(self, circuit, plan: CompiledNetlist, n_vectors: int,
                 words: np.ndarray, ones: np.ndarray,
                 flips: np.ndarray) -> None:
        self.circuit = circuit
        self.plan = plan
        self.n_vectors = n_vectors
        self.words = words  # (n_nets, n_words) strided view, tails zeroed
        self._ones = ones    # per gate, in plan.gate_out order
        self._flips = flips

    @property
    def netlist(self):
        return self.circuit

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def net_bits(self, net: int) -> np.ndarray:
        """The 0/1 waveform of one net across all vectors."""
        return unpack_bit_matrix(self.words[net:net + 1], self.n_vectors)[0]

    def prob_one(self, net: int) -> float:
        ones = _popcount_rows(np.ascontiguousarray(self.words[net:net + 1]))
        return float(ones[0]) / self.n_vectors

    def bus_ints(self, name: str) -> np.ndarray:
        """Decode an output bus to per-vector integers (LSB-first bus)."""
        nets = self.circuit.output_buses[name]
        signed = self.circuit.output_signed[name]
        return self.decode_bus(nets, signed)

    def decode_bus(self, nets: list[int], signed: bool) -> np.ndarray:
        if not nets:
            return np.zeros(self.n_vectors, dtype=np.int64)
        rows = self.words[np.asarray(nets, dtype=np.int64)]
        bits = unpack_bit_matrix(rows, self.n_vectors).astype(np.int64)
        weights = np.int64(1) << np.arange(len(nets), dtype=np.int64)
        values = weights @ bits
        if signed:
            values -= bits[-1] << np.int64(len(nets))
        return values

    def activity(self):
        """Per-gate :class:`~repro.hw.simulate.ActivityReport`."""
        from .simulate import ActivityReport  # deferred: avoids module cycle

        n = self.n_vectors
        n_gates = self.plan.n_gates
        if n_gates == 0:
            empty = np.zeros(0)
            zeros_int = np.zeros(0, dtype=np.int64)
            return ActivityReport(0, empty, empty,
                                  np.zeros(0, dtype=np.int8), empty,
                                  zeros_int, zeros_int, n)
        prob = self._ones / n
        toggles = self._flips / (n - 1) if n > 1 else np.zeros(n_gates)
        tau = np.maximum(prob, 1.0 - prob)
        const_value = (prob >= 0.5).astype(np.int8)
        return ActivityReport(n_gates, prob, tau, const_value, toggles,
                              self._ones, self._flips, n)


class MultiNetlistSim:
    """Evaluate B *independent* netlists in one word-parallel pass.

    Where :class:`BatchedEvaluator` batches K constant-tie variants of
    one parent circuit (shared plan, per-variant clamp masks), this
    engine batches netlists that share nothing but the stimulus — the
    e-sweep's coefficient-approximated variants, a service manifest's
    base circuits, the cross-layer flow's exact+coeff pair.  The B
    netlists pack into one flat ``(sum n_nets, n_words)`` ``uint64``
    value matrix — netlist ``b`` owns the contiguous row block starting
    at ``offset[b]``, so every gather stays inside its own netlist's
    block (the per-netlist working set, not the whole batch) — and
    their levelized plans merge into one *union-level* schedule:

    * a gate at level L only reads nets its own netlist produced at
      levels < L, so all netlists' level-L gates evaluate together —
      one gather, a few per-opcode segment ufuncs, and one scatter per
      union level, amortizing the per-level NumPy dispatch that
      dominates small circuits;
    * each netlist's packed stimulus scatters into its own rows (the
      e-sweep shares one prepacked set across the batch);
    * switching activity is one stacked popcount pass over the
      concatenated live-gate rows, split back per netlist.

    Per-netlist reads come back through :class:`MultiNetlistView`,
    which mirrors the :class:`CompiledSimulation` API; records are
    bit-identical to per-netlist :meth:`CompiledNetlist.simulate`
    (oracle-tested in ``tests/test_multinetlist.py``).  Callers chunk
    large batches themselves (one ``MultiNetlistSim`` per chunk) —
    see :meth:`repro.eval.accuracy.CircuitEvaluator.evaluate_many`.
    """

    # Soft cap on the flat value matrix per batch, applied by callers
    # when they slice a long netlist list into chunks.
    MAX_CHUNK_BYTES = 1 << 26

    def __init__(self, circuits: list, plans: list[CompiledNetlist],
                 n_vectors: int, packed_list: list[dict]) -> None:
        self.circuits = circuits
        self.plans = plans
        self.n_vectors = n_vectors
        self.n_words = max(1, (n_vectors + _WORD_BITS - 1) // _WORD_BITS)
        self.packed_list = packed_list
        self.offsets = np.concatenate(
            ([0], np.cumsum([plan.n_nets for plan in plans],
                            dtype=np.int64)))
        self._merge_levels()

    def _merge_levels(self) -> None:
        """Build the union-level schedule with flat row indices.

        One vectorized concatenation of the per-plan flat gate arrays
        (``CompiledNetlist.flat``, already (level, op)-sorted) rebased
        into the flat row space, re-planned by the same ``_build_plan``
        sweep a single netlist uses — no per-level Python piecework.
        """
        live = [(int(self.offsets[b_idx]), plan)
                for b_idx, plan in enumerate(self.plans) if plan.n_gates]
        merged = CompiledNetlist.__new__(CompiledNetlist)
        merged.netlist = None
        merged.n_nets = int(self.offsets[-1])
        merged.n_gates = sum(plan.n_gates for _o, plan in live)
        merged.gate_out = np.zeros(0, dtype=np.int64)
        if not live:
            merged._empty_plan()
        else:
            ops = np.concatenate([plan.flat[0] for _o, plan in live])
            ina = np.concatenate([plan.flat[1] + offset
                                  for offset, plan in live])
            inb = np.concatenate([plan.flat[2] + offset
                                  for offset, plan in live])
            inc = np.concatenate([plan.flat[3] + offset
                                  for offset, plan in live])
            out = np.concatenate([plan.flat[4] + offset
                                  for offset, plan in live])
            levels = np.concatenate([plan.flat[5] for _o, plan in live])
            merged._build_plan(ops, ina, inb, inc, out, levels)
        self.levels_plan = merged.levels_plan
        self.max_level_width = merged.max_level_width

    def evaluate(self) -> list[MultiNetlistView]:
        """Simulate the batch; one read view per netlist."""
        n_netlists = len(self.plans)
        if n_netlists == 0:
            return []
        n_words = self.n_words
        n_vectors = self.n_vectors
        offsets = self.offsets
        words = np.zeros((int(offsets[-1]), n_words), dtype=np.uint64)
        # Net 1 is the constant-one tie of every netlist.
        words[offsets[:-1] + 1] = _ALL_ONES

        for b_idx, (plan, packed) in enumerate(zip(self.plans,
                                                   self.packed_list)):
            offset = int(offsets[b_idx])
            for name, nets in plan.netlist.input_buses.items():
                words[np.asarray(nets, dtype=np.int64) + offset] = \
                    packed[name]

        _run_levels(words, self.levels_plan, self.max_level_width)

        # Zero the tail bits once; every later reduction and decode then
        # works on clean rows (0 is legal "garbage").
        words &= _valid_mask(n_vectors, n_words)[None, :]

        # Stacked activity popcounts over every netlist's live gate rows
        # (plan.gate_out order — the order per-netlist activity uses).
        gate_counts = [plan.n_gates for plan in self.plans]
        if sum(gate_counts):
            all_rows = np.concatenate(
                [plan.gate_out + int(offsets[b_idx])
                 for b_idx, plan in enumerate(self.plans)])
            gate_rows = np.take(words, all_rows, 0)
            ones_all = _popcount_rows(gate_rows)
            if n_vectors > 1:
                flips_all = _toggle_counts(
                    gate_rows, _valid_mask(n_vectors - 1, n_words))
            else:
                flips_all = np.zeros_like(ones_all)
        else:
            ones_all = flips_all = np.zeros(0, dtype=np.int64)

        views = []
        pos = 0
        for b_idx, (circ, plan) in enumerate(zip(self.circuits, self.plans)):
            count = gate_counts[b_idx]
            views.append(MultiNetlistView(
                circ, plan, n_vectors,
                words[int(offsets[b_idx]):int(offsets[b_idx + 1])],
                ones_all[pos:pos + count], flips_all[pos:pos + count]))
            pos += count
        return views
