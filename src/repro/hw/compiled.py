"""Compiled word-parallel netlist simulation engine.

This is the fast evaluation backend behind :func:`repro.hw.simulate.simulate`.
Instead of carrying one arbitrary-precision Python integer per net (the
legacy reference engine, kept in :mod:`repro.hw.simulate` as an equivalence
oracle), the stimulus is packed into a dense ``(n_nets, n_words)`` ``uint64``
matrix: bit *i* of the row of a net is the net's logic value for test vector
*i* (vector *i* lives in word ``i // 64``, bit ``i % 64``).

A :class:`CompiledNetlist` is a reusable evaluation plan built once per
circuit (and cached on it via
:meth:`repro.hw.synthesis.ArrayCircuit.compiled`): the gate DAG is levelized so that every level only reads nets produced by
earlier levels, and each level is split into per-opcode gate groups.  One
simulation is then a short sequence of vectorized NumPy bitwise operations
— gather the operand rows of a level, apply a single ``&``/``|``/``^``/
``~``/mux expression per opcode segment across all of its gates and all
stimulus words at once, scatter into the value matrix.

There is one compiled simulation loop, :class:`BatchedEvaluator`'s: K
constant-tie variants of one plan (:class:`VariantSpec`) evaluate in a
single ``(n_nets, K, n_words)`` pass, with per-variant constant clamps
standing in for the rewritten structure.  The loop keeps every row
tail-clean (bits past ``n_vectors`` zero) and counts the switching
activity popcounts (``ones``/``flips``) of each level while its slab is
in cache.  Every compiled score runs through it:

* the pruning exploration's sibling variants (many specs per plan);
* one circuit (:meth:`CompiledNetlist.simulate`): a one-variant batch
  with no ties on the circuit's own cached plan;
* B independent circuits sharing a stimulus (:func:`simulate_many`):
  one no-tie variant of their merged union-level plan, split in B views.

Every result is read through one view, :class:`CompiledSimulation`
(``bus_ints``, ``decode_bus``, ``net_bits``, ``prob_one``, ``activity``
— the read API of the bigint oracle's
:class:`~repro.hw.simulate.SimulationResult`).  This is the fast path
``engine="auto"`` resolves to on supported hosts in
:func:`~repro.hw.simulate.simulate`,
:class:`~repro.eval.accuracy.CircuitEvaluator`,
:class:`~repro.core.pruning.NetlistPruner`, and
:class:`~repro.core.cross_layer.CrossLayerFramework`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .cells import EGT_LIBRARY

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
    "CircuitPorts",
    "CompiledNetlist",
    "CompiledSimulation",
    "HOST_SUPPORTS_COMPILED",
    "VariantSpec",
    "pack_bit_matrix",
    "pack_stimulus",
    "simulate_many",
    "unpack_bit_matrix",
]

# The word layout (uint8 views of uint64 words) assumes a little-endian
# host; on anything else :func:`repro.hw.simulate.simulate` silently falls
# back to the bigint reference engine.
HOST_SUPPORTS_COMPILED = sys.byteorder == "little"

_WORD_BITS = 64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# Opcodes of the circuit rows, shared by every pass that reads them.
OP_INV, OP_BUF, OP_AND, OP_OR, OP_XOR, OP_XNOR, OP_NAND, OP_NOR, OP_MUX = \
    range(9)

OPCODES = {
    "INV": OP_INV, "BUF": OP_BUF, "AND2": OP_AND, "OR2": OP_OR,
    "XOR2": OP_XOR, "XNOR2": OP_XNOR, "NAND2": OP_NAND, "NOR2": OP_NOR,
    "MUX2": OP_MUX,
}

# Cell name and operand count per opcode; ``CELL_OF_OP`` inverts
# ``OPCODES``.
CELL_OF_OP = sorted(OPCODES, key=OPCODES.get)
ARITY_OF_OP = [EGT_LIBRARY[cell].n_inputs for cell in CELL_OF_OP]


if hasattr(np, "bitwise_count"):
    def _popcount_last(words: np.ndarray) -> np.ndarray:
        """Total set bits along the last (word) axis of a uint64 array."""
        # einsum sums the short word axis about twice as fast as .sum().
        return np.einsum("...w->...", np.bitwise_count(words),
                         dtype=np.int64)
else:  # NumPy < 2.0
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                          dtype=np.uint8)

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


def _toggle_bits(vals: np.ndarray, toggle_mask: np.ndarray,
                 shifted: np.ndarray | None = None,
                 carry: np.ndarray | None = None) -> np.ndarray:
    """Toggle bits of tail-clean word rows; popcount them for counts.

    Toggle i compares vectors i and i+1: XOR each row with its one-bit
    right shift, then drop the invalid flip at position n-1 with
    ``toggle_mask`` (``_valid_mask(n - 1, n_words)``).  The shift runs
    over the flattened array (contiguous 1-D ufuncs are the fast ones),
    so bit 0 of each next word carries into bit 63 — across rows too,
    but bit 63 of a row's last word is never a valid toggle position
    (``n <= 64 * n_words``), so the mask drops it.  ``vals`` and the
    optional scratch arrays ``shifted`` (the result) and ``carry`` are
    C-contiguous and of ``vals``' shape.
    """
    if shifted is None:
        shifted = np.empty_like(vals)
    flat = vals.reshape(-1)
    out = shifted.reshape(-1)
    np.right_shift(flat, np.uint64(1), out=out)
    out[:-1] |= np.left_shift(
        flat[1:], np.uint64(_WORD_BITS - 1),
        out=None if carry is None else carry.reshape(-1)[:-1])
    out ^= flat
    shifted &= toggle_mask
    return shifted


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


class CircuitPorts:
    """The port interface of a circuit: its bus maps, no gates.

    A plan keeps this view instead of its circuit.  Circuits cache their
    plan, so a plan → circuit reference would make every evaluated
    circuit cyclic garbage, freed only by the cyclic collector; the
    plan's simulations only ever read the ports.
    """

    __slots__ = ("input_buses", "output_buses", "output_signed")

    def __init__(self, input_buses: dict, output_buses: dict,
                 output_signed: dict) -> None:
        self.input_buses = input_buses
        self.output_buses = output_buses
        self.output_signed = output_signed

    @staticmethod
    def of(circuit) -> "CircuitPorts":
        return CircuitPorts(circuit.input_buses, circuit.output_buses,
                            circuit.output_signed)


class CompiledNetlist:
    """Levelized per-opcode evaluation plan for one circuit.

    The plan is immutable and only depends on circuit structure, so it is
    built once and reused across every simulation of the circuit (training
    activity, test-set scoring, benchmarks).  It reads the rows of an
    :class:`~repro.hw.synthesis.ArrayCircuit`: opcodes and operand node
    ids in flat lists, node ``n_fixed + k`` owned by gate *k*.
    Construction is a single linear sweep over those topologically
    sorted rows (none when the circuit carries its per-gate ``levels``).
    """

    # Rows a simulation sets to constant one: net 1 of the circuit.  A
    # merged plan (:func:`_merge_levels`) carries one per circuit block.
    const_rows = np.ones(1, dtype=np.int64)

    def __init__(self, circ) -> None:
        self.netlist = CircuitPorts.of(circ)
        n_fixed = circ.n_fixed
        ops, ina, inb, inc = circ.ops, circ.ina, circ.inb, circ.inc
        n_gates = len(ops)
        self.n_nets = n_fixed + n_gates
        self.n_gates = n_gates
        self.gate_out = np.arange(n_fixed, n_fixed + n_gates, dtype=np.int64)

        if n_gates == 0:
            self._empty_plan()
            return

        levels = circ.levels
        if levels is None:
            # Derive per-gate depth (synthesis-produced circuits carry
            # it).  Plain lists: NumPy scalar stores would triple the
            # cost of this sweep.
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

        self._build_plan(np.asarray(ops, dtype=np.int64),
                         np.asarray(ina, dtype=np.int64),
                         np.asarray(inb, dtype=np.int64),
                         np.asarray(inc, dtype=np.int64),
                         self.gate_out,
                         np.asarray(levels, dtype=np.int64))

    def _empty_plan(self) -> None:
        self.levels_plan = []
        self.n_levels = 0
        self.max_level_width = 0
        empty = np.zeros(0, dtype=np.int64)
        self.gate_ops = empty
        self.level_starts = empty
        self.flat = (empty, empty, empty, empty, empty, empty)

    def _build_plan(self, ops: np.ndarray, ina: np.ndarray, inb: np.ndarray,
                    inc: np.ndarray, out: np.ndarray,
                    levels: np.ndarray) -> None:
        """Group gates into per-level slabs with per-opcode segments.

        One simulation step then needs only a gather, a few in-place
        ufuncs over contiguous segment views, and one scatter *per
        level* — NumPy call count scales with circuit depth, not with
        (depth × opcode) group count.  Callers pass ``out`` as the
        plan's ``gate_out`` with the other arrays aligned to it, and the
        opcodes are kept in that order as ``gate_ops``
        (:func:`_merge_levels` sets both afterwards).
        """
        _service_telemetry().counter("engine.plan_builds")
        self.gate_ops = ops
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
        # Flat position of each level's first gate, for placing clamps.
        self.level_starts = level_starts
        # Flat (level, op)-sorted gate arrays, retained for the
        # multi-netlist merge (:func:`_merge_levels`): B plans
        # concatenate and re-plan in one vectorized pass instead of
        # re-walking their per-level segment lists in Python.
        self.flat = (ops, ina, inb, inc, out, levels)

    # ------------------------------------------------------------------
    def spec(self) -> "VariantSpec":
        """The plan's own circuit as a variant with no ties.

        Its live gates come in ``gate_out`` order with their opcodes in
        the same order — the order of the circuit's rows, which area,
        power and the pruning space's per-gate activity index by.
        """
        ports = self.netlist
        return VariantSpec(ties={}, live_nodes=self.gate_out,
                           live_ops=self.gate_ops, helpers=[],
                           outputs=ports.output_buses,
                           signed=ports.output_signed)

    def simulate(self, inputs: dict[str, np.ndarray] | None, n_vectors: int,
                 packed: dict[str, np.ndarray] | None = None
                 ) -> "CompiledSimulation":
        """Evaluate pre-validated input arrays over the whole stimulus set.

        ``inputs`` maps each input bus to an ``int64`` array of bus values
        (one per vector); validation lives in :func:`repro.hw.simulate.simulate`.
        ``packed`` optionally supplies the word rows per bus as produced
        by :func:`pack_stimulus` — the evaluator packs its fixed test set
        once and reuses it for every explored variant.  The circuit runs
        as a one-variant batch of :class:`BatchedEvaluator` with no ties.
        """
        if packed is None:
            widths = {name: len(nets)
                      for name, nets in self.netlist.input_buses.items()}
            packed = pack_stimulus(inputs, widths, n_vectors)
        sim, = BatchedEvaluator(self, n_vectors, packed).simulate(
            [self.spec()])
        return sim


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
    :meth:`CompiledNetlist.spec` describes a plan's own circuit as a
    variant with no ties.
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
    """Minimal circuit view of one simulated variant (area/power consumer)."""

    __slots__ = ("ops", "n_gates")

    def __init__(self, ops: np.ndarray) -> None:
        self.ops = ops
        self.n_gates = len(ops)


class CompiledSimulation:
    """Read API of one variant of a compiled simulation.

    Mirrors the bigint oracle's :class:`~repro.hw.simulate.SimulationResult`
    (``bus_ints``, ``decode_bus``, ``net_bits``, ``prob_one``,
    ``activity``) over the variant's ``(n_nets, n_words)`` rows of the
    batch's value matrix plus its replayed helper-gate rows, so every
    consumer works with either engine and
    :meth:`repro.eval.accuracy.CircuitEvaluator.evaluate_batch` scores
    variants of one plan and independent circuits alike.  ``circuit``
    carries the live gates' opcodes for area and power.
    """

    __slots__ = ("spec", "n_vectors", "words", "helper_rows", "_ones",
                 "_flips", "circuit")

    def __init__(self, spec: VariantSpec, n_vectors: int, words: np.ndarray,
                 helper_rows: dict[int, np.ndarray], ones: np.ndarray,
                 flips: np.ndarray) -> None:
        self.spec = spec
        self.n_vectors = n_vectors
        self.words = words  # (n_nets, n_words) rows, tail bits zeroed
        self.helper_rows = helper_rows
        self._ones = ones    # per live gate, aligned with spec.live_ops
        self._flips = flips
        self.circuit = _VariantCircuit(spec.live_ops)

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def _node_rows(self, nodes: list[int]) -> np.ndarray:
        n_parent = self.words.shape[0]
        rows = self.words[[node if node < n_parent else 0
                           for node in nodes]]
        for i, node in enumerate(nodes):
            if node >= n_parent:
                rows[i] = self.helper_rows[node]
        return rows

    def net_bits(self, node: int) -> np.ndarray:
        """The 0/1 waveform of one node across all vectors."""
        return unpack_bit_matrix(self._node_rows([node]), self.n_vectors)[0]

    def prob_one(self, node: int) -> float:
        ones = _popcount_last(self._node_rows([node]))
        return float(ones[0]) / self.n_vectors

    def bus_ints(self, name: str) -> np.ndarray:
        """Decode an output bus to per-vector integers (LSB-first bus)."""
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
        """Per-gate :class:`~repro.hw.simulate.ActivityReport` (SAIF
        stand-in) of the variant's live gates."""
        from .simulate import ActivityReport  # deferred: avoids module cycle

        n = self.n_vectors
        n_gates = self.spec.n_gates
        prob = self._ones / n
        toggles = self._flips / (n - 1) if n > 1 else np.zeros(n_gates)
        tau = np.maximum(prob, 1.0 - prob)
        const_value = (prob >= 0.5).astype(np.int8)
        return ActivityReport(n_gates, prob, tau, const_value, toggles,
                              self._ones, self._flips, n)


class BatchedEvaluator:
    """Evaluate K constant-tie variants of one plan at once.

    This is the one compiled simulation loop.  The exploration's sibling
    variants share everything but their tie deltas, so instead of one
    compaction + plan build + simulation per variant, the batch packs them
    into a single ``(n_nets, K, n_words)`` ``uint64`` evaluation of the
    *parent's* levelized plan:

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
    * :meth:`chunks` evaluates a batch in chunks of at most
      ``MAX_CHUNK_BYTES`` of value matrix (and at most 32 variants) and
      yields them one at a time, so a caller that scores each chunk
      before the next holds one chunk's matrix at a time.

    One circuit (:meth:`CompiledNetlist.simulate`) and B independent
    circuits (:func:`simulate_many`) run here too, as one variant with
    no ties, through :meth:`simulate`.  Equivalence with the bigint
    oracle is property-tested in ``tests/test_batched.py``,
    ``tests/test_compiled.py`` and ``tests/test_multinetlist.py``.
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
        # Node -> position in level-plan order (the concatenated
        # ``levels_plan`` outputs), where the level loop writes each
        # gate's activity popcounts and applies its clamps; -1 marks
        # inputs, constants and dead nodes.  Not ``plan.gate_out``: the
        # plan sorts its gates into (level, opcode) order.
        gate_pos = np.full(plan.n_nets, -1, dtype=np.int64)
        gate_pos[plan.flat[4]] = np.arange(plan.n_gates, dtype=np.int64)
        self._gate_pos = gate_pos

    def evaluate(self, specs: list[VariantSpec]) -> list[CompiledSimulation]:
        """Simulate every variant; returns one sim view per spec."""
        return [sim for sims in self.chunks(specs) for sim in sims]

    def chunks(self, specs: list[VariantSpec]):
        """Simulate ``specs`` one chunk at a time, yielding its sims.

        A caller that scores each chunk before asking for the next one
        holds a single chunk's value matrix at a time.  Each call counts
        one ``engine.batches`` dispatch.
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
            yield self.simulate(specs[start:start + chunk])

    def simulate(self, specs: list[VariantSpec]) -> list[CompiledSimulation]:
        """Simulate ``specs`` in one pass, with no chunk cap and no
        batch telemetry; one sim view per spec."""
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
        words[plan.const_rows] = mask

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
            level_starts = plan.level_starts
            t_pos = self._gate_pos[t_nodes]
            t_levels = np.where(
                t_pos < 0, -1,
                np.searchsorted(level_starts, t_pos, side="right") - 1)
            order = np.argsort(t_levels, kind="stable")
            t_nodes, t_vals, t_ks, t_levels, t_pos = (
                t_nodes[order], t_vals[order], t_ks[order], t_levels[order],
                t_pos[order])
            # Clamped inputs (level -1) apply before any gate reads them.
            n_start = int(np.searchsorted(t_levels, 0))
            words[t_nodes[:n_start][~t_vals[:n_start]],
                  t_ks[:n_start][~t_vals[:n_start]]] = 0
            words[t_nodes[:n_start][t_vals[:n_start]],
                  t_ks[:n_start][t_vals[:n_start]]] = mask
            if n_start < n_ties:
                t_rows = t_pos - level_starts[t_levels]
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
        counts_live = np.zeros((2, plan.n_gates, K), dtype=np.int64)
        ones_live, flips_live = counts_live
        max_rows = max(plan.max_level_width, 1)
        # A level's values and its toggle bits sit in one buffer, so a
        # single popcount call counts both.
        scratch = np.empty((2, max_rows, K, n_words), dtype=np.uint64)
        scratch_b = np.empty((max_rows, K, n_words), dtype=np.uint64)
        # mode="clip": the indices are valid, and "raise" would buffer
        # every ``out=`` gather through a temporary.
        take = words.take
        first = 0
        for level_idx, (out, a, b, segments) in enumerate(plan.levels_plan):
            rows = len(a)
            va_all = take(a, 0, out=scratch[0, :rows], mode="clip")
            vb_all = take(b, 0, out=scratch_b[:rows], mode="clip") \
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
            if toggle_mask is None:
                ones_live[first:last] = _popcount_last(va_all)
            else:
                # vb_all is spent: scratch_b holds the carry bits.
                _toggle_bits(va_all, toggle_mask, scratch[1, :rows],
                             scratch_b[:rows])
                counts_live[:, first:last] = _popcount_last(
                    scratch[:, :rows])
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
                helper_ones = _popcount_last(stacked)
                if toggle_mask is None:
                    helper_flips = np.zeros(len(spec.helpers),
                                            dtype=np.int64)
                else:
                    helper_flips = _popcount_last(
                        _toggle_bits(stacked, toggle_mask))
                ones = np.concatenate((ones, helper_ones))
                flips = np.concatenate((flips, helper_flips))
            sims.append(CompiledSimulation(spec, n_vectors, words_k,
                                           helper_rows, ones, flips))
        return sims


# ----------------------------------------------------------------------
# Independent circuits on one stimulus
# ----------------------------------------------------------------------
def _merge_levels(plans: list[CompiledNetlist]
                  ) -> tuple[CompiledNetlist, np.ndarray]:
    """Merge B plans into one union-level plan over stacked row blocks.

    Circuit ``b`` owns the contiguous rows ``offsets[b]:offsets[b + 1]``
    of the merged value matrix, so every gather stays inside its own
    circuit's block.  A gate at level L only reads nets its own circuit
    produced below L, so all circuits' level-L gates evaluate together:
    one vectorized concatenation of the plans' flat gate arrays
    (``CompiledNetlist.flat``, already (level, op)-sorted), rebased into
    the row space and re-planned by the same ``_build_plan`` sweep a
    single circuit uses.  The merged ``gate_out``/``gate_ops`` list every
    circuit's gates in its own ``gate_out`` order, block after block, and
    ``const_rows`` holds each block's constant-one row.  The merged
    ports carry each input bus once, its blocks' nets concatenated.
    """
    offsets = np.concatenate(
        ([0], np.cumsum([plan.n_nets for plan in plans], dtype=np.int64)))
    blocks = list(zip(offsets[:-1].tolist(), plans))
    live = [(offset, plan) for offset, plan in blocks if plan.n_gates]
    merged = CompiledNetlist.__new__(CompiledNetlist)
    merged.netlist = CircuitPorts(
        {name: np.concatenate([np.asarray(plan.netlist.input_buses[name],
                                          dtype=np.int64) + offset
                               for offset, plan in blocks])
         for name in plans[0].netlist.input_buses}, {}, {})
    merged.n_nets = int(offsets[-1])
    merged.n_gates = sum(plan.n_gates for plan in plans)
    merged.const_rows = offsets[:-1] + 1
    merged.gate_out = np.zeros(0, dtype=np.int64)
    if not live:
        merged._empty_plan()
        return merged, offsets

    def stacked(field: int, rebase: bool) -> np.ndarray:
        return np.concatenate([plan.flat[field] + offset * rebase
                               for offset, plan in live])

    # flat = (ops, ina, inb, inc, out, levels): node ids shift by block.
    merged._build_plan(stacked(0, False), stacked(1, True),
                       stacked(2, True), stacked(3, True),
                       stacked(4, True), stacked(5, False))
    merged.gate_out = np.concatenate([plan.gate_out + offset
                                      for offset, plan in live])
    merged.gate_ops = np.concatenate([plan.gate_ops for _o, plan in live])
    return merged, offsets


def simulate_many(plans: list[CompiledNetlist], n_vectors: int,
                  packed: dict[str, np.ndarray]
                  ) -> list[CompiledSimulation]:
    """Simulate B independent circuits on one packed stimulus.

    The circuits must share their input-bus layout.  One circuit runs on
    its own plan (:meth:`CompiledNetlist.simulate`); B > 1 run as one
    variant with no ties of their merged plan (:func:`_merge_levels`),
    whose result splits into one view per circuit: the circuit's row
    block and its slice of the live-gate activity.  Views are
    bit-identical to each circuit's own simulation.
    """
    if len(plans) == 1:
        return [plans[0].simulate(None, n_vectors, packed)]
    merged, offsets = _merge_levels(plans)
    tiled = {name: np.tile(rows, (len(plans), 1))
             for name, rows in packed.items()}
    whole, = BatchedEvaluator(merged, n_vectors, tiled).simulate(
        [merged.spec()])
    views = []
    first = 0
    for plan, start, end in zip(plans, offsets[:-1].tolist(),
                                offsets[1:].tolist()):
        last = first + plan.n_gates
        views.append(CompiledSimulation(
            plan.spec(), n_vectors, whole.words[start:end], {},
            whole._ones[first:last], whole._flips[first:last]))
        first = last
    return views
