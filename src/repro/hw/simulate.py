"""Netlist simulation and switching-activity extraction.

This module replaces the paper's Questasim RTL simulations.  Two engines
share one entry point, :func:`simulate`, selected by the same
``engine="auto"|"bigint"`` selector as every other layer
(:func:`check_engine`, :func:`resolve_engine`):

* ``"auto"`` runs the **compiled word-parallel engine**
  (:mod:`repro.hw.compiled`) where the host supports its little-endian
  word layout: the circuit's cached
  :class:`~repro.hw.compiled.CompiledNetlist` plan runs as a one-variant
  batch of the one compiled level loop
  (:class:`~repro.hw.compiled.BatchedEvaluator`), which evaluates whole
  per-level, per-opcode gate groups with single vectorized NumPy
  bitwise operations and counts the activity popcounts as it goes.

* ``"bigint"`` runs the **legacy bigint engine** (:func:`simulate_bigint`):
  every node carries one arbitrary-precision Python integer whose bit *i*
  is the node's value for test vector *i*, evaluated row by row in a
  Python loop.  It is kept as the independent reference oracle that the
  compiled engine is property-tested against (``tests/test_compiled.py``),
  and it is what ``"auto"`` runs on big-endian hosts.

Both engines return objects with the same read API (``bus_ints``,
``decode_bus``, ``net_bits``, ``prob_one``, ``activity``) and produce
bit-identical waveforms and statistics.  A full test-set simulation of the largest
circuit in the paper (Pendigits MLP-C, tens of thousands of gates) takes
milliseconds, which is what makes the full-search pruning exploration
(>4300 designs, Section IV) tractable.

The :class:`ActivityReport` is the SAIF-file equivalent: per-gate signal
probabilities, the ``tau`` statistic used by netlist pruning (maximum
fraction of time the output is constant, Section III-C), and toggle rates
for dynamic power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compiled import (HOST_SUPPORTS_COMPILED, OP_AND, OP_INV, OP_MUX,
                       OP_NAND, OP_NOR, OP_OR, OP_XNOR, OP_XOR)
from .synthesis import ArrayCircuit

__all__ = [
    "pack_vectors",
    "unpack_bits",
    "simulate",
    "simulate_bigint",
    "SimulationResult",
    "ActivityReport",
    "check_engine",
    "resolve_engine",
]


def check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` is ``"auto"``, the
    platform's fast path, or ``"bigint"``, the oracle."""
    if engine not in ("auto", "bigint"):
        raise ValueError(f"unknown engine {engine!r} "
                         "(expected 'auto' or 'bigint')")


def resolve_engine(engine: str) -> str:
    """The backend a selector names on this host: batched or bigint."""
    return "batched" if engine == "auto" and HOST_SUPPORTS_COMPILED \
        else "bigint"


def pack_vectors(bits: np.ndarray) -> int:
    """Pack a 0/1 vector (one entry per test vector) into a big integer."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def unpack_bits(value: int, n_vectors: int) -> np.ndarray:
    """Inverse of :func:`pack_vectors`."""
    n_bytes = (n_vectors + 7) // 8
    raw = np.frombuffer(value.to_bytes(n_bytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n_vectors]


@dataclass
class SimulationResult:
    """All node waveforms of one bigint (legacy-engine) simulation run."""

    netlist: ArrayCircuit
    n_vectors: int
    net_values: list[int]

    def bus_ints(self, name: str) -> np.ndarray:
        """Decode an output bus to per-vector integers (LSB-first bus)."""
        nets = self.netlist.output_buses[name]
        signed = self.netlist.output_signed[name]
        return self.decode_bus(nets, signed)

    def decode_bus(self, nets: list[int], signed: bool) -> np.ndarray:
        values = np.zeros(self.n_vectors, dtype=np.int64)
        for position, net in enumerate(nets):
            bits = unpack_bits(self.net_values[net], self.n_vectors)
            values |= bits.astype(np.int64) << position
        if signed and nets:
            sign = unpack_bits(self.net_values[nets[-1]], self.n_vectors)
            values -= sign.astype(np.int64) << len(nets)
        return values

    def net_bits(self, net: int) -> np.ndarray:
        """The 0/1 waveform of one net across all vectors."""
        return unpack_bits(self.net_values[net], self.n_vectors)

    def prob_one(self, net: int) -> float:
        return self.net_values[net].bit_count() / self.n_vectors

    def activity(self) -> "ActivityReport":
        return ActivityReport.from_simulation(self)


@dataclass
class ActivityReport:
    """Per-gate activity statistics (the SAIF equivalent).

    Attributes:
        prob_one: P(output = 1) per gate.
        tau: max(P(0), P(1)) per gate — the pruning statistic.
        const_value: the dominant output value per gate (0 or 1).
        toggles_per_cycle: average output toggles per applied vector.
        ones: raw '1' popcounts per gate (prob_one numerators).
        flips: raw toggle counts per gate (toggles numerators).
        n_vectors: stimulus size the counts refer to.

    The integer count fields let power analysis reduce over exact
    integers, making results independent of gate ordering (and therefore
    bit-identical between the serial, parallel, and legacy exploration
    paths).
    """

    n_gates: int
    prob_one: np.ndarray
    tau: np.ndarray
    const_value: np.ndarray
    toggles_per_cycle: np.ndarray
    ones: np.ndarray | None = None
    flips: np.ndarray | None = None
    n_vectors: int = 0

    @staticmethod
    def from_simulation(sim: SimulationResult) -> "ActivityReport":
        circ = sim.netlist
        n = sim.n_vectors
        n_gates = circ.n_gates
        ones = np.empty(n_gates, dtype=np.int64)
        flips = np.zeros(n_gates, dtype=np.int64)
        toggle_mask = (1 << (n - 1)) - 1 if n > 1 else 0
        gate_values = sim.net_values[circ.n_fixed:]
        for k, value in enumerate(gate_values):
            ones[k] = value.bit_count()
            if n > 1:
                flipped = (value ^ (value >> 1)) & toggle_mask
                flips[k] = flipped.bit_count()
        prob = ones / n
        toggles = flips / (n - 1) if n > 1 else np.zeros(n_gates)
        tau = np.maximum(prob, 1.0 - prob)
        const_value = (prob >= 0.5).astype(np.int8)
        return ActivityReport(n_gates, prob, tau, const_value, toggles,
                              ones, flips, n)


def _validate_inputs(circ: ArrayCircuit,
                     inputs: dict[str, np.ndarray]) -> tuple[int, dict]:
    """Shared stimulus validation: bus match, equal lengths, value range."""
    if set(inputs) != set(circ.input_buses):
        raise ValueError(
            f"inputs {sorted(inputs)} do not match buses {sorted(circ.input_buses)}")
    lengths = {len(np.atleast_1d(v)) for v in inputs.values()}
    if len(lengths) != 1:
        raise ValueError(f"input vector counts differ: {lengths}")
    n = lengths.pop()
    arrays: dict[str, np.ndarray] = {}
    for name, nets in circ.input_buses.items():
        data = np.atleast_1d(np.asarray(inputs[name], dtype=np.int64))
        if data.min(initial=0) < 0 or data.max(initial=0) >= (1 << len(nets)):
            raise ValueError(f"input {name!r} exceeds its {len(nets)}-bit bus")
        arrays[name] = data
    return n, arrays


def simulate(circ: ArrayCircuit, inputs: dict[str, np.ndarray],
             engine: str = "auto"):
    """Evaluate an :class:`~repro.hw.synthesis.ArrayCircuit` over all
    vectors in ``inputs`` at once.

    ``inputs`` maps every input bus name to an array of unsigned
    integers (one per test vector); all arrays must share the same
    length.  A hand-built :class:`~repro.hw.netlist.Netlist` goes
    through :func:`~repro.hw.synthesis.synthesize` or
    ``ArrayCircuit.from_netlist`` first.

    ``engine`` selects the backend: ``"auto"`` (word-parallel NumPy
    where the host supports it, the bigint loop elsewhere) or
    ``"bigint"`` (the legacy reference loop); anything else raises
    ``ValueError``.  Both backends read the circuit's rows, return the
    same read API and give bit-identical results.
    """
    check_engine(engine)
    n, arrays = _validate_inputs(circ, inputs)
    if resolve_engine(engine) == "batched":
        return circ.compiled().simulate(arrays, n)
    return _simulate_bigint_validated(circ, arrays, n)


def simulate_bigint(circ: ArrayCircuit,
                    inputs: dict[str, np.ndarray]) -> SimulationResult:
    """The legacy per-gate bigint engine (equivalence-test oracle)."""
    n, arrays = _validate_inputs(circ, inputs)
    return _simulate_bigint_validated(circ, arrays, n)


def _simulate_bigint_validated(circ: ArrayCircuit,
                               arrays: dict[str, np.ndarray],
                               n: int) -> SimulationResult:
    mask = (1 << n) - 1
    values: list[int] = [0] * circ.n_fixed
    values[1] = mask
    for name, nodes in circ.input_buses.items():
        data = arrays[name]
        for position, node in enumerate(nodes):
            values[node] = pack_vectors((data >> position) & 1)

    append = values.append  # gate k's node is n_fixed + k
    for op, a, b, c in zip(circ.ops, circ.ina, circ.inb, circ.inc):
        a = values[a]
        if op == OP_AND:
            result = a & values[b]
        elif op == OP_XOR:
            result = a ^ values[b]
        elif op == OP_OR:
            result = a | values[b]
        elif op == OP_INV:
            result = ~a & mask
        elif op == OP_NAND:
            result = ~(a & values[b]) & mask
        elif op == OP_NOR:
            result = ~(a | values[b]) & mask
        elif op == OP_XNOR:
            result = ~(a ^ values[b]) & mask
        elif op == OP_MUX:
            sel = values[c]
            result = (a & ~sel | values[b] & sel) & mask
        else:  # OP_BUF
            result = a
        append(result)
    return SimulationResult(circ, n, values)
