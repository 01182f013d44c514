"""Circuit-level evaluation: accuracy, area, and power of one netlist.

Follows the paper's measurement protocol exactly (Sections III and IV):

* the *training* set drives the simulation that produces the switching
  activity used by netlist pruning (the SAIF step);
* the *test* set drives both the accuracy measurement and the switching
  activity used for power analysis.

The decode conventions mirror the golden models: classifier circuits
output an argmax/vote index that maps through the class-label table
(clipped, since a pruned index bus can express out-of-range codes), and
regressor circuits output the raw weighted sum, rescaled and rounded into
the label range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hw.area import area_mm2
from ..hw.bespoke import CLASS_OUTPUT, REGRESSOR_OUTPUT, input_payload
from ..hw.compiled import CompiledNetlist, pack_stimulus, simulate_many
from ..hw.power import power_mw
from ..hw.simulate import (
    ActivityReport,
    SimulationResult,
    _validate_inputs,
    check_engine,
    resolve_engine,
    simulate,
)
from ..hw.synthesis import ArrayCircuit
from ..ml.metrics import accuracy_score
from ..quant.fixed_point import quantize_inputs

__all__ = ["DecodeSpec", "EvaluationRecord", "CircuitEvaluator",
           "check_engine", "resolve_engine"]


@dataclass(frozen=True)
class DecodeSpec:
    """How to turn a circuit's output bus into predicted labels."""

    kind: str
    classes: np.ndarray | None = None
    y_min: int = 0
    y_max: int = 0
    output_scale: float = 1.0

    @staticmethod
    def from_model(model) -> "DecodeSpec":
        """Build the decode rule from a quantized golden model."""
        if model.kind == "classifier":
            return DecodeSpec("classifier", classes=np.asarray(model.classes))
        return DecodeSpec("regressor", y_min=model.y_min, y_max=model.y_max,
                          output_scale=model.output_scale)

    @property
    def output_bus(self) -> str:
        return CLASS_OUTPUT if self.kind == "classifier" \
            else REGRESSOR_OUTPUT

    def decode_values(self, raw: np.ndarray) -> np.ndarray:
        """Raw output-bus integers (any shape) to predicted labels.

        Elementwise, so a ``(K, n_vectors)`` stack of batched variants
        decodes in one call to exactly the per-variant labels.
        """
        if self.kind == "classifier":
            return self.classes[np.clip(raw, 0, len(self.classes) - 1)]
        decoded = raw / self.output_scale
        return np.clip(np.rint(decoded), self.y_min,
                       self.y_max).astype(np.int64)

    def decode(self, sim: SimulationResult) -> np.ndarray:
        """Predicted labels from a simulation of the circuit."""
        return self.decode_values(sim.bus_ints(self.output_bus))


@dataclass(frozen=True)
class EvaluationRecord:
    """Metrics of one evaluated design (a row of the paper's Pareto sets).

    Records are the unit of exchange of the service layer's
    content-addressed store (:mod:`repro.service.store`), so they carry
    an explicit (de)serialization contract: :meth:`to_dict` /
    :meth:`from_dict` round-trip **bit-for-bit** through JSON.  Floats
    survive exactly because ``json`` emits Python's shortest-repr form,
    which ``float()`` parses back to the identical IEEE-754 double —
    a cached record therefore compares ``==`` to a freshly computed one,
    the identity the store's tests pin.  Records are exchangeable
    across *engines*: all engines are bit-identical by contract.
    """

    accuracy: float
    area_mm2: float
    power_mw: float
    n_gates: int

    @property
    def area_cm2(self) -> float:
        return self.area_mm2 / 100.0

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe, exact float round-trip)."""
        return {"accuracy": self.accuracy, "area_mm2": self.area_mm2,
                "power_mw": self.power_mw, "n_gates": self.n_gates}

    @staticmethod
    def from_dict(data: dict) -> "EvaluationRecord":
        """Rebuild a record serialized by :meth:`to_dict`, bit-for-bit."""
        return EvaluationRecord(float(data["accuracy"]),
                                float(data["area_mm2"]),
                                float(data["power_mw"]),
                                int(data["n_gates"]))


@dataclass
class CircuitEvaluator:
    """Reusable stimulus/scoring context for one model-dataset pair.

    Quantizes the split once, keeps the train payload (pruning activity)
    and test payload (accuracy + power activity) ready, and scores any
    netlist variant of the circuit with a single simulation.

    Which engine am I using?  ``engine`` selects the simulation backend
    for every score this evaluator produces, and the exploration walk
    :class:`~repro.core.pruning.NetlistPruner` takes when it inherits
    the setting:

    * ``"auto"`` (default) — the platform's fast path where the host
      supports the compiled word layout (little-endian), the bigint
      loop otherwise: every compiled score — one netlist, many
      independent netlists, the pruning exploration's batched trie
      walk — runs the one compiled level loop
      (:class:`~repro.hw.compiled.BatchedEvaluator`).
    * ``"bigint"`` — the seed's arbitrary-precision reference loop,
      kept as the equivalence oracle.  Slow; use for cross-checks.

    Both produce bit-identical records; the engine only changes how
    fast they arrive.  Any other name raises ``ValueError``.
    """

    decode: DecodeSpec
    train_inputs: dict[str, np.ndarray]
    test_inputs: dict[str, np.ndarray]
    y_test: np.ndarray
    clock_ms: float | None = None
    engine: str = "auto"
    _n_features: int = field(default=0)
    # Validated + word-packed test stimulus, shared by every variant of
    # the circuit (the bus layout is invariant under synthesis).
    _packed_test: tuple | None = field(default=None, repr=False,
                                       compare=False)

    # Cap on the merged value matrix of one evaluate_many pass; longer
    # circuit lists evaluate in slices.
    MAX_CHUNK_BYTES = 1 << 26

    @staticmethod
    def from_split(model, X_train01: np.ndarray, X_test01: np.ndarray,
                   y_test: np.ndarray,
                   clock_ms: float | None = None,
                   engine: str = "auto") -> "CircuitEvaluator":
        """Build from [0, 1]-normalized splits and a quantized model."""
        Xq_train = quantize_inputs(X_train01, model.input_bits)
        Xq_test = quantize_inputs(X_test01, model.input_bits)
        return CircuitEvaluator(
            DecodeSpec.from_model(model),
            input_payload(Xq_train), input_payload(Xq_test),
            np.asarray(y_test), clock_ms, engine,
            _n_features=Xq_train.shape[1])

    def __post_init__(self) -> None:
        check_engine(self.engine)

    def __getstate__(self):
        # Drop the packed stimulus (each process repacks it on first
        # use) so evaluators ship lean to exploration workers.
        state = self.__dict__.copy()
        state["_packed_test"] = None
        return state

    def resolved_engine(self) -> str:
        """The concrete backend ``engine`` selects on this host."""
        return resolve_engine(self.engine)

    def test_stimulus(self, nl) -> tuple[int, dict, dict]:
        """Validated + word-packed test stimulus, shared by every variant.

        The packing only depends on the stimulus and the bus widths —
        both invariant under synthesis — so one evaluator packs once and
        every explored variant (and every batched sibling frontier)
        scatters the same rows.
        """
        prepared = self._packed_test
        if prepared is None:
            n, arrays = _validate_inputs(nl, self.test_inputs)
            widths = {name: len(nets)
                      for name, nets in nl.input_buses.items()}
            prepared = (n, arrays, pack_stimulus(arrays, widths, n))
            self._packed_test = prepared
        return prepared

    def _test_simulation(self, circ: ArrayCircuit):
        if self.resolved_engine() == "batched":
            # A one-variant batch on the circuit's own cached plan.
            n, arrays, packed = self.test_stimulus(circ)
            return circ.compiled().simulate(arrays, n, packed=packed)
        return simulate(circ, self.test_inputs, engine="bigint")

    def train_activity(self, circ: ArrayCircuit) -> ActivityReport:
        """Training-set switching activity (the pruning SAIF input).

        Simulates on a plan of its own, as :meth:`evaluate_many` does:
        a pruner's base may be the caller's circuit, and no plan is
        left cached on it.
        """
        if self.resolved_engine() == "batched":
            n, arrays = _validate_inputs(circ, self.train_inputs)
            return CompiledNetlist(circ).simulate(arrays, n).activity()
        return simulate(circ, self.train_inputs, engine="bigint").activity()

    def evaluate(self, circ: ArrayCircuit) -> EvaluationRecord:
        """Accuracy, area, and power of one circuit variant."""
        return self.evaluate_simulated(circ, self._test_simulation(circ))

    def evaluate_simulated(self, circ, sim) -> EvaluationRecord:
        """Score an already-simulated variant (the batched-engine path).

        ``circ`` is any circuit view exposing ``n_gates`` and ``ops``
        (an array circuit, or the slim per-variant view a
        :class:`~repro.hw.compiled.CompiledSimulation` carries); ``sim``
        must expose the shared simulation read API.
        The arithmetic is identical to :meth:`evaluate` — integer
        popcount reductions — so records are bit-identical across
        engines and exploration paths.
        """
        predictions = self.decode.decode(sim)
        accuracy = accuracy_score(self.y_test, predictions)
        power = power_mw(circ, sim.activity(), self.clock_ms)
        return EvaluationRecord(accuracy, area_mm2(circ), power,
                                circ.n_gates)

    def evaluate_batch(self, sims: list) -> list[EvaluationRecord]:
        """Score a batch of variant sims in one decode/accuracy pass.

        ``sims`` are :class:`~repro.hw.compiled.CompiledSimulation`
        views; the stacked output-bus decode and the per-row accuracy
        mean are elementwise-identical to :meth:`evaluate_simulated` on
        each sim individually, so the records are bit-identical — only
        the NumPy dispatch count drops from O(variants) to O(1).
        """
        if not sims:
            return []
        bus = self.decode.output_bus
        raw = np.stack([sim.bus_ints(bus) for sim in sims])
        predictions = self.decode.decode_values(raw)
        accuracies = np.mean(predictions == np.asarray(self.y_test)[None, :],
                             axis=1)
        return [
            EvaluationRecord(float(acc), area_mm2(sim.circuit),
                             power_mw(sim.circuit, sim.activity(),
                                      self.clock_ms),
                             sim.circuit.n_gates)
            for sim, acc in zip(sims, accuracies)
        ]

    def evaluate_many(self, circuits: list) -> list[EvaluationRecord]:
        """Score many *independent* circuits in one multi-netlist pass.

        Bit-identical to ``[self.evaluate(c) for c in circuits]``
        (oracle-tested in ``tests/test_multinetlist.py``): the fixed
        test stimulus is validated and word-packed once, the circuits
        run through
        :func:`~repro.hw.compiled.simulate_many` in chunks of at most
        ``MAX_CHUNK_BYTES`` of value matrix (one circuit runs on its
        own plan, more on their merged plan), and scoring goes through
        :meth:`evaluate_batch`.  The pass's plans are not cached on the
        circuits: callers such as the service keep the circuits, and
        nothing reads the plans again.  This is the engine behind the
        e-sweep's per-``e`` coefficient variants and the cross-layer
        flow's exact+coeff pair.  Falls back to the per-circuit loop
        on the bigint engine, or when the circuits disagree on
        input-bus layout (nothing to share then).
        """
        if not circuits or self.resolved_engine() != "batched":
            return [self.evaluate(circ) for circ in circuits]
        n, _arrays, packed = self.test_stimulus(circuits[0])
        reference = {name: len(nets)
                     for name, nets in circuits[0].input_buses.items()}
        for circ in circuits[1:]:
            if {name: len(nets)
                    for name, nets in circ.input_buses.items()} != reference:
                return [self.evaluate(circ) for circ in circuits]
        plans = [CompiledNetlist(circ) for circ in circuits]
        n_words = max(1, (n + 63) // 64)
        records: list[EvaluationRecord] = []
        start = 0
        while start < len(plans):
            end = start + 1
            total_rows = plans[start].n_nets
            while end < len(plans):
                grown = total_rows + plans[end].n_nets
                if grown * n_words * 8 > self.MAX_CHUNK_BYTES:
                    break
                total_rows = grown
                end += 1
            records.extend(self.evaluate_batch(
                simulate_many(plans[start:end], n, packed)))
            start = end
        return records

    def accuracy(self, circ: ArrayCircuit) -> float:
        """Test-set accuracy only — skips the activity/power pass."""
        sim = self._test_simulation(circ)
        return accuracy_score(self.y_test, self.decode.decode(sim))
