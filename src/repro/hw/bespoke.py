"""Bespoke circuit generation: quantized model -> gate-level netlist.

Bespoke architectures hardwire every model coefficient into the circuit
(Section III-A, following Mubarik et al.): each product ``x_i * w_i``
becomes a :func:`~repro.hw.blocks.bespoke_multiplier` specialized to the
coefficient value, products are reduced by exactly-sized adder trees, and
intercepts fold into the carry chains as constants.  Classifier heads end
in an argmax comparator tree (MLPs) or a 1-vs-1 vote network (SVMs);
regressors expose the raw weighted sum.

The generated netlist's integer behaviour is bit-identical to the golden
model's ``predict_int`` — the equivalence tests assert this on every
dataset sample — so accuracy measured on simulated netlists is exact, not
approximate.

The netlist ``meta`` carries what the pruning pass needs:

* ``kind``: "classifier" or "regressor";
* ``watch_buses``: the pre-argmax neuron/score buses used to compute the
  error-significance statistic phi (Section III-C's classifier-aware
  definition).

The op sequence is written once, by :func:`emit_bespoke` over
:class:`~repro.hw.blocks.Value`, and runs on either emitter backend
(see :mod:`repro.hw.blocks`):

* :class:`~repro.hw.array_builder.ArrayEmitter` — rows land at the fold
  fixpoint, so only a dead-gate strip remains (the default for
  optimized builds; its build stage is 2.1-2.5x faster in
  ``BENCH_esweep.json``);
* :class:`~repro.hw.netlist.Netlist` followed by ``synthesize`` — the
  per-gate oracle, and the only backend for raw (``optimize=False``)
  builds, whose unfolded form is inherently per-gate.

:func:`build_bespoke_netlist` keeps a ``builder`` selector (``"auto"``,
``"array"`` or ``"gate"``) so the oracle can be requested; both backends
hand out row-for-row identical
:class:`~repro.hw.synthesis.ArrayCircuit` circuits (the array-builder
test suite pins this).  The gate backend's ``Netlist`` never leaves this
module: it enters the rows through ``synthesize`` (optimized builds) or
``ArrayCircuit.from_netlist`` (raw ones).
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter

import numpy as np

from ..quant.qmodel import QuantMLP, QuantSVM
from .blocks import Value, argmax, balanced_sum, bespoke_multiplier, one_vs_one_votes
from .netlist import Netlist
from .synthesis import ArrayCircuit, synthesize

__all__ = [
    "build_bespoke_netlist",
    "build_weighted_sum_netlist",
    "build_bespoke_multiplier_netlist",
    "emit_bespoke",
    "input_payload",
    "CLASS_OUTPUT",
    "REGRESSOR_OUTPUT",
]

CLASS_OUTPUT = "class_idx"
REGRESSOR_OUTPUT = "y_out"


def _resolve_builder(builder: str, optimize: bool) -> str:
    """``auto`` -> ``array`` for optimized builds, ``gate`` for raw ones."""
    if builder not in ("auto", "array", "gate"):
        raise ValueError(f"unknown builder {builder!r} "
                         "(expected 'auto', 'array' or 'gate')")
    if not optimize:
        if builder == "array":
            raise ValueError("builder='array' requires optimize=True: "
                             "the raw builder IR is inherently per-gate")
        return "gate"
    return "array" if builder == "auto" else builder


_telemetry = None


def _service_telemetry():
    # Deferred so hw never imports service at module load (the service
    # layer imports hw; see compiled.py for the same pattern).
    global _telemetry
    if _telemetry is None:
        from ..service import telemetry as resolved
        _telemetry = resolved
    return _telemetry


def _build(em, emit, *args, optimize: bool = True, kind: str | None = None):
    """Run ``emit(em, *args)`` on a fresh backend, then synthesize it.

    The one build path of both backends, which both return an
    :class:`ArrayCircuit`: a :class:`Netlist` is folded by
    ``synthesize`` (or converted raw when not optimizing), an
    ``ArrayEmitter``'s rows only need the dead-gate strip.  Optimized
    builds record ``build.bespoke_ms`` and ``build.gates_emitted``
    labelled with the backend; model builds (``kind`` given) also run
    inside a ``build.bespoke`` span.
    """
    builder = "gate" if isinstance(em, Netlist) else "array"
    tel = _service_telemetry()
    t0 = perf_counter()
    with tel.span("build.bespoke", builder=builder, kind=kind) \
            if kind else nullcontext():
        emit(em, *args)
        if not optimize:
            return ArrayCircuit.from_netlist(em)[0]
        emitted = em.n_gates
        circuit = synthesize(em) if builder == "gate" \
            else em.finish_synthesized()
    tel.observe("build.bespoke_ms", (perf_counter() - t0) * 1e3,
                builder=builder)
    tel.counter("build.gates_emitted", emitted, builder=builder)
    return circuit


def _input_values(em, n_features: int, input_bits: int) -> list[Value]:
    """One unsigned input bus per feature: x0, x1, ..."""
    return [Value.input_bus(em, f"x{index}", input_bits)
            for index in range(n_features)]


def _weighted_sum(inputs: list[Value], coefficients, bias: int) -> Value:
    """Sum of bespoke products plus the hardwired intercept."""
    products = [bespoke_multiplier(value, int(coeff))
                for value, coeff in zip(inputs, coefficients)
                if int(coeff) != 0]
    if not products:
        return Value.constant(inputs[0].em, int(bias))
    return balanced_sum(products).add_constant(int(bias))


def emit_bespoke(em, model: QuantMLP | QuantSVM) -> None:
    """Emit ``model``'s fully-parallel circuit onto the emitter ``em``.

    MLPs chain weighted sums through ReLU + truncation and end in an
    argmax; SVMs compute one score per class and, as classifiers, vote
    1-vs-1 before the argmax.  Regressors expose the first sum.
    """
    if isinstance(model, QuantMLP):
        activations = _input_values(em, model.weights[0].shape[0],
                                    model.input_bits)
        last = len(model.weights) - 1
        for layer, (w_int, b_int) in enumerate(zip(model.weights,
                                                   model.biases)):
            sums = [_weighted_sum(activations, w_int[:, unit], b_int[unit])
                    for unit in range(w_int.shape[1])]
            if layer < last:
                shift = model.shifts[layer]
                activations = [s.relu().truncate_lsbs(shift) for s in sums]
    elif isinstance(model, QuantSVM):
        inputs = _input_values(em, model.weights.shape[0], model.input_bits)
        sums = [_weighted_sum(inputs, model.weights[:, unit],
                              model.biases[unit])
                for unit in range(model.weights.shape[1])]
    else:
        raise TypeError(
            f"cannot build a bespoke circuit for {type(model).__name__}")
    em.meta["watch_buses"] = [s.nets for s in sums]
    em.meta["kind"] = model.kind
    if model.kind == "classifier":
        ranked = one_vs_one_votes(sums) if isinstance(model, QuantSVM) \
            else sums
        em.set_output_bus(CLASS_OUTPUT, argmax(ranked).nets)
    else:
        output = sums[0]
        em.set_output_bus(REGRESSOR_OUTPUT, output.nets, signed=output.signed)


def _emit_weighted_sum(em, coefficients, input_bits: int, bias: int) -> None:
    inputs = _input_values(em, len(coefficients), input_bits)
    total = _weighted_sum(inputs, coefficients, bias)
    em.set_output_bus("sum", total.nets, signed=total.signed)


def _emit_multiplier(em, coefficient: int, input_bits: int) -> None:
    product = bespoke_multiplier(Value.input_bus(em, "x", input_bits),
                                 coefficient)
    em.set_output_bus("p", product.nets, signed=product.signed)


def build_bespoke_netlist(model: QuantMLP | QuantSVM, name: str = "bespoke",
                          optimize: bool = True,
                          builder: str = "auto") -> ArrayCircuit:
    """Generate (and by default synthesize) the fully-parallel circuit.

    Both builders return an :class:`ArrayCircuit`: the array builder's
    comes out ``folded``, straight from its rows, and the per-gate
    builder's through ``synthesize``.
    """
    if _resolve_builder(builder, optimize) == "array":
        from .array_builder import build_bespoke_arrays

        return build_bespoke_arrays(model, name)
    return _build(Netlist(name=name), emit_bespoke, model,
                  optimize=optimize, kind=type(model).__name__)


def build_weighted_sum_netlist(coefficients, input_bits: int, bias: int = 0,
                               optimize: bool = True) -> ArrayCircuit:
    """A standalone weighted-sum circuit (used by the area-proxy study)."""
    if optimize:
        from .array_builder import build_weighted_sum_arrays

        return build_weighted_sum_arrays(coefficients, input_bits, bias)
    return _build(Netlist(name="weighted_sum"), _emit_weighted_sum,
                  coefficients, input_bits, bias, optimize=False)


def build_bespoke_multiplier_netlist(coefficient: int, input_bits: int,
                                     optimize: bool = True) -> ArrayCircuit:
    """A standalone ``BM_w`` (used to populate the area library)."""
    if optimize:
        from .array_builder import build_bespoke_multiplier_arrays

        return build_bespoke_multiplier_arrays(coefficient, input_bits)
    return _build(Netlist(name=f"bm_{coefficient}_{input_bits}b"),
                  _emit_multiplier, coefficient, input_bits, optimize=False)


def input_payload(X_quant: np.ndarray) -> dict[str, np.ndarray]:
    """Simulation stimulus dict for a bespoke circuit: one bus per feature."""
    X_quant = np.asarray(X_quant)
    return {f"x{index}": X_quant[:, index]
            for index in range(X_quant.shape[1])}
