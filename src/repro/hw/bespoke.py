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

Every build function takes a ``builder`` selector:

* ``"array"`` — emit through :mod:`repro.hw.array_builder`'s fused
  array-level path (the cold-path default, 2-4x faster);
* ``"gate"`` — the per-gate ``Value``/``Netlist`` builder, kept as the
  gate-for-gate oracle;
* ``"auto"`` — ``"array"`` when optimizing, ``"gate"`` for raw
  (``optimize=False``) builds, whose unfolded form is inherently
  per-gate.

Both paths produce gate-for-gate identical netlists (the array-builder
test suite pins this), so the selector is a pure performance knob.
"""

from __future__ import annotations

import numpy as np

from ..quant.qmodel import QuantMLP, QuantSVM
from .blocks import Value, argmax, balanced_sum, bespoke_multiplier, one_vs_one_votes
from .netlist import Netlist
from .synthesis import synthesize

__all__ = [
    "build_bespoke_circuit",
    "build_bespoke_netlist",
    "build_weighted_sum_netlist",
    "build_bespoke_multiplier_netlist",
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


def _input_values(nl: Netlist, n_features: int, input_bits: int) -> list[Value]:
    """One unsigned input bus per feature: x0, x1, ..."""
    return [Value.input_bus(nl, f"x{index}", input_bits)
            for index in range(n_features)]


def _weighted_sum(inputs: list[Value], coefficients, bias: int) -> Value:
    """Sum of bespoke products plus the hardwired intercept."""
    products = [bespoke_multiplier(value, int(coeff))
                for value, coeff in zip(inputs, coefficients)
                if int(coeff) != 0]
    if not products:
        return Value.constant(inputs[0].nl, int(bias))
    return balanced_sum(products).add_constant(int(bias))


def build_bespoke_netlist(model: QuantMLP | QuantSVM, name: str = "bespoke",
                          optimize: bool = True,
                          builder: str = "auto") -> Netlist:
    """Generate (and by default synthesize) the fully-parallel circuit."""
    from time import perf_counter

    if _resolve_builder(builder, optimize) == "array":
        from .array_builder import build_bespoke_arrays

        return build_bespoke_arrays(model, name).to_netlist()
    t0 = perf_counter()
    with _service_telemetry().span("build.bespoke", builder="gate",
                                   kind=type(model).__name__):
        if isinstance(model, QuantMLP):
            netlist = _build_mlp(model, name)
        elif isinstance(model, QuantSVM):
            netlist = _build_svm(model, name)
        else:
            raise TypeError(
                f"cannot build a bespoke circuit for {type(model).__name__}")
        built = len(netlist.gate_type)
        if optimize:
            netlist = synthesize(netlist)
    if optimize:
        tel = _service_telemetry()
        tel.observe("build.bespoke_ms", (perf_counter() - t0) * 1e3,
                    builder="gate")
        tel.counter("build.gates_emitted", built, builder="gate")
    return netlist


def build_bespoke_circuit(model: QuantMLP | QuantSVM, name: str = "bespoke",
                          builder: str = "auto"):
    """The synthesized circuit in its builder's own form.

    The array builder's :class:`~repro.hw.synthesis.ArrayCircuit` is
    returned as-is — the compiled engines, area/power and the store's
    encoder read it directly, so consumers that never need the
    ``Netlist`` IR skip ``to_netlist()``; the per-gate builder returns
    its ``Netlist``.
    """
    if _resolve_builder(builder, True) == "array":
        from .array_builder import build_bespoke_arrays

        return build_bespoke_arrays(model, name)
    return build_bespoke_netlist(model, name=name, builder=builder)


def _build_mlp(model: QuantMLP, name: str) -> Netlist:
    nl = Netlist(name=name)
    activations = _input_values(nl, model.weights[0].shape[0], model.input_bits)
    last = len(model.weights) - 1
    for layer, (w_int, b_int) in enumerate(zip(model.weights, model.biases)):
        sums = [_weighted_sum(activations, w_int[:, unit], b_int[unit])
                for unit in range(w_int.shape[1])]
        if layer < last:
            shift = model.shifts[layer]
            activations = [s.relu().truncate_lsbs(shift) for s in sums]
    nl.meta["watch_buses"] = [s.nets for s in sums]
    if model.kind == "classifier":
        nl.meta["kind"] = "classifier"
        index = argmax(sums)
        nl.set_output_bus(CLASS_OUTPUT, index.nets)
    else:
        nl.meta["kind"] = "regressor"
        output = sums[0]
        nl.set_output_bus(REGRESSOR_OUTPUT, output.nets, signed=output.signed)
    return nl


def _build_svm(model: QuantSVM, name: str) -> Netlist:
    nl = Netlist(name=name)
    inputs = _input_values(nl, model.weights.shape[0], model.input_bits)
    scores = [_weighted_sum(inputs, model.weights[:, unit], model.biases[unit])
              for unit in range(model.weights.shape[1])]
    nl.meta["watch_buses"] = [s.nets for s in scores]
    if model.kind == "classifier":
        nl.meta["kind"] = "classifier"
        counts = one_vs_one_votes(scores)
        index = argmax(counts)
        nl.set_output_bus(CLASS_OUTPUT, index.nets)
    else:
        nl.meta["kind"] = "regressor"
        output = scores[0]
        nl.set_output_bus(REGRESSOR_OUTPUT, output.nets, signed=output.signed)
    return nl


def build_weighted_sum_netlist(coefficients, input_bits: int, bias: int = 0,
                               optimize: bool = True,
                               builder: str = "auto") -> Netlist:
    """A standalone weighted-sum circuit (used by the area-proxy study)."""
    if _resolve_builder(builder, optimize) == "array":
        from .array_builder import build_weighted_sum_arrays

        return build_weighted_sum_arrays(coefficients, input_bits,
                                         bias).to_netlist()
    nl = Netlist(name="weighted_sum")
    inputs = _input_values(nl, len(coefficients), input_bits)
    total = _weighted_sum(inputs, coefficients, bias)
    nl.set_output_bus("sum", total.nets, signed=total.signed)
    return synthesize(nl) if optimize else nl


def build_bespoke_multiplier_netlist(coefficient: int, input_bits: int,
                                     optimize: bool = True,
                                     builder: str = "auto") -> Netlist:
    """A standalone ``BM_w`` (used to populate the area library)."""
    if _resolve_builder(builder, optimize) == "array":
        from .array_builder import build_bespoke_multiplier_arrays

        return build_bespoke_multiplier_arrays(coefficient,
                                               input_bits).to_netlist()
    nl = Netlist(name=f"bm_{coefficient}_{input_bits}b")
    x = Value.input_bus(nl, "x", input_bits)
    product = bespoke_multiplier(x, coefficient)
    nl.set_output_bus("p", product.nets, signed=product.signed)
    return synthesize(nl) if optimize else nl


def input_payload(X_quant: np.ndarray) -> dict[str, np.ndarray]:
    """Simulation stimulus dict for a bespoke circuit: one bus per feature."""
    X_quant = np.asarray(X_quant)
    return {f"x{index}": X_quant[:, index]
            for index in range(X_quant.shape[1])}
