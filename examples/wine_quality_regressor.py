"""Regressor flow: pruning with explicit error-magnitude bounds.

Regressors expose the raw weighted sum, so the pruning parameter phi_c
directly bounds the worst-case numeric output error at 2^(phi_c+1)
(Section III-C).  This example builds the white-wine MLP-R, sweeps the
pruning thresholds by hand, and verifies the measured worst-case error
against the analytic bound — the property that makes magnitude-aware
pruning trustworthy for regression circuits.

Run:  python examples/wine_quality_regressor.py
"""

import numpy as np

import _bootstrap  # noqa: F401  (repo-checkout sys.path shim)

from repro import (
    MLPRegressor,
    build_bespoke_netlist,
    load_dataset,
    quantize_model,
    simulate,
)
from repro.core.pruning import NetlistPruner
from repro.eval.accuracy import CircuitEvaluator
from repro.hw import REGRESSOR_OUTPUT, area_mm2, input_payload
from repro.quant import quantize_inputs


def main() -> None:
    print("=== white-wine MLP-R: magnitude-bounded pruning ===\n")

    split = load_dataset("whitewine").standard_split(seed=0)
    model = MLPRegressor(hidden_layer_sizes=(4,), seed=1, max_epochs=400)
    model.fit(split.X_train, split.y_train)
    quant = quantize_model(model)

    netlist = build_bespoke_netlist(quant, name="ww-mlp-r")
    evaluator = CircuitEvaluator.from_split(
        quant, split.X_train, split.X_test, split.y_test)
    baseline = evaluator.evaluate(netlist)
    print(f"exact circuit: {netlist.n_gates} gates, "
          f"{baseline.area_cm2:.1f} cm^2, accuracy {baseline.accuracy:.3f}")
    print(f"output bus width: {len(netlist.output_buses[REGRESSOR_OUTPUT])} "
          f"bits, scale {quant.output_scale:.1f} integer units per label\n")

    Xq = quantize_inputs(split.X_test)
    exact_outputs = simulate(netlist, input_payload(Xq)).bus_ints(
        REGRESSOR_OUTPUT)

    pruner = NetlistPruner(netlist, evaluator)
    space = pruner.space()
    tau_c = 0.95
    print(f"pruning sweep at tau_c = {tau_c:.0%} "
          f"(phi levels: {space.phi_levels(tau_c)}):\n")
    print(f"{'phi_c':>6s} {'pruned':>7s} {'gates':>6s} {'area%':>6s} "
          f"{'acc':>6s} {'max err':>9s} {'bound 2^(phi+1)':>15s}")
    for phi_c in space.phi_levels(tau_c):
        force = space.prune_set(tau_c, phi_c)
        pruned = pruner.prune(tau_c, phi_c)
        record = evaluator.evaluate(pruned)
        outputs = simulate(pruned, input_payload(Xq)).bus_ints(
            REGRESSOR_OUTPUT)
        max_error = int(np.abs(outputs - exact_outputs).max())
        bound = 2 ** (phi_c + 1)
        assert max_error < bound, "error bound violated!"
        print(f"{phi_c:6d} {len(force):7d} {pruned.n_gates:6d} "
              f"{100 * area_mm2(pruned) / baseline.area_mm2:6.1f} "
              f"{record.accuracy:6.3f} {max_error:9d} {bound:15d}")

    print("\nevery pruned variant respects the analytic worst-case bound;")
    print("in label units the bound divides by the output scale "
          f"({quant.output_scale:.0f} ints/label).")


if __name__ == "__main__":
    main()
