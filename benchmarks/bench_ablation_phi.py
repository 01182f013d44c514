"""Ablation: classifier-aware phi vs conventional output-bit phi.

Section III-C argues conventional netlist pruning cannot be used for
classifiers: the argmax head congests every path into a few index bits,
collapsing the pruning granularity, and breaks the link between numeric
error and classification error.  This bench prunes the same SVM-C circuit
with phi computed (a) against the pre-argmax score buses (the paper's
method) and (b) against the final class-index bits (the conventional
method), and shows the conventional design space collapse.
"""

from conftest import run_once

from repro.core.pruning import NetlistPruner, PruneSpace, compute_phi
from repro.eval.accuracy import CircuitEvaluator
from repro.experiments.zoo import get_case
from repro.hw.bespoke import CLASS_OUTPUT, build_bespoke_netlist


def _explore_both():
    case = get_case("redwine", "svm_c")
    split = case.split
    evaluator = CircuitEvaluator.from_split(
        case.quant_model, split.X_train, split.X_test, split.y_test)
    netlist = build_bespoke_netlist(case.quant_model)
    baseline = evaluator.evaluate(netlist)
    activity = evaluator.train_activity(netlist)

    spaces = {
        "aware": PruneSpace(netlist, activity.tau, activity.const_value,
                            compute_phi(netlist)),
        "conventional": PruneSpace(
            netlist, activity.tau, activity.const_value,
            compute_phi(netlist, [netlist.output_buses[CLASS_OUTPUT]])),
    }
    outcome = {"baseline": baseline,
               "index_bits": len(netlist.output_buses[CLASS_OUTPUT])}
    for name, space in spaces.items():
        pruner = NetlistPruner(netlist, evaluator, _space=space)
        designs = pruner.explore()
        phi_levels = sorted({d.phi_c for d in designs})
        eligible = [d for d in designs
                    if d.record.accuracy >= baseline.accuracy - 0.01]
        best = (min(eligible, key=lambda d: d.record.area_mm2)
                if eligible else None)
        outcome[name] = {
            "designs": len(designs),
            "phi_levels": phi_levels,
            "best_norm_area": (None if best is None
                               else best.record.area_mm2 / baseline.area_mm2),
        }
    return outcome


def test_classifier_aware_phi_restores_granularity(save_report):
    outcome = run_once(_explore_both)
    aware = outcome["aware"]
    conventional = outcome["conventional"]

    # Conventional phi collapses to the few class-index bits.
    assert max(conventional["phi_levels"]) < outcome["index_bits"]
    # The paper's phi exposes the wide pre-argmax buses: strictly more
    # distinct magnitude levels, hence a finer design space.
    assert len(aware["phi_levels"]) > len(conventional["phi_levels"])
    assert aware["designs"] > conventional["designs"]
    assert max(aware["phi_levels"]) > max(conventional["phi_levels"])
    # Both must still find a <1% design (pruning itself works); aware
    # never loses to conventional.
    assert aware["best_norm_area"] is not None
    if conventional["best_norm_area"] is not None:
        assert aware["best_norm_area"] <= conventional["best_norm_area"] + 1e-9

    lines = [
        "ABLATION - classifier-aware phi (paper) vs conventional output phi",
        f"argmax index width: {outcome['index_bits']} bits",
        f"aware:        {aware['designs']:3d} designs, phi levels "
        f"{aware['phi_levels']}",
        f"conventional: {conventional['designs']:3d} designs, phi levels "
        f"{conventional['phi_levels']} (collapsed into index bits)",
        f"best normalized area at <1% loss: aware "
        f"{aware['best_norm_area']:.3f} vs conventional "
        f"{conventional['best_norm_area']:.3f}",
    ]
    save_report("ablation_phi", "\n".join(lines))
