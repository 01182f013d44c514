"""Ablation: balanced-error coefficient selection vs greedy min-area.

Step 3 of the paper's coefficient approximation does *not* pick the
cheapest candidate per coefficient; it balances positive and negative
errors so the weighted-sum error (Eq. 2) cancels.  This bench compares
the paper's selection against the greedy min-area baseline: greedy buys
slightly more area but leaves a systematically larger signed error on
every weighted sum.
"""

import numpy as np
from conftest import run_once

from repro.core import CoefficientApproximator, default_library
from repro.eval.accuracy import CircuitEvaluator
from repro.experiments.zoo import get_case
from repro.hw.bespoke import build_bespoke_netlist

_CASES = (("redwine", "mlp_c"), ("whitewine", "svm_c"), ("cardio", "mlp_r"))


def _compare():
    rows = []
    library = default_library()
    for key in _CASES:
        case = get_case(*key)
        split = case.split
        evaluator = CircuitEvaluator.from_split(
            case.quant_model, split.X_train, split.X_test, split.y_test)
        baseline = evaluator.evaluate(build_bespoke_netlist(case.quant_model))
        row = {"label": case.label, "baseline_acc": baseline.accuracy}
        for strategy in ("auto", "greedy"):
            approximator = CoefficientApproximator(
                library=library, e=4, strategy=strategy)
            model, reports = approximator.approximate_model(case.quant_model)
            record = evaluator.evaluate(build_bespoke_netlist(model))
            row[strategy] = {
                "accuracy": record.accuracy,
                "area_mm2": record.area_mm2,
                "mean_abs_error": float(np.mean(
                    [abs(r.error_sum) for r in reports])),
            }
        rows.append(row)
    return rows


def test_balanced_selection_vs_greedy(save_report):
    rows = run_once(_compare)

    for row in rows:
        balanced, greedy = row["auto"], row["greedy"]
        # The balanced objective: strictly smaller signed error residue.
        assert balanced["mean_abs_error"] <= greedy["mean_abs_error"]
        # Greedy is unconstrained min-area, so it cannot cost more area.
        assert greedy["area_mm2"] <= balanced["area_mm2"] + 1e-6
        # But balancing protects accuracy (never meaningfully worse).
        assert balanced["accuracy"] >= greedy["accuracy"] - 0.01

    mean_balanced_err = np.mean([r["auto"]["mean_abs_error"] for r in rows])
    mean_greedy_err = np.mean([r["greedy"]["mean_abs_error"] for r in rows])
    assert mean_balanced_err < mean_greedy_err

    lines = ["ABLATION - balanced-error selection (paper) vs greedy min-area",
             f"{'circuit':12s} {'base acc':>9s} | {'balanced acc/area/|err|':>26s}"
             f" | {'greedy acc/area/|err|':>26s}"]
    for row in rows:
        balanced, greedy = row["auto"], row["greedy"]
        lines.append(
            f"{row['label']:12s} {row['baseline_acc']:9.3f} | "
            f"{balanced['accuracy']:7.3f}/{balanced['area_mm2']:8.1f}/"
            f"{balanced['mean_abs_error']:5.2f}    | "
            f"{greedy['accuracy']:7.3f}/{greedy['area_mm2']:8.1f}/"
            f"{greedy['mean_abs_error']:5.2f}")
    lines.append(
        f"mean |error sum|: balanced {mean_balanced_err:.2f} vs greedy "
        f"{mean_greedy_err:.2f} -> balancing cancels coefficient errors")
    save_report("ablation_balance", "\n".join(lines))
