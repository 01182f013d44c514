"""Benchmark: regenerate Fig. 3 (accuracy vs normalized area, 14 panels).

Runs the full cross-layer design-space exploration for every evaluated
circuit and verifies the paper's qualitative claims: every approximate
design is smaller than the exact baseline, the coefficient approximation
alone costs almost no accuracy, and the cross-layer family forms
essentially the whole combined Pareto front.
"""

from conftest import run_once

from repro.experiments import fig3


def test_fig3_pareto_spaces(save_report):
    panels = run_once(lambda: fig3.run())
    assert len(panels) == 14

    for panel in panels:
        result = panel.result
        baseline = result.baseline
        # "All the approximate designs feature lower area than the exact."
        for point in result.technique("coeff", "prune", "cross"):
            assert point.area_mm2 <= baseline.area_mm2 + 1e-9
        # Red star: near-identical accuracy (generous 6pp guard).
        assert panel.coeff_accuracy_delta > -0.06

    # Section IV: coefficient approximation averages ~28% area reduction.
    mean_coeff = sum(p.coeff_area_reduction_pct for p in panels) / len(panels)
    assert 15.0 < mean_coeff < 50.0

    # Cross-layer designs dominate the combined Pareto fronts.
    mean_share = sum(p.cross_front_share for p in panels) / len(panels)
    assert mean_share > 0.6

    # "For most circuits, more than 57% area reduction for <5% loss."
    big_wins = sum(1 for p in panels
                   if p.max_area_reduction_within(0.05) > 45.0)
    assert big_wins >= len(panels) // 2

    save_report("fig3", fig3.format_table(panels))
