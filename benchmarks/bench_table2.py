"""Benchmark: regenerate Table II (<1% accuracy loss selections).

Selects the area-optimal design per technique under the paper's 1%
accuracy-loss budget, reports gains against the exact bespoke baseline,
and checks the paper's headline ordering: cross-layer > only-coefficient
> only-pruning on average, with cross-layer enabling new battery-powered
circuits.
"""

from conftest import run_once

from repro.experiments import table2
from repro.experiments.table2 import average_gains


def test_table2_selections(save_report):
    rows = run_once(lambda: table2.run())
    assert len(rows) == 14

    gains = average_gains(rows)
    cross_area, cross_power = gains["cross"]
    coeff_area, coeff_power = gains["coeff"]
    prune_area, prune_power = gains["prune"]

    # Paper averages: cross 47/44, coeff 28/26, prune 22/20 (%).
    assert 35.0 < cross_area < 65.0
    assert 35.0 < cross_power < 65.0
    assert cross_area > coeff_area > prune_area - 5.0
    assert cross_area >= coeff_area + 5.0  # cross-layer is clearly ahead

    for row in rows:
        # Per circuit, the cross selection is never worse than either
        # single-layer selection (it subsumes both search spaces).
        assert row.cross.area_cm2 <= row.coeff.area_cm2 + 1e-9
        # Gains are reported against the baseline: bounded by 100%.
        for technique in (row.cross, row.coeff, row.prune):
            assert -1e-9 <= technique.area_gain_pct <= 100.0

    # The headline system result: cross-layer newly enables at least one
    # circuit on a single Molex 30 mW printed battery.
    newly_enabled = [row for row in rows
                     if row.cross.battery_ok and not row.baseline_battery_ok]
    assert newly_enabled

    save_report("table2", table2.format_table(rows))
