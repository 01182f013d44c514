"""Benchmark: regenerate Table I (exact bespoke baselines, 16 circuits).

Measures the cost of training, quantizing, synthesizing, and evaluating
every baseline circuit, and prints the measured-vs-paper table.
"""

from conftest import run_once

from repro.experiments import table1
from repro.experiments.zoo import all_cases


def test_table1_baselines(save_report):
    all_cases(include_excluded=True)  # train outside the timed region
    rows = run_once(lambda: table1.run())
    assert len(rows) == 16
    for row in rows:
        assert row.area_cm2 > 0 and row.power_mw > 0
        if row.paper.area_cm2 is not None:
            # Calibrated substrate: same order of magnitude as the paper.
            assert 0.15 < row.area_cm2 / row.paper.area_cm2 < 6.0
    save_report("table1", table1.format_table(rows))
