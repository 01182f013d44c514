"""Benchmark: regenerate Fig. 1 (bespoke multiplier area profiles).

Builds and synthesizes all 512 bespoke multipliers (256 coefficients x
two input widths) plus the conventional references from the caption.
"""

from conftest import run_once

from repro.core.multiplier_area import BespokeMultiplierLibrary
from repro.experiments import fig1


def test_fig1_multiplier_profiles(save_report):
    # A fresh library makes the timing reflect real synthesis work.
    library = BespokeMultiplierLibrary()
    series = run_once(lambda: fig1.run(library=library))
    by_width = {s.input_bits: s for s in series}

    # Paper caption anchors: conventional multipliers at ~84 / ~207 mm^2.
    assert abs(by_width[4].conventional_mm2 - 83.61) / 83.61 < 0.15
    assert abs(by_width[8].conventional_mm2 - 207.43) / 207.43 < 0.20
    # Fig. 1 structure: zero-area powers of two, bespoke < conventional.
    for s in series:
        assert {0, 1, 2, 4, 8, 16, 32, 64}.issubset(
            set(s.zero_area_coefficients))
        assert s.max_area_mm2 < s.conventional_mm2
    # Wider inputs cost more area (Fig. 1a vs 1b).
    assert by_width[8].max_area_mm2 > by_width[4].max_area_mm2

    save_report("fig1", fig1.format_table(series))
