"""Ablation: CSD recoding vs plain binary shift-and-add multipliers.

The bespoke multipliers behind Fig. 1 use canonical-signed-digit
recoding.  This bench quantifies the choice: over all 256 coefficient
values at 4-bit inputs, CSD needs substantially less area than the plain
binary decomposition because dense bit patterns (e.g. 0b1110111) become
two-term subtractive forms.
"""

import numpy as np
from conftest import run_once

from repro.hw.area import area_mm2
from repro.hw.blocks import Value, bespoke_multiplier, binary_digits, csd_digits
from repro.hw.netlist import Netlist
from repro.hw.synthesis import synthesize


def _area_profile(recoding: str) -> np.ndarray:
    areas = []
    for coefficient in range(-128, 128):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 4)
        product = bespoke_multiplier(x, coefficient, recoding=recoding)
        nl.set_output_bus("p", product.nets, signed=product.signed)
        areas.append(area_mm2(synthesize(nl)))
    return np.array(areas)


def test_csd_beats_binary_recoding(save_report):
    profiles = run_once(lambda: {
        "csd": _area_profile("csd"),
        "binary": _area_profile("binary"),
    })
    csd, binary = profiles["csd"], profiles["binary"]

    # Aggregate win: CSD saves well over 20% of multiplier area on average.
    assert csd.mean() < 0.8 * binary.mean()
    # CSD guarantees at most ceil((bits+1)/2) nonzero digits, so the worst
    # coefficient is also cheaper.
    assert csd.max() <= binary.max()
    # Pointwise, CSD wins for most coefficients.  It is NOT a universal
    # win: a subtractive term costs an inverter row that a plain add does
    # not, so sparse-but-subtractive recodings occasionally lose.
    win_fraction = float(np.mean(csd <= binary + 1e-9))
    assert win_fraction > 0.6
    # Digit-count argument behind the area gap.
    mean_csd_digits = np.mean([len(csd_digits(w)) for w in range(-128, 128)])
    mean_bin_digits = np.mean([len(binary_digits(w)) for w in range(-128, 128)])
    assert mean_csd_digits < mean_bin_digits

    saving = 100.0 * (1.0 - csd.mean() / binary.mean())
    lines = [
        "ABLATION - CSD vs plain binary bespoke multipliers (x: 4-bit)",
        f"mean area: CSD {csd.mean():6.2f} mm^2 vs binary "
        f"{binary.mean():6.2f} mm^2  ({saving:.0f}% saving)",
        f"max  area: CSD {csd.max():6.2f} mm^2 vs binary "
        f"{binary.max():6.2f} mm^2",
        f"pointwise CSD <= binary for {100 * win_fraction:.0f}% of "
        f"coefficients (subtractive terms cost an inverter row)",
        f"mean nonzero digits: CSD {mean_csd_digits:.2f} vs binary "
        f"{mean_bin_digits:.2f}",
    ]
    save_report("ablation_csd", "\n".join(lines))
