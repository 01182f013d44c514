"""Area analysis for printed netlists.

Printed-circuit area is the primary optimization goal of the paper
(Section IV): Table I reports baseline bespoke areas in cm^2 and every
figure normalizes against them.  Area here is the sum of EGT cell areas,
which is what Design Compiler reports for a mapped netlist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import TECHNOLOGY
from .compiled import CELL_OF_OP
from .power import _OP_TRANSISTORS, _transistor_array

__all__ = ["area_mm2", "area_cm2", "AreaReport"]


def area_mm2(circ) -> float:
    """Total mapped cell area in mm^2.

    Accepts any circuit view exposing ``ops`` rows (an
    :class:`~repro.hw.synthesis.ArrayCircuit` or the exploration's
    per-variant views); the reduction runs vectorized over per-gate
    transistor counts.
    """
    if circ.n_gates == 0:
        return 0.0
    transistors = int(_transistor_array(circ).sum())
    return transistors * TECHNOLOGY.area_per_transistor_mm2


def area_cm2(circ) -> float:
    """Total mapped cell area in cm^2 (the unit of Tables I and II)."""
    return area_mm2(circ) / 100.0


@dataclass
class AreaReport:
    """Detailed per-cell-type area breakdown."""

    total_mm2: float
    by_cell_mm2: dict[str, float]
    n_gates: int

    @staticmethod
    def from_netlist(circ) -> "AreaReport":
        counts = np.bincount(np.asarray(circ.ops, dtype=np.int64),
                             minlength=len(CELL_OF_OP))
        cell_mm2 = counts * _OP_TRANSISTORS \
            * TECHNOLOGY.area_per_transistor_mm2
        by_cell = {CELL_OF_OP[op]: float(cell_mm2[op])
                   for op in np.flatnonzero(counts)}
        return AreaReport(area_mm2(circ), by_cell, circ.n_gates)

    def __str__(self) -> str:
        lines = [f"area total: {self.total_mm2:10.2f} mm^2  ({self.n_gates} gates)"]
        for cell in sorted(self.by_cell_mm2):
            lines.append(f"  {cell:6s} {self.by_cell_mm2[cell]:10.2f} mm^2")
        return "\n".join(lines)
