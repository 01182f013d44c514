"""Fig. 2: area reduction of the coefficient approximation versus ``e``.

For each bespoke multiplier configuration (4x6, 4x8, 8x8, 12x8 — input
bits x coefficient bits) and each threshold ``e`` in 1..10, every
coefficient ``w`` is replaced by the minimum-area ``w~`` in
``[w - e, w + e]`` (clipped at the representable borders) and the relative
area reduction is recorded.  The experiment reproduces the boxplot
statistics: median / quartiles per ``e``, the 100% reductions (a power of
two fell inside the window), and the 0% cases (``w`` was already optimal).

The paper reads off this figure that the median reduction exceeds 19% at
``e = 1``, reaches about 53% at ``e = 4``, and saturates beyond — the
justification for fixing ``e = 4`` in the framework.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.multiplier_area import shared_library

__all__ = ["Fig2Cell", "run", "format_table", "CONFIGURATIONS"]

# (input_bits, coeff_bits) for subfigures (a)-(d).
CONFIGURATIONS = ((4, 6), (4, 8), (8, 8), (12, 8))


@dataclass(frozen=True)
class Fig2Cell:
    """Boxplot statistics of one (configuration, e) cell."""

    input_bits: int
    coeff_bits: int
    e: int
    reductions_pct: np.ndarray

    @property
    def median(self) -> float:
        return float(np.median(self.reductions_pct))

    @property
    def quartiles(self) -> tuple[float, float]:
        return (float(np.percentile(self.reductions_pct, 25)),
                float(np.percentile(self.reductions_pct, 75)))

    @property
    def n_full_reduction(self) -> int:
        """Coefficients whose area was nullified (a power of two nearby)."""
        return int(np.sum(self.reductions_pct >= 100.0 - 1e-9))

    @property
    def n_zero_reduction(self) -> int:
        """Coefficients already optimal within their window."""
        return int(np.sum(self.reductions_pct <= 1e-9))


def best_in_window(table: dict[int, float], w: int, e: int,
                   lo: int, hi: int) -> float:
    """Smallest multiplier area reachable from ``w`` within ``e``.

    Kept as a point-query helper (and the reference the vectorized
    path is tested against); :func:`run` itself reads whole-table
    window minima off the library's shared candidate ladder instead of
    rescanning a window per coefficient per ``e``.
    """
    return min(table[c] for c in range(max(w - e, lo), min(w + e, hi) + 1))


def run(e_values: tuple[int, ...] = tuple(range(1, 11)),
        configurations: tuple[tuple[int, int], ...] = CONFIGURATIONS
        ) -> list[Fig2Cell]:
    """Compute the area-reduction distributions for every subfigure.

    One prefix-minima ladder pass per configuration
    (:meth:`~repro.core.multiplier_area.BespokeMultiplierLibrary.
    candidate_ladder`) serves every ``e`` at once: the window minimum of
    ``[w - e, w + e]`` is the cheaper of the two half-window winners.
    """
    cells = []
    for input_bits, coeff_bits in configurations:
        # The process-wide per-width library: repeated runs (and other
        # sweeps at the same coeff_bits) reuse the candidate ladders
        # and trigger zero new multiplier builds — the build.gates_emitted
        # counter pins this in the tests.
        library = shared_library(coeff_bits)
        areas = library.areas_array(input_bits)
        library.candidate_ladder(input_bits, max(e_values))
        reducible = areas > 0.0  # zero-area w cannot be reduced (w stays)
        for e in e_values:
            minus, plus = library.candidate_rung(input_bits, e)
            best = np.minimum(areas[minus], areas[plus])
            reductions = 100.0 * (1.0 - best[reducible] / areas[reducible])
            cells.append(Fig2Cell(input_bits, coeff_bits, e, reductions))
    return cells


def format_table(cells: list[Fig2Cell]) -> str:
    lines = ["FIG. 2 - coefficient-approximation area reduction vs e "
             "(median [q1, q3] %, #100%, #0%)"]
    by_config: dict[tuple[int, int], list[Fig2Cell]] = {}
    for cell in cells:
        by_config.setdefault((cell.input_bits, cell.coeff_bits), []).append(cell)
    for (input_bits, coeff_bits), config_cells in by_config.items():
        lines.append(f"  x:{input_bits}-bit w:{coeff_bits}-bit")
        for cell in sorted(config_cells, key=lambda c: c.e):
            q1, q3 = cell.quartiles
            lines.append(
                f"    e={cell.e:2d}: median {cell.median:5.1f}% "
                f"[{q1:5.1f}, {q3:5.1f}]  "
                f"full={cell.n_full_reduction:3d} zero={cell.n_zero_reduction:3d}")
    return "\n".join(lines)
