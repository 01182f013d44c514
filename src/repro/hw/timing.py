"""Static timing analysis for printed netlists.

The paper synthesizes every circuit at a relaxed clock — 250 ms for the
Pendigits MLP-C and 200 ms for everything else — consistent with the
Hz-to-kHz performance of printed EGT circuits (Sections II and III-A).
This pass computes the combinational critical path with the per-cell
delays of the EGT library so experiments can assert the relaxed-clock
constraint holds for every generated design.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cells import EGT_LIBRARY, TECHNOLOGY
from .compiled import ARITY_OF_OP, CELL_OF_OP

__all__ = ["critical_path_ms", "TimingReport"]

_DELAY_OF_OP = [EGT_LIBRARY[cell].delay_ms for cell in CELL_OF_OP]


def _arrival_times(circ) -> list[float]:
    """Arrival time per node, one sweep over the topologically sorted
    rows (gate *k* drives node ``n_fixed + k``)."""
    arrival = [0.0] * circ.n_fixed
    for op, a, b, c in zip(circ.ops, circ.ina, circ.inb, circ.inc):
        arity = ARITY_OF_OP[op]
        worst = arrival[a]
        if arity > 1:
            worst = max(worst, arrival[b])
            if arity > 2:
                worst = max(worst, arrival[c])
        arrival.append(worst + _DELAY_OF_OP[op])
    return arrival


def critical_path_ms(circ) -> float:
    """Longest input-to-output combinational delay in milliseconds."""
    arrival = _arrival_times(circ)
    worst = 0.0
    for nodes in circ.output_buses.values():
        for node in nodes:
            if arrival[node] > worst:
                worst = arrival[node]
    return worst


@dataclass
class TimingReport:
    """Critical-path summary against a target clock."""

    critical_path_ms: float
    clock_ms: float

    @property
    def slack_ms(self) -> float:
        return self.clock_ms - self.critical_path_ms

    @property
    def meets_clock(self) -> bool:
        return self.slack_ms >= 0.0

    @staticmethod
    def from_netlist(circ, clock_ms: float | None = None) -> "TimingReport":
        clock = clock_ms if clock_ms is not None else TECHNOLOGY.default_clock_ms
        return TimingReport(critical_path_ms(circ), clock)

    def __str__(self) -> str:
        status = "MET" if self.meets_clock else "VIOLATED"
        return (f"critical path {self.critical_path_ms:.1f} ms vs clock "
                f"{self.clock_ms:.1f} ms -> {status} (slack {self.slack_ms:.1f} ms)")
