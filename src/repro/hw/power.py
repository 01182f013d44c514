"""Power analysis for printed netlists — the PrimeTime stand-in.

The paper obtains switching activity from Questasim simulations of the test
set and feeds it to Synopsys PrimeTime (Section III-A).  Here the same two
inputs drive a closed-form model of the resistive-load EGT technology:

* a dominant *static* term per cell, weighted by the fraction of time its
  output sits low (a pulled-down resistive-load output conducts), and
* a small *dynamic* term proportional to the simulated toggle rate at the
  relaxed printed clock (200/250 ms — Section III-A).

Static dominance makes power track gate count closely, reproducing the
paper's observation that power gains (44% avg) sit just below area gains
(47% avg).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import EGT_LIBRARY, TECHNOLOGY
from .compiled import CELL_OF_OP
from .simulate import ActivityReport

__all__ = ["power_uw", "power_mw", "PowerReport", "DEFAULT_ACTIVITY"]

# Assumed statistics when no simulation is available: balanced output
# state, modest toggle rate.  Used only for quick estimates; every paper
# experiment simulates real stimuli.
DEFAULT_ACTIVITY = (0.5, 0.15)

# Transistors per opcode of a circuit row.
_OP_TRANSISTORS = np.array([EGT_LIBRARY[cell].transistors
                            for cell in CELL_OF_OP], dtype=np.int64)


def _transistor_array(circ) -> np.ndarray:
    """Per-gate transistor counts of a circuit's ``ops`` rows."""
    ops = circ.ops
    if not isinstance(ops, np.ndarray):
        ops = np.fromiter(ops, dtype=np.int64, count=len(ops))
    return _OP_TRANSISTORS[ops]


def _power_split(circ, activity: ActivityReport | None,
                 clock_ms: float | None) -> tuple[float, float]:
    """``(static, dynamic)`` power in microwatts (see :func:`power_uw`)."""
    if circ.n_gates == 0:
        return 0.0, 0.0
    tech = TECHNOLOGY
    transistors = _transistor_array(circ)
    period_s = (clock_ms if clock_ms is not None
                else tech.default_clock_ms) / 1e3
    ones = getattr(activity, "ones", None) if activity is not None else None
    if ones is not None and activity.n_vectors > 0:
        # Exact integer path: sum(t_g * weight_g) decomposes into integer
        # dot products with the popcount numerators.
        n = activity.n_vectors
        total_t = int(transistors.sum())
        weighted_ones = int(transistors @ ones)
        static = tech.static_power_uw_per_transistor * (
            tech.static_low_factor * total_t
            + (tech.static_high_factor - tech.static_low_factor)
            * (weighted_ones / n))
        if n > 1 and activity.flips is not None:
            weighted_flips = int(transistors @ activity.flips)
            dynamic = tech.toggle_energy_nj_per_transistor \
                * (weighted_flips / (n - 1)) / period_s * 1e-3
        else:
            dynamic = 0.0
        return static, dynamic
    transistors = transistors.astype(np.float64)
    if activity is not None:
        p_low = 1.0 - np.asarray(activity.prob_one, dtype=np.float64)
        toggles = np.asarray(activity.toggles_per_cycle, dtype=np.float64)
    else:
        p_one, toggle_rate = DEFAULT_ACTIVITY
        p_low = np.full(circ.n_gates, 1.0 - p_one)
        toggles = np.full(circ.n_gates, toggle_rate)
    weight = tech.static_low_factor * p_low \
        + tech.static_high_factor * (1.0 - p_low)
    static = tech.static_power_uw_per_transistor * float(transistors @ weight)
    dynamic = tech.toggle_energy_nj_per_transistor \
        * float(transistors @ toggles) / period_s * 1e-3  # nJ/s -> uW
    return static, dynamic


def power_uw(circ, activity: ActivityReport | None = None,
             clock_ms: float | None = None) -> float:
    """Total power in microwatts under the given switching activity.

    A single vectorized reduction over the per-gate transistor counts and
    activity arrays — this runs once per evaluated design, so it sits on
    the design-space-exploration hot path.  When the activity report
    carries raw integer popcounts, the reduction happens over exact
    integers, making the result independent of gate ordering (pruned
    variants reached through different exploration paths score
    bit-identically).
    """
    static, dynamic = _power_split(circ, activity, clock_ms)
    return static + dynamic


def power_mw(circ, activity: ActivityReport | None = None,
             clock_ms: float | None = None) -> float:
    """Total power in milliwatts (the unit of Tables I and II)."""
    return power_uw(circ, activity, clock_ms) / 1e3


@dataclass
class PowerReport:
    """Static/dynamic power split for one circuit."""

    static_uw: float
    dynamic_uw: float
    clock_ms: float

    @property
    def total_uw(self) -> float:
        return self.static_uw + self.dynamic_uw

    @property
    def total_mw(self) -> float:
        return self.total_uw / 1e3

    @staticmethod
    def from_netlist(circ, activity: ActivityReport | None = None,
                     clock_ms: float | None = None) -> "PowerReport":
        """The split :func:`power_uw` sums: ``total_uw`` equals it
        exactly."""
        clock = clock_ms if clock_ms is not None \
            else TECHNOLOGY.default_clock_ms
        static, dynamic = _power_split(circ, activity, clock)
        return PowerReport(static, dynamic, clock)

    def __str__(self) -> str:
        return (f"power: {self.total_mw:.3f} mW "
                f"(static {self.static_uw / 1e3:.3f} mW, "
                f"dynamic {self.dynamic_uw / 1e3:.3f} mW @ {self.clock_ms} ms)")
