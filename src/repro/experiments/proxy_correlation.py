"""Section III-B area-proxy validation (Pearson correlation study).

The coefficient approximation minimizes ``sum_i AREA(BM_w~i)`` as a proxy
for the area of the full weighted-sum circuit.  The paper validates the
proxy on 1000 randomly generated weighted sums (random coefficients and
input sizes) and reports a Pearson correlation of 0.91 against the area
Design Compiler measures for the complete circuit (multipliers + adder
tree).  This experiment repeats that study against this package's
synthesis flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.multiplier_area import BespokeMultiplierLibrary, default_library
from ..hw.area import area_mm2
from ..hw.bespoke import build_weighted_sum_netlist
from ..quant.fixed_point import coeff_range

__all__ = ["ProxyStudy", "run", "format_table", "pearsonr"]


@dataclass(frozen=True)
class ProxyStudy:
    """Correlation between the multiplier-sum proxy and synthesized area."""

    proxy_mm2: np.ndarray
    synthesized_mm2: np.ndarray
    pearson_r: float
    p_value: float

    @property
    def n_circuits(self) -> int:
        return len(self.proxy_mm2)


def run(n_circuits: int = 1000, seed: int = 7,
        min_coefficients: int = 3, max_coefficients: int = 21,
        input_widths: tuple[int, ...] = (4, 6, 8),
        library: BespokeMultiplierLibrary | None = None) -> ProxyStudy:
    """Generate random weighted sums and correlate proxy vs real area."""
    library = library if library is not None else default_library()
    rng = np.random.default_rng(seed)
    lo, hi = coeff_range(library.coeff_bits)
    proxy = np.empty(n_circuits)
    synthesized = np.empty(n_circuits)
    for index in range(n_circuits):
        n_coefficients = int(rng.integers(min_coefficients,
                                          max_coefficients + 1))
        coefficients = rng.integers(lo, hi + 1, size=n_coefficients)
        input_bits = int(input_widths[rng.integers(0, len(input_widths))])
        proxy[index] = library.sum_area(coefficients, input_bits)
        netlist = build_weighted_sum_netlist(coefficients, input_bits)
        synthesized[index] = area_mm2(netlist)
    r, p_value = pearsonr(proxy, synthesized)
    return ProxyStudy(proxy, synthesized, r, p_value)


def pearsonr(x, y) -> tuple[float, float]:
    """Pearson's r and its two-sided p-value under the null of no
    correlation: ``p = I_{1-r^2}((n-2)/2, 1/2)``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3 or len(y) != n:
        raise ValueError("pearsonr needs two samples of equal length >= 3")
    dx, dy = x - x.mean(), y - y.mean()
    r = float(np.dot(dx, dy) / math.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))
    r = max(-1.0, min(1.0, r))
    return r, _betainc((n - 2) / 2, 0.5, 1.0 - r * r)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, by Lentz's continued
    fraction (evaluated on the side of the symmetry point where it
    converges fast)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    f = c = 1.0
    d = 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            break
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * (f - 1.0) / a


def format_table(study: ProxyStudy) -> str:
    return (
        "AREA PROXY VALIDATION (Section III-B)\n"
        f"  random weighted sums: {study.n_circuits}\n"
        f"  Pearson r (proxy vs synthesized): {study.pearson_r:.3f} "
        f"(paper: 0.91)\n"
        f"  p-value: {study.p_value:.2e}\n"
        f"  proxy mean {study.proxy_mm2.mean():.1f} mm^2, "
        f"synthesized mean {study.synthesized_mm2.mean():.1f} mm^2")
