"""Bespoke multiplier area library (step 1 of the coefficient approximation).

The paper's hardware-driven coefficient approximation needs
``AREA(BM_w)`` — the synthesized area of the bespoke multiplier for every
candidate coefficient ``w`` at the relevant input width (Section III-B,
step 1; the paper runs Design Compiler per candidate, <6 s per weighted
sum on 12 threads).  This library generates each multiplier netlist once,
synthesizes it, and caches the area, which makes the full-search
optimization over all neurons effectively free.

The same library provides the area *proxy* the paper validates with a
Pearson correlation of 0.91: the sum of bespoke multiplier areas as an
estimate of the full weighted-sum circuit area.
"""

from __future__ import annotations

import numpy as np

from ..hw.area import area_mm2
from ..hw.array_builder import build_bespoke_multiplier_arrays
from ..quant.fixed_point import DEFAULT_COEFF_BITS, coeff_range

__all__ = ["BespokeMultiplierLibrary", "default_library", "shared_library"]


class BespokeMultiplierLibrary:
    """Cached ``AREA(BM_w)`` lookups keyed by (coefficient, input width).

    Cache misses emit the multiplier through the array backend and feed
    ``area_mm2`` the folded :class:`~repro.hw.synthesis.ArrayCircuit`
    directly, so no ``Netlist`` is materialized at all.
    """

    def __init__(self, coeff_bits: int = DEFAULT_COEFF_BITS) -> None:
        self.coeff_bits = coeff_bits
        self._cache: dict[tuple[int, int], float] = {}
        self._areas_np: dict[int, np.ndarray] = {}
        self._ladders: dict[int, tuple[int, np.ndarray, np.ndarray]] = {}

    def area(self, coefficient: int, input_bits: int) -> float:
        """Synthesized area (mm^2) of ``BM_coefficient`` at ``input_bits``."""
        lo, hi = coeff_range(self.coeff_bits)
        if not lo <= coefficient <= hi:
            raise ValueError(
                f"coefficient {coefficient} outside the signed "
                f"{self.coeff_bits}-bit range [{lo}, {hi}]")
        key = (int(coefficient), int(input_bits))
        cached = self._cache.get(key)
        if cached is None:
            cached = area_mm2(build_bespoke_multiplier_arrays(*key))
            self._cache[key] = cached
        return cached

    def area_table(self, input_bits: int) -> dict[int, float]:
        """``AREA(BM_w)`` for every representable coefficient (Fig. 1)."""
        lo, hi = coeff_range(self.coeff_bits)
        return {w: self.area(w, input_bits) for w in range(lo, hi + 1)}

    def sum_area(self, coefficients, input_bits: int) -> float:
        """The paper's weighted-sum area proxy: sum of multiplier areas."""
        return float(sum(self.area(int(w), input_bits) for w in coefficients))

    def areas_array(self, input_bits: int) -> np.ndarray:
        """Area table as an array indexed by ``w - w_min`` (cached)."""
        cached = self._areas_np.get(input_bits)
        if cached is None:
            table = self.area_table(input_bits)
            lo, hi = coeff_range(self.coeff_bits)
            cached = np.array([table[w] for w in range(lo, hi + 1)])
            self._areas_np[input_bits] = cached
        return cached

    def candidate_ladder(self, input_bits: int,
                         e_max: int) -> tuple[np.ndarray, np.ndarray]:
        """Prefix-minima candidate tables for *every* search radius at once.

        Returns ``(minus, plus)`` int64 arrays of shape
        ``(min(e_max, N - 1) + 1, N)`` over the coefficient index
        ``w - w_min``: ``minus[e][i]`` is the index of the minimum-area
        candidate in ``[w, w + e]`` (ties go to the candidate closest to
        ``w`` — an unbeaten coefficient keeps its value, the paper's
        zero-reduction case) and ``plus[e][i]`` the
        same for ``[w - e, w]``.  Rung ``e`` extends rung ``e - 1``'s
        winners by the single new border candidate, so the whole ladder
        is O(N · e_max) NumPy work shared by every ``e`` of a sweep —
        replacing the O(window) Python rescan per coefficient per ``e``.
        The result is cached and grown on demand.  Rung ``N - 1``'s
        windows already span the whole coefficient range, so the ladder
        stops there and every larger radius reads its last rung
        (:meth:`candidate_rung`).
        """
        areas = self.areas_array(input_bits)
        n = len(areas)
        e_max = min(e_max, n - 1)
        cached = self._ladders.get(input_bits)
        if cached is not None and cached[0] >= e_max:
            have, minus, plus = cached
            return minus[:e_max + 1], plus[:e_max + 1]
        idx = np.arange(n, dtype=np.int64)
        minus = np.empty((e_max + 1, n), dtype=np.int64)
        plus = np.empty((e_max + 1, n), dtype=np.int64)
        minus[0] = idx
        plus[0] = idx
        for e in range(1, e_max + 1):
            up = np.minimum(idx + e, n - 1)
            prev = minus[e - 1]
            # The farther border candidate only displaces the incumbent
            # on *strictly* smaller area (the closest-tie rule).
            better = (idx + e <= n - 1) & (areas[up] < areas[prev])
            minus[e] = np.where(better, up, prev)
            down = np.maximum(idx - e, 0)
            prev = plus[e - 1]
            better = (idx - e >= 0) & (areas[down] < areas[prev])
            plus[e] = np.where(better, down, prev)
        self._ladders[input_bits] = (e_max, minus, plus)
        return minus, plus

    def candidate_rung(self, input_bits: int,
                       e: int) -> tuple[np.ndarray, np.ndarray]:
        """``(minus[e], plus[e])`` of :meth:`candidate_ladder`, any ``e``."""
        minus, plus = self.candidate_ladder(input_bits, e)
        return minus[-1], plus[-1]

    @property
    def cache_size(self) -> int:
        return len(self._cache)


_DEFAULT = BespokeMultiplierLibrary()
_SHARED: dict[int, BespokeMultiplierLibrary] = {
    DEFAULT_COEFF_BITS: _DEFAULT}


def default_library() -> BespokeMultiplierLibrary:
    """Process-wide shared library (the cache is expensive to rebuild)."""
    return _DEFAULT


def shared_library(coeff_bits: int = DEFAULT_COEFF_BITS
                   ) -> BespokeMultiplierLibrary:
    """Process-wide shared library per coefficient width.

    Sweeps that vary ``coeff_bits`` (fig2, the precision studies) share
    one library — and therefore one area cache and candidate ladder —
    per width instead of re-triggering every multiplier build in
    per-call clones.  ``shared_library(DEFAULT_COEFF_BITS)`` is
    :func:`default_library`.
    """
    library = _SHARED.get(coeff_bits)
    if library is None:
        library = _SHARED[coeff_bits] = BespokeMultiplierLibrary(coeff_bits)
    return library
