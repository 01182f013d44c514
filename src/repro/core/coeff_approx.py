"""Hardware-driven coefficient approximation (Section III-B).

For each weighted sum ``S = sum_i x_i * w_i`` (a neuron in an MLP, a
per-class score unit in an SVM) the algorithm:

1. evaluates ``AREA(BM_w~)`` for every candidate ``w~`` in
   ``[w_i - e, w_i + e]`` (clipped at the coefficient range borders) via
   the :class:`~repro.core.multiplier_area.BespokeMultiplierLibrary`;
2. builds the candidate pair ``R_i = {w~minus, w~plus}`` — the minimum-area
   candidates above and below ``w_i``, producing negative and positive
   multiplication errors respectively;
3. selects one candidate per coefficient so the *signed error sum*
   ``sum_i (w_i - w~_i)`` is as close to zero as possible (the inputs are
   non-negative, so balancing signed coefficient errors minimizes the
   weighted-sum error of Eq. 2), breaking ties by the area proxy.

Step 2 is *ladder-shared*: candidate pairs for every radius ``e`` in
``1..e_max`` fall out of one NumPy prefix-minima pass over the area
table (:meth:`~repro.core.multiplier_area.BespokeMultiplierLibrary.
candidate_ladder`), which is what makes e-sweeps (Fig. 2, the
cross-layer ``sweep_e`` exploration) cheap — no per-coefficient window
rescan per ``e``.  The original scan survives as
:meth:`CoefficientApproximator._min_area_candidate`, the reference the
ladder is property-tested against.

Step 3 is a brute-force enumeration in the paper.  That stays available
(``strategy="exhaustive"``, now a vectorized enumeration that is
*pick-identical* to the Python reference kept as
``_select_exhaustive_reference``), and an exact dynamic program over the
bounded error-sum axis gives identical objectives in linear-ish time and
is the default for wide sums (``_select_dp``, an array DP; the original
dict DP survives as the ``_select_dp_dict`` oracle); equivalence is
property-tested.  A ``"greedy"`` strategy (min-area candidate, ignoring
balance) is provided as the ablation baseline the paper's design
implicitly argues against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..quant.fixed_point import DEFAULT_COEFF_BITS, coeff_range
from .multiplier_area import BespokeMultiplierLibrary, default_library

__all__ = ["ApproximatedSum", "CoefficientApproximator"]

# Beyond this many free coefficients the 2^N enumeration is replaced by
# the exact DP unless the caller forces "exhaustive" (which hard-caps at
# _EXHAUSTIVE_HARD_LIMIT to keep runtimes sane).
_EXHAUSTIVE_LIMIT = 12
_EXHAUSTIVE_HARD_LIMIT = 22
# Enumerated combinations per vectorized-exhaustive chunk (bounds the
# working set; chunk order preserves the reference's first-win ties).
_EXHAUSTIVE_CHUNK = 1 << 16


@dataclass(frozen=True)
class ApproximatedSum:
    """Result of approximating one weighted sum.

    Attributes:
        original / approximated: integer coefficients before and after.
        error_sum: ``sum_i (w_i - w~_i)`` achieved by the selection.
        area_before / area_after: multiplier-area proxy in mm^2.
    """

    original: tuple[int, ...]
    approximated: tuple[int, ...]
    error_sum: int
    area_before: float
    area_after: float

    @property
    def area_reduction(self) -> float:
        """Fractional proxy-area reduction of this weighted sum."""
        if self.area_before == 0.0:
            return 0.0
        return 1.0 - self.area_after / self.area_before


class CoefficientApproximator:
    """The algorithmic-level approximation pass of the framework.

    Args:
        library: bespoke multiplier area cache (shared by default).
        e: search radius around each coefficient; the paper fixes ``e = 4``
           because area gains saturate beyond it (Fig. 2).
        strategy: ``"auto"`` (DP above 12 free coefficients),
           ``"exhaustive"`` (the paper's brute force), ``"dp"``, or
           ``"greedy"`` (ablation).
        coeff_bits: coefficient word length (8 in the paper).
    """

    def __init__(self, library: BespokeMultiplierLibrary | None = None,
                 e: int = 4, strategy: str = "auto",
                 coeff_bits: int = DEFAULT_COEFF_BITS) -> None:
        if e < 0:
            raise ValueError("search radius e must be non-negative")
        if strategy not in ("auto", "exhaustive", "dp", "greedy"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.library = library if library is not None else default_library()
        self.e = e
        self.strategy = strategy
        self.coeff_bits = coeff_bits

    def with_e(self, e: int) -> "CoefficientApproximator":
        """A sibling approximator at another radius, sharing the library.

        The shared library carries the area table *and* the candidate
        ladder caches, so a sweep instantiating one approximator per
        ``e`` pays the candidate search once (see ``sweep_e``).
        """
        return CoefficientApproximator(self.library, e, self.strategy,
                                       self.coeff_bits)

    # ------------------------------------------------------------------
    # Candidate construction (steps 1-2)
    # ------------------------------------------------------------------
    def _min_area_candidate(self, lo: int, hi: int, input_bits: int,
                            anchor: int) -> int:
        """Minimum-area candidate in [lo, hi]; ties go to the closest to
        ``anchor`` (so an unbeaten coefficient keeps its value — the
        paper's zero-reduction case).  The reference scan the vectorized
        candidate ladder is property-tested against (also the greedy
        ablation's two-sided window search)."""
        best = None
        best_key = None
        for candidate in range(lo, hi + 1):
            key = (self.library.area(candidate, input_bits),
                   abs(candidate - anchor))
            if best_key is None or key < best_key:
                best, best_key = candidate, key
        return best

    def _ladder_ok(self) -> bool:
        """The shared ladder assumes approximator and library agree on
        the coefficient range; a mismatch falls back to the scan."""
        return self.coeff_bits == self.library.coeff_bits

    def candidate_pair(self, coefficient: int,
                       input_bits: int) -> tuple[int, int]:
        """``R_i = (w~minus, w~plus)``: negative- and positive-error picks."""
        lo_bound, hi_bound = coeff_range(self.coeff_bits)
        if not lo_bound <= coefficient <= hi_bound:
            raise ValueError(
                f"coefficient {coefficient} outside the signed "
                f"{self.coeff_bits}-bit range [{lo_bound}, {hi_bound}]")
        if not self._ladder_ok():
            upper = min(coefficient + self.e, hi_bound)
            lower = max(coefficient - self.e, lo_bound)
            return (self._min_area_candidate(coefficient, upper, input_bits,
                                             coefficient),
                    self._min_area_candidate(lower, coefficient, input_bits,
                                             coefficient))
        minus, plus = self.library.candidate_rung(input_bits, self.e)
        index = coefficient - lo_bound
        return (int(minus[index]) + lo_bound, int(plus[index]) + lo_bound)

    def candidate_pairs(self, coefficients, input_bits: int,
                        e: int | None = None) -> list[tuple[int, int]]:
        """Vectorized :meth:`candidate_pair` for a coefficient vector.

        ``e`` overrides the configured radius (an e-sweep reads every
        rung of one shared ladder).  Falls back to the per-coefficient
        scan when approximator and library disagree on ``coeff_bits``.
        """
        e = self.e if e is None else e
        lo_bound, hi_bound = coeff_range(self.coeff_bits)
        coefficients = np.asarray(coefficients, dtype=np.int64)
        if coefficients.size and (coefficients.min() < lo_bound
                                  or coefficients.max() > hi_bound):
            raise ValueError(
                f"coefficient outside the signed {self.coeff_bits}-bit "
                f"range [{lo_bound}, {hi_bound}]")
        if not self._ladder_ok():
            scan = self.with_e(e)
            return [scan.candidate_pair(int(w), input_bits)
                    for w in coefficients]
        minus, plus = self.library.candidate_rung(input_bits, e)
        index = coefficients - lo_bound
        return list(zip((minus[index] + lo_bound).tolist(),
                        (plus[index] + lo_bound).tolist()))

    # ------------------------------------------------------------------
    # Selection (step 3)
    # ------------------------------------------------------------------
    def approximate_coefficients(self, coefficients,
                                 input_bits: int) -> ApproximatedSum:
        """Approximate one weighted sum's coefficient vector."""
        coefficients = [int(w) for w in coefficients]
        pairs = self.candidate_pairs(coefficients, input_bits)
        strategy = self.strategy
        if strategy == "auto":
            free = sum(1 for minus, plus in pairs if minus != plus)
            strategy = "exhaustive" if free <= _EXHAUSTIVE_LIMIT else "dp"
        if strategy == "greedy":
            chosen = [self._min_area_candidate(
                max(w - self.e, coeff_range(self.coeff_bits)[0]),
                min(w + self.e, coeff_range(self.coeff_bits)[1]),
                input_bits, w) for w in coefficients]
        elif strategy == "exhaustive":
            chosen = self._select_exhaustive(coefficients, pairs, input_bits)
        else:
            chosen = self._select_dp(coefficients, pairs, input_bits)
        return ApproximatedSum(
            tuple(coefficients), tuple(chosen),
            sum(w - c for w, c in zip(coefficients, chosen)),
            self.library.sum_area(coefficients, input_bits),
            self.library.sum_area(chosen, input_bits))

    def _free_split(self, pairs: list[tuple[int, int]]):
        """(fixed values, free indices) of one pair list."""
        fixed: list[int | None] = [
            minus if minus == plus else None for minus, plus in pairs]
        free_indices = [i for i, value in enumerate(fixed) if value is None]
        return fixed, free_indices

    def _select_exhaustive(self, coefficients: list[int],
                           pairs: list[tuple[int, int]],
                           input_bits: int) -> list[int]:
        """The paper's brute force, as a vectorized enumeration.

        Pick-identical to ``_select_exhaustive_reference``: combinations
        enumerate in the same ``itertools.product`` order (first free
        index varies slowest), errors reduce over exact integers, areas
        accumulate left-to-right in free-index order (the same float
        association as the reference's ``sum``), and the chunked
        argmin keeps the reference's strict-first-win tie rule.
        """
        fixed, free_indices = self._free_split(pairs)
        n_free = len(free_indices)
        if n_free > _EXHAUSTIVE_HARD_LIMIT:
            raise ValueError(
                f"{n_free} free coefficients is too wide for "
                "exhaustive search; use strategy='dp'")
        if n_free == 0:
            return list(fixed)
        area = self.library.area
        base_error = sum(coefficients[i] - value
                         for i, value in enumerate(fixed) if value is not None)
        base_area = sum(area(value, input_bits)
                        for value in fixed if value is not None)
        errs = np.array([[coefficients[i] - pairs[i][0],
                          coefficients[i] - pairs[i][1]]
                         for i in free_indices], dtype=np.int64)
        areas = np.array([[area(pairs[i][0], input_bits),
                           area(pairs[i][1], input_bits)]
                          for i in free_indices])
        shifts = np.arange(n_free - 1, -1, -1, dtype=np.int64)
        total = 1 << n_free
        best_key = None
        best_bits = None
        for start in range(0, total, _EXHAUSTIVE_CHUNK):
            combos = np.arange(start, min(start + _EXHAUSTIVE_CHUNK, total),
                               dtype=np.int64)
            bits = (combos[:, None] >> shifts[None, :]) & 1
            error = base_error + np.where(bits, errs[:, 1],
                                          errs[:, 0]).sum(axis=1)
            partial = np.zeros(len(combos))
            for i in range(n_free):  # reference float association
                partial = partial + np.where(bits[:, i], areas[i, 1],
                                             areas[i, 0])
            combo_area = base_area + partial
            abs_error = np.abs(error)
            floor = int(abs_error.min())
            masked = np.where(abs_error == floor, combo_area, np.inf)
            k = int(np.argmin(masked))  # first min: the reference tie rule
            key = (floor, float(masked[k]))
            if best_key is None or key < best_key:
                best_key = key
                best_bits = bits[k]
        selection = list(fixed)
        for i, bit in zip(free_indices, best_bits.tolist()):
            selection[i] = int(pairs[i][bit])
        return selection

    def _select_exhaustive_reference(self, coefficients: list[int],
                                     pairs: list[tuple[int, int]],
                                     input_bits: int) -> list[int]:
        """The original Python product scan (equivalence oracle)."""
        fixed, free_indices = self._free_split(pairs)
        if len(free_indices) > _EXHAUSTIVE_HARD_LIMIT:
            raise ValueError(
                f"{len(free_indices)} free coefficients is too wide for "
                "exhaustive search; use strategy='dp'")
        base_error = sum(coefficients[i] - value
                         for i, value in enumerate(fixed) if value is not None)
        base_area = sum(self.library.area(value, input_bits)
                        for value in fixed if value is not None)
        # Per free index: (error contribution, area) for both candidates.
        choices = [
            tuple((coefficients[i] - candidate,
                   self.library.area(candidate, input_bits), candidate)
                  for candidate in pairs[i])
            for i in free_indices
        ]
        best_combo = None
        best_key = None
        for combo in product(*choices):
            error = base_error + sum(term[0] for term in combo)
            area = base_area + sum(term[1] for term in combo)
            key = (abs(error), area)
            if best_key is None or key < best_key:
                best_combo, best_key = combo, key
        selection = list(fixed)
        for i, term in zip(free_indices, best_combo):
            selection[i] = term[2]
        return selection

    def _select_dp(self, coefficients: list[int],
                   pairs: list[tuple[int, int]],
                   input_bits: int) -> list[int]:
        """Exact DP over the bounded signed error sum, as an array DP.

        The total area decomposes per coefficient, so keeping the
        minimum area for every reachable partial error sum is optimal.
        States live on a dense error-sum axis of width
        ``sum_i span_i + 1``; one coefficient's transition is two
        shifted adds and an elementwise minimum (ties prefer the
        ``w~minus`` candidate), with a per-step choice matrix for the
        backtrack.  Final states rank by (|error sum|, area), the
        paper's objective — objective-identical to the dict DP kept as
        ``_select_dp_dict`` and to the exhaustive enumeration
        (property-tested).
        """
        n = len(coefficients)
        if n == 0:
            return []
        area = self.library.area
        d_minus = np.array([w - minus for w, (minus, _plus)
                            in zip(coefficients, pairs)], dtype=np.int64)
        d_plus = np.array([w - plus for w, (_minus, plus)
                           in zip(coefficients, pairs)], dtype=np.int64)
        a_minus = np.array([area(minus, input_bits)
                            for minus, _plus in pairs])
        a_plus = np.array([area(plus, input_bits)
                           for _minus, plus in pairs])
        hi = int(np.maximum(d_minus, d_plus).clip(min=0).sum())
        lo = int(np.minimum(d_minus, d_plus).clip(max=0).sum())
        n_states = hi - lo + 1
        offset = -lo
        best = np.full(n_states, np.inf)
        best[offset] = 0.0
        take_plus = np.zeros((n, n_states), dtype=bool)

        def shifted(arr: np.ndarray, delta: int, add: float) -> np.ndarray:
            out = np.full_like(arr, np.inf)
            if delta >= 0:
                out[delta:] = arr[:n_states - delta] + add
            else:
                out[:delta] = arr[-delta:] + add
            return out

        for i in range(n):
            via_minus = shifted(best, int(d_minus[i]), float(a_minus[i]))
            if d_minus[i] == d_plus[i]:
                best = via_minus
                continue
            via_plus = shifted(best, int(d_plus[i]), float(a_plus[i]))
            take = via_plus < via_minus
            take_plus[i] = take
            best = np.where(take, via_plus, via_minus)

        sums = np.arange(n_states, dtype=np.int64) - offset
        reachable = np.isfinite(best)
        abs_key = np.where(reachable, np.abs(sums), np.iinfo(np.int64).max)
        state = int(np.lexsort((sums, np.where(reachable, best, np.inf),
                                abs_key))[0])
        picks = [0] * n
        for i in range(n - 1, -1, -1):
            minus, plus = pairs[i]
            candidate = plus if take_plus[i][state] else minus
            picks[i] = candidate
            state -= coefficients[i] - candidate
        return picks

    def _select_dp_dict(self, coefficients: list[int],
                        pairs: list[tuple[int, int]],
                        input_bits: int) -> list[int]:
        """The original dict-based DP (equivalence oracle)."""
        states: dict[int, tuple[float, tuple[int, ...]]] = {0: (0.0, ())}
        for w, (minus, plus) in zip(coefficients, pairs):
            options = {minus, plus}
            new_states: dict[int, tuple[float, tuple[int, ...]]] = {}
            for error_sum, (area, picks) in states.items():
                for candidate in options:
                    next_sum = error_sum + (w - candidate)
                    next_area = area + self.library.area(candidate, input_bits)
                    incumbent = new_states.get(next_sum)
                    if incumbent is None or next_area < incumbent[0]:
                        new_states[next_sum] = (next_area, picks + (candidate,))
            states = new_states
        best_sum = min(states, key=lambda s: (abs(s), states[s][0]))
        return list(states[best_sum][1])

    # ------------------------------------------------------------------
    # Whole-model application
    # ------------------------------------------------------------------
    def approximate_model(self, model) -> tuple[object, list[ApproximatedSum]]:
        """Apply the approximation to every weighted sum of a model.

        Returns the approximated quantized model plus per-sum reports.
        Executed per neuron / per score unit, exactly as in the paper.
        """
        updates = {}
        reports = []
        for spec in model.weighted_sums():
            result = self.approximate_coefficients(
                spec.coefficients, spec.input_bits)
            updates[(spec.layer, spec.unit)] = result.approximated
            reports.append(result)
        return model.replace_coefficients(updates), reports
