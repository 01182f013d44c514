"""Tests for the hardware-driven coefficient approximation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coeff_approx import CoefficientApproximator
from repro.core.multiplier_area import (
    BespokeMultiplierLibrary,
    default_library,
)
from repro.datasets import load_dataset
from repro.ml import LinearSVMClassifier, MLPClassifier
from repro.quant import quantize_inputs, quantize_model


@pytest.fixture(scope="module")
def approximator():
    return CoefficientApproximator(library=default_library(), e=4)


class TestCandidatePairs:
    def test_pair_brackets_the_coefficient(self, approximator):
        for coefficient in [-100, -5, 0, 37, 85, 127]:
            minus, plus = approximator.candidate_pair(coefficient, 4)
            assert coefficient <= minus <= coefficient + 4
            assert coefficient - 4 <= plus <= coefficient

    def test_clipping_at_borders(self, approximator):
        minus, plus = approximator.candidate_pair(127, 4)
        assert minus <= 127  # cannot exceed the 8-bit range
        minus, plus = approximator.candidate_pair(-128, 4)
        assert plus >= -128

    def test_optimal_coefficient_not_replaced(self, approximator):
        """A power of two has zero area: both candidates must be itself."""
        assert approximator.candidate_pair(64, 4) == (64, 64)
        assert approximator.candidate_pair(0, 4) == (0, 0)

    def test_candidates_have_minimal_area(self, approximator):
        library = approximator.library
        w = 85
        minus, plus = approximator.candidate_pair(w, 4)
        for candidate in range(w, w + 5):
            assert library.area(minus, 4) <= library.area(candidate, 4)
        for candidate in range(w - 4, w + 1):
            assert library.area(plus, 4) <= library.area(candidate, 4)


class TestSelection:
    def test_result_never_costs_more_area(self, approximator):
        rng = np.random.default_rng(0)
        for _ in range(10):
            coefficients = rng.integers(-128, 128, size=8)
            result = approximator.approximate_coefficients(coefficients, 4)
            assert result.area_after <= result.area_before + 1e-9

    def test_e_zero_is_identity(self):
        identity = CoefficientApproximator(e=0)
        coefficients = [85, -77, 3]
        result = identity.approximate_coefficients(coefficients, 4)
        assert result.approximated == tuple(coefficients)
        assert result.error_sum == 0

    def test_error_sum_is_balanced(self, approximator):
        """The signed error must be small: each |w - w~| <= e, and the
        selection minimizes the absolute sum (Section III-B step 3)."""
        rng = np.random.default_rng(1)
        for _ in range(10):
            coefficients = rng.integers(-128, 128, size=10)
            result = approximator.approximate_coefficients(coefficients, 4)
            for original, approximated in zip(result.original,
                                              result.approximated):
                assert abs(original - approximated) <= 4
            # Balance: with both-sided candidates the optimum is tiny.
            assert abs(result.error_sum) <= 4 * 10

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=7),
           st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_dp_equals_exhaustive(self, coefficients, e):
        """The DP must reproduce the paper's brute force exactly."""
        exhaustive = CoefficientApproximator(e=e, strategy="exhaustive")
        dp = CoefficientApproximator(e=e, strategy="dp")
        result_a = exhaustive.approximate_coefficients(coefficients, 4)
        result_b = dp.approximate_coefficients(coefficients, 4)
        assert abs(result_a.error_sum) == abs(result_b.error_sum)
        assert result_a.area_after == pytest.approx(result_b.area_after)

    def test_greedy_ignores_balance(self):
        """Ablation: greedy picks the window-wide min-area candidate."""
        greedy = CoefficientApproximator(e=4, strategy="greedy")
        library = default_library()
        coefficients = [85, 85, 85]
        result = greedy.approximate_coefficients(coefficients, 4)
        window_best = min(range(81, 90), key=lambda w: library.area(w, 4))
        assert result.approximated == (window_best,) * 3

    def test_greedy_area_at_most_balanced(self, approximator):
        greedy = CoefficientApproximator(e=4, strategy="greedy")
        rng = np.random.default_rng(2)
        for _ in range(5):
            coefficients = rng.integers(-128, 128, size=6)
            balanced = approximator.approximate_coefficients(coefficients, 4)
            unconstrained = greedy.approximate_coefficients(coefficients, 4)
            assert unconstrained.area_after <= balanced.area_after + 1e-9

    def test_area_reduction_property(self, approximator):
        result = approximator.approximate_coefficients([85, -77, 109], 4)
        assert 0.0 <= result.area_reduction <= 1.0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            CoefficientApproximator(e=-1)
        with pytest.raises(ValueError):
            CoefficientApproximator(strategy="magic")

    def test_exhaustive_width_guard(self):
        wide = CoefficientApproximator(e=4, strategy="exhaustive")
        coefficients = [85] * 30  # 30 free pairs
        with pytest.raises(ValueError, match="too wide"):
            wide.approximate_coefficients(coefficients, 4)


class TestModelLevel:
    @pytest.fixture(scope="class")
    def split(self):
        return load_dataset("redwine").standard_split(seed=0)

    def test_mlp_model_approximation(self, split, approximator):
        model = MLPClassifier(hidden_layer_sizes=(2,), seed=1,
                              max_epochs=100).fit(split.X_train, split.y_train)
        quant = quantize_model(model)
        approximated, reports = approximator.approximate_model(quant)
        assert len(reports) == 8  # 2 hidden + 6 output neurons
        assert approximated.topology == quant.topology
        # Proxy area must not increase for any weighted sum.
        for report in reports:
            assert report.area_after <= report.area_before + 1e-9

    def test_svm_model_approximation_accuracy(self, split, approximator):
        model = LinearSVMClassifier(seed=1, max_epochs=300).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        approximated, _ = approximator.approximate_model(quant)
        Xq = quantize_inputs(split.X_test)
        baseline = np.mean(quant.predict_int(Xq) == split.y_test)
        approx = np.mean(approximated.predict_int(Xq) == split.y_test)
        # "Almost identical accuracy" (Section IV): generous bound here.
        assert approx >= baseline - 0.05

    def test_coefficients_stay_in_range(self, split, approximator):
        model = LinearSVMClassifier(seed=1, max_epochs=100).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        approximated, _ = approximator.approximate_model(quant)
        assert approximated.weights.max() <= 127
        assert approximated.weights.min() >= -128


class TestCandidateLadder:
    """The vectorized prefix-minima ladder vs the reference window scan."""

    @given(w=st.integers(-128, 127), e=st.integers(0, 12),
           input_bits=st.sampled_from([4, 8]))
    @settings(max_examples=60, deadline=None)
    def test_ladder_pair_matches_reference_scan(self, w, e, input_bits):
        a = CoefficientApproximator(library=default_library(), e=e)
        ref = (a._min_area_candidate(w, min(w + e, 127), input_bits, w),
               a._min_area_candidate(max(w - e, -128), w, input_bits, w))
        assert a.candidate_pair(w, input_bits) == ref

    @given(e_max=st.integers(1, 10), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_ladder_shared_pairs_match_per_e(self, e_max, seed):
        """One ladder serves every e: rung e == a fresh e-radius pair."""
        rng = np.random.default_rng(seed)
        coefficients = rng.integers(-128, 128, size=8).tolist()
        sweep = CoefficientApproximator(library=default_library(), e=e_max)
        for e in range(0, e_max + 1):
            shared = sweep.candidate_pairs(coefficients, 4, e=e)
            fresh = CoefficientApproximator(library=default_library(), e=e)
            assert shared == [fresh.candidate_pair(w, 4)
                              for w in coefficients]

    def test_large_radius_reads_the_last_rung(self):
        """Past e = N - 1 every window spans the whole range, so a huge
        radius allocates no more than e = 255 and picks the same
        candidates."""
        library = BespokeMultiplierLibrary()
        library.areas_array(8)  # warm the area table outside the trace
        coefficients = list(range(-128, 128))
        tracemalloc.start()
        try:
            far = CoefficientApproximator(library=library, e=20_000) \
                .candidate_pairs(coefficients, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024
        assert far == CoefficientApproximator(library=library, e=255) \
            .candidate_pairs(coefficients, 8)
        minus, plus = library.candidate_ladder(8, 20_000)
        assert len(minus) == len(plus) == 256

    def test_vectorized_pairs_match_scalar(self, approximator):
        coefficients = list(range(-128, 128))
        assert approximator.candidate_pairs(coefficients, 4) \
            == [approximator.candidate_pair(w, 4) for w in coefficients]

    def test_mismatched_coeff_bits_falls_back_to_scan(self):
        """An approximator narrower than its library cannot use the
        shared ladder (different clip borders) — the scan must kick in
        and still clip at the approximator's range."""
        a = CoefficientApproximator(library=default_library(), e=6,
                                    coeff_bits=6)
        minus, plus = a.candidate_pair(30, 4)
        assert 30 <= minus <= 31  # clipped at the 6-bit border, not 36
        assert 24 <= plus <= 30
        assert a.candidate_pairs([30], 4) == [(minus, plus)]

    def test_out_of_range_coefficient_rejected(self, approximator):
        with pytest.raises(ValueError, match="outside"):
            approximator.candidate_pair(400, 4)
        with pytest.raises(ValueError, match="outside"):
            approximator.candidate_pairs([0, 400], 4)


class TestSelectionEquivalence:
    """Vectorized selection vs the Python reference implementations."""

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=10),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_exhaustive_picks_equal_reference(self, coeffs, e):
        """Not just the objective: the *picks* are identical (same
        enumeration order, same float accumulation, same tie rule)."""
        a = CoefficientApproximator(library=default_library(), e=e,
                                    strategy="exhaustive")
        pairs = a.candidate_pairs(coeffs, 4)
        assert a._select_exhaustive(coeffs, pairs, 4) \
            == a._select_exhaustive_reference(coeffs, pairs, 4)

    @given(st.lists(st.integers(-128, 127), min_size=1, max_size=8),
           st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_array_dp_equals_dict_dp_equals_exhaustive(self, coeffs, e):
        """The three selectors agree on the paper's objective
        (|error sum|, area); picks may differ only on exact area ties."""
        library = default_library()
        a = CoefficientApproximator(library=library, e=e)
        pairs = a.candidate_pairs(coeffs, 4)
        selections = {
            "dp": a._select_dp(coeffs, pairs, 4),
            "dict": a._select_dp_dict(coeffs, pairs, 4),
            "exhaustive": a._select_exhaustive(coeffs, pairs, 4),
        }
        objectives = {}
        for name, chosen in selections.items():
            for w, c, (minus, plus) in zip(coeffs, chosen, pairs):
                assert c in (minus, plus)
                assert abs(w - c) <= e
            error = abs(sum(w - c for w, c in zip(coeffs, chosen)))
            area = sum(library.area(c, 4) for c in chosen)
            objectives[name] = (error, area)
        assert objectives["dp"][0] == objectives["dict"][0] \
            == objectives["exhaustive"][0]
        assert objectives["dp"][1] == pytest.approx(objectives["dict"][1])
        assert objectives["dp"][1] == pytest.approx(
            objectives["exhaustive"][1])

    def test_array_dp_wide_sum(self):
        """A sum far past the exhaustive limit still balances exactly."""
        rng = np.random.default_rng(5)
        coeffs = rng.integers(-128, 128, size=48).tolist()
        a = CoefficientApproximator(library=default_library(), e=4,
                                    strategy="dp")
        pairs = a.candidate_pairs(coeffs, 4)
        dp = a._select_dp(coeffs, pairs, 4)
        dict_dp = a._select_dp_dict(coeffs, pairs, 4)
        assert abs(sum(w - c for w, c in zip(coeffs, dp))) \
            == abs(sum(w - c for w, c in zip(coeffs, dict_dp)))

    def test_empty_coefficient_vector(self):
        a = CoefficientApproximator(library=default_library(), e=4,
                                    strategy="dp")
        result = a.approximate_coefficients([], 4)
        assert result.approximated == ()
        assert result.error_sum == 0


class TestFig2Ladder:
    def test_run_matches_best_in_window_reference(self):
        from repro.experiments import fig2
        from repro.core.multiplier_area import BespokeMultiplierLibrary
        from repro.quant.fixed_point import coeff_range

        library = BespokeMultiplierLibrary(coeff_bits=6)
        table = library.area_table(4)
        lo, hi = coeff_range(6)
        for cell in fig2.run(e_values=(1, 4, 9),
                             configurations=((4, 6),)):
            expected = [100.0 * (1.0 - fig2.best_in_window(
                table, w, cell.e, lo, hi) / area)
                for w, area in table.items() if area > 0.0]
            assert np.array_equal(cell.reductions_pct,
                                  np.array(expected))
