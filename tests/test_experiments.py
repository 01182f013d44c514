"""Tests for the experiment harnesses (zoo, tables, figures, proxy)."""

import numpy as np
import pytest

from repro.experiments import (
    CASE_LABELS,
    EXCLUDED_CASES,
    PAPER_CLOCK_MS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3_MINUTES,
    all_cases,
    case_keys,
    get_case,
)
from repro.experiments import fig1, fig2, proxy_correlation, table1
from repro.experiments.zoo import HIDDEN_UNITS, MODEL_KINDS


class TestPaperData:
    def test_sixteen_circuits_in_table1(self):
        assert len(PAPER_TABLE1) == 16

    def test_fourteen_evaluated_in_table2(self):
        assert len(PAPER_TABLE2) == 14
        assert not set(EXCLUDED_CASES) & set(PAPER_TABLE2)

    def test_pendigits_mlp_c_has_relaxed_clock(self):
        assert PAPER_CLOCK_MS[("pendigits", "mlp_c")] == 250.0
        assert PAPER_CLOCK_MS[("redwine", "svm_r")] == 200.0

    def test_table3_matches_case_set(self):
        assert set(PAPER_TABLE3_MINUTES) == set(CASE_LABELS)


class TestZoo:
    def test_case_keys_counts(self):
        assert len(case_keys()) == 14
        assert len(case_keys(include_excluded=True)) == 16

    def test_paper_topologies(self):
        assert HIDDEN_UNITS == {"cardio": 3, "pendigits": 5,
                                "redwine": 2, "whitewine": 4}

    def test_case_is_cached(self):
        assert get_case("redwine", "svm_r") is get_case("redwine", "svm_r")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            get_case("redwine", "tree")

    def test_case_fields(self):
        case = get_case("redwine", "svm_r")
        assert case.label == "RW SVM-R"
        assert case.clock_ms == 200.0
        assert not case.excluded
        assert case.quant_model.n_coefficients == 11  # Table I

    def test_coefficient_counts_match_table1(self):
        for dataset, kind in [("redwine", "mlp_c"), ("redwine", "svm_c"),
                              ("redwine", "svm_r"), ("redwine", "mlp_r")]:
            case = get_case(dataset, kind)
            assert (case.quant_model.n_coefficients
                    == PAPER_TABLE1[(dataset, kind)].n_coefficients)

    def test_model_kinds(self):
        assert MODEL_KINDS == ("mlp_c", "mlp_r", "svm_c", "svm_r")


class TestTable1:
    def test_run_on_one_dataset(self):
        cases = [get_case("redwine", kind) for kind in MODEL_KINDS]
        rows = table1.run(cases)
        assert len(rows) == 4
        for row in rows:
            assert 0.0 < row.accuracy <= 1.0
            assert row.area_cm2 > 0
            assert row.power_mw > 0
            # Shape: same order of magnitude as the paper's baselines.
            if row.paper.area_cm2 is not None:
                assert 0.2 < row.area_cm2 / row.paper.area_cm2 < 5.0

    def test_format_contains_labels(self):
        cases = [get_case("redwine", "svm_r")]
        text = table1.format_table(table1.run(cases))
        assert "RW SVM-R" in text
        assert "TABLE I" in text


class TestFig1:
    def test_series_structure(self):
        series = fig1.run(input_widths=(4,))
        (s,) = series
        assert s.input_bits == 4
        assert len(s.coefficients) == 256
        assert s.conventional_mm2 > s.max_area_mm2  # bespoke always wins

    def test_zero_area_includes_powers_of_two(self):
        (s,) = fig1.run(input_widths=(4,))
        zero_set = set(s.zero_area_coefficients)
        assert {0, 1, 2, 4, 8, 16, 32, 64}.issubset(zero_set)

    def test_format(self):
        text = fig1.format_table(fig1.run(input_widths=(4,)))
        assert "FIG. 1" in text


class TestFig2:
    @pytest.fixture(scope="class")
    def cells(self):
        return fig2.run(e_values=(1, 4), configurations=((4, 8),))

    def test_median_reduction_grows_with_e(self, cells):
        by_e = {cell.e: cell for cell in cells}
        assert by_e[4].median >= by_e[1].median

    def test_paper_scale_medians(self, cells):
        """Paper: median >19% at e=1, ~44-53% at e=4."""
        by_e = {cell.e: cell for cell in cells}
        assert by_e[1].median > 10.0
        assert by_e[4].median > 30.0

    def test_full_and_zero_reduction_cases_exist(self, cells):
        for cell in cells:
            assert cell.n_full_reduction > 0  # powers of two nearby
            assert cell.n_zero_reduction >= 0

    def test_reductions_bounded(self, cells):
        for cell in cells:
            assert np.all(cell.reductions_pct >= 0.0)
            assert np.all(cell.reductions_pct <= 100.0)

    def test_format(self, cells):
        text = fig2.format_table(list(cells))
        assert "FIG. 2" in text and "e= 4" in text


class TestProxyCorrelation:
    def test_high_correlation_on_small_sample(self):
        study = proxy_correlation.run(n_circuits=40, seed=3,
                                      max_coefficients=10)
        assert study.n_circuits == 40
        assert study.pearson_r > 0.8  # paper: 0.91 on 1000 circuits
        assert study.p_value < 1e-6

    def test_format(self):
        study = proxy_correlation.run(n_circuits=15, seed=1,
                                      max_coefficients=6)
        text = proxy_correlation.format_table(study)
        assert "Pearson" in text and "0.91" in text

    @pytest.mark.parametrize("n,slope,noise", [
        (3, 1.0, 1.0), (15, 0.3, 1.0), (40, 1.0, 0.2), (200, -0.1, 1.0),
        (1000, 0.05, 1.0), (1000, 1.0, 0.05)])
    def test_pearsonr_matches_scipy(self, n, slope, noise):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = slope * x + noise * rng.normal(size=n)
        r, p = proxy_correlation.pearsonr(x, y)
        expected = stats.pearsonr(x, y)
        assert r == pytest.approx(expected.statistic, rel=1e-12, abs=1e-15)
        assert p == pytest.approx(expected.pvalue, rel=1e-8, abs=1e-300)

    def test_pearsonr_extremes(self):
        x = np.arange(-2.0, 3.0)
        assert proxy_correlation.pearsonr(x, 1 - 2 * x) == (-1.0, 0.0)
        assert proxy_correlation.pearsonr(x, x ** 2) == (0.0, 1.0)
        with pytest.raises(ValueError):
            proxy_correlation.pearsonr([1.0, 2.0], [2.0, 1.0])
