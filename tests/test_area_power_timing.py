"""Tests for the area, power, and timing analyses."""

import numpy as np
import pytest

from repro.hw.area import AreaReport, area_cm2, area_mm2
from repro.hw.blocks import Value, bespoke_multiplier
from repro.hw.cells import EGT_LIBRARY, TECHNOLOGY
from repro.hw.netlist import Netlist
from repro.hw.power import PowerReport, power_mw, power_uw
from repro.hw.simulate import simulate
from repro.hw.synthesis import ArrayCircuit, synthesize
from repro.hw.timing import TimingReport, critical_path_ms


def _rows(nl: Netlist) -> ArrayCircuit:
    """A hand-built netlist as the rows the reports read (unfolded)."""
    return ArrayCircuit.from_netlist(nl)[0]


def _two_gate_netlist() -> ArrayCircuit:
    nl = Netlist(cse=False)
    a, b = nl.add_input_bus("x", 2)
    first = nl.add_gate("AND2", a, b)
    nl.set_output_bus("y", [nl.add_gate("INV", first)])
    return _rows(nl)


class TestArea:
    def test_empty_netlist_zero_area(self):
        nl = Netlist()
        nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [0])
        assert area_mm2(_rows(nl)) == 0.0

    def test_area_is_sum_of_cells(self):
        nl = _two_gate_netlist()
        expected = ((EGT_LIBRARY["AND2"].transistors
                     + EGT_LIBRARY["INV"].transistors)
                    * TECHNOLOGY.area_per_transistor_mm2)
        assert area_mm2(nl) == pytest.approx(expected)
        assert area_cm2(nl) == pytest.approx(expected / 100.0)

    def test_report_breakdown_sums_to_total(self):
        nl = _two_gate_netlist()
        report = AreaReport.from_netlist(nl)
        assert report.total_mm2 == pytest.approx(area_mm2(nl))
        assert set(report.by_cell_mm2) == {"AND2", "INV"}
        assert "mm^2" in str(report)

    def test_conventional_multiplier_calibration(self):
        """The Fig. 1 caption anchors: 4x8 ~ 84 mm^2, 8x8 ~ 207 mm^2."""
        from repro.experiments.fig1 import conventional_area_mm2
        area_4x8 = conventional_area_mm2(4, 8)
        area_8x8 = conventional_area_mm2(8, 8)
        assert area_4x8 == pytest.approx(83.61, rel=0.15)
        assert area_8x8 == pytest.approx(207.43, rel=0.20)

    def test_bespoke_always_cheaper_than_conventional(self):
        """Fig. 1 observation: every BM_w beats the generic multiplier."""
        from repro.core.multiplier_area import default_library
        library = default_library()
        conventional = 83.61
        for coefficient in range(-128, 128, 5):
            assert library.area(coefficient, 4) < conventional


class TestPower:
    def test_power_zero_for_empty_netlist(self):
        nl = Netlist()
        nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [0])
        assert power_uw(_rows(nl)) == 0.0

    def test_power_without_activity_uses_defaults(self):
        nl = _two_gate_netlist()
        assert power_uw(nl) > 0.0

    def test_power_with_activity(self):
        nl = _two_gate_netlist()
        activity = simulate(nl, {"x": np.arange(4)}).activity()
        with_activity = power_uw(nl, activity)
        assert with_activity > 0.0

    def test_power_mw_conversion(self):
        nl = _two_gate_netlist()
        assert power_mw(nl) == pytest.approx(power_uw(nl) / 1e3)

    def test_report_split(self):
        nl = _two_gate_netlist()
        activity = simulate(nl, {"x": np.array([0, 1, 2, 3] * 10)}).activity()
        report = PowerReport.from_netlist(nl, activity)
        assert report.total_uw == pytest.approx(
            report.static_uw + report.dynamic_uw)
        assert report.total_mw == pytest.approx(report.total_uw / 1e3)
        assert report.static_uw > report.dynamic_uw  # EGT static dominance
        assert "mW" in str(report)

    def test_faster_clock_increases_dynamic_power(self):
        nl = _two_gate_netlist()
        activity = simulate(nl, {"x": np.array([0, 3] * 20)}).activity()
        fast = PowerReport.from_netlist(nl, activity, clock_ms=50.0)
        slow = PowerReport.from_netlist(nl, activity, clock_ms=200.0)
        assert fast.dynamic_uw > slow.dynamic_uw
        assert fast.static_uw == pytest.approx(slow.static_uw)

    def test_power_density_matches_table1_scale(self):
        """Full bespoke circuits run at ~3 mW/cm^2 in Table I."""
        nl = Netlist()
        x = Value.input_bus(nl, "x", 4)
        total = None
        for index, coefficient in enumerate([93, -77, 51, 105, -23]):
            product = bespoke_multiplier(x, coefficient)
            total = product if total is None else total.add(product)
        nl.set_output_bus("y", total.nets, signed=total.signed)
        optimized = synthesize(nl)
        rng = np.random.default_rng(0)
        activity = simulate(optimized, {"x": rng.integers(0, 16, 500)}).activity()
        density = power_mw(optimized, activity) / area_cm2(optimized)
        assert 2.0 < density < 4.5


class TestTiming:
    def test_empty_path_zero(self):
        nl = Netlist()
        nl.add_input_bus("x", 1)
        nl.set_output_bus("y", [0])
        assert critical_path_ms(_rows(nl)) == 0.0

    def test_chain_delay_accumulates(self):
        nl = Netlist(cse=False)
        (a,) = nl.add_input_bus("x", 1)
        net = a
        for _ in range(5):
            net = nl.add_gate("INV", net)
        nl.set_output_bus("y", [net])
        expected = 5 * EGT_LIBRARY["INV"].delay_ms
        assert critical_path_ms(_rows(nl)) == pytest.approx(expected)

    def test_parallel_paths_take_max(self):
        nl = Netlist(cse=False)
        a, b = nl.add_input_bus("x", 2)
        slow = nl.add_gate("XOR2", a, b)
        slow = nl.add_gate("XOR2", slow, b)
        fast = nl.add_gate("INV", a)
        join = nl.add_gate("AND2", slow, fast)
        nl.set_output_bus("y", [join])
        expected = (2 * EGT_LIBRARY["XOR2"].delay_ms
                    + EGT_LIBRARY["AND2"].delay_ms)
        assert critical_path_ms(_rows(nl)) == pytest.approx(expected)

    def test_report_slack(self):
        nl = _two_gate_netlist()
        report = TimingReport.from_netlist(nl, clock_ms=200.0)
        assert report.meets_clock
        assert report.slack_ms == pytest.approx(
            200.0 - report.critical_path_ms)
        assert "MET" in str(report)

    def test_violated_clock_reported(self):
        nl = _two_gate_netlist()
        report = TimingReport.from_netlist(nl, clock_ms=0.001)
        assert not report.meets_clock
        assert "VIOLATED" in str(report)

    def test_default_clock_from_technology(self):
        nl = _two_gate_netlist()
        report = TimingReport.from_netlist(nl)
        assert report.clock_ms == TECHNOLOGY.default_clock_ms
