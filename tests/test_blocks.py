"""Tests for the arithmetic block generators (Value, multipliers, heads)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.blocks import (
    Value,
    argmax,
    balanced_sum,
    bespoke_multiplier,
    bits_for_range,
    conventional_multiplier,
    csd_digits,
    one_vs_one_votes,
)
from repro.hw.netlist import Netlist
from repro.hw.simulate import simulate
from repro.hw.synthesis import ArrayCircuit


def _simulate(nl: Netlist, inputs: dict):
    """Simulate a hand-built netlist through the rows it converts to."""
    return simulate(ArrayCircuit.from_netlist(nl)[0], inputs)


def _eval_value(nl: Netlist, value: Value, inputs: dict) -> np.ndarray:
    nl.set_output_bus("_out", value.nets, signed=value.signed)
    sim = _simulate(nl, inputs)
    return sim.bus_ints("_out")


class TestBitsForRange:
    @pytest.mark.parametrize("lo,hi,width", [
        (0, 0, 1), (0, 1, 1), (0, 2, 2), (0, 15, 4), (0, 16, 5),
        (-1, 0, 1), (-2, 1, 2), (-8, 7, 4), (-9, 0, 5), (-128, 127, 8),
    ])
    def test_known_widths(self, lo, hi, width):
        assert bits_for_range(lo, hi) == width

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bits_for_range(3, 2)

    @given(st.integers(-10**6, 10**6), st.integers(0, 10**6))
    def test_range_fits_in_computed_width(self, lo, span):
        hi = lo + span
        width = bits_for_range(lo, hi)
        if lo >= 0:
            assert hi <= (1 << width) - 1
        else:
            assert -(1 << (width - 1)) <= lo
            assert hi <= (1 << (width - 1)) - 1


class TestCsd:
    @given(st.integers(-(2**15), 2**15))
    def test_csd_reconstructs_value(self, value):
        assert sum(digit << position
                   for position, digit in csd_digits(value)) == value

    @given(st.integers(-(2**15), 2**15))
    def test_csd_no_adjacent_nonzero(self, value):
        positions = sorted(position for position, _ in csd_digits(value))
        assert all(b - a >= 2 for a, b in zip(positions, positions[1:]))

    @given(st.integers(1, 2**15))
    def test_csd_digit_count_at_most_half_bits(self, value):
        digits = csd_digits(value)
        assert len(digits) <= (value.bit_length() + 2) // 2 + 1

    def test_powers_of_two_single_digit(self):
        for exponent in range(8):
            assert len(csd_digits(1 << exponent)) == 1
            assert len(csd_digits(-(1 << exponent))) == 1

    def test_zero_has_no_digits(self):
        assert csd_digits(0) == []


class TestValueArithmetic:
    def test_constant_roundtrip(self):
        nl = Netlist()
        for value in [-17, -1, 0, 1, 42, 255]:
            constant = Value.constant(nl, value)
            assert constant.lo == constant.hi == value

    def test_from_bus_checks_width(self):
        nl = Netlist()
        nets = nl.add_input_bus("x", 2)
        with pytest.raises(ValueError, match="cannot carry"):
            Value.from_bus(nl, nets, 0, 100)

    @given(st.integers(-300, 300), st.integers(-300, 300))
    @settings(max_examples=60, deadline=None)
    def test_add_constants_fold(self, a, b):
        nl = Netlist()
        total = Value.constant(nl, a).add(Value.constant(nl, b))
        assert nl.n_gates == 0  # constant folding leaves no gates
        assert total.lo == total.hi == a + b

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_add_sub_match_integers(self, width, data):
        nl = Netlist()
        x = Value.input_bus(nl, "x", width)
        y = Value.input_bus(nl, "y", width)
        total = x.add(y)
        difference = x.sub(y)
        nl.set_output_bus("s", total.nets, signed=total.signed)
        nl.set_output_bus("d", difference.nets, signed=difference.signed)
        xs = np.array(data.draw(st.lists(
            st.integers(0, 2**width - 1), min_size=1, max_size=32)))
        ys = np.array(data.draw(st.lists(
            st.integers(0, 2**width - 1), min_size=len(xs), max_size=len(xs))))
        sim = _simulate(nl, {"x": xs, "y": ys})
        np.testing.assert_array_equal(sim.bus_ints("s"), xs + ys)
        np.testing.assert_array_equal(sim.bus_ints("d"), xs - ys)

    def test_cancelling_extremes_regression(self):
        # Regression: [-128,-120] + [120,127] needs fewer result bits
        # than either operand.
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        a = x.add_constant(-128)            # [-128, -121]
        b = Value.constant(nl, 124)
        total = a.add(b)                    # [-4, 3]
        assert (total.lo, total.hi) == (-4, 3)
        values = _eval_value(nl, total, {"x": np.arange(8)})
        np.testing.assert_array_equal(values, np.arange(8) - 128 + 124)

    def test_shifted_is_free(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        before = nl.n_gates
        shifted = x.shifted(4)
        assert nl.n_gates == before
        assert (shifted.lo, shifted.hi) == (0, 7 << 4)

    def test_shifted_rejects_negative(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        with pytest.raises(ValueError):
            x.shifted(-1)

    @given(st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_truncate_lsbs_is_floor_division(self, amount):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 4)
        offset = x.add_constant(-7)  # signed range [-7, 8]
        truncated = offset.truncate_lsbs(amount)
        values = _eval_value(nl, truncated, {"x": np.arange(16)})
        expected = (np.arange(16) - 7) >> amount
        np.testing.assert_array_equal(values, expected)

    def test_relu_matches_numpy(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 4)
        signed = x.add_constant(-7)
        rectified = signed.relu()
        assert rectified.lo == 0
        values = _eval_value(nl, rectified, {"x": np.arange(16)})
        np.testing.assert_array_equal(values, np.maximum(np.arange(16) - 7, 0))

    def test_relu_identity_for_unsigned(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 4)
        assert x.relu() is x

    def test_relu_constant_zero_for_nonpositive(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 2)
        negative = x.sub(Value.constant(nl, 10))  # [-10, -7]
        rectified = negative.relu()
        assert rectified.lo == rectified.hi == 0

    def test_neg(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        negated = x.neg()
        values = _eval_value(nl, negated, {"x": np.arange(8)})
        np.testing.assert_array_equal(values, -np.arange(8))

    def test_comparisons_including_ties(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        y = Value.input_bus(nl, "y", 3)
        ge_net = x.ge(y)
        gt_net = x.gt(y)
        nl.set_output_bus("ge", [ge_net])
        nl.set_output_bus("gt", [gt_net])
        xs, ys = np.meshgrid(np.arange(8), np.arange(8))
        xs, ys = xs.ravel(), ys.ravel()
        sim = _simulate(nl, {"x": xs, "y": ys})
        np.testing.assert_array_equal(sim.bus_ints("ge"), (xs >= ys).astype(int))
        np.testing.assert_array_equal(sim.bus_ints("gt"), (xs > ys).astype(int))

    def test_comparison_disjoint_ranges_fold_to_constant(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 2)
        big = x.add_constant(100)
        small = Value.constant(nl, 5)
        assert big.ge(small) == 1  # CONST1 net
        assert small.ge(big) == 0

    def test_select(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        y = Value.input_bus(nl, "y", 3)
        (sel,) = nl.add_input_bus("s", 1)
        chosen = x.select(y, sel)
        nl.set_output_bus("o", chosen.nets, signed=chosen.signed)
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 8, 50)
        ys = rng.integers(0, 8, 50)
        ss = rng.integers(0, 2, 50)
        sim = _simulate(nl, {"x": xs, "y": ys, "s": ss})
        np.testing.assert_array_equal(sim.bus_ints("o"), np.where(ss, ys, xs))


class TestBespokeMultiplier:
    @pytest.mark.parametrize("width", [4, 8])
    def test_exhaustive_small_inputs_all_coefficients(self, width):
        xs = np.arange(2 ** min(width, 6))
        for coefficient in range(-128, 128, 7):
            nl = Netlist()
            x = Value.input_bus(nl, "x", width)
            product = bespoke_multiplier(x, coefficient)
            values = _eval_value(nl, product, {"x": xs % (2**width)})
            np.testing.assert_array_equal(values, (xs % (2**width)) * coefficient)

    def test_power_of_two_coefficients_cost_zero_gates(self):
        for coefficient in [0, 1, 2, 4, 8, 16, 32, 64]:
            nl = Netlist()
            x = Value.input_bus(nl, "x", 4)
            bespoke_multiplier(x, coefficient)
            assert nl.n_gates == 0, f"w={coefficient} should be wiring only"

    @given(st.integers(-128, 127), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_random_coefficients_and_widths(self, coefficient, width):
        nl = Netlist()
        x = Value.input_bus(nl, "x", width)
        product = bespoke_multiplier(x, coefficient)
        rng = np.random.default_rng(abs(coefficient) + width)
        xs = rng.integers(0, 2**width, 24)
        values = _eval_value(nl, product, {"x": xs})
        np.testing.assert_array_equal(values, xs * coefficient)

    def test_range_is_exact(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 4)
        product = bespoke_multiplier(x, -5)
        assert (product.lo, product.hi) == (-75, 0)


class TestConventionalMultiplier:
    @pytest.mark.parametrize("wx,ww", [(3, 4), (4, 8)])
    def test_signed_by_unsigned(self, wx, ww):
        nl = Netlist()
        x = Value.input_bus(nl, "x", wx)
        w_nets = nl.add_input_bus("w", ww)
        w = Value(nl, w_nets, -(1 << (ww - 1)), (1 << (ww - 1)) - 1)
        product = conventional_multiplier(x, w)
        nl.set_output_bus("p", product.nets, signed=True)
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 1 << wx, 100)
        ws = rng.integers(0, 1 << ww, 100)
        sim = _simulate(nl, {"x": xs, "w": ws})
        signed_w = np.where(ws >= 1 << (ww - 1), ws - (1 << ww), ws)
        np.testing.assert_array_equal(sim.bus_ints("p"), xs * signed_w)

    def test_unsigned_by_unsigned(self):
        nl = Netlist()
        x = Value.input_bus(nl, "x", 3)
        w = Value.input_bus(nl, "w", 3)
        product = conventional_multiplier(x, w)
        nl.set_output_bus("p", product.nets, signed=product.signed)
        xs, ws = np.meshgrid(np.arange(8), np.arange(8))
        sim = _simulate(nl, {"x": xs.ravel(), "w": ws.ravel()})
        np.testing.assert_array_equal(sim.bus_ints("p"), (xs * ws).ravel())


class TestClassifierHeads:
    def test_argmax_matches_numpy_with_ties(self):
        nl = Netlist()
        values = [Value.input_bus(nl, f"v{i}", 3) for i in range(4)]
        index = argmax(values)
        nl.set_output_bus("idx", index.nets)
        rng = np.random.default_rng(1)
        # Low-entropy draws force many ties.
        data = {f"v{i}": rng.integers(0, 3, 300) for i in range(4)}
        sim = _simulate(nl, data)
        stacked = np.stack([data[f"v{i}"] for i in range(4)])
        np.testing.assert_array_equal(sim.bus_ints("idx"),
                                      np.argmax(stacked, axis=0))

    def test_argmax_of_single_value_is_zero(self):
        nl = Netlist()
        value = Value.input_bus(nl, "v", 2)
        index = argmax([value])
        assert index.lo == index.hi == 0

    def test_argmax_empty_rejected(self):
        with pytest.raises(ValueError):
            argmax([])

    def test_one_vs_one_votes_count(self):
        nl = Netlist()
        scores = [Value.input_bus(nl, f"s{i}", 3) for i in range(3)]
        counts = one_vs_one_votes(scores)
        for i, count in enumerate(counts):
            nl.set_output_bus(f"c{i}", count.nets)
        rng = np.random.default_rng(2)
        data = {f"s{i}": rng.integers(0, 8, 200) for i in range(3)}
        sim = _simulate(nl, data)
        stacked = np.stack([data[f"s{i}"] for i in range(3)], axis=1)
        expected = np.zeros_like(stacked)
        for i in range(3):
            for j in range(i + 1, 3):
                wins = stacked[:, i] >= stacked[:, j]
                expected[:, i] += wins
                expected[:, j] += ~wins
        for i in range(3):
            np.testing.assert_array_equal(sim.bus_ints(f"c{i}"),
                                          expected[:, i])

    def test_one_vs_one_needs_two_classes(self):
        nl = Netlist()
        with pytest.raises(ValueError):
            one_vs_one_votes([Value.input_bus(nl, "s", 2)])

    def test_balanced_sum_matches_total(self):
        nl = Netlist()
        values = [Value.input_bus(nl, f"v{i}", 2) for i in range(5)]
        total = balanced_sum(values)
        nl.set_output_bus("t", total.nets)
        rng = np.random.default_rng(3)
        data = {f"v{i}": rng.integers(0, 4, 64) for i in range(5)}
        sim = _simulate(nl, data)
        expected = sum(data[f"v{i}"] for i in range(5))
        np.testing.assert_array_equal(sim.bus_ints("t"), expected)

    def test_balanced_sum_empty_rejected(self):
        with pytest.raises(ValueError):
            balanced_sum([])
