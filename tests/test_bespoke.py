"""Tests for bespoke circuit generation: netlist == golden model."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.hw.area import area_mm2
from repro.hw.bespoke import (
    CLASS_OUTPUT,
    REGRESSOR_OUTPUT,
    build_bespoke_multiplier_netlist,
    build_bespoke_netlist,
    build_weighted_sum_netlist,
    input_payload,
)
from repro.hw.simulate import simulate
from repro.ml import (
    LinearSVMClassifier,
    LinearSVMRegressor,
    MLPClassifier,
    MLPRegressor,
)
from repro.quant import quantize_inputs, quantize_model


@pytest.fixture(scope="module")
def split():
    return load_dataset("redwine").standard_split(seed=0)


def _netlist_predictions(netlist, quant, Xq):
    sim = simulate(netlist, input_payload(Xq))
    if netlist.meta["kind"] == "classifier":
        index = sim.bus_ints(CLASS_OUTPUT)
        return quant.classes[np.clip(index, 0, len(quant.classes) - 1)]
    raw = sim.bus_ints(REGRESSOR_OUTPUT)
    decoded = raw / quant.output_scale
    return np.clip(np.rint(decoded), quant.y_min, quant.y_max).astype(np.int64)


@pytest.mark.parametrize("model_cls,kwargs", [
    (MLPClassifier, {"hidden_layer_sizes": (2,), "max_epochs": 120}),
    (MLPRegressor, {"hidden_layer_sizes": (2,), "max_epochs": 200}),
    (LinearSVMClassifier, {"max_epochs": 250}),
    (LinearSVMRegressor, {"max_epochs": 250}),
])
def test_netlist_equals_golden_model(split, model_cls, kwargs):
    """The central invariant: simulated circuit == integer golden model."""
    model = model_cls(seed=1, **kwargs).fit(split.X_train, split.y_train)
    quant = quantize_model(model)
    netlist = build_bespoke_netlist(quant)
    Xq = quantize_inputs(split.X_test)
    np.testing.assert_array_equal(
        _netlist_predictions(netlist, quant, Xq), quant.predict_int(Xq))


def test_regressor_output_ints_match(split):
    """Beyond labels: the raw weighted-sum integers must match exactly."""
    model = LinearSVMRegressor(seed=1, max_epochs=200).fit(
        split.X_train, split.y_train)
    quant = quantize_model(model)
    netlist = build_bespoke_netlist(quant)
    Xq = quantize_inputs(split.X_test)
    sim = simulate(netlist, input_payload(Xq))
    np.testing.assert_array_equal(sim.bus_ints(REGRESSOR_OUTPUT),
                                  quant.output_ints(Xq)[:, 0])


def test_meta_carries_watch_buses(split):
    model = MLPClassifier(hidden_layer_sizes=(2,), seed=1,
                          max_epochs=60).fit(split.X_train, split.y_train)
    quant = quantize_model(model)
    netlist = build_bespoke_netlist(quant)
    assert netlist.meta["kind"] == "classifier"
    watch = netlist.watch
    assert len(watch) == 6  # one bus per output neuron
    for bus in watch:
        assert all(0 <= net < netlist.n_nets for net in bus)


def test_unoptimized_netlist_larger(split):
    model = LinearSVMRegressor(seed=1, max_epochs=100).fit(
        split.X_train, split.y_train)
    quant = quantize_model(model)
    raw = build_bespoke_netlist(quant, optimize=False)
    optimized = build_bespoke_netlist(quant)
    assert optimized.n_gates <= raw.n_gates


def test_unsupported_model_rejected():
    with pytest.raises(TypeError, match="cannot build"):
        build_bespoke_netlist(object())


class TestWeightedSumNetlist:
    def test_matches_dot_product(self):
        rng = np.random.default_rng(0)
        coefficients = [37, -81, 0, 64, -3]
        netlist = build_weighted_sum_netlist(coefficients, input_bits=4,
                                             bias=-100)
        X = rng.integers(0, 16, size=(200, 5))
        sim = simulate(netlist, input_payload(X))
        expected = X @ np.array(coefficients) - 100
        np.testing.assert_array_equal(sim.bus_ints("sum"), expected)

    def test_all_zero_coefficients(self):
        netlist = build_weighted_sum_netlist([0, 0], input_bits=4, bias=7)
        X = np.zeros((4, 2), dtype=int)
        sim = simulate(netlist, input_payload(X))
        np.testing.assert_array_equal(sim.bus_ints("sum"), np.full(4, 7))
        assert netlist.n_gates == 0

    def test_area_grows_with_coefficient_count(self):
        small = build_weighted_sum_netlist([93, -77], input_bits=4)
        large = build_weighted_sum_netlist([93, -77, 51, 105, -23, 99],
                                           input_bits=4)
        assert area_mm2(large) > area_mm2(small)


class TestBespokeMultiplierNetlist:
    def test_functional(self):
        netlist = build_bespoke_multiplier_netlist(-93, input_bits=4)
        sim = simulate(netlist, {"x": np.arange(16)})
        np.testing.assert_array_equal(sim.bus_ints("p"), np.arange(16) * -93)

    def test_power_of_two_is_free(self):
        assert build_bespoke_multiplier_netlist(64, 4).n_gates == 0
        assert build_bespoke_multiplier_netlist(0, 8).n_gates == 0


class TestInputPayload:
    def test_one_bus_per_feature(self):
        X = np.arange(12).reshape(4, 3)
        payload = input_payload(X)
        assert set(payload) == {"x0", "x1", "x2"}
        np.testing.assert_array_equal(payload["x1"], [1, 4, 7, 10])
