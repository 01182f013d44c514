"""Reports and exporters on the default build's circuits.

Every default build hands out an :class:`~repro.hw.synthesis.ArrayCircuit`,
and the area, power and timing reports, the Verilog and JSON exporters
and the bigint oracle all read its rows.  The pinned digests were taken
through the builder IR (``to_netlist()``) before the exporters read
rows, so they also pin that the exports did not move.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.zoo import get_case
from repro.hw.area import AreaReport, area_mm2
from repro.hw.bespoke import build_bespoke_netlist, input_payload
from repro.hw.cells import EGT_LIBRARY
from repro.hw.netlist import Netlist
from repro.hw.netlist_io import (encode_netlist, load_netlist,
                                 netlist_to_dict, save_netlist)
from repro.hw.power import PowerReport, power_uw
from repro.hw.simulate import simulate
from repro.hw.timing import TimingReport, critical_path_ms
from repro.hw.verilog import to_verilog
from repro.quant import quantize_inputs
from repro.service.store import netlist_fingerprint

# The five circuits of the committed BENCH_*.json records.
BENCH_CIRCUITS = (("redwine", "svm_r"), ("redwine", "mlp_c"),
                  ("redwine", "svm_c"), ("whitewine", "svm_c"),
                  ("cardio", "svm_c"))

# sha256 of (to_verilog text, encode_netlist text) of the circuit built
# as ``build_bespoke_netlist(model, name="<dataset>_<model>")``.
PINS = {
    ("redwine", "svm_r"): (
        "270d7819f1895723f9ebaddf930751db3ed7d5b7c4fcf01c3a7c070c4f6b3a4e",
        "768e0fa0d474081466c3628e84b5af17b2d2163fc3e5e9ade587f6f12b370b0e"),
    ("redwine", "svm_c"): (
        "924b55953fc78fbea06ce6f0252562ec201fba47c8b24b96339621e8938aa988",
        "2a6eed4b49912e51a785bd8e012a7434bbe4e4a556504379fe5a25accc234331"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module", params=BENCH_CIRCUITS, ids="/".join)
def bench(request):
    """(case, default-build circuit, its test-set activity)."""
    dataset, model = request.param
    case = get_case(dataset, model)
    circuit = build_bespoke_netlist(case.quant_model,
                                    name=f"{dataset}_{model}")
    payload = input_payload(quantize_inputs(case.split.X_test))
    return case, circuit, simulate(circuit, payload).activity()


def _reference_critical_path(nl: Netlist) -> float:
    """Per-gate arrival times over a netlist's gate lists (the oracle)."""
    arrival = [0.0] * nl.n_nets
    for cell, inputs, out in zip(nl.gate_type, nl.gate_inputs,
                                 nl.gate_out):
        arrival[out] = max(arrival[net] for net in inputs) \
            + EGT_LIBRARY[cell].delay_ms
    return max((arrival[net] for nets in nl.output_buses.values()
                for net in nets), default=0.0)


def test_area_report(bench):
    _case, circuit, _activity = bench
    report = AreaReport.from_netlist(circuit)
    assert report.total_mm2 == area_mm2(circuit)
    assert report.n_gates == circuit.n_gates
    assert sum(report.by_cell_mm2.values()) == pytest.approx(
        report.total_mm2)
    histogram: dict[str, int] = {}
    for cell in circuit.to_netlist().gate_type:
        histogram[cell] = histogram.get(cell, 0) + 1
    assert set(report.by_cell_mm2) == set(histogram)
    assert "mm^2" in str(report)


def test_power_report_equals_power_uw(bench):
    """The report splits exactly the total records carry."""
    case, circuit, activity = bench
    for clock_ms in (None, case.clock_ms, 50.0):
        report = PowerReport.from_netlist(circuit, activity, clock_ms)
        assert report.total_uw == power_uw(circuit, activity, clock_ms)
        assert report.static_uw > report.dynamic_uw > 0.0
    estimate = PowerReport.from_netlist(circuit)
    assert estimate.total_uw == power_uw(circuit)


def test_timing_report(bench):
    case, circuit, _activity = bench
    path = critical_path_ms(circuit)
    assert path == _reference_critical_path(circuit.to_netlist())
    report = TimingReport.from_netlist(circuit, clock_ms=case.clock_ms)
    assert report.critical_path_ms == path
    assert report.meets_clock


def test_verilog(bench):
    _case, circuit, _activity = bench
    text = to_verilog(circuit)
    assert text.count("endmodule") == 1
    assert f"// {circuit.n_gates} cells" in text
    assert sum(1 for line in text.splitlines()
               if " u" in line and ".y(" in line) == circuit.n_gates


def test_json_document_and_file_round_trip(bench, tmp_path):
    _case, circuit, _activity = bench
    data = netlist_to_dict(circuit)
    assert data == json.loads(encode_netlist(circuit).text)
    assert len(data["gates"]) == circuit.n_gates
    path = tmp_path / "circuit.json"
    save_netlist(circuit, path)
    restored = load_netlist(path)
    assert (restored.ops, restored.ina, restored.inb, restored.inc) \
        == (list(circuit.ops), list(circuit.ina), list(circuit.inb),
            list(circuit.inc))
    assert restored.outputs == circuit.outputs
    assert restored.watch == circuit.watch
    assert netlist_fingerprint(restored) == netlist_fingerprint(circuit)


def test_bigint_engine_matches_compiled(bench):
    case, circuit, activity = bench
    payload = input_payload(quantize_inputs(case.split.X_test))
    fast = simulate(circuit, payload)
    oracle = simulate(circuit, payload, engine="bigint")
    for bus in circuit.output_buses:
        np.testing.assert_array_equal(fast.bus_ints(bus),
                                      oracle.bus_ints(bus))
    reference = oracle.activity()
    np.testing.assert_array_equal(activity.ones, reference.ones)
    np.testing.assert_array_equal(activity.flips, reference.flips)


@pytest.mark.parametrize("key", sorted(PINS), ids="/".join)
def test_exports_are_pinned(key):
    dataset, model = key
    circuit = build_bespoke_netlist(get_case(dataset, model).quant_model,
                                    name=f"{dataset}_{model}")
    assert (_sha(to_verilog(circuit)), _sha(encode_netlist(circuit).text)) \
        == PINS[key]
