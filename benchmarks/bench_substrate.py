"""Micro-benchmarks of the hardware substrate itself.

These are genuine repeated-measurement benchmarks (unlike the one-shot
table/figure regenerations): netlist simulation throughput and synthesis
speed on a real circuit of the evaluation set.  They document why the
full-search exploration that takes the paper's Synopsys flow minutes per
circuit runs in seconds here.
"""

import numpy as np
import pytest
from conftest import run_once

from repro.eval.accuracy import CircuitEvaluator
from repro.experiments.zoo import get_case
from repro.hw.bespoke import build_bespoke_netlist, input_payload
from repro.hw.simulate import simulate
from repro.hw.synthesis import synthesize_arrays
from repro.quant import quantize_inputs


# Best of this many calls per micro-benchmark.
ROUNDS = 5


@pytest.fixture(scope="module")
def circuit():
    case = get_case("redwine", "mlp_c")
    netlist = build_bespoke_netlist(case.quant_model)
    Xq = quantize_inputs(case.split.X_test)
    return netlist, input_payload(Xq), len(Xq)


def test_simulation_throughput(circuit):
    """Bit-parallel simulation of the full test set through the netlist."""
    netlist, payload, n_vectors = circuit
    result = run_once(lambda: simulate(netlist, payload), rounds=ROUNDS)
    assert result.n_vectors == n_vectors


def test_activity_extraction(circuit):
    """SAIF-equivalent statistics from a finished simulation."""
    netlist, payload, _ = circuit
    sim = simulate(netlist, payload)
    activity = run_once(sim.activity, rounds=ROUNDS)
    assert activity.n_gates == netlist.n_gates


def test_synthesis_speed(circuit):
    """Folding rebuild + dead-gate strip of a full bespoke circuit."""
    netlist, _, _ = circuit
    optimized = run_once(lambda: synthesize_arrays(netlist)[0],
                         rounds=ROUNDS)
    assert optimized.n_gates <= netlist.n_gates


def test_bespoke_generation_speed():
    """Model -> optimized netlist for the RedWine MLP-C."""
    case = get_case("redwine", "mlp_c")
    netlist = run_once(lambda: build_bespoke_netlist(case.quant_model),
                       rounds=ROUNDS)
    assert netlist.n_gates > 0


def test_evaluation_roundtrip(circuit):
    """Simulate + decode + area + power: the per-design exploration cost."""
    case = get_case("redwine", "mlp_c")
    split = case.split
    evaluator = CircuitEvaluator.from_split(
        case.quant_model, split.X_train, split.X_test, split.y_test)
    netlist, _, _ = circuit
    record = run_once(lambda: evaluator.evaluate(netlist), rounds=ROUNDS)
    assert 0.0 <= record.accuracy <= 1.0
