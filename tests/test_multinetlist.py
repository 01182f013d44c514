"""Multi-netlist batched evaluation vs the per-netlist oracle.

The contract under test: ``CircuitEvaluator.evaluate_many(circuits)``
is **bit-identical** to ``[evaluator.evaluate(c) for c in circuits]``
for any list of independent circuits — real bespoke netlists, folded
array circuits, and adversarial random netlists (zero-gate ones
included), including vector counts that are not a multiple of 64
(tail masking is where word-parallel engines break), single-element
batches, and every fallback path (bigint engine, mismatched bus
layouts, chunked batches).  The random batches and the per-circuit
views of :func:`~repro.hw.compiled.simulate_many` are checked against
the bigint oracle.  Same ``==``-on-frozen-dataclass strictness as the
rest of the engine equivalence battery.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.coeff_approx import CoefficientApproximator
from repro.core.multiplier_area import default_library
from repro.eval.accuracy import CircuitEvaluator, DecodeSpec
from repro.experiments.zoo import get_case
from repro.hw.bespoke import REGRESSOR_OUTPUT, build_bespoke_netlist
from repro.hw.compiled import (
    HOST_SUPPORTS_COMPILED,
    pack_stimulus,
    simulate_many,
)
from repro.hw.netlist import CONST1, Netlist
from repro.hw.simulate import _validate_inputs, simulate_bigint
from repro.hw.synthesis import ArrayCircuit, synthesize_arrays
from random_circuits import random_circuit

needs_compiled = pytest.mark.skipif(
    not HOST_SUPPORTS_COMPILED,
    reason="multi-netlist batching needs the compiled word layout")



def _regressor_netlist(rng: np.random.Generator, n_gates: int,
                       width: int) -> ArrayCircuit:
    return random_circuit(rng, n_gates, width, output=REGRESSOR_OUTPUT,
                          signed=False)


def _random_evaluator(rng: np.random.Generator, width: int,
                      n_test: int, engine: str = "auto") -> CircuitEvaluator:
    train = {"x": rng.integers(0, 1 << width, 40)}
    test = {"x": rng.integers(0, 1 << width, n_test)}
    y_test = rng.integers(0, 8, n_test)
    decode = DecodeSpec("regressor", y_min=0, y_max=7, output_scale=1.0)
    return CircuitEvaluator(decode, train, test, np.asarray(y_test),
                            engine=engine)


@pytest.fixture(scope="module")
def ladder_case():
    """redwine SVM-R: exact netlist plus e = 1..4 coefficient variants."""
    case = get_case("redwine", "svm_r")
    netlists = [build_bespoke_netlist(case.quant_model)]
    for e in range(1, 5):
        approx, _ = CoefficientApproximator(
            library=default_library(), e=e).approximate_model(
                case.quant_model)
        netlists.append(build_bespoke_netlist(approx))
    return case, netlists


def _fresh_evaluator(case):
    return CircuitEvaluator.from_split(
        case.quant_model, case.split.X_train, case.split.X_test,
        case.split.y_test, clock_ms=case.clock_ms)


@needs_compiled
class TestEvaluateManyRealCircuits:
    def test_e_ladder_records_identical(self, ladder_case):
        case, netlists = ladder_case
        many = _fresh_evaluator(case).evaluate_many(netlists)
        single = [_fresh_evaluator(case).evaluate(nl) for nl in netlists]
        assert many == single

    def test_array_circuit_route(self, ladder_case):
        """Folded ArrayCircuits (the sweep's fast path) score the same."""
        case, netlists = ladder_case
        arrays = [synthesize_arrays(nl)[0] for nl in netlists]
        many = _fresh_evaluator(case).evaluate_many(arrays)
        single = [_fresh_evaluator(case).evaluate(nl) for nl in netlists]
        assert many == single

    def test_classifier_case(self):
        """Argmax-head decode (vote network) through the batch path."""
        case = get_case("redwine", "svm_c")
        approx, _ = CoefficientApproximator(
            library=default_library(), e=4).approximate_model(
                case.quant_model)
        netlists = [build_bespoke_netlist(case.quant_model),
                    build_bespoke_netlist(approx)]
        many = _fresh_evaluator(case).evaluate_many(netlists)
        single = [_fresh_evaluator(case).evaluate(nl) for nl in netlists]
        assert many == single

    def test_chunked_batches_identical(self, ladder_case, monkeypatch):
        """A tiny chunk cap slices the batch; records must not change."""
        case, netlists = ladder_case
        reference = _fresh_evaluator(case).evaluate_many(netlists)
        monkeypatch.setattr(CircuitEvaluator, "MAX_CHUNK_BYTES",
                            netlists[0].n_nets * 8 * 8 * 2)
        chunked = _fresh_evaluator(case).evaluate_many(netlists)
        assert chunked == reference


class TestEvaluateManyFallbacks:
    def test_single_element_batch(self, ladder_case):
        case, netlists = ladder_case
        assert _fresh_evaluator(case).evaluate_many([netlists[0]]) \
            == [_fresh_evaluator(case).evaluate(netlists[0])]

    def test_empty_batch(self, ladder_case):
        case, _netlists = ladder_case
        assert _fresh_evaluator(case).evaluate_many([]) == []

    def test_bigint_engine_falls_back(self):
        rng = np.random.default_rng(3)
        nls = [_regressor_netlist(rng, 20, 3) for _ in range(3)]
        evaluator = _random_evaluator(rng, 3, 33, engine="bigint")
        many = evaluator.evaluate_many(nls)
        fresh = _random_evaluator(np.random.default_rng(3), 3, 33,
                                  engine="bigint")
        # Re-derive the same stimulus for the per-netlist loop.
        fresh.train_inputs = evaluator.train_inputs
        fresh.test_inputs = evaluator.test_inputs
        fresh.y_test = evaluator.y_test
        assert many == [fresh.evaluate(nl) for nl in nls]

    def test_mismatched_buses_fall_back(self):
        """Circuits that disagree on bus layout use the per-circuit path."""
        rng = np.random.default_rng(4)
        a = _regressor_netlist(rng, 15, 3)
        b = Netlist(cse=False)
        nets = list(b.add_input_bus("x", 5))  # different width
        b.set_output_bus(REGRESSOR_OUTPUT, [b.add_gate("AND2", *nets[:2])],
                         signed=False)
        b = ArrayCircuit.from_netlist(b)[0]
        train = {"x": rng.integers(0, 8, 40)}
        test = {"x": rng.integers(0, 8, 70)}
        y = np.asarray(rng.integers(0, 8, 70))
        decode = DecodeSpec("regressor", y_min=0, y_max=7, output_scale=1.0)
        evaluator = CircuitEvaluator(decode, train, test, y)
        results = evaluator.evaluate_many([a, a])
        assert results == [evaluator.evaluate(a)] * 2
        # The width-5 circuit cannot share the width-3 stimulus at all —
        # the fallback must surface the same validation error evaluate()
        # would raise, not crash inside the batch machinery.
        with pytest.raises(ValueError):
            evaluator.evaluate_many([a, b])


def _wired_netlist(width: int) -> ArrayCircuit:
    """A zero-gate circuit whose output wires straight to inputs and
    ``CONST1``."""
    nl = Netlist(cse=False)
    nets = list(nl.add_input_bus("x", width))
    nl.set_output_bus(REGRESSOR_OUTPUT, [nets[0], CONST1, nets[-1]],
                      signed=False)
    return ArrayCircuit.from_netlist(nl)[0]


@needs_compiled
class TestEvaluateManyRandom:
    @given(seed=st.integers(0, 10_000),
           n_test=st.sampled_from([1, 2, 63, 64, 65, 70, 128, 200]))
    @example(seed=0, n_test=1)
    @example(seed=1, n_test=2)
    @settings(max_examples=25, deadline=None)
    def test_random_batches_match_per_netlist(self, seed, n_test):
        """Random batches, with two zero-gate netlists mid-batch (one
        wired to inputs and ``CONST1``, one random), score like the
        bigint oracle's per-netlist loop."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 6))
        n_netlists = int(rng.integers(1, 7))
        nls = [_regressor_netlist(rng, int(rng.integers(3, 50)), width)
               for _ in range(n_netlists)]
        middle = len(nls) // 2
        nls[middle:middle] = [_wired_netlist(width),
                              _regressor_netlist(rng, 0, width)]
        evaluator = _random_evaluator(rng, width, n_test)
        many = evaluator.evaluate_many(nls)
        oracle = CircuitEvaluator(evaluator.decode, evaluator.train_inputs,
                                  evaluator.test_inputs, evaluator.y_test,
                                  engine="bigint")
        assert many == [oracle.evaluate(nl) for nl in nls]


@needs_compiled
class TestSimulateManyViews:
    def test_views_match_bigint_simulation(self):
        """Waveform reads (decode, net bits, prob_one) and activity per
        view equal the bigint simulation of each netlist."""
        rng = np.random.default_rng(11)
        width = 4
        nls = [_regressor_netlist(rng, 25, width) for _ in range(4)]
        nls.insert(2, _wired_netlist(width))
        n_vectors = 70  # non-64-multiple: exercises tail masking
        data = {"x": rng.integers(0, 1 << width, n_vectors)}
        n, arrays = _validate_inputs(nls[0], data)
        packed = pack_stimulus(arrays, {"x": width}, n)
        views = simulate_many([nl.compiled() for nl in nls], n, packed)
        for nl, view in zip(nls, views):
            sim = simulate_bigint(nl, data)
            assert (view.bus_ints(REGRESSOR_OUTPUT)
                    == sim.bus_ints(REGRESSOR_OUTPUT)).all()
            for net in range(nl.n_nets):
                assert (view.net_bits(net) == sim.net_bits(net)).all()
                assert view.prob_one(net) == sim.prob_one(net)
            ours = view.activity()
            ref = sim.activity()
            assert (ours.ones == ref.ones).all()
            assert (ours.flips == ref.flips).all()
            assert (ours.prob_one == ref.prob_one).all()
            assert (ours.tau == ref.tau).all()
