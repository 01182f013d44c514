"""Array backend: gate-for-gate equivalence with the per-gate oracle.

One ``Value`` op sequence drives two emitter backends.  The per-gate
:class:`~repro.hw.netlist.Netlist` backend followed by ``synthesize`` is
the pinned oracle for :class:`ArrayEmitter`, the way
``synthesize_reference`` pins ``synthesize``.  The contract under test
is *identity*, not mere functional equivalence: for every model and
every block, the array backend must produce a circuit whose rows,
buses, and metadata are equal element-for-element to the oracle's — which is what makes it the default under content-addressed
stores (same bytes, same keys).

Layers covered, bottom up:

* the blocks (``bespoke_multiplier`` under both recodings, argmax,
  1-vs-1 votes, relu/truncation) driven through ``Value`` on each
  backend;
* multiplier/weighted-sum oracles over the full signed coefficient
  range, random property cases, and the degenerate coefficients
  (0, +-1, powers of two) whose folding is most special-cased;
* the fused fold-at-emission invariant — a folding pass over freshly
  emitted rows is the identity transform;
* behavioral simulation against NumPy arithmetic on a non-word-aligned
  vector count;
* every zoo model at its quantized base and at coefficient radii
  e=1, 4 and 10, the framework (``explore``/``sweep_e``), and the
  service's shared in-process build cache;
* the builder telemetry: counters/histograms fire, spans stay inert
  (PR 8's byte-identity contract), and ``fig2`` re-runs trigger zero
  new multiplier builds through the shared library.
"""

from __future__ import annotations

import dataclasses
import io
import random

import numpy as np
import pytest

from repro import cli
from repro.core.coeff_approx import CoefficientApproximator
from repro.core.cross_layer import CrossLayerFramework
from repro.core.multiplier_area import BespokeMultiplierLibrary, default_library
from repro.experiments import fig2
from repro.experiments.zoo import case_keys, get_case
from repro.hw.area import area_mm2
from repro.hw.array_builder import (
    ArrayEmitter,
    build_bespoke_arrays,
    build_bespoke_multiplier_arrays,
    build_weighted_sum_arrays,
)
from repro.hw.bespoke import (
    build_bespoke_multiplier_netlist,
    build_bespoke_netlist,
    build_weighted_sum_netlist,
    emit_bespoke,
)
from repro.hw.blocks import (
    Value,
    argmax,
    bespoke_multiplier,
    bits_for_range,
    one_vs_one_votes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.netlist import Netlist
from repro.hw.simulate import simulate
from repro.hw.synthesis import (ArrayCircuit, _fold_arrays, synthesize,
                                synthesize_arrays)
from repro.service import telemetry
from repro.service.runner import ExplorationService
from repro.service.server import ServeConfig

TIER1_CASES = (("redwine", "svm_r"), ("redwine", "mlp_c"),
               ("redwine", "svm_c"))
# The five circuits of the committed BENCH_*.json records.
BENCH_CASES = TIER1_CASES + (("whitewine", "svm_c"), ("cardio", "svm_c"))


def _as_rows(circuit) -> ArrayCircuit:
    return ArrayCircuit.from_netlist(circuit)[0] \
        if isinstance(circuit, Netlist) else circuit


def assert_netlists_identical(actual, oracle) -> None:
    """Element-for-element equality of every synthesized-circuit row and
    port; a ``Netlist`` side is compared through its rows."""
    actual, oracle = _as_rows(actual), _as_rows(oracle)
    assert actual.name == oracle.name
    assert actual.input_buses == oracle.input_buses
    assert actual.n_fixed == oracle.n_fixed
    assert list(actual.ops) == list(oracle.ops)
    assert list(actual.ina) == list(oracle.ina)
    assert list(actual.inb) == list(oracle.inb)
    assert list(actual.inc) == list(oracle.inc)
    assert actual.output_buses == oracle.output_buses
    assert actual.output_signed == oracle.output_signed
    assert actual.meta == oracle.meta
    assert actual.watch == oracle.watch


def on_both_backends(name: str, emit) -> tuple[ArrayCircuit, ArrayCircuit]:
    """Run one ``emit(em)`` generator on each backend.

    Returns ``(array, oracle)``: the array backend's stripped rows, and
    the per-gate backend's netlist after ``synthesize``.
    """
    em = ArrayEmitter(name)
    emit(em)
    nl = Netlist(name=name)
    emit(nl)
    return em.finish_synthesized(), synthesize(nl)


def emit_product(coefficient: int, input_bits: int, recoding: str = "csd"):
    """A generator for ``BM_coefficient`` on an ``input_bits`` input."""
    def emit(em):
        x = Value.input_bus(em, "x", input_bits)
        product = bespoke_multiplier(x, coefficient, recoding=recoding)
        em.set_output_bus("p", product.nets, signed=product.signed)
    return emit


def ranged_inputs(em, ranges) -> list[Value]:
    """One input bus per ``(lo, hi)`` range; ``lo == hi`` is a constant."""
    return [Value.constant(em, lo) if lo == hi else Value.from_bus(
                em, em.add_input_bus(f"v{index}", bits_for_range(lo, hi)),
                lo, hi)
            for index, (lo, hi) in enumerate(ranges)]


@pytest.fixture()
def fresh_telemetry():
    telemetry.reset()
    yield telemetry.get_hub().registry
    telemetry.reset()


# ----------------------------------------------------------------------
# Blocks through Value on both backends
# ----------------------------------------------------------------------
class TestBackendIdentity:
    """Each block, one ``Value`` generator, two backends, same gates."""

    @pytest.mark.parametrize("recoding", ("csd", "binary"))
    def test_bespoke_multiplier(self, recoding):
        for coefficient in range(-128, 128, 3):
            array, oracle = on_both_backends(
                "bm", emit_product(coefficient, 6, recoding))
            assert_netlists_identical(array, oracle)

    @pytest.mark.parametrize("ranges", [
        ((-8, 7), (-8, 7), (-8, 7)),
        ((0, 15), (-4, 3), (2, 2), (-20, 9)),   # a constant competitor
        ((0, 3), (5, 9), (-1, 0)),              # disjoint: folded compares
    ])
    def test_argmax(self, ranges):
        def emit(em):
            values = ranged_inputs(em, ranges)
            # A candidate sharing its two LSB nets with values[0]: the
            # select stages then mux a net with itself.
            shares = values[0].add(values[1].shifted(2))
            index = argmax(values[:1] + [shares] + values[1:])
            em.set_output_bus("idx", index.nets)
        assert_netlists_identical(*on_both_backends("argmax", emit))

    @pytest.mark.parametrize("n_classes", (2, 3, 5))
    def test_one_vs_one_votes(self, n_classes):
        ranges = [(-16 + 3 * k, 15 - k) for k in range(n_classes)]

        def emit(em):
            counts = one_vs_one_votes(ranged_inputs(em, ranges))
            em.meta["watch_buses"] = [c.nets for c in counts]
            em.set_output_bus("idx", argmax(counts).nets)
        assert_netlists_identical(*on_both_backends("votes", emit))

    @pytest.mark.parametrize("lo,hi", [(-40, 25), (-9, -1), (0, 30)])
    def test_relu_truncate(self, lo, hi):
        def emit(em):
            (value,) = ranged_inputs(em, [(lo, hi)])
            for shift in range(8):
                out = value.relu().truncate_lsbs(shift)
                em.set_output_bus(f"r{shift}", out.nets)
                raw = value.truncate_lsbs(shift)
                em.set_output_bus(f"t{shift}", raw.nets, signed=raw.signed)
        assert_netlists_identical(*on_both_backends("relu", emit))


# ----------------------------------------------------------------------
# Multiplier oracle
# ----------------------------------------------------------------------
class TestMultiplierOracle:
    @pytest.mark.parametrize("input_bits", (4, 8))
    def test_full_signed_coefficient_range(self, input_bits):
        """Every signed 8-bit coefficient, both backends, identical gates."""
        for coefficient in range(-128, 128):
            array = build_bespoke_multiplier_netlist(coefficient, input_bits)
            gate = synthesize_arrays(build_bespoke_multiplier_netlist(
                coefficient, input_bits, optimize=False))[0]
            assert_netlists_identical(array, gate)

    def test_library_areas_identical(self):
        """The array-backed library agrees exactly with per-gate areas."""
        library = BespokeMultiplierLibrary(coeff_bits=6)
        oracle = {w: area_mm2(synthesize_arrays(
                      build_bespoke_multiplier_netlist(w, 4,
                                                       optimize=False))[0])
                  for w in range(-32, 32)}
        assert library.area_table(4) == oracle

    def test_binary_recoding_matches_value_oracle(self):
        """The ablation recoding is identical on both backends too."""
        for coefficient in (-77, -3, 5, 45, 127):
            array, oracle = on_both_backends(
                "bm_binary", emit_product(coefficient, 6, "binary"))
            assert_netlists_identical(array, oracle)

    def test_unknown_recoding_rejected(self):
        x = Value.input_bus(ArrayEmitter("bm"), "x", 4)
        with pytest.raises(ValueError, match="unknown recoding"):
            bespoke_multiplier(x, 3, recoding="nope")


# ----------------------------------------------------------------------
# Weighted sums
# ----------------------------------------------------------------------
class TestWeightedSumOracle:
    @pytest.mark.parametrize("coefficients,bias", [
        ((0, 0, 0), 0),          # all-zero: the circuit is a constant
        ((0, 0, 0), -5),         # constant negative bias
        ((1, -1, 1, -1), 0),     # +-1: pure adder tree, no partials
        ((2, 4, -8), 3),         # powers of two: shifts only
        ((7, 0, -7), 0),         # zero coefficient dropped mid-list
        ((127, -128), 17),       # extremes of the signed byte
    ])
    def test_degenerate_coefficients(self, coefficients, bias):
        array = build_weighted_sum_netlist(coefficients, 4, bias=bias)
        gate = synthesize_arrays(build_weighted_sum_netlist(
            coefficients, 4, bias=bias, optimize=False))[0]
        assert_netlists_identical(array, gate)

    def test_random_property_cases(self):
        """Random widths/coefficients/biases: 40 seeded cases."""
        rng = random.Random(0xA77)
        for _ in range(40):
            n = rng.randint(1, 6)
            input_bits = rng.randint(1, 10)
            coefficients = tuple(rng.randint(-128, 127) for _ in range(n))
            bias = rng.randint(-512, 512)
            array = build_weighted_sum_netlist(coefficients, input_bits,
                                               bias=bias)
            gate = synthesize_arrays(build_weighted_sum_netlist(
                coefficients, input_bits, bias=bias, optimize=False))[0]
            assert_netlists_identical(array, gate)

    def test_behavioral_against_numpy(self):
        """70 vectors (not a multiple of 64) against the dot product."""
        rng = np.random.default_rng(7)
        coefficients = (11, -23, 0, 5, -1)
        bias = -9
        netlist = build_weighted_sum_netlist(coefficients, 4, bias=bias)
        X = rng.integers(0, 16, size=(70, len(coefficients)))
        result = simulate(netlist, {f"x{i}": X[:, i]
                                    for i in range(X.shape[1])})
        expected = X @ np.array(coefficients) + bias
        np.testing.assert_array_equal(result.bus_ints("sum"), expected)


# ----------------------------------------------------------------------
# Fused fold-at-emission invariant
# ----------------------------------------------------------------------
class TestFoldIsIdentity:
    """Emitted rows are already at the fold fixpoint.

    The emitter folds with the rule kernel ``_fold_arrays`` replays rows
    through, so a folding pass over the rows the shared generators emit
    on it must be the identity transform.  It also pins
    ``ripple_add``'s fused loop, the one place the kernel's rules are
    inlined, to the kernel.
    """

    def _assert_fixpoint(self, circ):
        folded, node_map, changed = _fold_arrays(circ, None)
        assert changed is False
        assert folded.ops == circ.ops
        assert folded.ina == circ.ina
        assert folded.inb == circ.inb
        assert folded.inc == circ.inc
        assert folded.levels == circ.levels
        assert node_map == list(range(circ.n_fixed + len(circ.ops)))

    @pytest.mark.parametrize("coefficient", (-100, -17, 3, 88, 127))
    def test_multiplier_rows(self, coefficient):
        em = ArrayEmitter("bm")
        emit_product(coefficient, 8)(em)
        self._assert_fixpoint(em.finish())

    @pytest.mark.parametrize("dataset,kind", TIER1_CASES)
    def test_model_rows(self, dataset, kind):
        em = ArrayEmitter("m")
        emit_bespoke(em, get_case(dataset, kind).quant_model)
        self._assert_fixpoint(em.finish())


def _rows(circ):
    return (circ.n_fixed, circ.ops, circ.ina, circ.inb, circ.inc,
            circ.levels, circ.outputs, circ.signed, circ.watch)


class TestFoldedMarker:
    """``folded`` marks exactly the circuits a fold would leave as is.

    The pruner takes a marked base without folding it, so the marker
    must never sit on a circuit whose fold and strip change a row.
    """

    def _assert_marked_fixpoint(self, circ):
        assert circ.folded is True
        refolded = synthesize_arrays(circ)[0]
        assert _rows(refolded) == _rows(circ)

    @given(st.integers(0, 10**6), st.integers(0, 60), st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_synthesized_random_netlists(self, seed, n_gates, width):
        from random_circuits import random_netlist

        rng = np.random.default_rng(seed)
        raw = ArrayCircuit.from_netlist(
            random_netlist(rng, n_gates, width))[0]
        assert raw.folded is False
        self._assert_marked_fixpoint(synthesize_arrays(raw)[0])
        # A forced fold (a pruned variant) is marked as well.
        force = {raw.n_fixed + int(k): int(rng.integers(0, 2))
                 for k in rng.integers(0, max(1, n_gates), size=3)
                 if k < n_gates}
        self._assert_marked_fixpoint(synthesize_arrays(raw, force)[0])

    @pytest.mark.parametrize("dataset,kind", BENCH_CASES)
    def test_bench_builds(self, dataset, kind):
        """The exact base and its coefficient radii e=1..10."""
        base = get_case(dataset, kind).quant_model
        models = [base] + [
            CoefficientApproximator(library=default_library(),
                                    e=e).approximate_model(base)[0]
            for e in range(1, 11)]
        for model in models:
            self._assert_marked_fixpoint(build_bespoke_arrays(model))

    def test_unstripped_and_converted_circuits_stay_unmarked(self):
        em = ArrayEmitter("m")
        emit_bespoke(em, get_case("redwine", "svm_r").quant_model)
        assert em.finish().folded is False
        built = build_bespoke_arrays(get_case("redwine", "svm_r").quant_model)
        assert ArrayCircuit.from_netlist(built.to_netlist())[0].folded \
            is False


# ----------------------------------------------------------------------
# Models and the builder selector
# ----------------------------------------------------------------------
class TestModelIdentity:
    @pytest.mark.parametrize("dataset,kind", case_keys())
    def test_zoo_models_identical(self, dataset, kind):
        """The quantized base and its coefficient radii e=1, 4, 10."""
        base = get_case(dataset, kind).quant_model
        models = [base] + [
            CoefficientApproximator(library=default_library(),
                                    e=e).approximate_model(base)[0]
            for e in (1, 4, 10)]
        for model in models:
            array = build_bespoke_netlist(model, name="m", builder="array")
            gate = build_bespoke_netlist(model, name="m", builder="gate")
            assert_netlists_identical(array, gate)

    def test_array_circuit_matches_netlist_conversion(self):
        """build_bespoke_arrays is the netlist path minus to_netlist."""
        case = get_case("redwine", "svm_r")
        circ = build_bespoke_arrays(case.quant_model, name="m")
        assert_netlists_identical(
            circ.to_netlist(),
            build_bespoke_netlist(case.quant_model, name="m",
                                  builder="gate"))


class TestBuilderSelector:
    def test_unoptimized_array_build_rejected(self):
        """The raw builder IR is inherently per-gate."""
        case = get_case("redwine", "svm_r")
        with pytest.raises(ValueError, match="requires optimize=True"):
            build_bespoke_netlist(case.quant_model, optimize=False,
                                  builder="array")

    def test_unoptimized_build_defaults_to_gate(self):
        case = get_case("redwine", "svm_r")
        raw = build_bespoke_netlist(case.quant_model, optimize=False)
        assert raw.folded is False
        assert raw.n_gates > build_bespoke_netlist(case.quant_model).n_gates

    @pytest.mark.parametrize("construct", [
        lambda: build_bespoke_netlist(None, builder="nope"),
        lambda: build_bespoke_netlist(None, optimize=False, builder="nope"),
        lambda: CrossLayerFramework(builder="nope"),
    ])
    def test_unknown_builder_rejected(self, construct):
        with pytest.raises(ValueError, match="builder"):
            construct()

    @pytest.mark.parametrize("construct", [
        lambda: BespokeMultiplierLibrary(builder="gate"),
        lambda: ExplorationService(":memory:", builder="gate"),
        lambda: ServeConfig(builder="gate"),
        lambda: build_weighted_sum_netlist((1,), 4, builder="gate"),
        lambda: build_bespoke_multiplier_netlist(3, 4, builder="gate"),
    ])
    def test_selector_only_where_the_oracle_is_chosen(self, construct):
        with pytest.raises(TypeError, match="builder"):
            construct()

    @pytest.mark.parametrize("command", (
        ["explore", "--dataset", "redwine", "--model", "svm_r"],
        ["sweep-e", "--dataset", "redwine", "--model", "svm_r"],
        ["serve"]), ids=("explore", "sweep-e", "serve"))
    def test_cli_has_no_builder_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main(command + ["--builder", "gate"])
        assert "unrecognized arguments: --builder" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Framework and service
# ----------------------------------------------------------------------
class TestFrameworkIdentity:
    def _split_and_model(self):
        case = get_case("redwine", "svm_r")
        return case.split, case.quant_model

    def test_explore_designs_identical(self):
        split, quant = self._split_and_model()
        results = {}
        for builder in ("array", "gate"):
            framework = CrossLayerFramework(e=3, tau_grid=(0.9, 0.95),
                                            builder=builder)
            result = framework.explore(quant, split.X_train, split.X_test,
                                       split.y_test, name="rw",
                                       include=("coeff", "prune"))
            results[builder] = [dataclasses.astuple(p)
                                for p in result.points]
        assert results["array"] == results["gate"]
        assert len(results["array"]) > 0

    def test_sweep_e_designs_identical(self):
        split, quant = self._split_and_model()
        sweeps = {}
        for builder in ("array", "gate"):
            framework = CrossLayerFramework(tau_grid=(0.95,),
                                            builder=builder)
            sweep = framework.sweep_e(quant, split.X_train, split.X_test,
                                      split.y_test, e_values=(1, 2),
                                      include=("coeff",))
            sweeps[builder] = [dataclasses.astuple(p)
                               for p in sweep.points]
        assert sweeps["array"] == sweeps["gate"]


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestBuilderTelemetry:
    def test_build_metrics_fire(self, fresh_telemetry):
        case = get_case("redwine", "svm_r")
        build_bespoke_netlist(case.quant_model, builder="array")
        build_bespoke_netlist(case.quant_model, builder="gate")
        emitted_array = fresh_telemetry.counter_value(
            "build.gates_emitted", builder="array")
        emitted_gate = fresh_telemetry.counter_value(
            "build.gates_emitted", builder="gate")
        assert emitted_array > 0
        # The emitter folds at emission: it must never emit more rows
        # than the per-gate builder creates pre-synthesis.
        assert emitted_array <= emitted_gate
        snapshot = fresh_telemetry.snapshot()
        for builder in ("array", "gate"):
            series = f"build.bespoke_ms{{builder={builder}}}"
            assert snapshot["histograms"][series]["count"] == 1

    def test_spans_inert(self, fresh_telemetry):
        """Tracing on/off cannot change the emitted netlist (PR 8)."""
        case = get_case("redwine", "svm_r")
        quiet = build_bespoke_netlist(case.quant_model, builder="array")
        telemetry.configure(tracing=True, events_out=io.StringIO())
        traced = build_bespoke_netlist(case.quant_model, builder="array")
        assert_netlists_identical(traced, quiet)

    def test_fig2_rerun_triggers_zero_builds(self, fresh_telemetry):
        """The shared per-width library absorbs repeated fig2 runs."""
        fig2.run(e_values=(1, 2), configurations=((4, 6),))
        telemetry.reset()
        fig2.run(e_values=(1, 2), configurations=((4, 6),))
        assert fresh_telemetry.counter_total("build.gates_emitted") == 0

    def test_standalone_builders_count_gates(self, fresh_telemetry):
        build_bespoke_multiplier_arrays(45, 8)
        build_weighted_sum_arrays((3, -5), 4)
        assert fresh_telemetry.counter_value("build.gates_emitted",
                                             builder="array") > 0
