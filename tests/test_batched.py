"""Equivalence tests for the batched multi-variant evaluation engine.

Three layers pin the batched path down:

* :class:`~repro.hw.compiled.BatchedEvaluator` — a batch of K
  constant-tie variants evaluated in one pass against the shared parent
  plan must reproduce, variant for variant, what the legacy bigint
  oracle computes on a from-scratch fold of the variant's ties:
  decoded buses, waveforms, activity popcounts, area, and power —
  including stimulus sizes that are not a multiple of the 64-bit word
  (tail-masking) and accumulated clamp sets spanning several ties
  (the exploration's plan-epoch mechanism);

* the worklist cone rewriting in
  :meth:`~repro.hw.incremental.IncrementalCircuit.tie` — applying a
  prune set as an incremental tie must leave the circuit equivalent to
  ``synthesize_reference``'s from-scratch builder replay: same live
  gate count, same cell histogram, bit-identical waveforms;

* the exploration — the batched walk must return the design list of
  ``explore_legacy`` and of the bigint oracle walk, and its root ladder
  must keep sharing plan epochs across chains (pinned plan-build
  counts).
"""

import gc
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.eval.accuracy import CircuitEvaluator
from repro.experiments.zoo import get_case
from repro.hw.area import area_mm2
from repro.hw.bespoke import build_bespoke_netlist
from repro.hw.compiled import (
    BatchedEvaluator,
    CompiledNetlist,
    VariantSpec,
    pack_stimulus,
)
from repro.hw.incremental import IncrementalCircuit
from repro.hw.netlist import Netlist
from repro.hw.power import power_mw
from repro.hw.simulate import simulate_bigint
from repro.hw.synthesis import (
    ArrayCircuit,
    synthesize_arrays,
    synthesize_reference,
)
from repro.core.cross_layer import CrossLayerFramework
from repro.core.pruning import NetlistPruner
from repro.ml import LinearSVMRegressor
from repro.quant import quantize_model
from repro.service import telemetry
from random_circuits import random_circuit, random_netlist



def _folded_incremental(nl: Netlist):
    """Root-fold a netlist; also return the mutable incremental form."""
    base, _ = ArrayCircuit.from_netlist(nl)
    folded, node_map = synthesize_arrays(base, None)
    return base, folded, IncrementalCircuit.from_arrays(folded), node_map


def _from_scratch(circ, ties: dict[int, int]) -> ArrayCircuit:
    """The oracle: ``circ`` with ``ties`` forced, folded from scratch."""
    return synthesize_arrays(circ, ties)[0]


def _random_ties(rng: np.random.Generator, inc: IncrementalCircuit,
                 node_map, n_fixed: int, n_base_gates: int) -> dict[int, int]:
    """A consistent node → constant tie set over live folded signals."""
    n = int(rng.integers(1, max(2, n_base_gates // 3)))
    gates = rng.choice(n_base_gates, size=n, replace=False)
    ties: dict[int, int] = {}
    for g in gates:
        node = node_map[n_fixed + int(g)]
        if node < 2:
            continue  # dead, or already folded to a constant
        value = int(rng.integers(0, 2))
        if ties.get(node, value) != value:
            continue  # keep the tie set conflict-free
        ties[node] = value
    return ties


def _activity_multiset(ops, report):
    """Order-independent per-gate activity summary."""
    return sorted(zip(np.asarray(ops, dtype=np.int64).tolist(),
                      report.ones.tolist(), report.flips.tolist()))


class TestBatchedEvaluatorEquivalence:
    @given(seed=st.integers(0, 10_000),
           n_vectors=st.sampled_from([1, 3, 63, 64, 65, 130]))
    @settings(max_examples=20, deadline=None)
    def test_batch_of_k_matches_serial_compiled_and_bigint(self, seed,
                                                           n_vectors):
        """K clamped variants in one pass == K from-scratch folds."""
        rng = np.random.default_rng(seed)
        nl = random_netlist(rng, int(rng.integers(10, 80)),
                             int(rng.integers(2, 6)))
        base, folded, inc, node_map = _folded_incremental(nl)
        if inc.n_live == 0:
            return
        plan = inc.plan()
        n_parent_slots = len(inc.ops)
        width = len(nl.input_buses["x"])
        arrays = {"x": rng.integers(0, 1 << width, n_vectors)}
        packed = pack_stimulus(arrays, {"x": width}, n_vectors)

        K = int(rng.integers(2, 6))
        specs, references = [], []
        for _ in range(K):
            branch = inc.fork()
            ties = _random_ties(rng, branch, node_map, base.n_fixed,
                                base.n_gates)
            try:
                applied = branch.tie(ties)
            except ValueError:
                continue  # one tie's cascade folded another's target
            clamps = {node: value for node, value in applied.items()
                      if node < plan.n_nets}
            specs.append(branch.variant_spec(clamps, n_parent_slots))
            references.append(_from_scratch(folded, ties))
        if not specs:
            return

        sims = BatchedEvaluator(plan, n_vectors, packed).evaluate(specs)
        K = len(specs)
        assert len(sims) == K
        for sim, ref in zip(sims, references):
            oracle = simulate_bigint(ref, arrays)
            np.testing.assert_array_equal(sim.bus_ints("y"),
                                          oracle.bus_ints("y"))
            assert sim.circuit.n_gates == ref.n_gates
            # Gate order differs (node order vs compacted topological
            # order), so compare activity as an (op, ones, flips)
            # multiset — exactly what area/power reduce over.
            got = _activity_multiset(sim.circuit.ops, sim.activity())
            want = _activity_multiset(ref.ops, oracle.activity())
            assert got == want
            assert area_mm2(sim.circuit) == area_mm2(ref)
            assert power_mw(sim.circuit, sim.activity()) == \
                power_mw(ref, oracle.activity())

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_accumulated_clamps_across_ties(self, seed):
        """Two sequential ties described by one clamp set (plan epochs)."""
        rng = np.random.default_rng(seed)
        nl = random_netlist(rng, int(rng.integers(15, 70)), 4)
        base, folded, inc, node_map = _folded_incremental(nl)
        if inc.n_live < 4:
            return
        plan = inc.plan()
        n_parent_slots = len(inc.ops)
        n_vectors = 70
        arrays = {"x": rng.integers(0, 16, n_vectors)}
        packed = pack_stimulus(arrays, {"x": 4}, n_vectors)

        branch = inc.fork()
        clamps: dict[int, int] = {}
        requested: dict[int, int] = {}
        for _ in range(2):
            ties = _random_ties(rng, branch, node_map, base.n_fixed,
                                base.n_gates)
            try:
                applied = branch.tie(ties)
            except ValueError:
                return  # cascade conflict: nothing to assert here
            requested.update(ties)
            for node, value in applied.items():
                if node < plan.n_nets:
                    clamps[node] = value
        spec = branch.variant_spec(clamps, n_parent_slots)
        sim, = BatchedEvaluator(plan, n_vectors, packed).evaluate([spec])
        ref = _from_scratch(folded, requested)
        assert sim.circuit.n_gates == ref.n_gates
        oracle = simulate_bigint(ref, arrays)
        np.testing.assert_array_equal(sim.bus_ints("y"),
                                      oracle.bus_ints("y"))
        assert _activity_multiset(sim.circuit.ops, sim.activity()) == \
            _activity_multiset(ref.ops, oracle.activity())

    def test_chunks_match_one_pass_and_count_one_batch(self, monkeypatch):
        """A batch split into one-variant chunks simulates exactly like
        one pass, and still counts as one ``engine.batches`` dispatch."""
        rng = np.random.default_rng(11)
        nl = random_netlist(rng, 60, 4)
        base, _folded, inc, node_map = _folded_incremental(nl)
        plan = inc.plan()
        arrays = {"x": rng.integers(0, 16, 100)}
        packed = pack_stimulus(arrays, {"x": 4}, 100)
        specs = []
        while len(specs) < 4:
            branch = inc.fork()
            try:
                applied = branch.tie(_random_ties(
                    rng, branch, node_map, base.n_fixed, base.n_gates))
            except ValueError:
                continue
            specs.append(branch.variant_spec(applied, len(inc.ops)))
        whole = BatchedEvaluator(plan, 100, packed).evaluate(specs)
        monkeypatch.setattr(BatchedEvaluator, "MAX_CHUNK_BYTES", 1)
        telemetry.reset()
        chunked = list(BatchedEvaluator(plan, 100, packed).chunks(specs))
        assert [len(sims) for sims in chunked] == [1, 1, 1, 1]
        registry = telemetry.get_hub().registry
        assert registry.counter_total("engine.batches") == 1
        telemetry.reset()
        for one, (part,) in zip(whole, chunked):
            np.testing.assert_array_equal(one.bus_ints("y"),
                                          part.bus_ints("y"))
            np.testing.assert_array_equal(one.activity().ones,
                                          part.activity().ones)
            np.testing.assert_array_equal(one.activity().flips,
                                          part.activity().flips)

    @given(seed=st.integers(0, 10_000),
           n_vectors=st.sampled_from([1, 63, 65, 130]))
    @settings(max_examples=20, deadline=None)
    def test_netlist_plan_activity_follows_level_order(self, seed,
                                                       n_vectors):
        """A ``CompiledNetlist`` plan sorts its gates into (level,
        opcode) order, so ``gate_out`` order is not level-plan order; the
        level loop's activity counts must still land on the right gates."""
        rng = np.random.default_rng(seed)
        nl = random_circuit(rng, int(rng.integers(5, 60)),
                            int(rng.integers(2, 6)))
        plan = CompiledNetlist(nl)
        width = len(nl.input_buses["x"])
        arrays = {"x": rng.integers(0, 1 << width, n_vectors)}
        packed = pack_stimulus(arrays, {"x": width}, n_vectors)
        spec = VariantSpec(
            ties={}, live_nodes=plan.gate_out,
            live_ops=np.asarray(nl.ops, dtype=np.int64),
            helpers=[], outputs=dict(nl.output_buses),
            signed=dict(nl.output_signed))
        sim, = BatchedEvaluator(plan, n_vectors, packed).evaluate([spec])
        oracle = simulate_bigint(nl, arrays)
        got, want = sim.activity(), oracle.activity()
        np.testing.assert_array_equal(got.ones, want.ones)
        np.testing.assert_array_equal(got.flips, want.flips)
        np.testing.assert_array_equal(sim.bus_ints("y"),
                                      oracle.bus_ints("y"))


class TestTieRegression:
    def test_tie_matches_reference_synthesis(self, svm_setup):
        """Worklist cone rewriting == from-scratch builder replay.

        For every prune set of a real exploration grid, applying the
        set as an incremental tie on the root-folded circuit and
        evaluating it the way the batched walk does (clamps on the
        parent plan) must reach the same live-gate count, the same cell
        histogram, and bit-identical output waveforms as
        ``synthesize_reference`` resynthesizing from scratch — the
        invariant the incremental exploration rests on.  The property
        tests above pin the same equality for arbitrary tie sets on
        random netlists, one on a fresh fold and two applied in turn.
        """
        netlist, make_evaluator = svm_setup
        evaluator = make_evaluator()
        space = NetlistPruner(netlist, evaluator, (0.85, 0.95)).space()
        base = netlist
        folded, node_map = synthesize_arrays(base, None)
        n, stimulus, packed = evaluator.test_stimulus(netlist)
        checked = 0
        for tau_c in (0.85, 0.90, 0.95, 0.99):
            for phi_c in space.phi_levels(tau_c):
                force = space.prune_set(tau_c, phi_c)
                if not force:
                    continue
                reference = ArrayCircuit.from_netlist(synthesize_reference(
                    netlist.to_netlist(), force_constants=force))[0]
                inc = IncrementalCircuit.from_arrays(folded)
                plan = inc.plan()
                ties = {}
                for g, value in force.items():
                    node = node_map[base.n_fixed + g]
                    if node >= 0:
                        ties[node] = value
                spec = inc.variant_spec(inc.tie(ties), len(folded.ops))
                got, = BatchedEvaluator(plan, n, packed).evaluate([spec])
                assert got.circuit.n_gates == reference.n_gates
                assert sorted(got.circuit.ops.tolist()) == sorted(
                    reference.ops)
                bus = next(iter(reference.output_buses))
                want = simulate_bigint(reference, stimulus)
                np.testing.assert_array_equal(got.bus_ints(bus),
                                              want.bus_ints(bus))
                checked += 1
        assert checked >= 4  # the grid actually produced prune sets

    @pytest.mark.parametrize("gates, outputs, first, then", (
        # n12 collapses onto n9 and n13 onto input 2, n9 dies: a later
        # tie on n12 would tie the function that moved to n9.
        ((("INV", 3), ("AND2", 4, 5), ("AND2", 6, 2), ("NAND2", 6, 2),
          ("INV", 2), ("INV", 7), ("XOR2", 6, 7), ("MUX2", 9, 2, 11),
          ("XOR2", 12, 10), ("INV", 13)),
         [6, 7, 14, 8], {7: 0, 10: 1, 11: 0}, {7: 0}),
        # n14 = XOR(n8, 1) folds to n6 through n8 = INV(n6), and n8
        # dies unforwarded: a later tie on n8 must still reach n15.
        ((("NOR2", 3, 2), ("NOR2", 5, 4), ("MUX2", 4, 3, 2), ("INV", 6),
          ("MUX2", 5, 2, 7), ("XOR2", 2, 9), ("INV", 10),
          ("NAND2", 11, 5), ("NOR2", 6, 4), ("XOR2", 8, 12),
          ("INV", 14)),
         [7, 5, 15, 13], {9: 0, 12: 1}, {3: 1, 5: 0, 6: 1}),
    ), ids=("forwarded", "shared-dead"))
    def test_tie_refuses_targets_other_logic_absorbed(self, gates, outputs,
                                                      first, then):
        """A second tie either refuses or matches the from-scratch fold.

        Both cases once passed silently with a wrong circuit: the
        forwarded or shared target was dead, so the tie was skipped.
        """
        nl = Netlist(cse=False)
        assert nl.add_input_bus("x", 3) == [2, 3, 4]
        for cell, *operands in gates:
            nl.add_gate(cell, *operands)
        nl.set_output_bus("y_out", outputs, signed=False)
        base, _ = ArrayCircuit.from_netlist(nl)
        folded, node_map = synthesize_arrays(base)
        assert list(node_map) == list(range(base.n_nets))
        inc = IncrementalCircuit.from_arrays(folded)
        inc.tie(first)
        plan = inc.plan()
        branch = inc.fork()
        applied = branch.tie_gates(list(then), list(then.values()),
                                   node_map)
        if applied is not None:
            want = _from_scratch(base, {**first, **{
                base.n_fixed + gate: value
                for gate, value in then.items()}})
            stimulus = {"x": np.arange(8)}
            got, = BatchedEvaluator(
                plan, 8, pack_stimulus(stimulus, {"x": 3}, 8)).evaluate(
                    [branch.variant_spec(applied, len(inc.ops))])
            assert got.circuit.n_gates == want.n_gates
            np.testing.assert_array_equal(
                got.bus_ints("y_out"),
                simulate_bigint(want, stimulus).bus_ints("y_out"))


@pytest.fixture(scope="module")
def svm_setup():
    split = load_dataset("redwine").standard_split(seed=0)
    model = LinearSVMRegressor(seed=1, max_epochs=250).fit(
        split.X_train, split.y_train)
    quant = quantize_model(model)
    netlist = build_bespoke_netlist(quant)

    def make_evaluator(engine="auto"):
        return CircuitEvaluator.from_split(
            quant, split.X_train, split.X_test, split.y_test, engine=engine)

    return netlist, make_evaluator


class TestBatchedExploration:
    def test_batched_explore_matches_legacy_and_bigint(self, svm_setup):
        netlist, make_evaluator = svm_setup
        grid = (0.82, 0.85, 0.90, 0.95, 0.99)
        batched = NetlistPruner(netlist, make_evaluator(), grid).explore()
        bigint = NetlistPruner(netlist, make_evaluator("bigint"),
                               grid).explore()
        legacy = NetlistPruner(netlist, make_evaluator(),
                               grid).explore_legacy()
        assert batched == bigint == legacy

    def test_auto_engine_resolves_to_batched(self, svm_setup):
        netlist, make_evaluator = svm_setup
        pruner = NetlistPruner(netlist, make_evaluator("auto"), (0.95,))
        assert pruner.resolved_engine() == "batched"
        assert NetlistPruner(netlist, make_evaluator("bigint"),
                             (0.95,)).resolved_engine() == "bigint"
        assert NetlistPruner(netlist, make_evaluator("auto"), (0.95,),
                             engine="bigint").resolved_engine() == "bigint"
        assert NetlistPruner(netlist, make_evaluator("bigint"), (0.95,),
                             engine="auto").resolved_engine() == "batched"

    def test_memo_survives_repeat_explores(self, svm_setup):
        """A second explore() reuses the record memo, identically."""
        netlist, make_evaluator = svm_setup
        pruner = NetlistPruner(netlist, make_evaluator(), (0.90, 0.95))
        first = pruner.explore()
        second = pruner.explore()
        assert first == second

    def test_evaluate_batch_matches_evaluate_simulated(self, svm_setup):
        """Batched scoring is record-identical to per-variant scoring."""
        netlist, make_evaluator = svm_setup
        evaluator = make_evaluator()
        base = netlist
        folded, node_map = synthesize_arrays(base, None)
        inc = IncrementalCircuit.from_arrays(folded)
        plan = inc.plan()
        n_parent_slots = len(inc.ops)
        n_vectors, _arrays, packed = evaluator.test_stimulus(netlist)

        rng = np.random.default_rng(5)
        specs = []
        for _ in range(3):
            branch = inc.fork()
            ties = _random_ties(rng, branch, node_map, base.n_fixed,
                                base.n_gates)
            applied = branch.tie(ties)
            clamps = {n: v for n, v in applied.items() if n < plan.n_nets}
            specs.append(branch.variant_spec(clamps, n_parent_slots))
        sims = BatchedEvaluator(plan, n_vectors, packed).evaluate(specs)
        batch_records = evaluator.evaluate_batch(sims)
        solo_records = [evaluator.evaluate_simulated(s.circuit, s)
                        for s in sims]
        assert batch_records == solo_records


class TestRootLadder:
    """The walk's root ladder: plan epochs shared across chains."""

    @pytest.mark.parametrize(
        "model, plan_builds, batches, simulated, aliased", (
            pytest.param("svm_r", 13, 8, 38, 0, id="svm_r-13"),
            pytest.param("mlp_c", 12, 4, 117, 56, id="mlp_c-12")))
    def test_plan_builds_per_explore_are_pinned(self, model, plan_builds,
                                                batches, simulated,
                                                aliased):
        """One ``CrossLayerFramework(e=4).explore`` builds this many
        plans (41 and 34 when every root opened its own epoch; each of
        the two pruners builds its own training plan on its folded
        base, one more than when it shared the caller's) and
        dispatches this many variant batches; a ladder that silently
        fell back to per-root plans shows here, and so does a single-
        or multi-netlist simulation that counted itself as a batch.
        It simulates this many variants and lets this many no-op steps
        reuse their predecessor's record (MLP-C simulated 173 variants
        when every step was scored)."""
        case = get_case("redwine", model)
        split = case.split
        telemetry.reset()
        try:
            CrossLayerFramework(e=4, clock_ms=case.clock_ms).explore(
                case.quant_model, split.X_train, split.X_test,
                split.y_test)
            registry = telemetry.get_hub().registry
            assert registry.counter_total("engine.plan_builds") \
                == plan_builds
            assert registry.counter_total("engine.batches") == batches
            widths = registry.snapshot()["histograms"]["engine.batch_size"]
            assert widths["sum"] == simulated
            assert registry.counter_total("pruner.aliased_steps") == aliased
        finally:
            telemetry.reset()

    def test_walk_leaves_no_cyclic_garbage(self):
        """A finished explore frees its walk by reference counting alone:
        no circuit state, plan or queued spec waits for the cycle
        collector."""
        case = get_case("redwine", "svm_r")
        split = case.split
        framework = CrossLayerFramework(e=4, clock_ms=case.clock_ms)
        gc.collect()
        gc.disable()
        try:
            framework.explore(case.quant_model, split.X_train, split.X_test,
                              split.y_test)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert not leaked & {"IncrementalCircuit", "CompiledNetlist",
                             "VariantSpec"}

    def test_root_fallbacks_counted_and_designs_inert(self):
        """Refused ladder deltas are counted, and tracing changes no
        design."""
        case = get_case("redwine", "svm_r")
        split = case.split
        runs = []
        try:
            for tracing in (False, True):
                telemetry.reset()
                if tracing:
                    telemetry.configure(tracing=True, events_out=io.StringIO())
                result = CrossLayerFramework(
                    e=4, clock_ms=case.clock_ms).explore(
                        case.quant_model, split.X_train, split.X_test,
                        split.y_test)
                registry = telemetry.get_hub().registry
                runs.append((result.points, registry.counter_value(
                    "pruner.root_fallbacks", to="base")))
        finally:
            telemetry.reset()
        (off, off_fallbacks), (on, on_fallbacks) = runs
        assert off == on
        assert off_fallbacks == on_fallbacks > 0
