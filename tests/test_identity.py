"""Tests for the exploration's record-identity contract.

The contract under test (see the "Identity contract" section of
``docs/ARCHITECTURE.md``): design lists are bit-identical to
``explore_legacy`` on both walks — same coordinates, same records
(accuracy, area, power, gate count), same duplicate attribution —
and a store hit equals a fresh compute.  It is the only mode; no layer
takes an ``identity`` option any more.  The engine selector is
``"auto"`` or ``"bigint"``; every other name is rejected.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.cross_layer import CrossLayerFramework
from repro.core.pruning import NetlistPruner
from repro.eval.accuracy import CircuitEvaluator, DecodeSpec
from repro.experiments.runner import framework_for
from repro.experiments.zoo import get_case
from repro.hw.array_builder import build_bespoke_arrays
from repro.hw.bespoke import REGRESSOR_OUTPUT, build_bespoke_netlist
from repro.hw.synthesis import ArrayCircuit, synthesize_arrays
from repro.service import DesignStore, ExplorationJob, ExplorationService
from repro.service.jobs import JobReport
from repro.service.server import ServeConfig
from repro.service.store import base_fingerprint_from_parts
from random_circuits import random_circuit

GRID = (0.82, 0.85, 0.90, 0.95, 0.99)
# Random circuits under uniform stimulus have few near-constant gates;
# a wider tau sweep gives every drawn netlist prune sets to walk.
RANDOM_GRID = tuple(np.round(np.arange(0.50, 1.00, 0.05), 2))


def _no_scoring(*_args):
    raise AssertionError("a stored variant was scored again")


def _strict(designs):
    return [(d.tau_c, d.phi_c, d.n_pruned, d.record, d.duplicate_of)
            for d in designs]


@pytest.fixture(scope="module")
def svm_setup():
    case = get_case("redwine", "svm_r")
    netlist = build_bespoke_netlist(case.quant_model)

    def make_evaluator(engine="auto"):
        return CircuitEvaluator.from_split(
            case.quant_model, case.split.X_train, case.split.X_test,
            case.split.y_test, engine=engine)

    return netlist, make_evaluator


class TestResolvedIdentity:
    def test_default_is_exact(self, svm_setup):
        """Exact is the only mode: nothing carries or resolves another."""
        netlist, make_evaluator = svm_setup
        pruner = NetlistPruner(netlist, make_evaluator(), (0.9,))
        for obj in (pruner, make_evaluator()):
            assert "identity" not in {f.name for f in dataclasses.fields(obj)}
        assert not hasattr(pruner, "resolved_identity")

    def test_unknown_mode_raises(self, svm_setup):
        """Every identity mode is now unknown: the option itself is gone."""
        netlist, make_evaluator = svm_setup
        case = get_case("redwine", "svm_r")
        with pytest.raises(TypeError, match="identity"):
            NetlistPruner(netlist, make_evaluator(), (0.9,),
                          identity="exact")
        with pytest.raises(TypeError, match="identity"):
            CircuitEvaluator.from_split(
                case.quant_model, case.split.X_train, case.split.X_test,
                case.split.y_test, identity="exact")
        with pytest.raises(TypeError, match="identity"):
            CrossLayerFramework(identity="exact")
        with pytest.raises(TypeError, match="identity"):
            framework_for(case, identity="exact")
        with pytest.raises(TypeError, match="identity"):
            ExplorationService(":memory:", identity="exact")
        with pytest.raises(TypeError, match="identity"):
            ServeConfig(identity="exact")
        with pytest.raises(TypeError):
            base_fingerprint_from_parts("nl", "ev", "exact", "")

    @pytest.mark.parametrize("command", (
        ["explore", "--dataset", "redwine", "--model", "svm_r"],
        ["sweep-e", "--dataset", "redwine", "--model", "svm_r"],
        ["serve-batch", "--manifest", "m.json"],
        ["serve"]), ids=("explore", "sweep-e", "serve-batch", "serve"))
    def test_cli_has_no_identity_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            cli.main(command + ["--identity", "exact"])
        assert "unrecognized arguments: --identity" \
            in capsys.readouterr().err


class TestEngineSelector:
    """The selector is ``"auto"`` or ``"bigint"``, checked on entry."""

    @pytest.mark.parametrize("engine", ("bogus", "compiled", "batched"))
    def test_unknown_engine_raises(self, engine, svm_setup):
        netlist, make_evaluator = svm_setup
        with pytest.raises(ValueError, match="engine"):
            make_evaluator(engine)
        with pytest.raises(ValueError, match="engine"):
            NetlistPruner(netlist, make_evaluator(), (0.9,), engine=engine)
        with pytest.raises(ValueError, match="engine"):
            CrossLayerFramework(engine=engine)

    def test_retired_knobs_raise(self, svm_setup):
        netlist, make_evaluator = svm_setup
        case = get_case("redwine", "svm_r")
        with pytest.raises(TypeError, match="engine"):
            ServeConfig(engine="bigint")
        with pytest.raises(TypeError, match="engine"):
            framework_for(case, engine="bigint")
        with pytest.raises(TypeError, match="incremental"):
            NetlistPruner(netlist, make_evaluator(), (0.9,),
                          incremental=False)

    @pytest.mark.parametrize("command", (
        ["explore", "--dataset", "redwine", "--model", "svm_r"],
        ["sweep-e", "--dataset", "redwine", "--model", "svm_r"],
        ["serve"]), ids=("explore", "sweep-e", "serve"))
    def test_cli_has_no_engine_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(command + ["--engine", "bigint"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" \
            in capsys.readouterr().err


class TestExactRegression:
    def test_exact_mode_is_bit_identical_to_legacy(self, svm_setup):
        """The exploration is bit-identical to the legacy oracle."""
        netlist, make_evaluator = svm_setup
        exact = NetlistPruner(netlist, make_evaluator(), GRID).explore()
        legacy = NetlistPruner(netlist, make_evaluator(), GRID
                               ).explore_legacy()
        assert _strict(exact) == _strict(legacy)


class TestRandomNetlistIdentity:
    """Exact == ``explore_legacy`` on adversarial random netlists.

    Every cell type is drawn, NAND/NOR/XNOR/BUF included.  Bespoke
    circuits never contain NAND or NOR, so this is the only structural
    check on the rewriter's rules for them.  Drawn netlists are raw
    (duplicates, constant operands, dead logic), so the pruner has to
    fold its base before every walk names the same gates.  There is no
    ``assume()``: every drawn netlist counts.
    """

    @given(seed=st.integers(0, 100_000))
    # Seeds where a synthesized base still diverged before tie() refused
    # shared targets (276, 517) and rewired INVs refolded their
    # consumers (1348).
    @example(seed=276)
    @example(seed=517)
    @example(seed=1348)
    @settings(max_examples=100, deadline=None)
    def test_explore_matches_legacy(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 6))
        nl = random_circuit(rng, int(rng.integers(1, 80)), width,
                            output=REGRESSOR_OUTPUT, signed=False)
        n_test = int(rng.integers(1, 130))
        evaluator = CircuitEvaluator(
            DecodeSpec("regressor", y_min=0, y_max=15),
            {"x": rng.integers(0, 1 << width, 48)},
            {"x": rng.integers(0, 1 << width, n_test)},
            rng.integers(0, 16, n_test))
        legacy = NetlistPruner(nl, evaluator, RANDOM_GRID).explore_legacy()
        for engine in ("auto", "bigint"):
            designs = NetlistPruner(nl, evaluator, RANDOM_GRID,
                                    engine=engine).explore()
            assert _strict(designs) == _strict(legacy), engine

    def test_root_ladder_regression_seed(self):
        """A stress-generator seed on which the root ladder reached a
        different accuracy while ``tie()`` skipped a node forwarded to
        dead logic instead of refusing it; raw and synthesized base."""
        rng = np.random.default_rng(1254)
        width = int(rng.integers(1, 6))
        nl = random_circuit(rng, int(rng.integers(1, 150)), width,
                            output=REGRESSOR_OUTPUT, signed=False)
        n_test = int(rng.integers(1, 130))
        evaluator = CircuitEvaluator(
            DecodeSpec("regressor", y_min=0, y_max=15),
            {"x": rng.integers(0, 1 << width, 48)},
            {"x": rng.integers(0, 1 << width, n_test)},
            rng.integers(0, 16, n_test))
        for base in (nl, synthesize_arrays(nl)[0]):
            pruner = NetlistPruner(base, evaluator, RANDOM_GRID)
            assert _strict(pruner.explore()) \
                == _strict(pruner.explore_legacy())

    @given(seed=st.integers(0, 100_000))
    # A seed where the root ladder skipped a tie on a dead node whose
    # complement a fold had seen through, before tie() refused it.
    @example(seed=20535)
    @settings(max_examples=25, deadline=None)
    def test_store_hit_equals_fresh_compute(self, seed):
        """A cold job, a warm grid hit and a memo-preloaded rerun all
        return ``explore_legacy``'s list, on both engines.

        ``tempfile`` rather than ``tmp_path``: a function-scoped fixture
        would be shared by every example ``@given`` draws.
        """
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 6))
        nl = random_circuit(rng, int(rng.integers(1, 60)), width,
                            output=REGRESSOR_OUTPUT, signed=False)
        n_test = int(rng.integers(1, 100))
        stimulus = ({"x": rng.integers(0, 1 << width, 48)},
                    {"x": rng.integers(0, 1 << width, n_test)},
                    rng.integers(0, 16, n_test))
        for engine in ("auto", "bigint"):
            evaluator = CircuitEvaluator(
                DecodeSpec("regressor", y_min=0, y_max=15), *stimulus,
                engine=engine)
            legacy = _strict(NetlistPruner(nl, evaluator, RANDOM_GRID)
                             .explore_legacy())
            with tempfile.TemporaryDirectory() as tmp:
                store = DesignStore(Path(tmp) / "s.sqlite")
                cold = ExplorationJob(NetlistPruner(nl, evaluator,
                                                    RANDOM_GRID), store)
                assert _strict(cold.run()) == legacy, engine
                report = JobReport("")
                warm = ExplorationJob(NetlistPruner(nl, evaluator,
                                                    RANDOM_GRID), store)
                assert _strict(warm.run(report=report)) == legacy, engine
                assert report.grid_hit
                # Every stored variant is a memo hit, so the rerun
                # scores nothing.
                scoring_off = dataclasses.replace(evaluator)
                scoring_off.evaluate = scoring_off.evaluate_batch = \
                    _no_scoring
                rerun = ExplorationJob(NetlistPruner(nl, scoring_off,
                                                     RANDOM_GRID), store)
                assert _strict(rerun.run(resume=False)) == legacy, engine

    def test_folded_base_keeps_the_callers_netlist(self, svm_setup):
        """A base already at the fold fixpoint is not replaced."""
        netlist, make_evaluator = svm_setup
        pruner = NetlistPruner(netlist, make_evaluator(), GRID)
        assert pruner.netlist is netlist

    def test_raw_base_is_folded_once(self):
        """A raw base is swapped for its folded form at construction."""
        nl = random_circuit(np.random.default_rng(4), 40, 3,
                            output=REGRESSOR_OUTPUT, signed=False)
        evaluator = CircuitEvaluator(
            DecodeSpec("regressor", y_min=0, y_max=15),
            {"x": np.arange(8)}, {"x": np.arange(8)}, np.arange(8))
        pruner = NetlistPruner(nl, evaluator, RANDOM_GRID)
        assert pruner.netlist is not nl
        assert pruner.netlist.n_gates < nl.n_gates
        assert NetlistPruner(pruner.netlist, evaluator,
                             RANDOM_GRID).netlist is pruner.netlist

    def test_marked_base_is_pruned_as_is(self, svm_setup):
        """A base marked ``folded`` is the pruner's own base: no fold, no
        copy, and neither training nor the walk caches a plan on it."""
        _netlist, make_evaluator = svm_setup
        circuit = build_bespoke_arrays(
            get_case("redwine", "svm_r").quant_model)
        assert circuit.folded
        pruner = NetlistPruner(circuit, make_evaluator(), GRID)
        assert pruner.netlist is circuit
        assert pruner._base_arrays is circuit
        designs = pruner.explore()
        assert circuit._plan is None
        folded_copy = NetlistPruner(
            ArrayCircuit.from_netlist(circuit.to_netlist())[0],
            make_evaluator(), GRID)
        assert folded_copy._base_arrays is not circuit
        assert _strict(designs) == _strict(folded_copy.explore())
