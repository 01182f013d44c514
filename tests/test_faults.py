"""Tests for the deterministic fault-injection harness and recovery.

Three layers, mirroring the fault machinery itself:

* **injector mechanics** — schedule parsing, exact-hit firing, context
  filters, cross-process one-shot markers, environment activation;
* **store recovery** — injected busy/locked absorbed by the bounded
  retry, corrupt files quarantined to ``.corrupt-<n>`` sidecars and
  rebuilt, broken paths explained instead of raw sqlite errors;
* **supervision** — the exploration survives injected engine failures,
  shard failures and dead executor workers, and the design list it
  produces is *identical* to the fault-free run every time
  (the crash-consistency invariant ``benchmarks/bench_faults.py``
  sweeps at scale).
"""

from __future__ import annotations

import sqlite3
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.core.cross_layer as cross_layer
from repro.core.cross_layer import CrossLayerFramework
from repro.core.pruning import NetlistPruner, prune_key_bytes
from repro.eval.accuracy import CircuitEvaluator, EvaluationRecord
from repro.experiments.zoo import get_case
from repro.hw.bespoke import build_bespoke_netlist
from repro.service import DesignStore, ExplorationJob, JobReport, telemetry
from repro.service import jobs
from repro.service.faults import (
    ENV_SCHEDULE,
    ENV_STATE,
    FaultError,
    FaultInjector,
    fault_point,
    install,
    installed,
    seeded_schedule,
)
from repro.service.jsonl import JSONLError, read_jsonl, write_line
from repro.service.retry import RetryPolicy
from repro.service.store import _RETRY_POLICY, _serialize_rows

GRID = (0.85, 0.90, 0.95, 0.99)


@pytest.fixture(scope="module")
def svm_setup():
    case = get_case("redwine", "svm_r")
    netlist = build_bespoke_netlist(case.quant_model)
    evaluator = CircuitEvaluator.from_split(
        case.quant_model, case.split.X_train, case.split.X_test,
        case.split.y_test)
    return netlist, evaluator


@pytest.fixture(scope="module")
def cold_designs(svm_setup):
    netlist, evaluator = svm_setup
    return NetlistPruner(netlist, evaluator, GRID).explore()


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Every test starts and ends with no programmatic injector."""
    install(None)
    yield
    install(None)


class TestScheduleGrammar:
    def test_spec_round_trips(self):
        spec = ("store.put_shard:2=err-locked;job.shard@index=1:1=kill;"
                "job.shard:1=sleep(5);engine.batched:1=err")
        assert FaultInjector.parse(spec).spec() == spec

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError, match="bad fault entry"):
            FaultInjector.parse("store.put_shard=err")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultInjector.parse("store.put_shard:1=explode")

    def test_seeded_schedule_is_deterministic_and_parseable(self):
        sites = ["store.put_shard", "job.shard", "engine.batched"]
        one = seeded_schedule(7, sites)
        assert one == seeded_schedule(7, sites)
        assert one != seeded_schedule(8, sites)
        parsed = FaultInjector.parse(one)
        assert [entry.site for entry in parsed.entries] == sites


class TestFiring:
    def test_fires_on_exact_hit_only(self):
        with installed(FaultInjector.parse("x:2=err")):
            fault_point("x")  # hit 1: silent
            with pytest.raises(FaultError):
                fault_point("x")  # hit 2: fires
            fault_point("x")  # hit 3: spent

    def test_context_filter_counts_matching_hits_only(self):
        with installed(FaultInjector.parse("job.shard@index=1:1=err")):
            fault_point("job.shard", index=0)
            fault_point("job.shard", index=2)
            with pytest.raises(FaultError):
                fault_point("job.shard", index=1)

    def test_locked_and_busy_raise_operational_errors(self):
        with installed(FaultInjector.parse("a:1=err-locked;b:1=err-busy")):
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                fault_point("a")
            with pytest.raises(sqlite3.OperationalError, match="busy"):
                fault_point("b")

    def test_sleep_delays(self):
        with installed(FaultInjector.parse("slow:1=sleep(0.05)")):
            start = time.perf_counter()
            fault_point("slow")
            assert time.perf_counter() - start >= 0.04

    def test_corrupt_overwrites_target_head(self, tmp_path):
        victim = tmp_path / "store.sqlite"
        victim.write_bytes(b"SQLite format 3\x00" + b"\x00" * 64)
        with installed(FaultInjector.parse("store.connect:1=corrupt")):
            fault_point("store.connect", path=str(victim))
        assert victim.read_bytes().startswith(b"\xde\xad\xbe\xef")

    def test_noop_without_injector(self):
        fault_point("anything", index=3)  # must not raise


class TestActivation:
    def test_installed_restores_previous(self):
        outer = FaultInjector.parse("x:1=err")
        with installed(outer):
            with installed(FaultInjector.parse("y:1=err")):
                fault_point("x")  # inner schedule: site x is silent
            with pytest.raises(FaultError):
                fault_point("x")  # outer schedule restored

    def test_env_activation_and_deactivation(self, monkeypatch):
        monkeypatch.setenv(ENV_SCHEDULE, "envsite:1=err")
        with pytest.raises(FaultError):
            fault_point("envsite")
        monkeypatch.setenv(ENV_SCHEDULE, "other:1=err")  # value change
        fault_point("envsite")  # re-parsed: envsite no longer scheduled
        monkeypatch.delenv(ENV_SCHEDULE)
        fault_point("other")  # unset: everything is a no-op again

    def test_state_dir_makes_entries_one_shot_across_injectors(
            self, tmp_path):
        spec = "x:1=err"
        first = FaultInjector.parse(spec, state_dir=tmp_path)
        with installed(first):
            with pytest.raises(FaultError):
                fault_point("x")
        assert first.fired == ["x:1=err"]
        assert list(tmp_path.glob("fired-*"))
        # A fresh process parsing the same schedule (same state dir)
        # sees the marker and never re-fires — modeled here by a fresh
        # injector instance.
        with installed(FaultInjector.parse(spec, state_dir=tmp_path)):
            fault_point("x")  # silent


class TestJsonlCrashDiscipline:
    def test_write_line_is_one_write_call(self):
        calls = []

        class Stream:
            def write(self, text):
                calls.append(text)

            def flush(self):
                calls.append("<flush>")

        write_line(Stream(), {"type": "design", "accuracy": 0.5})
        assert calls == ['{"type": "design", "accuracy": 0.5}\n', "<flush>"]

    def test_reader_round_trips(self, tmp_path):
        path = tmp_path / "results.jsonl"
        records = [{"i": 0}, {"i": 1, "nested": {"x": [1, 2]}}]
        with open(path, "w") as out:
            for record in records:
                write_line(out, record)
        assert read_jsonl(path) == records

    def test_reader_tolerates_one_trailing_partial_line(self, tmp_path):
        path = tmp_path / "killed.jsonl"
        path.write_text('{"i": 0}\n{"i": 1}\n{"i": 2, "acc')  # crash cut
        assert read_jsonl(path) == [{"i": 0}, {"i": 1}]
        with pytest.raises(ValueError, match="malformed JSONL"):
            read_jsonl(path, allow_partial_tail=False)

    def test_reader_rejects_malformed_interior_line(self, tmp_path):
        path = tmp_path / "mangled.jsonl"
        path.write_text('{"i": 0}\nnot json at all\n{"i": 2}\n')
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(path)

    def test_interior_error_names_file_and_line(self, tmp_path):
        # The PR 6 quarantine path can truncate a sidecar *copy*
        # mid-file; the diagnostic must name where, not just raise a
        # bare JSONDecodeError.
        path = tmp_path / "quarantine-copy.jsonl"
        path.write_text('{"i": 0}\n{"i": 1, "acc\n{"i": 2}\n')
        with pytest.raises(JSONLError) as excinfo:
            read_jsonl(path)
        assert excinfo.value.source == str(path)
        assert excinfo.value.line == 2
        assert str(path) in str(excinfo.value)
        assert "line 2" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)  # old handlers hold

    def test_interior_error_names_stream_without_path(self, tmp_path):
        import io

        with pytest.raises(JSONLError, match="<stream>"):
            read_jsonl(io.StringIO('bad\n{"i": 1}\n'))

    def test_partial_tail_followed_by_blank_lines_tolerated(self, tmp_path):
        # A crash can leave a partial line *then* blank separators (a
        # flushed-but-torn buffer); that is still a truncation, not
        # interior corruption.
        path = tmp_path / "torn.jsonl"
        path.write_text('{"i": 0}\n{"i": 1, "acc\n\n\n')
        assert read_jsonl(path) == [{"i": 0}]
        with pytest.raises(JSONLError, match="malformed JSONL"):
            read_jsonl(path, allow_partial_tail=False)


class TestStoreRecovery:
    def test_creates_missing_parent_directories(self, tmp_path):
        store = DesignStore(tmp_path / "deep" / "nested" / "store.sqlite")
        assert store.stats()["variants"] == 0

    def test_unusable_path_raises_actionable_error(self, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("plain file")
        with pytest.raises(ValueError, match="--store"):
            DesignStore(blocker / "store.sqlite")

    def test_corrupt_file_quarantined_and_rebuilt(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is definitely not a sqlite database")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = DesignStore(path)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (tmp_path / "store.sqlite.corrupt-0").exists()
        assert store.stats()["variants"] == 0  # clean rebuild works

    def test_injected_lock_absorbed_by_bounded_retry(self, tmp_path):
        store = DesignStore(tmp_path / "store.sqlite")
        with installed(FaultInjector.parse("store.put_grid:1=err-locked")):
            store.put_grid("k" * 64, [], meta={"label": "t"})
        assert store.get_grid("k" * 64) == []

    def test_retry_exhaustion_surfaces_the_error(self, tmp_path):
        store = DesignStore(tmp_path / "store.sqlite")
        # One hit-1 entry per retry attempt: a raising entry stops that
        # call's counter sweep, so each attempt consumes exactly one.
        spec = ";".join(["store.put_grid:1=err-locked"]
                        * _RETRY_POLICY.attempts)
        with installed(FaultInjector.parse(spec)):
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                store.put_grid("k" * 64, [], meta={"label": "t"})


class TestOneTransactionPerStep:
    """A shard write and a grid write each commit whole or not at all."""

    GKEY = "g" * 64
    BKEY = "b" * 64
    PAYLOAD = _serialize_rows(
        [(0.9, None)],
        [[(1, prune_key_bytes((1, 2)), 2,
           EvaluationRecord(0.5, 10.0, 1.0, 40))]])

    def test_put_grid_fault_leaves_shards_and_leases(self, tmp_path):
        store = DesignStore(tmp_path / "store.sqlite")
        store.claim_lease(self.GKEY, 1, "peer", ttl_s=60.0)
        store.put_shard(self.GKEY, 0, [0.9], self.PAYLOAD, self.BKEY)
        leases = store.leases_for_grid(self.GKEY)
        with installed(FaultInjector.parse("store.put_grid:1=err")):
            with pytest.raises(FaultError):
                store.put_grid(self.GKEY, [], meta={"label": "t"})
        assert store.get_grid(self.GKEY) is None
        assert store.shard_indices(self.GKEY) == {0}
        assert store.leases_for_grid(self.GKEY) == leases
        # The write that lands retires both.
        store.put_grid(self.GKEY, [], meta={"label": "t"})
        assert store.get_grid(self.GKEY) == []
        assert store.shard_indices(self.GKEY) == set()
        assert store.leases_for_grid(self.GKEY) == {}

    def test_put_variants_fault_leaves_no_checkpoint(self, tmp_path):
        store = DesignStore(tmp_path / "store.sqlite")
        with installed(FaultInjector.parse("store.put_variants:1=err")):
            with pytest.raises(FaultError):
                store.put_shard(self.GKEY, 0, [0.9], self.PAYLOAD,
                                self.BKEY)
        assert store.shard_indices(self.GKEY) == set()
        assert store.variants_for_base(self.BKEY) == {}
        store.put_shard(self.GKEY, 0, [0.9], self.PAYLOAD, self.BKEY)
        assert store.shard_indices(self.GKEY) == {0}
        assert list(store.variants_for_base(self.BKEY)) == [(1, 2)]

    def test_delete_grid_drops_its_checkpoints(self, tmp_path):
        store = DesignStore(tmp_path / "store.sqlite")
        store.put_shard(self.GKEY, 0, [0.9], self.PAYLOAD, self.BKEY)
        store.put_grid(self.GKEY, [], meta={"label": "t"})
        store.put_shard(self.GKEY, 1, [0.95], self.PAYLOAD, self.BKEY)
        store.delete_grid(self.GKEY)
        assert store.get_grid(self.GKEY) is None
        assert store.shard_indices(self.GKEY) == set()


class TestSupervisedExploration:
    """Injected faults at every layer; the design list never changes."""

    def _job(self, svm_setup, tmp_path, **pruner_kwargs):
        netlist, evaluator = svm_setup
        pruner = NetlistPruner(netlist, evaluator, GRID, **pruner_kwargs)
        return ExplorationJob(pruner, DesignStore(tmp_path / "s.sqlite"),
                              shard_size=2)

    def test_engine_fault_degrades_down_the_ladder(self, svm_setup,
                                                   cold_designs, tmp_path):
        job = self._job(svm_setup, tmp_path)
        report = JobReport("")
        telemetry.reset()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with installed(FaultInjector.parse("engine.batched:1=err")):
                designs = job.run(report=report)
        assert designs == cold_designs
        assert report.engine_fallbacks == 1
        assert report.shards_retried == 0  # the ladder absorbed it
        [event] = report.fault_events
        assert set(event) == {"kind", "engine", "to", "error"}
        assert (event["kind"], event["engine"], event["to"]) \
            == ("engine_fallbacks", "batched", "bigint")
        assert event["error"].startswith("FaultError(")
        assert telemetry.get_hub().registry.counter_value(
            "pruner.events", kind="engine_fallbacks") == 1

    def test_shard_fault_is_retried_at_the_job_level(self, svm_setup,
                                                     cold_designs,
                                                     tmp_path):
        job = self._job(svm_setup, tmp_path)
        report = JobReport("")
        with installed(FaultInjector.parse("job.shard@index=0:1=err")):
            designs = job.run(report=report)
        assert designs == cold_designs
        assert report.shards_retried == 1

    def test_shard_retry_exhaustion_raises(self, svm_setup, tmp_path,
                                           monkeypatch):
        job = self._job(svm_setup, tmp_path)
        monkeypatch.setattr(jobs, "SHARD_RETRY",
                            RetryPolicy(attempts=2, base_s=0.0,
                                        jitter="none"))
        spec = "job.shard@index=0:1=err;job.shard@index=0:1=err"
        with installed(FaultInjector.parse(spec)):
            with pytest.raises(FaultError):
                job.run()


class TestFamilyExecutorFaults:
    """A dead executor worker: warn, explore in process, start afresh."""

    def test_dead_worker_falls_back_to_serial(self, tmp_path, monkeypatch,
                                              fresh_executor):
        case = get_case("redwine", "svm_r")
        split = case.split

        def points(**kwargs):
            framework = CrossLayerFramework(e=4, clock_ms=case.clock_ms,
                                            tau_grid=GRID, **kwargs)
            return framework.explore(case.quant_model, split.X_train,
                                     split.X_test, split.y_test).points

        serial = points()
        made = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(cross_layer, "ProcessPoolExecutor", Recording)
        # Set before the workers fork (the fixture emptied the slot);
        # the state dir keeps the exit one-shot across processes.
        monkeypatch.setenv(ENV_SCHEDULE, "worker.family:1=exit")
        monkeypatch.setenv(ENV_STATE, str(tmp_path / "fault-state"))
        with pytest.warns(RuntimeWarning, match="family executor failed"):
            assert points(n_workers=2) == serial
        assert cross_layer._EXECUTOR is None
        assert len(made) == 1

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert points(n_workers=2) == serial
        assert len(made) == 2
        assert cross_layer._EXECUTOR[1] is made[1]
