"""Tests for the exploration service layer (store, jobs, runner, CLI).

The load-bearing contracts:

* **store-hit identity** — a cached record equals a freshly computed
  one bit-for-bit, on real prune grids (frozen-dataclass ``==`` is
  exact float comparison, so these assertions are strict);
* **kill-and-resume** — a run SIGKILLed mid-grid resumes from its shard
  checkpoints and reassembles the *identical* design list (same
  designs, same duplicate attribution) as an uninterrupted cold run;
* **concurrent shard writes** — parallel writers against one SQLite
  store neither corrupt it nor lose rows;
* **worker batched engine** — the process-pool path now runs the
  batched walk and still matches the serial and legacy oracles.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import io
import json
import os
import pathlib
import signal
import sqlite3
import subprocess
import sys
import tempfile
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.cross_layer as cross_layer
from repro.cli import main as cli_main
from repro.core.cross_layer import CrossLayerFramework
from repro.core.pruning import (
    NetlistPruner,
    PrunedDesign,
    prune_key_bytes,
    prune_key_ids,
)
from repro.eval.accuracy import CircuitEvaluator, EvaluationRecord
from repro.experiments.zoo import get_case
from repro.hw.bespoke import build_bespoke_netlist
from repro.hw.incremental import IncrementalCircuit
from repro.service import (
    DesignStore,
    ExplorationJob,
    ExplorationService,
    ExploreRequest,
    JobReport,
    telemetry,
)
from repro.service.faults import FaultInjector, installed
from repro.service.runner import (BASE_CACHE_SIZE, design_body,
                                  design_head, render_design,
                                  render_request)
from repro.service.store import (
    _serialize_rows,
    approximate_model_cached,
    base_fingerprint,
    coeff_key,
    design_from_dict,
    design_to_dict,
    evaluator_fingerprint,
    grid_key,
    netlist_fingerprint,
    variant_key,
)

GRID = (0.85, 0.90, 0.95, 0.99)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


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


class TestRecordSerialization:
    def test_round_trip_is_bit_exact(self):
        record = EvaluationRecord(0.1 + 0.2, 353.6904, 10.707021670574157,
                                  623)
        through_json = EvaluationRecord.from_dict(
            json.loads(json.dumps(record.to_dict())))
        assert through_json == record

    def test_design_round_trip(self, cold_designs):
        for design in cold_designs:
            through = design_from_dict(
                json.loads(json.dumps(design_to_dict(design))))
            assert through == design


class TestKeyNormalization:
    def test_bytes_and_id_forms_agree(self):
        ids = (3, 17, 255)
        assert prune_key_ids(prune_key_bytes(ids)) == ids
        # Any order, and a gate -> constant prune set, key the same.
        assert prune_key_bytes((255, 3, 17)) == prune_key_bytes(ids)
        assert prune_key_bytes({17: 1, 3: 0, 255: 1}) \
            == prune_key_bytes(ids)

    def test_shard_variant_rows_use_the_variant_key(self, tmp_path,
                                                   cold_designs):
        """``put_shard`` serializes each row's ids once, for the column
        and the key; the key is still :func:`variant_key`'s."""
        record = cold_designs[0].record
        ids_list = [(), (7,), (3, 17, 255), tuple(range(0, 900, 3))]
        payload = _serialize_rows(
            [(0.9, None)],
            [[(1, prune_key_bytes(ids), len(ids), record)
              for ids in ids_list]])
        store = DesignStore(tmp_path / "s.sqlite")
        store.put_shard("g" * 64, 0, [0.9], payload, "b" * 64)
        with sqlite3.connect(tmp_path / "s.sqlite") as con:
            rows = con.execute("SELECT key, prune_ids FROM variants "
                               "ORDER BY rowid").fetchall()
        con.close()
        assert rows == [(variant_key("b" * 64, ids),
                         json.dumps(list(ids), separators=(",", ":")))
                        for ids in ids_list]


class TestFingerprints:
    def test_deterministic_across_instances(self, svm_setup):
        netlist, evaluator = svm_setup
        case = get_case("redwine", "svm_r")
        other_nl = build_bespoke_netlist(case.quant_model)
        other_ev = CircuitEvaluator.from_split(
            case.quant_model, case.split.X_train, case.split.X_test,
            case.split.y_test)
        assert netlist_fingerprint(other_nl) == netlist_fingerprint(netlist)
        assert evaluator_fingerprint(other_ev) \
            == evaluator_fingerprint(evaluator)

    def test_name_is_cosmetic(self, svm_setup):
        """Entry points name netlists differently; keys must not care."""
        netlist, _ = svm_setup
        case = get_case("redwine", "svm_r")
        renamed = build_bespoke_netlist(case.quant_model,
                                        name="some_other_entry_point")
        assert netlist_fingerprint(renamed) == netlist_fingerprint(netlist)

    def test_sensitive_to_inputs(self, svm_setup):
        netlist, evaluator = svm_setup
        other = build_bespoke_netlist(
            get_case("redwine", "svm_c").quant_model)
        assert netlist_fingerprint(other) != netlist_fingerprint(netlist)
        base = base_fingerprint(netlist, evaluator)
        assert grid_key(base, GRID) != grid_key(base, GRID[:-1])

class TestStoreHitIdentity:
    def test_job_matches_plain_explore(self, svm_setup, cold_designs,
                                       tmp_path):
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")
        job = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                             store, shard_size=2)
        assert job.run() == cold_designs

    def test_warm_hit_is_bit_identical(self, svm_setup, cold_designs,
                                       tmp_path):
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")
        ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                       store, shard_size=2).run()
        report = JobReport("")
        warm = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                              store, shard_size=2).run(report=report)
        assert report.grid_hit
        assert warm == cold_designs  # exact float equality, per record

    def test_fresh_forces_grid_recomputation(self, svm_setup,
                                             cold_designs, tmp_path):
        """``resume=False`` drops the stored grid, not just checkpoints."""
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")
        ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                       store).run()
        report = JobReport("")
        fresh = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                               store).run(resume=False, report=report)
        assert not report.grid_hit
        assert report.shards_computed == report.n_shards
        assert fresh == cold_designs

    def test_variant_reuse_across_overlapping_grids(self, svm_setup,
                                                    tmp_path):
        """A new grid overlapping an old one reuses stored variants."""
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")
        ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                       store).run()
        wider = GRID + (0.97,)
        report = JobReport("")
        designs = ExplorationJob(NetlistPruner(netlist, evaluator, wider),
                                 store).run(report=report)
        assert not report.grid_hit  # different grid key...
        assert report.variants_preloaded > 0  # ...but shared evaluations
        assert designs == NetlistPruner(netlist, evaluator, wider).explore()

    def test_shard_size_does_not_change_the_list(self, svm_setup,
                                                 cold_designs, tmp_path):
        netlist, evaluator = svm_setup
        for shard_size in (1, 3, 100):
            store = DesignStore(tmp_path / f"s{shard_size}.sqlite")
            job = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                                 store, shard_size=shard_size)
            assert job.run() == cold_designs

    def test_shards_are_plain_slices(self, svm_setup, tmp_path):
        netlist, evaluator = svm_setup
        grid = (0.82, 0.85, 0.90, 0.93, 0.95, 0.97, 0.99)
        job = ExplorationJob(NetlistPruner(netlist, evaluator, grid),
                             DesignStore(tmp_path / "s.sqlite"),
                             shard_size=2)
        assert job.shards() == [grid[0:2], grid[2:4], grid[4:6], grid[6:]]


class TestResume:
    def test_in_process_kill_and_resume(self, svm_setup, cold_designs,
                                        tmp_path):
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")

        class Bomb(Exception):
            pass

        def explode_after_first(index, n_shards):
            if index == 0:
                raise Bomb()

        job = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                             store, shard_size=1)
        with pytest.raises(Bomb):
            job.run(on_shard=explode_after_first)
        assert store.shard_indices(job.grid_key()) == {0}

        report = JobReport("")
        resumed = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                                 store, shard_size=1).run(report=report)
        assert resumed == cold_designs
        assert report.shards_loaded == 1
        assert report.shards_computed == report.n_shards - 1
        # the finished grid supersedes its checkpoints
        assert store.shard_indices(job.grid_key()) == set()

    def test_sigkill_and_resume_reproduces_cold_run(self, svm_setup,
                                                    cold_designs,
                                                    tmp_path):
        """A *process kill* mid-grid loses only the in-flight shard."""
        netlist, evaluator = svm_setup
        store_path = tmp_path / "store.sqlite"
        script = f"""
import os, signal
from repro.core.pruning import NetlistPruner
from repro.eval.accuracy import CircuitEvaluator
from repro.experiments.zoo import get_case
from repro.hw.bespoke import build_bespoke_netlist
from repro.service import DesignStore, ExplorationJob

case = get_case("redwine", "svm_r")
netlist = build_bespoke_netlist(case.quant_model)
evaluator = CircuitEvaluator.from_split(
    case.quant_model, case.split.X_train, case.split.X_test,
    case.split.y_test)
job = ExplorationJob(NetlistPruner(netlist, evaluator, {GRID!r}),
                     DesignStore({str(store_path)!r}), shard_size=1)

def kill_after_second(index, n_shards):
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)

job.run(on_shard=kill_after_second)
raise SystemExit("unreachable: the process should have been killed")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == -signal.SIGKILL, result.stderr

        store = DesignStore(store_path)
        job = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                             store, shard_size=1)
        assert store.shard_indices(job.grid_key()) == {0, 1}
        report = JobReport("")
        resumed = job.run(report=report)
        assert resumed == cold_designs
        assert report.shards_loaded == 2

    def test_stale_checkpoint_partition_is_recomputed(self, svm_setup,
                                                      cold_designs,
                                                      tmp_path):
        """Checkpoints from a different shard size are ignored safely."""
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")
        job1 = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                              store, shard_size=1)

        class Bomb(Exception):
            pass

        def explode(index, n_shards):
            raise Bomb()

        with pytest.raises(Bomb):
            job1.run(on_shard=explode)
        # resume with a different partition: stored taus no longer match
        resumed = ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                                 store, shard_size=3).run()
        assert resumed == cold_designs


class TestStoreGc:
    def test_gc_drops_old_unreachable_keeps_referenced(self, svm_setup,
                                                       tmp_path):
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")
        ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                       store).run()
        stats = store.stats()
        assert stats["grids"] == 1 and stats["variants"] > 0

        # Everything is fresh: a 7-day GC touches nothing.
        report = store.gc(keep_days=7.0)
        assert report["grids_deleted"] == 0
        assert report["variants_deleted"] == 0

        # Pretend a month passes: the grid ages out, and with it the
        # variants its manifest kept reachable.
        future = __import__("time").time() + 30 * 86400.0
        dry = store.gc(keep_days=7.0, dry_run=True, now=future)
        assert dry["grids_deleted"] == 1
        assert dry["variants_deleted"] == stats["variants"]
        assert store.stats()["grids"] == 1  # dry run deleted nothing
        wet = store.gc(keep_days=7.0, now=future)
        assert (wet["grids_deleted"], wet["variants_deleted"]) \
            == (dry["grids_deleted"], dry["variants_deleted"])
        after = store.stats()
        assert after["grids"] == 0 and after["variants"] == 0
        assert wet["db_bytes_after"] <= wet["db_bytes_before"]
        assert store.integrity_ok()

    def test_gc_keeps_young_variants_without_a_grid(self, svm_setup,
                                                    cold_designs,
                                                    tmp_path):
        """Recent variants survive even when no grid references them
        (they may belong to an in-flight exploration)."""
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "store.sqlite")
        record = cold_designs[0].record
        store.put_shard("g" * 64, 0, [0.9], _serialize_rows(
            [(0.9, None)], [[(1, prune_key_bytes((1, 2)), 2, record)]]),
            "somebase")
        report = store.gc(keep_days=7.0)
        assert report["variants_deleted"] == 0
        assert store.stats()["variants"] == 1

    def test_gc_cli(self, tmp_path, capsys):
        path = tmp_path / "store.sqlite"
        DesignStore(path)
        assert cli_main(["store", "gc", "--store", str(path),
                         "--dry-run"]) == 0
        assert "would delete" in capsys.readouterr().out
        assert cli_main(["store", "stats", "--store", str(path)]) == 0
        assert '"format": 6' in capsys.readouterr().out


class TestCoeffCache:
    def test_warm_hit_is_identical(self, tmp_path):
        from repro.core.coeff_approx import CoefficientApproximator
        from repro.core.multiplier_area import default_library

        case = get_case("redwine", "svm_r")
        model = case.quant_model
        approximator = CoefficientApproximator(library=default_library(),
                                               e=4)
        store = DesignStore(tmp_path / "store.sqlite")
        cold_model, cold_reports = approximate_model_cached(
            approximator, model, store)
        assert store.stats()["coeff_cache"] == 1
        warm_model, warm_reports = approximate_model_cached(
            approximator, model, store)
        assert store.stats()["coeff_cache"] == 1
        assert warm_reports == cold_reports  # exact float round-trip
        fresh_model, fresh_reports = approximator.approximate_model(model)
        assert warm_reports == fresh_reports
        for spec_w, spec_f in zip(warm_model.weighted_sums(),
                                  fresh_model.weighted_sums()):
            assert spec_w.coefficients == spec_f.coefficients

    def test_key_covers_search_configuration(self, tmp_path):
        from repro.core.coeff_approx import CoefficientApproximator
        from repro.core.multiplier_area import default_library

        model = get_case("redwine", "svm_r").quant_model
        lib = default_library()
        k4 = coeff_key(model, CoefficientApproximator(library=lib, e=4))
        k2 = coeff_key(model, CoefficientApproximator(library=lib, e=2))
        greedy = coeff_key(model, CoefficientApproximator(
            library=lib, e=4, strategy="greedy"))
        assert len({k4, k2, greedy}) == 3
        assert k4 == coeff_key(model,
                               CoefficientApproximator(library=lib, e=4))


class TestConcurrency:
    def test_concurrent_shard_and_variant_writes(self, svm_setup,
                                                 cold_designs, tmp_path):
        """Parallel writers serialize at SQLite; nothing is lost."""
        netlist, evaluator = svm_setup
        path = tmp_path / "store.sqlite"
        DesignStore(path)  # create schema once
        record = cold_designs[0].record
        errors: list[Exception] = []

        def writer(worker: int) -> None:
            try:
                store = DesignStore(path)
                for i in range(20):
                    store.put_shard(f"grid{worker}", i, [0.9],
                                    _serialize_rows(
                                        [(0.9, None)],
                                        [[(1, prune_key_bytes((worker, i)),
                                           2, record)]]),
                                    f"base{worker}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        store = DesignStore(path)
        assert store.integrity_ok()
        stats = store.stats()
        assert stats["shards"] == 6 * 20
        assert stats["variants"] == 6 * 20
        for worker in range(6):
            assert store.shard_indices(f"grid{worker}") == set(range(20))
            for ids, stored in store.variants_for_base(
                    f"base{worker}")[0].items():
                assert stored == record


@pytest.fixture
def connects(monkeypatch):
    """Count ``sqlite3.connect`` calls (the store's connection opens)."""
    calls = []
    real = sqlite3.connect

    def counting(*args, **kwargs):
        calls.append(args[0] if args else kwargs.get("database"))
        return real(*args, **kwargs)
    monkeypatch.setattr(sqlite3, "connect", counting)
    return calls


def _open_fds_on(path) -> list[str]:
    """``/proc/self/fd`` targets that name the store file or its WAL."""
    real = os.path.realpath(path)
    names = {real, real + "-wal", real + "-shm"}
    hits = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target in names:
            hits.append(target)
    return hits


class TestStoreConnections:
    """One held connection per (process, thread); closed on drop."""

    def test_one_thread_opens_one_connection(self, tmp_path, connects):
        n_ops = 6
        store = DesignStore(tmp_path / "store.sqlite")
        assert len(connects) == 1
        telemetry.reset()
        injector = FaultInjector.parse(f"store.connect:{n_ops}=err-locked")
        with installed(injector):
            for i in range(n_ops // 2):
                store.put_coeff(f"k{i}", [i])
                assert store.get_coeff(f"k{i}") == [i]
        # The connect site fires once per operation attempt: the n-th
        # operation met the locked fault and was retried on the held
        # connection, and no operation opened another one.
        assert injector.fired == [f"store.connect:{n_ops}=err-locked"]
        assert injector.entries[0].count == n_ops + 1
        assert len(connects) == 1
        registry = telemetry.get_hub().registry
        assert registry.counter_total("store.retries") == 1
        hist = registry.snapshot()["histograms"]
        assert hist["store.op_ms{op=put_coeff}"]["count"] == n_ops // 2
        assert hist["store.op_ms{op=get_coeff}"]["count"] == n_ops // 2

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc/self/fd")
    def test_dropping_the_store_closes_its_file(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = DesignStore(path)
        store.put_coeff("k", [1])
        assert _open_fds_on(path)
        gc.disable()  # the close must not wait for the cyclic GC
        try:
            del store
            assert _open_fds_on(path) == []
        finally:
            gc.enable()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_opens_its_own_connection(self, tmp_path,
                                                   connects):
        store = DesignStore(tmp_path / "store.sqlite")
        store.put_coeff("parent-0", [0])
        assert len(connects) == 1
        pid = os.fork()
        if pid == 0:  # child: never return into pytest
            ok = False
            try:
                store.put_coeff("child", [1])
                store.put_coeff("child-2", [2])
                ok = (len(connects) == 2
                      and store.get_coeff("parent-0") == [0])
            finally:
                os._exit(0 if ok else 1)
        for i in range(1, 6):
            store.put_coeff(f"parent-{i}", [i])
            assert store.get_coeff(f"parent-{i}") == [i]
        _pid, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert store.get_coeff("child") == [1]
        assert store.get_coeff("child-2") == [2]
        assert store.integrity_ok()
        assert len(connects) == 1  # the parent kept its connection

    def test_structural_error_reopens_the_connection(self, tmp_path,
                                                     connects):
        store = DesignStore(tmp_path / "store.sqlite")
        held = []

        def broken(con):
            held.append(con)
            raise sqlite3.DatabaseError("database disk image is malformed")
        with pytest.raises(sqlite3.DatabaseError, match="malformed"):
            store._with_connection("probe", broken)
        assert len(held) == 1  # not retried
        with pytest.raises(sqlite3.ProgrammingError):
            held[0].execute("SELECT 1")  # closed, not leaked
        store.put_coeff("k", [1])
        assert store.get_coeff("k") == [1]
        assert len(connects) == 2

    def test_each_thread_gets_its_own_connection(self, tmp_path,
                                                 connects):
        n_threads, n_ops = 4, 20
        store = DesignStore(tmp_path / "store.sqlite")
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []

        def worker(name: int) -> None:
            try:
                barrier.wait()  # all threads alive: distinct idents
                for i in range(n_ops):
                    store.put_coeff(f"{name}-{i}", [i])
                    assert store.get_coeff(f"{name}-{i}") == [i]
                barrier.wait()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(name,))
                       for name in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(connects) == 1 + n_threads
        assert store.stats()["coeff_cache"] == n_threads * n_ops
        assert store.integrity_ok()
        assert len(connects) == 1 + n_threads  # main thread kept its own


class TestWorkerBatchedEngine:
    """Store-backed families on the framework's executor: each worker
    reopens the store and runs its family's resumable job."""

    @staticmethod
    def _run(method, store=None, **kwargs):
        case = get_case("redwine", "svm_r")
        split = case.split
        framework = CrossLayerFramework(e=4, clock_ms=case.clock_ms,
                                        tau_grid=GRID, store=store, **kwargs)
        extra = {"e_values": (1, 2, 3), "include": ("coeff", "cross")} \
            if method == "sweep_e" else {}
        return getattr(framework, method)(
            case.quant_model, split.X_train, split.X_test, split.y_test,
            **extra).points

    @pytest.mark.parametrize("method", ["explore", "sweep_e"])
    def test_store_backed_families_match_serial(self, method, tmp_path,
                                                fresh_executor,
                                                monkeypatch):
        serial = self._run(method)
        store = DesignStore(tmp_path / "store.sqlite")
        assert self._run(method, store, n_workers=2) == serial

        # The warm re-run is all grid hits: workers forked after this
        # patch would fail any walk, and a failed executor warns.
        cross_layer._drop_executor()

        def no_walk(*args, **kwargs):
            raise AssertionError("a warm family walked its grid")

        monkeypatch.setattr(NetlistPruner, "chain_rows", no_walk)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert self._run(method, store, n_workers=2) == serial


class TestServiceRunner:
    def test_manifest_deduplicates_against_store(self, tmp_path):
        service = ExplorationService(tmp_path / "store.sqlite")
        manifest = {"requests": [
            {"dataset": "redwine", "model": "svm_r", "base": "exact",
             "tau_grid": [0.9, 0.95, 0.99]},
            {"dataset": "redwine", "model": "svm_r", "base": "exact",
             "tau_grid": [0.9, 0.95, 0.99]},
        ]}
        out = pathlib.Path(tmp_path / "out.jsonl").open("w")
        with out:
            summary = service.run_manifest(manifest, out)
        assert summary["n_requests"] == 2
        assert summary["n_grid_hits"] == 1  # second request is a lookup

        lines = [json.loads(line) for line in
                 (tmp_path / "out.jsonl").read_text().splitlines()]
        headers = [l for l in lines if l["type"] == "request"]
        designs = [l for l in lines if l["type"] == "design"]
        assert [h["grid_hit"] for h in headers] == [False, True]
        assert len(designs) == summary["n_designs"]
        # both requests stream identical design rows (cached == fresh)
        first = [d for d in designs if d["index"] == 0]
        second = [d for d in designs if d["index"] == 1]
        for a, b in zip(first, second):
            assert {**a, "index": 0} == {**b, "index": 0}
        assert lines[-1]["type"] == "summary"

    def test_cold_one_shard_request_writes_twice(self, tmp_path):
        """One store transaction per step: the shard, then the grid."""
        service = ExplorationService(tmp_path / "store.sqlite")
        request = ExploreRequest(dataset="redwine", model="svm_r",
                                 base="exact", tau_grid=(0.9, 0.95, 0.99))
        telemetry.reset()
        _designs, report = service.explore(request)
        assert (report.n_shards, report.shards_computed) == (1, 1)
        hist = telemetry.get_hub().registry.snapshot()["histograms"]
        ops = {name[len("store.op_ms{op="):-1]: data["count"]
               for name, data in hist.items()
               if name.startswith("store.op_ms{")}
        assert ops == {"get_grid": 2, "variants_for_base": 1,
                       "get_shard": 1, "put_shard": 1, "put_grid": 1}
        stats = service.store.stats()
        assert (stats["shards"], stats["shard_leases"]) == (0, 0)

    def test_request_validation(self):
        with pytest.raises(ValueError, match="missing required"):
            ExploreRequest.from_dict({"dataset": "redwine"})
        with pytest.raises(ValueError, match="unknown base"):
            ExploreRequest.from_dict({"dataset": "redwine",
                                      "model": "svm_r", "base": "nope"})
        with pytest.raises(ValueError, match="unknown request fields"):
            ExploreRequest.from_dict({"dataset": "redwine",
                                      "model": "svm_r", "surprise": 1})

    def test_identity_field_is_unknown(self):
        """The exploration has one identity mode; the wire field is gone."""
        with pytest.raises(ValueError, match="unknown request fields"):
            ExploreRequest.from_dict({"dataset": "redwine",
                                      "model": "svm_r",
                                      "identity": "exact"})


class TestRequestValidation:
    """Malformed wire input is a ValueError, never a silent coercion."""

    @pytest.mark.parametrize("fields, message", (
        ({"tau_grid": "09"}, "tau_grid must be a list"),
        ({"tau_grid": [float("nan")]}, r"\[0, 1\]"),
        ({"tau_grid": [0.9, float("inf")]}, r"\[0, 1\]"),
        ({"tau_grid": [1.5]}, r"\[0, 1\]"),
        ({"tau_grid": ["0.9"]}, "must be numbers"),
        ({"tau_grid": [True]}, "must be numbers"),
        ({"e": 4.7}, "must be an integer"),
        ({"e": True}, "must be an integer"),
        ({"e": "4"}, "must be an integer"),
        ({"dataset": 7}, "dataset must be a string"),
        ({"model": 7}, "model must be a string"),
        ({"label": 7}, "label must be a string"),
    ), ids=("tau-string", "tau-nan", "tau-inf", "tau-range", "tau-str-item",
            "tau-bool", "e-fraction", "e-bool", "e-string", "dataset-int",
            "model-int", "label-int"))
    def test_malformed_field_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ExploreRequest.from_dict({"dataset": "redwine",
                                      "model": "svm_r", **fields})

    def test_well_formed_values_still_parse(self):
        request = ExploreRequest.from_dict({
            "dataset": "redwine", "model": "svm_r",
            "tau_grid": (0, 0.9, 1), "e": 4.0, "label": "x"})
        assert request.tau_grid == (0.0, 0.9, 1.0)
        assert request.e == 4 and isinstance(request.e, int)
        assert request.label == "x"


class TestCli:
    def test_explore_subcommand_cold_then_warm(self, tmp_path, capsys):
        args = ["explore", "--dataset", "redwine", "--model", "svm_r",
                "--base", "exact", "--tau", "0.9", "0.95", "0.99",
                "--store", str(tmp_path / "store.sqlite"),
                "--out", str(tmp_path / "out.jsonl")]
        assert cli_main(args) == 0
        assert "grid hit: False" in capsys.readouterr().err
        assert cli_main(args) == 0
        assert "grid hit: True" in capsys.readouterr().err
        lines = [json.loads(line) for line in
                 (tmp_path / "out.jsonl").read_text().splitlines()]
        assert lines[0]["type"] == "request"
        assert lines[-1]["type"] == "summary"

    def test_serve_batch_subcommand(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"requests": [
            {"dataset": "redwine", "model": "svm_r", "base": "exact",
             "tau_grid": [0.95, 0.99]},
        ]}))
        assert cli_main(["serve-batch", "--manifest", str(manifest),
                        "--store", str(tmp_path / "store.sqlite"),
                        "--out", str(tmp_path / "out.jsonl")]) == 0
        err = capsys.readouterr().err
        assert "1 requests" in err
        summary = json.loads(
            (tmp_path / "out.jsonl").read_text().splitlines()[-1])
        assert summary["type"] == "summary"
        assert summary["n_requests"] == 1


class TestFrameworkRouting:
    def test_framework_store_routing_is_identical(self, tmp_path):
        from repro.experiments.runner import framework_for
        case = get_case("redwine", "svm_r")
        split = case.split
        plain = framework_for(case).explore(
            case.quant_model, split.X_train, split.X_test, split.y_test,
            name="x")
        store = DesignStore(tmp_path / "store.sqlite")
        routed = framework_for(case, store=store)
        cold = routed.explore(case.quant_model, split.X_train,
                              split.X_test, split.y_test, name="x")
        warm = routed.explore(case.quant_model, split.X_train,
                              split.X_test, split.y_test, name="x")
        assert cold.points == plain.points
        assert warm.points == plain.points

    def test_repro_store_env_var_selects_a_store(self, tmp_path,
                                                 monkeypatch):
        from repro.experiments.runner import framework_for
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env.sqlite"))
        case = get_case("redwine", "svm_r")
        framework = framework_for(case)
        assert framework.store is not None
        assert framework.store.path == str(tmp_path / "env.sqlite")
        monkeypatch.delenv("REPRO_STORE")
        assert framework_for(case).store is None


@pytest.fixture()
def sweep_service(tmp_path):
    store = DesignStore(tmp_path / "sweep.sqlite")
    return ExplorationService(store, shard_size=2)


_SWEEP_REQUEST = None  # built lazily so collection stays import-cheap


def _sweep_request():
    global _SWEEP_REQUEST
    if _SWEEP_REQUEST is None:
        _SWEEP_REQUEST = ExploreRequest.from_dict({
            "dataset": "redwine", "model": "svm_r",
            "tau_grid": [0.9, 0.95, 0.99]})
    return _SWEEP_REQUEST


class TestESweep:
    E = (1, 2, 3)

    def test_request_e_validation(self):
        req = ExploreRequest.from_dict(
            {"dataset": "redwine", "model": "svm_r", "e": 7})
        assert req.e == 7 and req.name.endswith("@e7")
        with pytest.raises(ValueError, match="only meaningful"):
            ExploreRequest.from_dict({"dataset": "redwine",
                                      "model": "svm_r", "base": "exact",
                                      "e": 2})
        with pytest.raises(ValueError, match=">= 0"):
            ExploreRequest.from_dict({"dataset": "redwine",
                                      "model": "svm_r", "e": -1})

    def test_run_sweep_lines_are_pinned(self, tmp_path):
        """``run_sweep``'s JSONL bytes, runtimes and store path aside."""
        service = ExplorationService(DesignStore(tmp_path / "s.sqlite"))
        out = io.StringIO()
        service.run_sweep(ExploreRequest(dataset="redwine", model="svm_r",
                                         tau_grid=(0.9, 0.95, 0.99)),
                          (1, 2), out)
        lines = []
        for line in out.getvalue().splitlines():
            record = json.loads(line)
            record.pop("runtime_s", None)
            record.get("store", {}).pop("path", None)
            lines.append(json.dumps(record))
        assert [json.loads(line)["type"] for line in lines] == [
            "sweep", "coeff", "request", "design", "design", "design",
            "coeff", "request", "design", "design", "design", "summary"]
        digest = hashlib.sha256(
            ("\n".join(lines) + "\n").encode()).hexdigest()
        assert digest == ("12ad9aeea4f88940a87f5561ba2c13a4"
                          "2e0b1ffa998aadf608119f55266dcc8d")

    def test_cold_warm_identity(self, sweep_service, tmp_path):
        cold = sweep_service.sweep(_sweep_request(), self.E)
        warm = ExplorationService(sweep_service.store,
                                  shard_size=2).sweep(_sweep_request(),
                                                      self.E)
        assert [(e, rec, designs) for e, rec, _h, designs, _r in cold] \
            == [(e, rec, designs) for e, rec, _h, designs, _r in warm]
        assert not any(hit for _e, _r, hit, _d, _rep in cold)
        assert all(hit for _e, _r, hit, _d, _rep in warm)
        assert all(rep.grid_hit for *_x, rep in warm)

    def test_kill_and_resume_equals_cold(self, tmp_path):
        cold_store = DesignStore(tmp_path / "cold.sqlite")
        cold = ExplorationService(cold_store, shard_size=1).sweep(
            _sweep_request(), self.E)

        class _Interrupt(Exception):
            pass

        fired = {"count": 0}

        def bomb(index, n_shards):
            fired["count"] += 1
            if fired["count"] == 4:  # mid-sweep: inside the 2nd radius
                raise _Interrupt()

        killed_store = DesignStore(tmp_path / "killed.sqlite")
        service = ExplorationService(killed_store, shard_size=1)
        with pytest.raises(_Interrupt):
            service.sweep(_sweep_request(), self.E, on_shard=bomb)
        resumed = ExplorationService(killed_store, shard_size=1).sweep(
            _sweep_request(), self.E)
        assert [(e, rec, designs) for e, rec, _h, designs, _r in resumed] \
            == [(e, rec, designs) for e, rec, _h, designs, _r in cold]

    BENCH_CIRCUITS = (("redwine", "svm_r"), ("redwine", "mlp_c"),
                      ("redwine", "svm_c"), ("whitewine", "svm_c"),
                      ("cardio", "svm_c"))

    def test_rebuilt_coeff_circuits_match_stored_fingerprints(
            self, tmp_path):
        """The store keeps a coefficient circuit's fingerprint, not the
        circuit: a second service rebuilds every circuit on first
        contact, folded, with the fingerprint the first one stored."""
        from repro.core.coeff_approx import CoefficientApproximator
        from repro.core.multiplier_area import default_library
        from repro.service.store import (build_coeff_netlist_cached,
                                         coeff_netlist_key)

        store = DesignStore(tmp_path / "s.sqlite")
        requests = [ExploreRequest(dataset, model, base="coeff", e=e)
                    for dataset, model in self.BENCH_CIRCUITS
                    for e in range(1, 11)]
        first = ExplorationService(store)
        cold = [first._netlist(request) for request in requests]
        assert not any(hit for _c, _m, hit, _fp in cold)
        second = ExplorationService(store)
        for request, (_c, meta, _hit, fingerprint) in zip(requests, cold):
            circuit, _meta, hit, rebuilt = second._netlist(request)
            assert hit and circuit.folded, request
            assert rebuilt == fingerprint == netlist_fingerprint(circuit) \
                == store.get_coeff_netlist_fingerprint(
                    meta["coeff_netlist_key"])
        # Both builders rebuild the stored fingerprint at the paper's e.
        case = get_case("redwine", "svm_r")
        approximator = CoefficientApproximator(library=default_library(),
                                               e=4)
        stored = store.get_coeff_netlist_fingerprint(
            coeff_netlist_key(case.quant_model, approximator))
        for builder in ("auto", "gate"):
            circuit, fingerprint, hit = build_coeff_netlist_cached(
                approximator, case.quant_model, store, builder=builder)
            assert (fingerprint, hit, circuit.folded) == (stored, True, True)

    def test_wrong_stored_fingerprint_raises(self, tmp_path):
        """A stored fingerprint the rebuild does not reproduce is an
        error naming the key; the row is never re-keyed."""
        store = DesignStore(tmp_path / "s.sqlite")
        request = ExploreRequest("redwine", "svm_r", base="coeff", e=3,
                                 tau_grid=(0.9, 0.99))
        key = ExplorationService(store)._netlist(request)[1][
            "coeff_netlist_key"]
        with sqlite3.connect(store.path) as con:
            con.execute("UPDATE coeff_netlists SET fingerprint=?",
                        ("0" * 64,))
        con.close()
        with pytest.raises(ValueError, match=key):
            ExplorationService(DesignStore(store.path)).explore(request)
        assert store.get_coeff_netlist_fingerprint(key) == "0" * 64

    def test_warm_sweep_skips_build_search_and_simulation(self,
                                                          sweep_service,
                                                          monkeypatch):
        """A warm re-sweep must touch neither the bespoke builder, nor
        the per-candidate area search, nor the simulator — it resolves
        everything by content key."""
        sweep_service.sweep(_sweep_request(), self.E)
        warm = ExplorationService(sweep_service.store, shard_size=2)

        import repro.core.coeff_approx as coeff_mod

        def forbid(message):
            def _raise(*args, **kwargs):
                raise AssertionError(message)
            return _raise

        monkeypatch.setattr("repro.hw.bespoke.build_bespoke_netlist",
                            forbid("warm sweep rebuilt a netlist"))
        monkeypatch.setattr("repro.hw.array_builder.build_bespoke_arrays",
                            forbid("warm sweep rebuilt a circuit"))
        monkeypatch.setattr(
            coeff_mod.CoefficientApproximator, "approximate_model",
            forbid("warm sweep re-ran the area search"))
        monkeypatch.setattr(CircuitEvaluator, "evaluate_many",
                            forbid("warm sweep re-simulated"))
        results = warm.sweep(_sweep_request(), self.E)
        assert all(hit for _e, _r, hit, _d, _rep in results)

    def test_cold_sweep_encodes_each_netlist_once(self, sweep_service,
                                                  monkeypatch):
        """A cold coeff-only sweep builds every radius in array form,
        encodes it once (fingerprint and stored payload together) and
        never materializes a ``Netlist``."""
        import repro.service.store as store_mod
        from repro.hw.synthesis import ArrayCircuit

        encoded = []
        encode = store_mod.encode_netlist

        def counting_encode(circuit, *args, **kwargs):
            encoded.append(circuit)
            return encode(circuit, *args, **kwargs)

        def forbid_to_netlist(self):
            raise AssertionError("cold sweep materialized a Netlist")

        monkeypatch.setattr(store_mod, "encode_netlist", counting_encode)
        monkeypatch.setattr(ArrayCircuit, "to_netlist", forbid_to_netlist)
        e_values = tuple(range(1, 11))
        results = sweep_service.sweep(_sweep_request(), e_values,
                                      include_cross=False)
        assert [e for e, *_rest in results] == list(e_values)
        assert len(encoded) == len(e_values)
        assert len({id(circuit) for circuit in encoded}) == len(e_values)
        assert all(isinstance(c, ArrayCircuit) for c in encoded)

    def test_coeff_sweep_caches_no_plan_on_kept_circuits(self, tmp_path):
        """Scoring a radius leaves no simulation plan on the circuit the
        service keeps for it: nothing reads that plan again."""
        service = ExplorationService(tmp_path / "plans.sqlite")
        service.sweep(_sweep_request(), tuple(range(1, 11)),
                      include_cross=False)
        kept = [entry[0] for entry in service._netlists.values()]
        assert len(kept) == 10
        assert [c for c in kept if getattr(c, "_plan", None) is not None
                or "_compiled_plan" in getattr(c, "__dict__", {})] == []

    def test_serving_builds_no_netlist(self, sweep_service, monkeypatch):
        """Serving radii e=1..4 of one circuit, plus a second grid on
        e=4, prunes every cold array circuit as built: no ``Netlist`` is
        materialized, and none is converted back to arrays."""
        from dataclasses import replace

        from repro.hw.synthesis import ArrayCircuit

        def forbid(*_args, **_kwargs):
            raise AssertionError("serving built a Netlist")

        monkeypatch.setattr(ArrayCircuit, "to_netlist", forbid)
        monkeypatch.setattr(ArrayCircuit, "from_netlist",
                            staticmethod(forbid))
        request = _sweep_request()
        for e in (1, 2, 3, 4):
            designs, report = sweep_service.explore(replace(request, e=e))
            assert designs and not report.grid_hit
        designs, report = sweep_service.explore(
            replace(request, e=4, tau_grid=(0.9,)))
        assert designs and not report.grid_hit

    def test_bigint_engine_scores_array_circuits(self, tmp_path):
        """The bigint oracle takes the cold path's array circuits too."""
        request = _sweep_request()
        batched = ExplorationService(DesignStore(tmp_path / "a.sqlite"))
        bigint = ExplorationService(DesignStore(tmp_path / "b.sqlite"),
                                    engine="bigint")
        assert [rec for _e, rec, *_rest in batched.sweep(
            request, (1, 2), include_cross=False)] \
            == [rec for _e, rec, *_rest in bigint.sweep(
                request, (1, 2), include_cross=False)]

    # Content keys from before the array-native encoder (16-hex
    # prefixes of the netlist fingerprint and of the base key): the
    # encoder must never move a key, or every existing store goes cold.
    PINNED_KEYS = [
        ("redwine", "svm_r", "coeff", 4, "e81adf5030ee5e7f",
         "517e92b9bf6dd1d2"),
        ("redwine", "svm_r", "coeff", 1, "d6121c44258a6e9e",
         "c8e5b400630404ae"),
        ("redwine", "svm_r", "exact", None, "8cbfee8d1307748f",
         "9ca14b755cb822e9"),
        ("cardio", "svm_c", "coeff", 4, "26c62140fa30977c",
         "f2b9d1b9697b5b06"),
        ("cardio", "svm_c", "coeff", 1, "62ce3895dc8687af",
         "0ade61fc3b41d9a6"),
        ("cardio", "svm_c", "exact", None, "5cd380eeac62e791",
         "29f2e54ab87767a0"),
    ]

    @pytest.mark.parametrize("dataset,model,base,e,netlist_fp,base_key",
                             PINNED_KEYS)
    def test_content_keys_are_pinned(self, tmp_path, dataset, model, base,
                                     e, netlist_fp, base_key):
        store = DesignStore(tmp_path / "fresh.sqlite")
        request = ExploreRequest(dataset, model, base=base, e=e)
        service = ExplorationService(store)
        circuit, _meta, hit, fingerprint = service._netlist(request)
        assert not hit
        assert fingerprint[:16] == netlist_fp
        assert netlist_fingerprint(circuit) == fingerprint
        assert service._base_key(request)[:16] == base_key
        if base == "coeff":
            # A second process resolves the same key from the stored
            # fingerprint, without building anything.
            assert ExplorationService(store)._base_key(request)[:16] \
                == base_key

    def test_stats_hit_counters(self, sweep_service):
        sweep_service.sweep(_sweep_request(), (1, 2))
        stats0 = sweep_service.store.stats()
        assert stats0["coeff_netlists"] == 2
        assert stats0["coeff_netlists_hits"] == 0
        # A different tau grid misses the grids but re-derives each
        # radius's netlist from the store (the partial-warmth path the
        # hit counters exist to make visible).
        import dataclasses
        other = dataclasses.replace(_sweep_request(),
                                    tau_grid=(0.93, 0.97))
        ExplorationService(sweep_service.store).sweep(other, (1, 2))
        stats1 = sweep_service.store.stats()
        assert stats1["coeff_netlists_hits"] == 2
        assert stats1["coeff_cache"] == 2

    def test_gc_keeps_reachable_coeff_netlists(self, sweep_service):
        import sqlite3
        from contextlib import closing

        sweep_service.sweep(_sweep_request(), (1, 2))
        store = sweep_service.store
        # Age only the netlists: surviving grids still reference them.
        with closing(sqlite3.connect(store.path)) as con, con:
            con.execute("UPDATE coeff_netlists SET created_at = 0")
        report = store.gc(keep_days=30.0)
        assert report["coeff_netlists_deleted"] == 0
        assert store.stats()["coeff_netlists"] == 2
        # Age the grids too: nothing references the netlists anymore.
        with closing(sqlite3.connect(store.path)) as con, con:
            con.execute("UPDATE grids SET created_at = 0")
            con.execute("UPDATE coeff_cache SET created_at = 0")
        report = store.gc(keep_days=30.0)
        assert report["grids_deleted"] == 2
        assert report["coeff_netlists_deleted"] == 2
        assert store.stats()["coeff_netlists"] == 0

    def test_sweep_e_cli_cold_then_warm(self, tmp_path, capsys):
        args = ["sweep-e", "--dataset", "redwine", "--model", "svm_r",
                "--e", "1", "2", "--tau", "0.95", "0.99",
                "--store", str(tmp_path / "store.sqlite"),
                "--out", str(tmp_path / "out.jsonl")]
        assert cli_main(args) == 0
        assert "0/2 grid hits" in capsys.readouterr().err
        cold = [json.loads(line) for line in
                (tmp_path / "out.jsonl").read_text().splitlines()]
        assert cli_main(args) == 0
        assert "2/2 grid hits" in capsys.readouterr().err
        warm = [json.loads(line) for line in
                (tmp_path / "out.jsonl").read_text().splitlines()]

        def payload(lines):
            return [{k: v for k, v in line.items()
                     if k not in ("coeff_hit", "runtime_s")}
                    for line in lines if line["type"] in ("coeff", "design")]

        assert payload(cold) == payload(warm)
        assert cold[0]["type"] == "sweep"
        assert warm[-1]["type"] == "summary"
        assert warm[-1]["store"]["coeff_netlists"] == 2


class TestUnsortedGridInvariance:
    """Shards slice the caller's grid as spelled, so a shuffled tau grid
    gives records identical across shard sizes and to the serial walk,
    list order untouched."""

    SHUFFLED = (0.95, 0.82, 0.99, 0.90, 0.85, 0.97, 0.93)

    @staticmethod
    def _pruner(grid):
        case = get_case("redwine", "svm_r")
        netlist = build_bespoke_netlist(case.quant_model)
        evaluator = CircuitEvaluator.from_split(
            case.quant_model, case.split.X_train, case.split.X_test,
            case.split.y_test)
        return NetlistPruner(netlist, evaluator, grid)

    def test_records_invariant_and_order_preserved(self, tmp_path):
        results = {}
        for size in (1, 2, 3, 5):
            store = DesignStore(tmp_path / f"u{size}.sqlite")
            results[size] = ExplorationJob(self._pruner(self.SHUFFLED),
                                           store, shard_size=size).run()
        serial = self._pruner(self.SHUFFLED).explore()
        for size, designs in results.items():
            assert designs == serial, f"shard size {size} differs"
        # Ordering follows the caller's grid order.
        taus = [d.tau_c for d in serial]
        assert sorted(set(taus), key=taus.index) == list(self.SHUFFLED)

    def test_duplicate_tau_values_match_serial(self, tmp_path):
        """A tau value duplicated across a shard boundary still gives
        the serial list (duplicate attribution is a pure function of
        the rows in grid order)."""
        grid = (0.82, 0.85, 0.90, 0.93, 0.95, 0.95, 0.97, 0.99)
        serial = self._pruner(grid).explore()
        for size in (1, 2, 5):
            store = DesignStore(tmp_path / f"d{size}.sqlite")
            sharded = ExplorationJob(self._pruner(grid), store,
                                     shard_size=size).run()
            assert sharded == serial, f"shard size {size} differs"

    def test_interleaved_duplicate_taus_match_serial_order(self, tmp_path):
        """Duplicates spelled out of order keep the caller's positions:
        sharded lists equal the serial walk's byte for byte."""
        grid = (0.95, 0.90, 0.95)
        serial = self._pruner(grid).explore()
        for size in (1, 2):
            store = DesignStore(tmp_path / f"i{size}.sqlite")
            sharded = ExplorationJob(self._pruner(grid), store,
                                     shard_size=size).run()
            assert sharded == serial, f"shard size {size} differs"


class TestPreparedBases:
    """Each served base is prepared once, in a bounded cache.

    The first job on a base keeps its prune space (folded base,
    training activity, phi); later grids on that base reuse it, and
    every design list equals a fresh service's.
    """

    GRIDS = ((0.85, 0.9, 0.95), (0.8, 0.9, 0.99))
    CIRCUITS = (("redwine", "svm_r"), ("redwine", "svm_c"),
                ("whitewine", "svm_c"), ("cardio", "svm_c"))

    @staticmethod
    def _request(e, grid, dataset="redwine", model="svm_r"):
        return ExploreRequest(dataset, model, base="coeff",
                              tau_grid=grid, e=e)

    @staticmethod
    def _fresh(tmp_path, request):
        """``request``'s design list from a new service on a new store."""
        store = pathlib.Path(tempfile.mkdtemp(dir=tmp_path)) / "s.sqlite"
        return ExplorationService(store).explore(request)[0]

    @pytest.mark.parametrize("first_e", (4, None))
    def test_grids_on_one_base_train_once(self, tmp_path, monkeypatch,
                                          first_e):
        """Two grids on one base (``e=None`` names the ``e=4`` base)."""
        requests = [self._request(first_e, self.GRIDS[0]),
                    self._request(4, self.GRIDS[1])]
        fresh = [self._fresh(tmp_path, request) for request in requests]
        trained = []
        train = CircuitEvaluator.train_activity

        def counting(evaluator, circuit):
            trained.append(circuit)
            return train(evaluator, circuit)

        monkeypatch.setattr(CircuitEvaluator, "train_activity", counting)
        telemetry.reset()
        service = ExplorationService(tmp_path / "shared.sqlite")
        served = [service.explore(request)[0] for request in requests]
        assert len(trained) == 1
        assert served == fresh
        registry = telemetry.get_hub().registry
        assert registry.counter_value("service.bases", result="miss") == 1
        assert registry.counter_value("service.bases", result="hit") >= 1

    def test_cache_is_bounded(self, tmp_path, monkeypatch):
        import repro.service.runner as runner_mod

        monkeypatch.setattr(runner_mod, "BASE_CACHE_SIZE", 2)
        telemetry.reset()
        service = ExplorationService(tmp_path / "bounded.sqlite")
        for e in (1, 2, 3, 4):
            service.explore(self._request(e, self.GRIDS[0]))
        assert len(service._netlists) == 2
        assert [base[3] for base in service._netlists.values()] == [
            service._netlist(self._request(e, self.GRIDS[0]))[3]
            for e in (3, 4)]
        assert telemetry.get_hub().registry.counter_value(
            "service.bases", result="evict") == 2

    def test_evicted_base_serves_the_cold_designs(self, tmp_path,
                                                  monkeypatch):
        import repro.service.runner as runner_mod

        monkeypatch.setattr(runner_mod, "BASE_CACHE_SIZE", 1)
        service = ExplorationService(tmp_path / "evict.sqlite")
        requests = [self._request(2, self.GRIDS[0]),
                    self._request(5, self.GRIDS[0]),
                    self._request(2, self.GRIDS[1])]
        served = []
        for request in requests:
            served.append(service.explore(request)[0])
            assert list(service._netlists.values())[0][3] == \
                service._netlist(request)[3]
        # The last request's base was evicted by the second's: it was
        # rebuilt as a store hit, decoded and folded anew.
        assert served == [self._fresh(tmp_path, request)
                          for request in requests]

    def test_bounded_cache_under_thread_stress(self):
        """8 threads insert distinct keys with a tiny switch interval:
        a lost update would leave the wrong size or eviction count."""
        from repro.service.runner import BoundedCache

        cache = BoundedCache(16, "test.cache")
        n_threads, per_thread = 8, 400
        telemetry.reset()

        def insert(worker):
            for i in range(per_thread):
                cache[(worker, i)] = i
                cache.get((worker, i // 2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=insert, args=(w,))
                       for w in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(cache) == 16
        assert telemetry.get_hub().registry.counter_value(
            "test.cache", result="evict") == n_threads * per_thread - 16

    def test_threads_on_distinct_bases(self, tmp_path, monkeypatch):
        """4 threads, 4 circuits, room for 3: every kept entry is its
        own key's base, with its own space, and every list is right."""
        import repro.service.runner as runner_mod
        from repro.core.pruning import _fold_base
        from repro.service.store import netlist_fingerprint

        requests = [[self._request(6, grid, dataset, model)
                     for grid in self.GRIDS]
                    for dataset, model in self.CIRCUITS]
        fresh = [[self._fresh(tmp_path, request) for request in pair]
                 for pair in requests]
        monkeypatch.setattr(runner_mod, "BASE_CACHE_SIZE", 3)
        service = ExplorationService(tmp_path / "threads.sqlite")
        served: dict = {}
        errors = []
        barrier = threading.Barrier(len(requests))

        def serve(index):
            try:
                barrier.wait()
                served[index] = [service.explore(request)[0]
                                 for request in requests[index]]
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=serve, args=(i,))
                   for i in range(len(requests))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert [served[i] for i in range(len(requests))] == fresh
        kept = service._netlists
        assert len(kept) == 3
        for dataset, model in self.CIRCUITS:
            key = (dataset, model, "coeff", 6)
            base = kept.get(key)
            if base is None:
                continue
            assert base.fingerprint == netlist_fingerprint(base.circuit)
            assert base.space is not None
            folded = _fold_base(base.circuit)[0]
            assert base.space.netlist.ops == folded.ops
            assert base.space.netlist.outputs == folded.outputs
            assert base.space.netlist.input_buses == folded.input_buses


# Extreme floats every design field may carry: NaN and the infinities
# render as JSON's NaN/Infinity, the rest at their shortest repr.
_EXTREMES = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308)
_FLOATS = st.floats() | st.sampled_from(_EXTREMES)
_DESIGNS = st.builds(
    PrunedDesign, tau_c=_FLOATS, phi_c=st.integers(),
    n_pruned=st.integers(min_value=0),
    record=st.builds(EvaluationRecord, _FLOATS, _FLOATS, _FLOATS,
                     st.integers(min_value=0)),
    duplicate_of=st.none() | st.tuples(_FLOATS, st.integers()))


def _one_dumps(index, design, **tags) -> str:
    """A ``design`` line as one ``json.dumps`` of the whole record."""
    return json.dumps({
        "type": "design", "index": index, **tags,
        "tau_c": design.tau_c, "phi_c": design.phi_c,
        "n_pruned": design.n_pruned,
        "duplicate_of": design.duplicate_of,
        **design.record.to_dict(),
    })


class TestRenderedLines:
    """Design lines are a head plus a body, and each stored grid's
    bodies are rendered once per service."""

    REQUEST = {"dataset": "redwine", "model": "svm_r", "base": "exact",
               "tau_grid": [0.9, 0.95, 0.99]}

    @given(index=st.integers(min_value=0), designs=st.lists(_DESIGNS,
                                                             max_size=4),
           tags=st.fixed_dictionaries(
               {}, optional={"e": st.integers(min_value=0)}))
    @settings(max_examples=300, deadline=None)
    def test_head_plus_body_is_one_dumps(self, index, designs, tags):
        report = JobReport("k" * 64, grid_hit=True)
        request = ExploreRequest(dataset="redwine", model="svm_r")
        head = design_head(index, **tags)
        for design in designs:
            expected = _one_dumps(index, design, **tags)
            assert head + design_body(design) == expected
            assert render_design(index, design, **tags) == expected
        assert render_request(index, request, designs, report)[1:] == [
            _one_dumps(index, design) for design in designs]

    @staticmethod
    def _run(service, manifest) -> list[str]:
        out = io.StringIO()
        service.run_manifest(manifest, out)
        return out.getvalue().splitlines()

    def test_deleted_grid_recomputes(self, tmp_path):
        service = ExplorationService(tmp_path / "s.sqlite")
        runs = [self._run(service, [self.REQUEST]) for _ in range(3)]
        gkey = json.loads(runs[0][0])["grid_key"]
        service.store.delete_grid(gkey)
        after = self._run(service, [self.REQUEST])
        assert [json.loads(lines[0])["grid_hit"]
                for lines in (*runs, after)] == [False, True, True, False]
        assert after[1:-1] == runs[2][1:-1] == runs[0][1:-1]

    def test_rewritten_grid_is_rendered_from_the_new_text(self, tmp_path):
        service = ExplorationService(tmp_path / "s.sqlite")
        request = ExploreRequest.from_dict(self.REQUEST)
        self._run(service, [self.REQUEST])
        gkey = service.grid_key(request)
        assert service.warm_lines(0, request) is not None
        rewritten = [dataclasses.replace(design, n_pruned=design.n_pruned + 1)
                     for design in service.store.get_grid(gkey)]
        service.store.put_grid(gkey, rewritten)
        telemetry.reset()
        lines = service.warm_lines(0, request)
        assert lines[1:] == [render_design(0, design)
                             for design in rewritten]
        registry = telemetry.get_hub().registry
        assert registry.counter_value("service.rendered",
                                      result="miss") == 1
        assert service.warm_lines(0, request)[1:] == lines[1:]
        assert registry.counter_value("service.rendered",
                                      result="hit") == 1

    def test_warm_entry_counts_one_lookup_request_and_span(self, tmp_path):
        service = ExplorationService(tmp_path / "s.sqlite")
        self._run(service, [self.REQUEST])
        for rendered in ("miss", "hit"):
            telemetry.reset()
            lines = self._run(service, [self.REQUEST])
            assert json.loads(lines[0])["grid_hit"] is True
            registry = telemetry.get_hub().registry
            assert registry.counter_value("store.lookups", table="grids",
                                          result="hit") == 1
            assert registry.counter_total("store.lookups") == 1
            assert registry.counter_value("service.requests",
                                          outcome="grid_hit") == 1
            assert registry.counter_total("service.requests") == 1
            assert registry.counter_value("service.rendered",
                                          result=rendered) == 1
            spans = registry.snapshot()["histograms"][
                "span.duration_ms{name=service.request}"]
            assert spans["count"] == 1

    def test_memo_is_bounded(self, tmp_path):
        service = ExplorationService(tmp_path / "s.sqlite")
        self._run(service, [self.REQUEST])
        designs = service.store.get_grid(
            service.grid_key(ExploreRequest.from_dict(self.REQUEST)))
        n_grids = BASE_CACHE_SIZE + 4
        telemetry.reset()
        for i in range(n_grids):
            request = ExploreRequest.from_dict(
                {**self.REQUEST, "tau_grid": [0.5 + i / 100]})
            service.store.put_grid(service.grid_key(request), designs)
            assert service.warm_lines(0, request) is not None
        assert len(service._rendered) <= BASE_CACHE_SIZE
        registry = telemetry.get_hub().registry
        assert registry.counter_value("service.rendered",
                                      result="miss") == n_grids
        assert registry.counter_value("service.rendered", result="evict") \
            == n_grids - len(service._rendered)


class TestWarmWalk:
    """Each circuit keeps one warm walk: the base it last walked keeps
    its root rewrite state and its record memo, and a job reads only
    the stored variants the memo has not read."""

    EXACT = ExploreRequest("redwine", "svm_r", base="exact",
                           tau_grid=(0.99,))

    @staticmethod
    def _grid(tau_grid, base="exact", e=None):
        return ExploreRequest("redwine", "svm_r", base=base,
                              tau_grid=tau_grid, e=e)

    @staticmethod
    def _scoring_counter(service, monkeypatch) -> list:
        """Count every scoring call of ``service``'s redwine SVM-R
        evaluator (batched walk and single-netlist refold alike)."""
        evaluator = service._evaluator("redwine", "svm_r")[0]
        calls = []
        for name in ("evaluate_batch", "evaluate"):
            method = getattr(evaluator, name)

            def counting(*args, _method=method, _name=name):
                calls.append(_name)
                return _method(*args)
            monkeypatch.setattr(evaluator, name, counting)
        return calls

    @staticmethod
    def _reads(monkeypatch) -> list:
        """``(after, rows read)`` of every ``variants_for_base`` call."""
        reads = []
        read = DesignStore.variants_for_base

        def recording(store, base_key, after=0):
            variants, rowid = read(store, base_key, after)
            reads.append((after, len(variants)))
            return variants, rowid
        monkeypatch.setattr(DesignStore, "variants_for_base", recording)
        return reads

    def test_peer_variant_is_a_memo_hit(self, tmp_path, monkeypatch):
        path = tmp_path / "s.sqlite"
        service = ExplorationService(path)
        # The second job reads the first one's rows: its memo is past
        # them.
        service.explore(self.EXACT)
        service.explore(self._grid((0.97,)))
        # A second store handle (another process, say) explores an
        # overlapping grid on the same base.
        peer_before = DesignStore(path).stats()["variants"]
        ExplorationService(DesignStore(path)).explore(
            self._grid((0.85, 0.9, 0.95)))
        peer_rows = DesignStore(path).stats()["variants"] - peer_before
        assert peer_rows > 0
        reads = self._reads(monkeypatch)
        scored = self._scoring_counter(service, monkeypatch)
        rebuilt = []
        from_arrays = IncrementalCircuit.from_arrays
        monkeypatch.setattr(
            IncrementalCircuit, "from_arrays",
            staticmethod(lambda circ, shared=False: rebuilt.append(shared)
                         or from_arrays(circ, shared)))
        request = self._grid((0.9, 0.95))
        designs, report = service.explore(request)
        assert scored == []  # every variant came from the peer's rows
        assert False not in rebuilt  # the kept root was forked
        (after, n_read), = reads
        with sqlite3.connect(path) as con:
            skipped, = con.execute("SELECT COUNT(*) FROM variants "
                                   "WHERE rowid<=?", (after,)).fetchone()
        con.close()
        # Only rows past the memo's rowid were read: the peer's, and
        # the second job's own.
        assert skipped > 0 and n_read >= peer_rows
        assert report.variants_preloaded == skipped + n_read \
            == service.store.stats()["variants"]
        assert designs == TestPreparedBases._fresh(tmp_path, request)

    def test_deleted_variant_is_served_from_the_memo(self, tmp_path,
                                                     monkeypatch):
        service = ExplorationService(tmp_path / "s.sqlite")
        service.explore(self._grid((0.85, 0.9, 0.95)))
        with sqlite3.connect(tmp_path / "s.sqlite") as con:
            con.execute("DELETE FROM variants")
        con.close()
        scored = self._scoring_counter(service, monkeypatch)
        request = self._grid((0.9, 0.95))
        designs, _report = service.explore(request)
        assert scored == []
        assert designs == TestPreparedBases._fresh(tmp_path, request)

    def test_another_base_replaces_the_circuits_walk(self, tmp_path,
                                                     monkeypatch):
        service = ExplorationService(tmp_path / "s.sqlite")
        service.explore(self.EXACT)
        service.explore(self._grid((0.97,)))
        exact = service._walks[("redwine", "svm_r")]
        assert exact.base_key == service._base_key(self.EXACT)
        assert exact.space._root and exact.memo and exact.rowid > 0
        coeff = self._grid((0.99,), base="coeff", e=1)
        service.explore(coeff)
        assert list(service._walks) == [("redwine", "svm_r")]
        walk = service._walks[("redwine", "svm_r")]
        assert walk is not exact
        assert walk.base_key == service._base_key(coeff)
        assert walk.memo is not exact.memo
        # The old base keeps its prune space in the base cache, but the
        # slot released its root.
        assert service._prepared(self.EXACT).space is exact.space
        assert exact.space._root == []
        # Back on the first base, a new walk reads the store afresh.
        reads = self._reads(monkeypatch)
        request = self._grid((0.9,))
        designs, report = service.explore(request)
        assert [after for after, _n in reads] == [0]
        assert report.variants_preloaded == reads[0][1]
        assert designs == TestPreparedBases._fresh(tmp_path, request)
