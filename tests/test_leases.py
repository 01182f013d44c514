"""Tests for lease-based fleet claiming (store leases + fleet workers).

The load-bearing contracts:

* **claim atomicity** — two workers can never both hold one shard's
  lease; an expired lease (dead holder) is reclaimable by anyone, a
  live one by nobody else;
* **fleet identity** — N workers draining one grid cooperatively
  produce the *identical* design list to a single-process run, each
  shard computed exactly once;
* **real contention** — two actual subprocesses racing through the CLI
  against one shared store partition the shard set between them
  (disjoint claims, union covers the grid).
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.core.pruning import NetlistPruner, prune_key_bytes
from repro.eval.accuracy import CircuitEvaluator
from repro.experiments.zoo import get_case
from repro.hw.bespoke import build_bespoke_netlist
from repro.service import (
    DesignStore,
    ExplorationJob,
    ExplorationService,
    ExploreRequest,
    LeaseManager,
    run_fleet_worker,
)
from repro.service.store import _serialize_rows

GRID = (0.85, 0.90, 0.95, 0.99)
GKEY = "g" * 64
BKEY = "b" * 64

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


@pytest.fixture(scope="module")
def service_reference(tmp_path_factory):
    """Single-process service-path designs (the fleet identity oracle).

    The service resolves its own base netlist for a request, so fleet
    runs are compared against a serial run *through the service*, not
    against the raw-netlist pruner.
    """
    store = DesignStore(tmp_path_factory.mktemp("ref") / "ref.sqlite")
    designs, _report = ExplorationService(store).explore(
        ExploreRequest(dataset="redwine", model="svm_r", base="exact",
                       tau_grid=GRID))
    return designs


class _FirstGridReadMisses:
    """A store whose first ``get_grid`` reports no grid."""

    def __init__(self, store: DesignStore) -> None:
        self._store = store
        self._missed = False

    def get_grid(self, key: str):
        if not self._missed:
            self._missed = True
            return None
        return self._store.get_grid(key)

    def __getattr__(self, name: str):
        return getattr(self._store, name)


class TestLeasePrimitives:
    def test_claim_is_exclusive_until_expiry(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        assert store.claim_lease(GKEY, 0, "a", ttl_s=60.0, now=t0)
        assert not store.claim_lease(GKEY, 0, "b", ttl_s=60.0, now=t0 + 1)
        # ... but the holder may always re-claim (idempotent restart)
        assert store.claim_lease(GKEY, 0, "a", ttl_s=60.0, now=t0 + 1)

    def test_expired_lease_is_reclaimed(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        assert store.claim_lease(GKEY, 0, "dead", ttl_s=5.0, now=t0)
        assert store.claim_lease(GKEY, 0, "b", ttl_s=60.0, now=t0 + 6)
        assert store.leases_for_grid(GKEY)[0]["worker"] == "b"

    def test_renew_fails_after_steal(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        assert store.claim_lease(GKEY, 0, "a", ttl_s=5.0, now=t0)
        assert store.renew_lease(GKEY, 0, "a", ttl_s=5.0, now=t0 + 1)
        assert store.claim_lease(GKEY, 0, "b", ttl_s=60.0, now=t0 + 10)
        assert not store.renew_lease(GKEY, 0, "a", ttl_s=5.0, now=t0 + 11)

    def test_release_frees_the_shard(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        assert store.claim_lease(GKEY, 0, "a", ttl_s=60.0, now=t0)
        store.release_lease(GKEY, 0, "a")
        assert store.claim_lease(GKEY, 0, "b", ttl_s=60.0, now=t0 + 1)

    def test_claim_on_a_finished_grid_loses(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        store.put_grid(GKEY, [], meta={"label": "t"})
        assert store.claim_lease(GKEY, 0, "late", ttl_s=60.0) == 0
        assert store.leases_for_grid(GKEY) == {}

    def test_manager_held_and_stale_views(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        manager = LeaseManager(store, GKEY, "me", ttl_s=60.0)
        assert manager.claim(0) and manager.claim(1)
        store.claim_lease(GKEY, 2, "dead", ttl_s=-5.0)  # already expired
        assert manager.held() == {0, 1}
        assert manager.stale() == {2}
        manager.release(0)
        assert manager.held() == {1}

    def test_gc_sweeps_expired_leases(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        store.claim_lease(GKEY, 0, "live", ttl_s=3600.0)
        store.claim_lease(GKEY, 1, "dead", ttl_s=-5.0)
        report = store.gc()
        assert report["leases_deleted"] == 1
        assert set(store.leases_for_grid(GKEY)) == {0}


class TestFleetWorker:
    def _job(self, svm_setup, store, shard_size=2):
        netlist, evaluator = svm_setup
        return ExplorationJob(NetlistPruner(netlist, evaluator, GRID),
                              store, shard_size=shard_size)

    def test_single_worker_matches_plain_run(self, svm_setup,
                                             cold_designs, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        designs, report = run_fleet_worker(
            self._job(svm_setup, store), "w1")
        assert designs == cold_designs
        assert report.finalized and not report.grid_hit
        assert report.shards_computed == [0, 1]
        # a later worker sees the finished grid and does no work
        designs2, report2 = run_fleet_worker(
            self._job(svm_setup, store), "w2")
        assert designs2 == cold_designs
        assert report2.grid_hit and report2.shards_computed == []
        # finalize cleared every lease
        assert store.leases_for_grid(
            self._job(svm_setup, store).grid_key()) == {}

    def test_worker_that_missed_a_finished_grid_computes_nothing(
            self, svm_setup, tmp_path):
        """A grid finalized between a worker's grid check and its claims.

        The late worker's first ``get_grid`` misses (it ran just before
        a peer's finalize), so it sweeps shards whose checkpoints are
        already gone.  Every claim loses on the finished grid, and the
        next pass picks the grid up instead of recomputing it.
        """
        netlist, evaluator = svm_setup
        store = DesignStore(tmp_path / "s.sqlite")

        def job(handle):
            return ExplorationJob(NetlistPruner(netlist, evaluator,
                                                GRID[:3]),
                                  handle, shard_size=1)

        designs, first = run_fleet_worker(job(store), "w1")
        assert first.finalized and first.shards_computed == [0, 1, 2]
        late_designs, late = run_fleet_worker(
            job(_FirstGridReadMisses(store)), "w2", poll_s=0.01)
        assert late_designs == designs
        assert late.shards_computed == []
        assert late.grid_hit and not late.finalized
        assert late.claims_lost == 3

    def test_dead_peer_lease_is_reclaimed(self, svm_setup, cold_designs,
                                          tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        job = self._job(svm_setup, store)
        # a "crashed" worker left an expired lease on shard 0
        store.claim_lease(job.grid_key(), 0, "ghost", ttl_s=-5.0)
        designs, report = run_fleet_worker(job, "w1")
        assert designs == cold_designs
        assert report.shards_computed == [0, 1]

    def test_live_peer_lease_times_out_loudly(self, svm_setup, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        job = self._job(svm_setup, store)
        # an unexpired lease held by a peer that never finishes
        store.claim_lease(job.grid_key(), 0, "hung-peer", ttl_s=3600.0)
        with pytest.raises(TimeoutError, match="unfinished shards"):
            run_fleet_worker(job, "w1", poll_s=0.05, max_wait_s=0.5)

    def test_service_fleet_worker_entrypoint(self, service_reference,
                                             tmp_path):
        service = ExplorationService(DesignStore(tmp_path / "s.sqlite"),
                                     shard_size=2)
        request = ExploreRequest(dataset="redwine", model="svm_r",
                                 base="exact", tau_grid=GRID)
        designs, report = service.fleet_worker(request, "w1")
        assert designs == service_reference
        assert report.finalized
        # warm path: the service answers off the grid, no job at all
        designs2, report2 = service.fleet_worker(request, "w2")
        assert designs2 == service_reference and report2.grid_hit


class TestSubprocessContention:
    """Two real worker processes race for one grid's shards."""

    def test_two_cli_workers_partition_the_shards(self, service_reference,
                                                  tmp_path):
        store_path = tmp_path / "shared.sqlite"
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"))

        def worker(name: str) -> subprocess.Popen:
            return subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "explore",
                 "--dataset", "redwine", "--model", "svm_r",
                 "--base", "exact",
                 "--tau", *[str(t) for t in GRID],
                 "--shard-size", "1",
                 "--store", str(store_path),
                 "--out", str(tmp_path / f"{name}.jsonl"),
                 "--worker-id", name],
                env=env, cwd=str(REPO_ROOT),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE)

        procs = [worker("alpha"), worker("beta")]
        for proc in procs:
            _out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()

        reports = []
        for name in ("alpha", "beta"):
            line = json.loads(
                (tmp_path / f"{name}.jsonl").read_text().splitlines()[0])
            assert line["type"] == "fleet-worker"
            reports.append(line)

        # Every worker agrees on the final design count.
        assert {r["n_designs"] for r in reports} \
            == {len(service_reference)}

        computed = [set(r["shards_computed"]) for r in reports]
        done = [r for r in reports if r["finalized"] or r["grid_hit"]]
        assert done, reports
        if all(not r["grid_hit"] for r in reports):
            # Both workers participated in the same incarnation of the
            # grid: their claims are disjoint and cover it exactly.
            assert computed[0] & computed[1] == set()
            assert computed[0] | computed[1] == set(range(4))

        # The shared store's grid is byte-identical to the serial run.
        service = ExplorationService(DesignStore(store_path))
        request = ExploreRequest(dataset="redwine", model="svm_r",
                                 base="exact", tau_grid=GRID)
        designs, report = service.explore(request)
        assert report.grid_hit
        assert designs == service_reference
        # no leases survive a finished grid
        stats = service.store.stats()
        assert stats["shard_leases"] == 0


class TestFencingTokens:
    """Monotonic fencing tokens: a reclaimed (zombie) holder can never
    land a stale shard checkpoint, no matter how late it wakes up."""

    PAYLOAD = {"chains": [], "rows": []}

    def test_tokens_are_monotonic_across_ownership_spans(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        token_a = store.claim_lease(GKEY, 0, "a", ttl_s=5.0, now=t0)
        token_b = store.claim_lease(GKEY, 0, "b", ttl_s=5.0, now=t0 + 10)
        token_c = store.claim_lease(GKEY, 1, "c", ttl_s=5.0, now=t0)
        assert 0 < token_a < token_b  # reclaim = new ownership span
        assert token_c not in (token_a, token_b)  # store-wide counter

    def test_live_holder_reclaim_keeps_its_token(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        token = store.claim_lease(GKEY, 0, "a", ttl_s=60.0, now=t0)
        again = store.claim_lease(GKEY, 0, "a", ttl_s=60.0, now=t0 + 1)
        assert again == token  # same ownership span, same fence

    def test_reclaimed_lease_late_upload_is_fenced(self, tmp_path):
        from repro.service import FencedWriteError
        from repro.service.telemetry import get_hub

        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        stale = store.claim_lease(GKEY, 0, "zombie", ttl_s=5.0, now=t0)
        fresh = store.claim_lease(GKEY, 0, "peer", ttl_s=60.0, now=t0 + 10)
        assert fresh > stale
        before = get_hub().registry.counter_total("fleet.fenced_writes")
        # The zombie wakes up and tries to land its checkpoint.
        with pytest.raises(FencedWriteError):
            store.put_shard(GKEY, 0, GRID[:1], self.PAYLOAD, BKEY,
                            fence=("zombie", stale))
        # Nothing was written: no checkpoint row, and the metric fired.
        assert store.shard_indices(GKEY) == set()
        assert store.get_shard(GKEY, 0) is None
        assert get_hub().registry.counter_total("fleet.fenced_writes") \
            == before + 1
        # The rightful holder's upload lands under the current token.
        store.put_shard(GKEY, 0, GRID[:1], self.PAYLOAD, BKEY,
                        fence=("peer", fresh))
        assert store.shard_indices(GKEY) == {0}

    def test_upload_without_a_lease_row_is_fenced(self, tmp_path):
        from repro.service import FencedWriteError

        store = DesignStore(tmp_path / "s.sqlite")
        # A fence from a released/raced-away lease: no row at all.
        with pytest.raises(FencedWriteError):
            store.put_shard(GKEY, 0, GRID[:1], self.PAYLOAD, BKEY,
                            fence=("ghost", 7))
        assert store.shard_indices(GKEY) == set()

    def test_fenced_upload_writes_no_variant_row(self, tmp_path,
                                                 cold_designs):
        from repro.service import FencedWriteError

        store = DesignStore(tmp_path / "s.sqlite")
        payload = _serialize_rows(
            [(GRID[0], None)],
            [[(1, prune_key_bytes((1, 2)), 2, cold_designs[0].record)]])
        stale = store.claim_lease(GKEY, 0, "zombie", ttl_s=-5.0)
        store.claim_lease(GKEY, 0, "peer", ttl_s=60.0)
        with pytest.raises(FencedWriteError):
            store.put_shard(GKEY, 0, GRID[:1], payload, BKEY,
                            fence=("zombie", stale))
        assert store.variants_for_base(BKEY) == ({}, 0)
        assert store.stats()["variants"] == 0

    def test_renew_checks_the_token(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        t0 = 1000.0
        token = store.claim_lease(GKEY, 0, "a", ttl_s=60.0, now=t0)
        assert store.renew_lease(GKEY, 0, "a", ttl_s=60.0, now=t0 + 1,
                                 token=token)
        assert not store.renew_lease(GKEY, 0, "a", ttl_s=60.0,
                                     now=t0 + 2, token=token + 1)

    def test_manager_stamps_and_clears_fences(self, tmp_path):
        store = DesignStore(tmp_path / "s.sqlite")
        manager = LeaseManager(store, GKEY, "me", ttl_s=60.0)
        assert manager.claim(0)
        worker, token = manager.fence(0)
        assert worker == "me" and token >= 1
        assert manager.renew(0)
        manager.release(0)
        assert manager.fence(0) == ("me", 0)  # no live span, null token
