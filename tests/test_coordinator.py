"""Tests for the HTTP fleet coordinator (client + server plane).

The multi-host fleet has one safety property — **a fenced worker never
mutates the store** — and one liveness property — **transient network
failure is absorbed by retry, sustained failure surfaces as
CoordinatorError**.  Both are exercised here against a real in-process
``repro serve`` instance (its own event loop on a background thread,
real sockets on localhost), plus the end-to-end identity oracle: a
fleet worker running entirely over HTTP produces the byte-identical
design list to a serial in-process run.
"""

from __future__ import annotations

import asyncio
import io
import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.service import (
    CoordinatorClient,
    CoordinatorError,
    DesignStore,
    ExplorationService,
    ExploreRequest,
    FencedWriteError,
    RemoteStore,
)
from repro.core.cross_layer import CrossLayerFramework
from repro.eval.accuracy import EvaluationRecord
from repro.service.faults import FaultInjector, installed
from repro.service.retry import RetryPolicy
from repro.service.server import ExploreServer, ServeConfig
from repro.service.telemetry import get_hub

GRID = (0.90, 0.99)
GKEY = "c" * 64
BKEY = "b" * 64
PAYLOAD = {"chains": [], "rows": []}


@contextmanager
def coordinator(tmp_path, **overrides):
    """A real ``repro serve`` on localhost, event loop on a thread."""
    options = {"port": 0, "store_root": str(tmp_path / "stores"),
               "concurrency": 2, "queue_depth": 8}
    options.update(overrides)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    box: dict = {}

    def run():
        asyncio.set_event_loop(loop)
        box["server"] = loop.run_until_complete(
            ExploreServer(ServeConfig(**options)).start())
        ready.set()
        loop.run_forever()
        loop.run_until_complete(box["server"].shutdown())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(15), "coordinator failed to start"
    try:
        yield box["server"]
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(20)


def remote(server, **kwargs) -> RemoteStore:
    return RemoteStore(CoordinatorClient(f"http://127.0.0.1:{server.port}",
                                         **kwargs))


def fast_policy(**overrides) -> RetryPolicy:
    options = dict(attempts=4, base_s=0.01, cap_s=0.05, deadline_s=5.0,
                   jitter="none")
    options.update(overrides)
    return RetryPolicy(**options)


class TestEndpoints:
    def test_lease_lifecycle_over_http(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            assert token >= 1
            # live peer is excluded, holder re-claims its own token
            assert store.claim_lease(GKEY, 0, "w2", ttl_s=60.0) == 0
            assert store.claim_lease(GKEY, 0, "w1", ttl_s=60.0) == token
            assert store.renew_lease(GKEY, 0, "w1", ttl_s=60.0,
                                     token=token)
            assert not store.renew_lease(GKEY, 0, "w1", ttl_s=60.0,
                                         token=token + 1)
            leases = store.leases_for_grid(GKEY)
            assert leases[0]["worker"] == "w1"
            assert leases[0]["token"] == token
            store.release_lease(GKEY, 0, "w1")
            assert store.leases_for_grid(GKEY) == {}

    def test_shard_checkpoints_and_grid_round_trip(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            assert store.get_shard(GKEY, 0) is None
            assert store.shard_indices(GKEY) == set()
            token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            store.put_shard(GKEY, 0, list(GRID), PAYLOAD, BKEY,
                            fence=("w1", token))
            taus, payload = store.get_shard(GKEY, 0)
            assert taus == list(GRID) and payload == PAYLOAD
            assert store.shard_indices(GKEY) == {0}
            # The finished grid's write retires the checkpoints it
            # supersedes.
            store.put_grid(GKEY, [], meta={"label": "t"})
            assert store.shard_indices(GKEY) == set()

    def test_variants_read_past_a_rowid(self, tmp_path):
        """``?after=`` returns only the rows stored past a rowid, and
        the highest rowid read (``after`` itself when nothing is new)."""
        record = EvaluationRecord(0.5, 1.0, 2.0, 3)

        def payload(*ids_list):
            return {"chains": [{"tau_c": 0.9, "rows": [
                [1, list(ids), len(ids), record.to_dict()]
                for ids in ids_list]}]}

        with coordinator(tmp_path) as server:
            store = remote(server)
            assert store.variants_for_base(BKEY) == ({}, 0)
            store.put_shard(GKEY, 0, [0.9], payload((1, 2), (3,)), BKEY)
            first, rowid = store.variants_for_base(BKEY)
            assert first == {(1, 2): record, (3,): record} and rowid > 0
            assert store.variants_for_base(BKEY, after=rowid) \
                == ({}, rowid)
            store.put_shard(GKEY, 1, [0.95], payload((3,), (4, 5)), BKEY)
            new, last = store.variants_for_base(BKEY, after=rowid)
            assert new == {(4, 5): record} and last > rowid
            status, _data = store.client.request(
                "GET", f"/v1/bases/{BKEY}/variants?after=x")
            assert status == 400

    def test_split_write_routes_are_gone(self, tmp_path):
        """A shard upload carries its variants; a grid retires its
        checkpoints and leases: no route writes either half alone."""
        with coordinator(tmp_path) as server:
            client = remote(server).client
            for method, path, body in (
                    ("PUT", f"/v1/bases/{BKEY}/variants", {"variants": []}),
                    ("DELETE", f"/v1/jobs/{GKEY}/shards", None),
                    ("DELETE", f"/v1/jobs/{GKEY}/leases", None)):
                status, _data = client.request(method, path, body)
                assert status == 405, (method, path)
            status, data = client.request(
                "PUT", f"/v1/jobs/{GKEY}/shards/0",
                {"taus": list(GRID), "payload": PAYLOAD})
            assert status == 400 and "base_key" in data["error"]
            status, data = client.request(
                "PUT", f"/v1/jobs/{GKEY}/shards/0",
                {"taus": list(GRID), "payload": {}, "base_key": BKEY})
            assert status == 400 and "chains" in data["error"]

    def test_fenced_upload_gets_409_and_writes_nothing(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            stale = store.claim_lease(GKEY, 0, "zombie", ttl_s=-5.0)
            fresh = store.claim_lease(GKEY, 0, "peer", ttl_s=60.0)
            assert fresh > stale >= 1
            with pytest.raises(FencedWriteError):
                store.put_shard(GKEY, 0, list(GRID), PAYLOAD, BKEY,
                                fence=("zombie", stale))
            assert store.shard_indices(GKEY) == set()
            # ... and the rightful holder still lands its write
            store.put_shard(GKEY, 0, list(GRID), PAYLOAD, BKEY,
                            fence=("peer", fresh))
            assert store.shard_indices(GKEY) == {0}

    def test_coeff_caches_over_http(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            key = "k" * 64
            assert store.get_coeff(key) is None
            store.put_coeff(key, [{"original": 3, "approximated": 2}])
            assert store.get_coeff(key) \
                == [{"original": 3, "approximated": 2}]
            assert store.get_coeff_netlist_fingerprint(key) is None
            assert store.put_coeff_netlist(key, "f" * 64) \
                == ("f" * 64, False)
            assert store.get_coeff_netlist_fingerprint(key) == "f" * 64

    def test_coeff_netlist_routes_carry_only_fingerprints(self, tmp_path):
        """The coordinator stores no circuit: a ``PUT`` carries just the
        fingerprint and answers the stored one plus the hit flag, the
        same pair a local store hands back."""
        local = DesignStore(tmp_path / "local.sqlite")
        with coordinator(tmp_path) as server:
            store = remote(server)
            for target in (store, local):
                assert target.put_coeff_netlist("e" * 64, "1" * 64) \
                    == ("1" * 64, False)
                # A repeated key keeps its first fingerprint.
                assert target.put_coeff_netlist("e" * 64, "2" * 64) \
                    == ("1" * 64, True)
                assert target.get_coeff_netlist_fingerprint("e" * 64) \
                    == "1" * 64
            client = store.client
            status, _data = client.request(
                "GET", "/v1/coeff-netlists/" + "e" * 64)
            assert status == 405
            status, data = client.request(
                "PUT", "/v1/coeff-netlists/" + "d" * 64,
                {"netlist": {"nodes": []}})
            assert status == 400 and "fingerprint" in data["error"]
            assert store.get_coeff_netlist_fingerprint("d" * 64) is None


class TestClientRobustness:
    def test_keep_alive_reuses_one_connection(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            before = get_hub().registry.counter_total("coord.retries")
            store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            conn = store.client._conn
            assert conn is not None
            for _ in range(5):
                store.leases_for_grid(GKEY)
            # Same socket the whole way, and no retry was needed — the
            # server honored keep-alive rather than closing on us.
            assert store.client._conn is conn
            assert get_hub().registry.counter_total("coord.retries") \
                == before

    def test_request_fault_is_retried_transparently(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            store.client.policy = fast_policy()
            before = get_hub().registry.counter_total("coord.retries")
            with installed(FaultInjector.parse("coord.request:1=drop")):
                token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            assert token >= 1
            assert get_hub().registry.counter_total("coord.retries") \
                == before + 1

    def test_lost_ack_replay_is_idempotent(self, tmp_path):
        # The response fault fires *after* the body was read: the
        # server committed, the client saw a network error and replays.
        with coordinator(tmp_path) as server:
            store = remote(server)
            store.client.policy = fast_policy()
            token = store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)
            with installed(FaultInjector.parse(
                    "coord.response@method=PUT:1=partial-body")):
                store.put_shard(GKEY, 0, list(GRID), PAYLOAD, BKEY,
                                fence=("w1", token))
            taus, payload = store.get_shard(GKEY, 0)
            assert taus == list(GRID) and payload == PAYLOAD
            assert store.shard_indices(GKEY) == {0}

    def test_injected_503_is_absorbed(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            store.client.policy = fast_policy()
            with installed(FaultInjector.parse(
                    "coord.response:1=error-503")):
                assert store.claim_lease(GKEY, 0, "w1", ttl_s=60.0) >= 1

    def test_unreachable_coordinator_raises_after_deadline(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        # Nothing listens on `port` now; connection is refused fast.
        client = CoordinatorClient(f"http://127.0.0.1:{port}",
                                   policy=fast_policy(attempts=3,
                                                      deadline_s=1.0))
        store = RemoteStore(client)
        with pytest.raises(CoordinatorError, match="unreachable"):
            store.claim_lease(GKEY, 0, "w1", ttl_s=60.0)

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            CoordinatorClient("https://example.com")


class TestRemoteLeaseManager:
    def test_heartbeat_outlives_a_short_ttl(self, tmp_path):
        with coordinator(tmp_path) as server:
            store = remote(server)
            manager = store.make_lease_manager(GKEY, "w1", ttl_s=0.6)
            manager.heartbeat_s = 0.1
            assert manager.claim(0)
            with manager.guarding(0):
                time.sleep(1.0)  # several TTLs worth of compute
                # the heartbeat kept the lease alive the whole time
                info = store.leases_for_grid(GKEY)[0]
                assert info["worker"] == "w1"
                assert info["expiry"] > time.time()
            store.put_shard(GKEY, 0, list(GRID), PAYLOAD, BKEY,
                            fence=manager.fence(0))
            manager.release(0)
            assert store.shard_indices(GKEY) == {0}


class TestStoreCoercion:
    """One rule for every ``store=`` argument: a path opens a local
    store (``test_service.py`` covers that), anything else passes
    through unchanged."""

    @pytest.mark.parametrize("construct", [
        lambda store: CrossLayerFramework(store=store),
        lambda store: ExplorationService(store),
    ])
    def test_store_shaped_object_passes_through(self, tmp_path,
                                                monkeypatch, construct):
        monkeypatch.chdir(tmp_path)
        store = RemoteStore(CoordinatorClient("http://127.0.0.1:9"))
        assert construct(store).store is store
        assert list(tmp_path.iterdir()) == []


class TestRemoteFleetIdentity:
    def test_remote_manifest_serves_the_stored_text(self, tmp_path):
        """A manifest over a coordinator-backed store: the grid text the
        client reads back is the coordinator store's own, so the second
        run is a warm hit with the first run's design lines."""
        manifest = [{"dataset": "redwine", "model": "svm_r",
                     "base": "exact", "tau_grid": list(GRID)}]
        with coordinator(tmp_path) as server:
            service = ExplorationService(remote(server))
            runs = []
            for _ in range(2):
                out = io.StringIO()
                service.run_manifest(manifest, out)
                runs.append(out.getvalue().splitlines())
            gkey = json.loads(runs[0][0])["grid_key"]
            text = service.store.get_grid_text(gkey)
        local = DesignStore(tmp_path / "stores" / "default.sqlite")
        assert text == local.get_grid_text(gkey)
        assert [json.loads(lines[0])["grid_hit"] for lines in runs] == [
            False, True]
        assert runs[1][1:-1] == runs[0][1:-1]

    def test_http_workers_match_serial_run(self, tmp_path):
        request = ExploreRequest(dataset="redwine", model="svm_r",
                                 base="exact", tau_grid=GRID)
        reference, _report = ExplorationService(
            DesignStore(tmp_path / "ref.sqlite"), shard_size=1).explore(
                request)
        with coordinator(tmp_path) as server:
            results: dict = {}

            def worker(name: str) -> None:
                service = ExplorationService(remote(server),
                                             shard_size=1)
                try:
                    results[name] = service.fleet_worker(request, name)
                except Exception as exc:  # surfaced by the assert below
                    results[name] = exc

            threads = [threading.Thread(target=worker, args=(name,))
                       for name in ("alpha", "beta")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(300)
            for name, outcome in results.items():
                assert not isinstance(outcome, Exception), \
                    (name, outcome)

            # Every HTTP worker returns the byte-identical design list.
            for name in ("alpha", "beta"):
                designs, report = results[name]
                assert designs == reference, name
                assert report.finalized or report.grid_hit \
                    or report.shards_computed == []

            # The coordinator's store holds the same grid and no
            # leftover leases or checkpoints-in-flight.
            done = [results[n][1] for n in ("alpha", "beta")]
            computed = [set(r.shards_computed) for r in done]
            assert computed[0] & computed[1] == set()
