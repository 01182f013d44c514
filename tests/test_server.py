"""Protocol conformance + concurrency tests for ``repro serve``.

Three layers:

* **conformance** — every streamed line parses under the strict JSONL
  reader, the request/design/summary schemas are pinned, SSE framing
  round-trips, and — the wire path's identity oracle — a served
  explore's design lines are byte-identical to the same request run
  through :meth:`ExplorationService.run_manifest` serially;
* **concurrency** — 32 clients with overlapping + duplicate requests
  against one server: exactly one computation per content key
  (monkeypatch-counted), identical design lists for every client of a
  key, a clean store integrity check afterwards, and explicit
  backpressure (429 + ``Retry-After``) when the queue is full;
* **lifecycle** — tenant namespacing (distinct fingerprints, distinct
  store files), graceful in-process drain, and a real-subprocess
  SIGTERM-mid-stream test: the in-flight stream completes, the server
  exits 0 with a ``drained`` line, and a reconnecting client resolves
  warm with identical designs.
"""

from __future__ import annotations

import asyncio
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro.service import DesignStore, ExplorationService, telemetry
from repro.service.faults import FaultInjector, installed
from repro.service.jobs import ExplorationJob
from repro.service.jsonl import read_jsonl
from repro.service.runner import ExploreRequest
from repro.service.server import ExploreServer, ServeConfig
from repro.service.store import base_fingerprint_from_parts

REPO_ROOT = Path(__file__).resolve().parents[1]

GRID = [0.9, 0.95, 0.99]
REQ = {"dataset": "redwine", "model": "svm_r", "base": "coeff",
       "tau_grid": GRID}

# Pinned line schemas: the served wire format is the batch runner's.
REPORT_KEYS = {"grid_key", "n_shards", "shards_loaded", "shards_computed",
               "grid_hit", "variants_preloaded", "runtime_s",
               "shards_retried", "engine_fallbacks", "fault_events"}
REQUEST_KEYS = {"type", "index", "dataset", "model", "base", "label",
                "tau_grid_points", "n_designs"} | REPORT_KEYS
DESIGN_KEYS = {"type", "index", "tau_c", "phi_c", "n_pruned",
               "duplicate_of", "accuracy", "area_mm2", "power_mw",
               "n_gates"}
SUMMARY_KEYS = {"type", "n_requests", "n_grid_hits", "n_designs",
                "runtime_s", "store"}


@asynccontextmanager
async def running_server(tmp_path, **overrides):
    options = {"port": 0, "store_root": str(tmp_path / "stores"),
               "concurrency": 2, "queue_depth": 8}
    options.update(overrides)
    server = await ExploreServer(ServeConfig(**options)).start()
    try:
        yield server
    finally:
        await server.shutdown()


async def http(port, method, path, body=None, headers=None):
    """One raw HTTP/1.1 exchange; returns (status, head text, body text)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = b"" if body is None else json.dumps(body).encode()
    head = [f"{method} {path} HTTP/1.1", "Host: t", "Connection: close"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    if data:
        head.append(f"Content-Length: {len(data)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + data)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except Exception:
        pass
    head_blob, _, payload = raw.partition(b"\r\n\r\n")
    return (int(head_blob.split()[1]), head_blob.decode("latin-1"),
            payload.decode())


def design_lines(body: str) -> list[str]:
    """The raw design-line text of one streamed response."""
    return [line for line in body.splitlines()
            if '"type": "design"' in line]


def parse_lines(body: str) -> list[dict]:
    return [json.loads(line) for line in body.splitlines() if line.strip()]


class TestConformance:
    def test_healthz_and_status(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                status, _head, body = await http(server.port, "GET",
                                                 "/v1/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"
                status, _head, body = await http(server.port, "GET",
                                                 "/v1/status")
                assert status == 200
                report = json.loads(body)
                assert report["draining"] is False
                assert report["limits"] == {"concurrency": 2,
                                            "queue_depth": 8}
                assert set(report["counters"]) == {
                    "requests", "computed", "coalesced", "rejected_busy",
                    "errors"}
        asyncio.run(run())

    @pytest.mark.parametrize("field,value", [("concurrency", 0),
                                             ("concurrency", -1),
                                             ("queue_depth", -1)])
    def test_config_rejects_out_of_range_limits(self, tmp_path, field,
                                                value):
        with pytest.raises(ValueError, match=field):
            ServeConfig(store_root=str(tmp_path), **{field: value})

    def test_streamed_lines_parse_strictly_and_schemas_pinned(
            self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                status, head, body = await http(server.port, "POST",
                                                "/v1/explore", REQ)
                assert status == 200
                assert "application/x-ndjson" in head
                # every line survives the strict reader — no partial tail
                records = read_jsonl(io.StringIO(body),
                                     allow_partial_tail=False)
                kinds = [record["type"] for record in records]
                assert kinds[0] == "request" and kinds[-1] == "summary"
                assert kinds.count("design") == len(records) - 2
                header, *designs, summary = records
                assert set(header) == REQUEST_KEYS
                assert header["grid_hit"] is False
                for design in designs:
                    assert set(design) == DESIGN_KEYS
                assert set(summary) == SUMMARY_KEYS
                assert summary["n_designs"] == len(designs)
                assert summary["n_requests"] == 1
        asyncio.run(run())

    def test_served_designs_byte_identical_to_serial_run(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                _status, _head, body = await http(server.port, "POST",
                                                  "/v1/explore", REQ)
                return design_lines(body)
        served = asyncio.run(run())

        service = ExplorationService(
            DesignStore(tmp_path / "serial.sqlite"))
        out = io.StringIO()
        service.run_manifest([REQ], out)
        serial = design_lines(out.getvalue())
        assert serial and served == serial  # the wire identity oracle

    def test_sse_framing_round_trips(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                _s, _h, jsonl_body = await http(server.port, "POST",
                                                "/v1/explore", REQ)
                status, head, sse_body = await http(
                    server.port, "POST", "/v1/explore", REQ,
                    {"Accept": "text/event-stream"})
                return status, head, jsonl_body, sse_body
        status, head, jsonl_body, sse_body = asyncio.run(run())
        assert status == 200
        assert "text/event-stream" in head
        frames = [chunk for chunk in sse_body.split("\n\n") if chunk]
        assert all(frame.startswith("data: ") for frame in frames)
        sse_records = [json.loads(frame[len("data: "):])
                       for frame in frames]
        jsonl_records = parse_lines(jsonl_body)
        # same records modulo the per-run volatile fields
        def stable(records):
            return [{key: value for key, value in record.items()
                     if key not in ("runtime_s", "store", "grid_hit",
                                    "n_grid_hits", "variants_preloaded",
                                    "shards_loaded", "shards_computed",
                                    "n_shards")}
                    for record in records]
        assert stable(sse_records) == stable(jsonl_records)

    def test_resubmission_is_warm_and_never_recomputes(
            self, tmp_path, monkeypatch):
        runs = []
        original = ExplorationJob.run

        def counted(self, *args, **kwargs):
            runs.append(self.grid_key())
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationJob, "run", counted)

        async def run():
            async with running_server(tmp_path) as server:
                _s, _h, cold = await http(server.port, "POST",
                                          "/v1/explore", REQ)
                _s, _h, warm = await http(server.port, "POST",
                                          "/v1/explore", REQ)
                return cold, warm
        cold, warm = asyncio.run(run())
        assert len(runs) == 1  # the retry resolved off the store
        assert parse_lines(warm)[0]["grid_hit"] is True
        assert design_lines(cold) == design_lines(warm)

    def test_multi_request_manifest_indices(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                body = {"requests": [REQ, {**REQ, "tau_grid": [0.85, 0.9]},
                                     REQ]}
                _s, _h, text = await http(server.port, "POST",
                                          "/v1/explore", body)
                return parse_lines(text)
        records = asyncio.run(run())
        headers = [r for r in records if r["type"] == "request"]
        assert [h["index"] for h in headers] == [0, 1, 2]
        assert records[-1]["n_requests"] == 3
        # the duplicate third request reuses the first's computation
        first = [r for r in records
                 if r["type"] == "design" and r["index"] == 0]
        third = [r for r in records
                 if r["type"] == "design" and r["index"] == 2]
        assert [dict(r, index=0) for r in third] == first

    def test_sweep_streams_batch_runner_lines(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                spec = {"dataset": "redwine", "model": "svm_r",
                        "tau_grid": GRID, "e_values": [2, 3]}
                status, _head, text = await http(server.port, "POST",
                                                 "/v1/sweep", spec)
                return status, parse_lines(text)
        status, records = asyncio.run(run())
        assert status == 200
        kinds = [record["type"] for record in records]
        assert kinds[0] == "sweep" and kinds[-1] == "summary"
        assert kinds.count("coeff") == 2 and kinds.count("request") == 2
        assert records[-1]["kind"] == "sweep"

    def test_invalid_requests_rejected(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                port = server.port
                results = {}
                results["404"] = await http(port, "GET", "/v1/nope")
                results["405"] = await http(port, "GET", "/v1/explore")
                bad = await asyncio.open_connection("127.0.0.1", port)
                reader, writer = bad
                writer.write(b"POST /v1/explore HTTP/1.1\r\n"
                             b"Content-Length: 7\r\n\r\nnotjson")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                results["badjson"] = int(raw.split()[1])
                results["badfield"] = await http(
                    port, "POST", "/v1/explore", {**REQ, "nope": 1})
                results["badtenant"] = await http(
                    port, "POST", "/v1/explore", REQ,
                    {"X-Tenant": "no/slashes"})
                results["badsweep"] = await http(
                    port, "POST", "/v1/sweep",
                    {"dataset": "redwine", "model": "svm_r"})
                return results
        results = asyncio.run(run())
        assert results["404"][0] == 404
        assert results["405"][0] == 405
        assert results["badjson"] == 400
        assert results["badfield"][0] == 400
        assert "unknown request fields" in results["badfield"][2]
        assert results["badtenant"][0] == 400
        assert results["badsweep"][0] == 400

    def test_malformed_request_values_rejected(self, tmp_path):
        """Values ``from_dict`` used to coerce silently are now a 400."""
        bad_requests = {
            "tau_string": {**REQ, "tau_grid": "09"},
            "tau_nan": {**REQ, "tau_grid": [float("nan")]},
            "e_fraction": {**REQ, "e": 4.7},
            "e_bool": {**REQ, "e": True},
            "dataset_int": {**REQ, "dataset": 7},
            "label_int": {**REQ, "label": 7},
            "identity": {**REQ, "identity": "exact"},
        }

        async def run():
            async with running_server(tmp_path) as server:
                return {name: await http(server.port, "POST",
                                         "/v1/explore", body)
                        for name, body in bad_requests.items()}
        results = asyncio.run(run())
        for name, (status, _head, _body) in results.items():
            assert status == 400, name
        assert "unknown request fields" in results["identity"][2]

    def test_malformed_sweep_values_rejected(self, tmp_path):
        """``e_values`` entries get ``e``'s check; ``include_cross`` is a
        JSON bool, so no value is coerced into another radius or flag."""
        sweep = {"dataset": "redwine", "model": "svm_r", "tau_grid": GRID}
        bad_sweeps = {
            "e_fraction": {**sweep, "e_values": [4.7]},
            "e_bool": {**sweep, "e_values": [2, True]},
            "e_string": {**sweep, "e_values": ["4"]},
            "e_negative": {**sweep, "e_values": [-3]},
            "cross_string": {**sweep, "e_values": [2],
                             "include_cross": "false"},
            "cross_int": {**sweep, "e_values": [2], "include_cross": 0},
        }

        async def run():
            async with running_server(tmp_path) as server:
                return {name: await http(server.port, "POST",
                                         "/v1/sweep", body)
                        for name, body in bad_sweeps.items()}
        results = asyncio.run(run())
        for name, (status, _head, _body) in results.items():
            assert status == 400, name
        assert "integer" in results["e_fraction"][2]
        assert ">= 0" in results["e_negative"][2]
        assert "include_cross" in results["cross_string"][2]


def count_job_runs(monkeypatch) -> list:
    """Grid keys of every ExplorationJob.run call, in call order."""
    runs = []
    original = ExplorationJob.run

    def counted(self, *args, **kwargs):
        runs.append(self.grid_key())
        return original(self, *args, **kwargs)
    monkeypatch.setattr(ExplorationJob, "run", counted)
    return runs


def sse_lines(body: str) -> list[str]:
    frames = [chunk for chunk in body.split("\n\n") if chunk]
    assert all(frame.startswith("data: ") for frame in frames)
    return [frame[len("data: "):] for frame in frames]


class TestTiers:
    """Warm hits, in-flight attachment and fresh computations."""

    def test_warm_hit_skips_queue_and_circuit_lock(self, tmp_path,
                                                   monkeypatch):
        runs = count_job_runs(monkeypatch)
        cold_request = {**REQ, "tau_grid": [0.8, 0.9]}

        async def run():
            async with running_server(tmp_path, concurrency=1,
                                      queue_depth=0) as server:
                await http(server.port, "POST", "/v1/explore", REQ)
                with installed(FaultInjector.parse("job.shard:1=sleep(2)")):
                    cold = asyncio.ensure_future(http(
                        server.port, "POST", "/v1/explore", cold_request))
                    for _ in range(1000):
                        lock = server._circuit_locks.get(("redwine",
                                                          "svm_r"))
                        if lock is not None and lock.locked():
                            break
                        await asyncio.sleep(0.01)
                    # The cold request fills the only slot and holds
                    # the circuit lock while it sleeps in its shard.
                    assert server._admitted == 1 and lock.locked()
                    warm = await http(server.port, "POST", "/v1/explore",
                                      REQ)
                    cold_pending = not cold.done()
                    cold = await cold
                return warm, cold_pending, cold
        warm, cold_pending, cold = asyncio.run(run())
        assert warm[0] == 200 and cold_pending
        records = parse_lines(warm[2])
        assert records[0]["grid_hit"] is True
        assert records[-1]["type"] == "summary"
        assert design_lines(warm[2])
        assert cold[0] == 200
        assert parse_lines(cold[2])[-1]["type"] == "summary"
        assert len(runs) == 2  # the warm hit ran no job

    @pytest.mark.parametrize("accept", ["jsonl", "sse", "x-trace"])
    def test_mixed_manifest_lines_equal_serial_run(self, tmp_path, accept):
        warm_a = REQ
        warm_b = {**REQ, "tau_grid": [0.8, 0.9]}
        cold = {**REQ, "tau_grid": [0.85, 0.95]}
        # cold, warm, in-manifest duplicate of the cold key, warm
        manifest = [cold, warm_a, cold, warm_b]
        headers = {"jsonl": {},
                   "sse": {"Accept": "text/event-stream"},
                   "x-trace": {"X-Trace": "1"}}[accept]

        async def run():
            async with running_server(tmp_path) as server:
                for request in (warm_a, warm_b):
                    await http(server.port, "POST", "/v1/explore", request)
                return await http(server.port, "POST", "/v1/explore",
                                  {"requests": manifest}, headers)
        status, _head, body = asyncio.run(run())
        assert status == 200
        lines = sse_lines(body) if accept == "sse" else body.splitlines()
        records = [json.loads(line) for line in lines]
        if accept == "x-trace":
            assert all("trace" in record for record in records)
            lines = [json.dumps({k: v for k, v in record.items()
                                 if k != "trace"}) for record in records]
        served = [line for line in lines if '"type": "design"' in line]

        out = io.StringIO()
        ExplorationService(DesignStore(tmp_path / "serial.sqlite")) \
            .run_manifest(manifest, out)
        assert served == design_lines(out.getvalue())
        assert {record["index"] for record in records
                if record["type"] == "design"} == {0, 1, 2, 3}
        assert [record["grid_hit"] for record in records
                if record["type"] == "request"] == [False, True, False,
                                                    True]
        assert records[-1]["n_grid_hits"] == 2

    def test_identical_cold_requests_coalesce(self, tmp_path, monkeypatch):
        runs = count_job_runs(monkeypatch)

        async def run():
            async with running_server(tmp_path) as server:
                with installed(FaultInjector.parse("job.shard:1=sleep(1)")):
                    results = await asyncio.gather(*[
                        http(server.port, "POST", "/v1/explore", REQ)
                        for _ in range(2)])
                return results, dict(server.counters)
        results, counters = asyncio.run(run())
        assert [status for status, _h, _b in results] == [200, 200]
        assert len(runs) == 1
        assert counters["coalesced"] == 1 and counters["computed"] == 1
        assert design_lines(results[0][2]) == design_lines(results[1][2])

    def test_cold_request_reads_its_grid_twice(self, tmp_path):
        """The warm tier's miss, then the job's race-guard read."""
        async def run():
            async with running_server(tmp_path) as server:
                telemetry.reset()
                return await http(server.port, "POST", "/v1/explore", REQ)
        status, _head, body = asyncio.run(run())
        assert status == 200 and parse_lines(body)[0]["grid_hit"] is False
        registry = telemetry.get_hub().registry
        reads = registry.snapshot()["histograms"]["store.op_ms{op=get_grid}"]
        assert reads["count"] == 2
        assert registry.counter_value("store.lookups", table="grids",
                                      result="miss") == 2

    def test_stream_fault_truncates_a_warm_stream(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                await http(server.port, "POST", "/v1/explore", REQ)
                with installed(FaultInjector.parse("server.stream:2=err")):
                    return await http(server.port, "POST", "/v1/explore",
                                      REQ)
        status, _head, body = asyncio.run(run())
        assert status == 200
        first, _sep, rest = body.partition("\n")
        header = json.loads(first)
        assert header["type"] == "request" and header["grid_hit"] is True
        # the stream stops at line 2: no design line, no summary
        assert not design_lines(body)
        assert '"type": "summary"' not in rest


class TestRenderedGrids:
    """Warm hits splice design lines each service rendered once, checked
    against the grid text the store holds now."""

    def test_coordinator_grid_delete_recomputes(self, tmp_path,
                                                monkeypatch):
        runs = count_job_runs(monkeypatch)

        async def run():
            async with running_server(tmp_path) as server:
                bodies = [(await http(server.port, "POST", "/v1/explore",
                                      REQ))[2] for _ in range(3)]
                gkey = parse_lines(bodies[0])[0]["grid_key"]
                deleted = await http(server.port, "DELETE",
                                     f"/v1/jobs/{gkey}/grid")
                _s, _h, after = await http(server.port, "POST",
                                           "/v1/explore", REQ)
                return bodies, deleted, after
        bodies, deleted, after = asyncio.run(run())
        assert deleted[0] == 200
        assert [parse_lines(body)[0]["grid_hit"] for body in bodies] == [
            False, True, True]
        # The rendered lines outlived the grid; the request did not
        # serve them.
        assert parse_lines(after)[0]["grid_hit"] is False
        assert len(runs) == 2
        assert design_lines(after) == design_lines(bodies[0])

    def test_repeated_warm_key_streams_serial_bytes(self, tmp_path):
        cold = {**REQ, "tau_grid": [0.85, 0.95]}
        manifest = [REQ, cold, REQ]

        async def run():
            async with running_server(tmp_path) as server:
                await http(server.port, "POST", "/v1/explore", REQ)
                return await http(server.port, "POST", "/v1/explore",
                                  {"requests": manifest})
        status, _head, body = asyncio.run(run())
        assert status == 200
        records = parse_lines(body)
        assert [r["grid_hit"] for r in records
                if r["type"] == "request"] == [True, False, True]
        out = io.StringIO()
        ExplorationService(DesignStore(tmp_path / "serial.sqlite")) \
            .run_manifest(manifest, out)
        assert design_lines(body) == design_lines(out.getvalue())

    def test_tenants_never_share_an_entry(self, tmp_path, monkeypatch):
        runs = count_job_runs(monkeypatch)

        async def run():
            async with running_server(tmp_path) as server:
                bodies = {}
                for tenant in ("alice", "bob"):
                    bodies[tenant] = [
                        (await http(server.port, "POST", "/v1/explore",
                                    REQ, {"X-Tenant": tenant}))[2]
                        for _ in range(2)]
                rendered = {tenant: server._services[tenant]._rendered
                            for tenant in bodies}
                return bodies, rendered
        bodies, rendered = asyncio.run(run())
        # Bob's first request computes although Alice's grid of the
        # same request was rendered: his key and memo are his own.
        assert [parse_lines(b)[0]["grid_hit"] for b in bodies["bob"]] \
            == [False, True]
        assert len(runs) == 2
        assert rendered["alice"] is not rendered["bob"]
        keys = {tenant: set(cache._entries)
                for tenant, cache in rendered.items()}
        assert len(keys["alice"]) == len(keys["bob"]) == 1
        assert not keys["alice"] & keys["bob"]
        assert design_lines(bodies["alice"][1]) \
            == design_lines(bodies["bob"][1])


class TestTenancy:
    def test_namespace_changes_base_fingerprint(self):
        plain = base_fingerprint_from_parts("nl", "ev")
        tenant1 = base_fingerprint_from_parts("nl", "ev", namespace="t1")
        tenant2 = base_fingerprint_from_parts("nl", "ev", namespace="t2")
        assert len({plain, tenant1, tenant2}) == 3
        # the empty namespace is byte-compatible with pre-namespace keys
        assert plain == base_fingerprint_from_parts("nl", "ev",
                                                    namespace="")

    def test_tenants_get_isolated_stores_and_keys(
            self, tmp_path, monkeypatch):
        runs = []
        original = ExplorationJob.run

        def counted(self, *args, **kwargs):
            runs.append(self.grid_key())
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationJob, "run", counted)

        async def run():
            async with running_server(tmp_path) as server:
                _s, _h, body_a = await http(server.port, "POST",
                                            "/v1/explore", REQ,
                                            {"X-Tenant": "alice"})
                _s, _h, body_b = await http(server.port, "POST",
                                            "/v1/explore", REQ,
                                            {"X-Tenant": "bob"})
                return body_a, body_b
        body_a, body_b = asyncio.run(run())
        # distinct content keys → two computations, two store files
        assert len(runs) == 2 and runs[0] != runs[1]
        root = tmp_path / "stores"
        assert (root / "alice.sqlite").is_file()
        assert (root / "bob.sqlite").is_file()
        for tenant in ("alice", "bob"):
            stats = DesignStore(root / f"{tenant}.sqlite",
                                namespace=tenant).stats()
            # each tenant built (and stored) its own coefficient base
            assert (stats["grids"], stats["coeff_netlists"],
                    stats["coeff_cache"]) == (1, 1, 1)
        # isolation never changes the physics: identical design lists
        assert design_lines(body_a) == design_lines(body_b)


class TestConcurrency:
    def test_32_clients_coalesce_to_one_computation_per_key(
            self, tmp_path, monkeypatch):
        runs = []
        original = ExplorationJob.run

        def counted(self, *args, **kwargs):
            runs.append(self.grid_key())
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationJob, "run", counted)

        grid_a = [0.85, 0.9, 0.95, 0.99]
        grid_b = [0.8, 0.88, 0.96]
        requests = [{**REQ, "tau_grid": grid_a if i % 2 else grid_b}
                    for i in range(32)]

        async def run():
            async with running_server(tmp_path, concurrency=4,
                                      queue_depth=32) as server:
                results = await asyncio.gather(*[
                    http(server.port, "POST", "/v1/explore", request)
                    for request in requests])
                store = server._service("default").store
                intact = store.integrity_ok()
                return results, intact
        results, intact = asyncio.run(run())

        assert all(status == 200 for status, _h, _b in results)
        by_grid: dict[str, list] = {}
        for (status, _head, body), request in zip(results, requests):
            records = parse_lines(body)
            assert records[-1]["type"] == "summary"  # complete stream
            by_grid.setdefault(json.dumps(request["tau_grid"]),
                               []).append(design_lines(body))
        # every client of a key saw the identical design list
        for streams in by_grid.values():
            assert all(stream == streams[0] for stream in streams[1:])
        # exactly one computation per content key
        assert len(runs) == len(set(runs)) == 2
        assert intact

    def test_queue_full_gets_429_with_retry_after(
            self, tmp_path, monkeypatch):
        gate = threading.Event()
        original = ExplorationService.explore

        def gated(self, *args, **kwargs):
            assert gate.wait(timeout=30)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationService, "explore", gated)

        async def run():
            async with running_server(tmp_path, concurrency=1,
                                      queue_depth=0) as server:
                first = asyncio.ensure_future(
                    http(server.port, "POST", "/v1/explore", REQ))
                for _ in range(500):
                    if server._admitted >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert server._admitted >= 1
                # distinct content key, same circuit: must queue → 429
                busy = await http(server.port, "POST", "/v1/explore",
                                  {**REQ, "tau_grid": [0.8, 0.9]})
                gate.set()
                done = await first
                return busy, done
        busy, done = asyncio.run(run())
        status, head, body = busy
        assert status == 429
        assert "Retry-After: 1" in head
        assert "queue full" in json.loads(body)["error"]
        assert done[0] == 200
        assert parse_lines(done[2])[-1]["type"] == "summary"


class TestDrain:
    def test_in_process_drain_finishes_inflight_stream(
            self, tmp_path, monkeypatch):
        gate = threading.Event()
        original = ExplorationService.explore

        def gated(self, *args, **kwargs):
            assert gate.wait(timeout=30)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(ExplorationService, "explore", gated)

        async def run():
            async with running_server(tmp_path, concurrency=1) as server:
                inflight = asyncio.ensure_future(
                    http(server.port, "POST", "/v1/explore", REQ))
                for _ in range(500):
                    if server._admitted >= 1:
                        break
                    await asyncio.sleep(0.01)
                server.begin_drain()
                gate.set()
                status, _head, body = await inflight
                await asyncio.wait_for(server.stopped.wait(), timeout=30)
                refused = False
                try:
                    await asyncio.open_connection("127.0.0.1",
                                                  server.port)
                except OSError:
                    refused = True
                return status, body, refused
        status, body, refused = asyncio.run(run())
        assert status == 200
        records = parse_lines(body)
        assert records[-1]["type"] == "summary"  # stream completed
        assert any(r["type"] == "design" for r in records)
        assert refused  # no new connections after drain began

    def test_sigterm_mid_stream_drains_and_reconnect_is_warm(
            self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        store_root = tmp_path / "stores"

        def spawn():
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port",
                 "0", "--store-root", str(store_root)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                env=env, text=True, bufsize=1, cwd=str(tmp_path))
            ready = json.loads(proc.stdout.readline())
            assert ready["type"] == "serving"
            return proc, ready["port"]

        def post_explore(port, request, after_headers=None):
            body = json.dumps(request).encode()
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=120) as sock:
                sock.sendall(
                    b"POST /v1/explore HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\n\r\n" + body)
                blob = b""
                while b"\r\n\r\n" not in blob:
                    chunk = sock.recv(65536)
                    assert chunk, "connection closed before headers"
                    blob += chunk
                if after_headers is not None:
                    after_headers()
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    blob += chunk
            head, _sep, payload = blob.partition(b"\r\n\r\n")
            return int(head.split()[1]), payload.decode()

        request = {**REQ, "tau_grid": [0.8, 0.85, 0.9, 0.95, 0.99]}
        proc, port = spawn()
        try:
            # SIGTERM lands while the response is in flight (headers
            # received, body still streaming/computing): graceful drain
            # must finish this stream, then exit 0.
            status, body = post_explore(
                port, request,
                after_headers=lambda: proc.send_signal(signal.SIGTERM))
            assert status == 200
            records = parse_lines(body)
            assert records[-1]["type"] == "summary"
            cold_designs = design_lines(body)
            assert cold_designs
            out, _err = proc.communicate(timeout=60)
            assert proc.returncode == 0
            assert json.loads(out.splitlines()[-1])["type"] == "drained"
        finally:
            if proc.poll() is None:
                proc.kill()

        # a reconnecting client (fresh server, same stores) is warm
        proc2, port2 = spawn()
        try:
            status, body = post_explore(port2, request)
            assert status == 200
            records = parse_lines(body)
            assert records[0]["grid_hit"] is True
            assert design_lines(body) == cold_designs
        finally:
            proc2.send_signal(signal.SIGTERM)
            try:
                proc2.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc2.kill()
