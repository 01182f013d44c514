"""Unified telemetry layer tests.

Four layers:

* **registry** — counter/gauge/histogram semantics, label-order
  insensitivity, thread safety, and a golden Prometheus text rendering
  (the exposition format is a public contract);
* **spans** — hierarchy under one trace id, parent links across
  ``await``-free nesting and explicit thread hand-off
  (:func:`capture_context` / :func:`use_context`), deterministic
  sampling, request-id stamping, error flagging;
* **inertness** — the hard contract: design lines and store contents
  are byte-identical with telemetry off, tracing on, and tracing
  sampled to zero (spans observe, never influence);
* **server + CLI** — ``X-Request-Id`` generation/echo (including 429
  and drain-503), ``GET /v1/metrics`` in both renderings, the
  ``X-Trace`` opt-in line stamp, ``--events-log`` span linking from
  ``server.request`` down to ``engine.walk``, and ``repro metrics``.
"""

from __future__ import annotations

import asyncio
import io
import json
import re
import sqlite3
import threading
from contextlib import asynccontextmanager

import pytest

from repro import cli
from repro.service import DesignStore, ExplorationService
from repro.service import telemetry
from repro.service.jsonl import read_jsonl
from repro.service.server import ExploreServer, ServeConfig
from repro.service.telemetry import (MetricsRegistry, capture_context,
                                     request_context, use_context)

GRID = [0.9, 0.95]
REQ = {"dataset": "redwine", "model": "svm_r", "base": "coeff",
       "tau_grid": GRID}

# Volatile store columns: timestamps and usage counters never take part
# in the inertness fingerprint (content keys and payloads do).
_VOLATILE_COLUMNS = {"created_at", "heartbeat", "expiry", "hits"}


@pytest.fixture(autouse=True)
def clean_hub():
    telemetry.reset()
    yield
    telemetry.reset()


def store_fingerprint(path) -> str:
    """Canonical dump of every non-volatile store cell."""
    conn = sqlite3.connect(path)
    try:
        tables = [row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='table' "
            "ORDER BY name")]
        dump = {}
        for table in tables:
            columns = [row[1] for row in
                       conn.execute(f"PRAGMA table_info({table})")]
            keep = [c for c in columns if c not in _VOLATILE_COLUMNS]
            rows = conn.execute(
                f"SELECT {', '.join(keep)} FROM {table}").fetchall()
            dump[table] = sorted(map(list, rows))
    finally:
        conn.close()
    return json.dumps(dump, sort_keys=True)


def design_lines(text: str) -> list[str]:
    return [line for line in text.splitlines()
            if '"type": "design"' in line]


def parse_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class TestRegistry:
    def test_counters_label_order_insensitive(self):
        reg = MetricsRegistry()
        reg.counter("store.lookups", table="grids", result="hit")
        reg.counter("store.lookups", result="hit", table="grids")
        reg.counter("store.lookups", 3, table="grids", result="miss")
        assert reg.counter_value("store.lookups", table="grids",
                                 result="hit") == 2
        assert reg.counter_total("store.lookups") == 5

    def test_label_keyword_name_never_collides(self):
        # span histograms label by name=...; positional-only params
        # keep that working.
        reg = MetricsRegistry()
        reg.observe("span.duration_ms", 1.0, name="job.shard")
        reg.counter("spans", name="job.shard")
        assert reg.counter_value("spans", name="job.shard") == 1

    def test_prometheus_golden(self):
        reg = MetricsRegistry()
        reg.counter("store.lookups", table="grids", result="hit")
        reg.counter("store.lookups", 2, table="grids", result="miss")
        reg.gauge("server.admitted", 3)
        reg.observe("walk.ms", 0.3, (0.5, 5.0))
        reg.observe("walk.ms", 2.0, (0.5, 5.0))
        reg.observe("walk.ms", 99.0, (0.5, 5.0))
        assert reg.render_prometheus() == (
            '# TYPE repro_store_lookups_total counter\n'
            'repro_store_lookups_total{result="hit",table="grids"} 1\n'
            'repro_store_lookups_total{result="miss",table="grids"} 2\n'
            '# TYPE repro_server_admitted gauge\n'
            'repro_server_admitted 3\n'
            '# TYPE repro_walk_ms histogram\n'
            'repro_walk_ms_bucket{le="0.5"} 1\n'
            'repro_walk_ms_bucket{le="5"} 2\n'
            'repro_walk_ms_bucket{le="+Inf"} 3\n'
            'repro_walk_ms_sum 101.3\n'
            'repro_walk_ms_count 3\n'
        )

    def test_histogram_snapshot_buckets(self):
        reg = MetricsRegistry()
        for value in (0.3, 2.0, 99.0, 1e9):
            reg.observe("walk.ms", value, (0.5, 5.0))
        hist = reg.snapshot()["histograms"]["walk.ms"]
        assert hist["count"] == 4
        assert hist["buckets"] == {"0.5": 1, "5": 1, "+Inf": 2}
        assert hist["sum"] == pytest.approx(0.3 + 2.0 + 99.0 + 1e9)

    def test_declared_bucket_bounds(self):
        # Contract names resolve their shapes from HISTOGRAM_BUCKETS.
        reg = MetricsRegistry()
        reg.observe("engine.batch_size", 9)
        buckets = reg.snapshot()["histograms"]["engine.batch_size"][
            "buckets"]
        assert list(buckets) == [
            telemetry._fmt(b) for b in telemetry.SIZE_BUCKETS] + ["+Inf"]
        assert buckets["16"] == 1

    def test_thread_safety(self):
        reg = MetricsRegistry()

        def spin():
            for _ in range(1000):
                reg.counter("hits")
                reg.observe("ms", 1.0, (10.0,))
        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == 8000
        assert reg.snapshot()["histograms"]["ms"]["count"] == 8000

    def test_snapshot_sorted_and_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("b.second")
        reg.counter("a.first")
        snapshot = reg.snapshot()
        assert list(snapshot["counters"]) == ["a.first", "b.second"]
        json.dumps(snapshot)  # must serialize as-is


class TestSpans:
    def test_tracing_off_no_ids_no_events(self):
        out = io.StringIO()
        telemetry.configure(tracing=False, events_out=out)
        with telemetry.span("stage") as outer:
            pass
        assert outer.trace_id is None
        assert out.getvalue() == ""
        # metrics are always on: the duration histogram was fed anyway
        hist = telemetry.get_hub().registry.snapshot()["histograms"]
        assert hist["span.duration_ms{name=stage}"]["count"] == 1

    def test_hierarchy_one_trace_with_parent_links(self):
        out = io.StringIO()
        telemetry.configure(tracing=True, events_out=out)
        with telemetry.span("a") as span_a:
            with telemetry.span("b") as span_b:
                with telemetry.span("c"):
                    pass
        events = parse_lines(out.getvalue())
        assert [e["name"] for e in events] == ["c", "b", "a"]  # exit order
        assert len({e["trace"] for e in events}) == 1
        by_name = {e["name"]: e for e in events}
        assert by_name["a"]["parent"] is None
        assert by_name["b"]["parent"] == span_a.span_id
        assert by_name["c"]["parent"] == span_b.span_id
        assert all(e["ms"] >= 0 for e in events)

    def test_request_id_and_error_stamped(self):
        out = io.StringIO()
        telemetry.configure(tracing=True, events_out=out)
        with request_context("req-7"):
            with pytest.raises(ValueError):
                with telemetry.span("boom", stage=3):
                    raise ValueError("nope")
        event = parse_lines(out.getvalue())[0]
        assert event["request_id"] == "req-7"
        assert event["error"] == "ValueError"
        assert event["attrs"] == {"stage": 3}

    def test_sampling_deterministic_and_whole_trace(self):
        out = io.StringIO()
        telemetry.configure(tracing=True, sample=0.0, events_out=out)
        with telemetry.span("root"):
            with telemetry.span("child"):
                pass
        assert out.getvalue() == ""  # sampled out: zero events
        hub = telemetry.get_hub()
        # duration histogram still fed for both spans
        hist = hub.registry.snapshot()["histograms"]
        assert hist["span.duration_ms{name=child}"]["count"] == 1
        # the decision is a pure function of the trace id
        hub.sample = 0.5
        assert all(hub._sampled("00" * 8) for _ in range(3))
        assert not any(hub._sampled("ff" * 8) for _ in range(3))

    def test_context_hand_off_to_thread(self):
        out = io.StringIO()
        telemetry.configure(tracing=True, events_out=out)
        with telemetry.span("outer") as outer:
            ctx = capture_context()

            def pooled():
                with use_context(ctx):
                    with telemetry.span("inner"):
                        pass
            worker = threading.Thread(target=pooled)
            worker.start()
            worker.join()
        events = {e["name"]: e for e in parse_lines(out.getvalue())}
        assert events["inner"]["trace"] == events["outer"]["trace"]
        assert events["inner"]["parent"] == outer.span_id


class TestInertness:
    def _explore(self, tmp_path, tag):
        service = ExplorationService(
            DesignStore(tmp_path / f"{tag}.sqlite"))
        out = io.StringIO()
        service.run_manifest([REQ], out)
        return (design_lines(out.getvalue()),
                store_fingerprint(tmp_path / f"{tag}.sqlite"))

    def test_designs_and_store_identical_on_off_sampled(self, tmp_path):
        telemetry.reset()
        lines_off, store_off = self._explore(tmp_path, "off")

        events = io.StringIO()
        telemetry.configure(tracing=True, sample=1.0, events_out=events)
        lines_on, store_on = self._explore(tmp_path, "on")
        assert parse_lines(events.getvalue())  # tracing really ran

        telemetry.reset()
        telemetry.configure(tracing=True, sample=0.0,
                            events_out=io.StringIO())
        lines_sampled, store_sampled = self._explore(tmp_path, "sampled")

        assert lines_off and lines_off == lines_on == lines_sampled
        assert store_off == store_on == store_sampled

    def test_job_report_keys_unchanged_by_registry_rebuild(self, tmp_path):
        from repro.service.jobs import JobReport
        report = JobReport("gk")
        assert set(report.to_dict()) == {
            "grid_key", "n_shards", "shards_loaded", "shards_computed",
            "grid_hit", "variants_preloaded", "runtime_s",
            "shards_retried", "engine_fallbacks", "fault_events"}


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


def response_request_id(head: str) -> str | None:
    match = re.search(r"^X-Request-Id: ([^\r\n]+)", head, re.MULTILINE)
    return match.group(1) if match else None


class TestServerTelemetry:
    def test_request_id_generated_echoed_and_sanitized(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                results = {}
                results["fresh"] = await http(server.port, "GET",
                                              "/v1/healthz")
                results["client"] = await http(
                    server.port, "GET", "/v1/healthz",
                    headers={"X-Request-Id": "my-rid-42"})
                results["bad"] = await http(
                    server.port, "GET", "/v1/healthz",
                    headers={"X-Request-Id": "no spaces!"})
                results["404"] = await http(server.port, "GET", "/nope")
                return results
        results = asyncio.run(run())
        generated = response_request_id(results["fresh"][1])
        assert re.fullmatch(r"[0-9a-f]{16}", generated)
        assert response_request_id(results["client"][1]) == "my-rid-42"
        # invalid client ids are replaced, not reflected
        bad = response_request_id(results["bad"][1])
        assert bad is not None and bad != "no spaces!"
        # error responses carry one too
        assert results["404"][0] == 404
        assert response_request_id(results["404"][1])

    def test_request_id_on_429_and_drain_503(self, tmp_path, monkeypatch):
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
                busy = await http(server.port, "POST", "/v1/explore",
                                  {**REQ, "tau_grid": [0.8, 0.85]},
                                  headers={"X-Request-Id": "busy-rid"})
                server.draining = True  # drain flag without socket close
                drained = await http(server.port, "POST", "/v1/explore",
                                     REQ,
                                     headers={"X-Request-Id": "drain-rid"})
                server.draining = False
                gate.set()
                await first
                return busy, drained
        busy, drained = asyncio.run(run())
        assert busy[0] == 429
        assert response_request_id(busy[1]) == "busy-rid"
        assert drained[0] == 503
        assert response_request_id(drained[1]) == "drain-rid"
        registry = telemetry.get_hub().registry
        assert registry.counter_value("server.rejected", reason="busy") == 1

    def test_metrics_endpoint_prometheus_and_json(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                cold = await http(server.port, "POST", "/v1/explore", REQ)
                warm = await http(server.port, "POST", "/v1/explore", REQ)
                prom = await http(server.port, "GET", "/v1/metrics")
                as_json = await http(
                    server.port, "GET", "/v1/metrics",
                    headers={"Accept": "application/json"})
                return cold, warm, prom, as_json
        cold, warm, prom, as_json = asyncio.run(run())
        assert cold[0] == warm[0] == 200
        assert parse_lines(warm[2])[0]["grid_hit"] is True

        assert prom[0] == 200
        assert "text/plain" in prom[1]
        text = prom[2]
        # acceptance surface: store hits+misses, computes, durations
        assert re.search(r'repro_store_lookups_total\{result="hit",'
                         r'table="grids"\} \d+', text)
        assert re.search(r'repro_store_lookups_total\{result="miss",'
                         r'table="grids"\} \d+', text)
        assert 'repro_server_requests_total{endpoint="/v1/explore"} 2' \
            in text
        # only the cold request is a computation; the warm one is one
        # store read that never enters the queue
        assert "repro_server_computed_total 1" in text
        assert 'repro_service_requests_total{outcome="computed"} 1' \
            in text
        assert 'repro_service_requests_total{outcome="grid_hit"} 1' \
            in text
        assert re.search(r'repro_span_duration_ms_count\{name='
                         r'"job.shard"\} \d+', text)
        assert "# TYPE repro_pruner_chain_walk_ms histogram" in text

        assert as_json[0] == 200
        payload = json.loads(as_json[2])
        assert payload["type"] == "metrics"
        assert set(payload) == {"type", "counters", "gauges",
                                "histograms", "server"}
        assert payload["gauges"]["server.draining"] == 0
        assert payload["server"]["counters"]["computed"] == 1

    def test_warm_entry_counts_one_lookup_request_and_span(self, tmp_path):
        """A served warm hit, its lines rendered (``miss``) or spliced
        from the service's memo (``hit``), counts what a store read
        counted before the memo: one grid lookup, one ``grid_hit``
        request and one ``service.request`` span."""
        async def run():
            seen = []
            async with running_server(tmp_path) as server:
                await http(server.port, "POST", "/v1/explore", REQ)
                for _ in range(2):
                    telemetry.reset()
                    body = (await http(server.port, "POST", "/v1/explore",
                                       REQ))[2]
                    seen.append((body, telemetry.get_hub().registry
                                 .snapshot()))
            return seen
        seen = asyncio.run(run())
        for (body, snap), rendered in zip(seen, ("miss", "hit")):
            assert parse_lines(body)[0]["grid_hit"] is True
            counters = snap["counters"]
            assert counters["store.lookups{result=hit,table=grids}"] == 1
            assert "store.lookups{result=miss,table=grids}" not in counters
            assert counters["service.requests{outcome=grid_hit}"] == 1
            assert counters[f"service.rendered{{result={rendered}}}"] == 1
            assert snap["histograms"][
                "span.duration_ms{name=service.request}"]["count"] == 1
        assert design_lines(seen[0][0]) == design_lines(seen[1][0])

    def test_root_fallbacks_on_metrics_endpoint(self, tmp_path):
        """A refused root-ladder delta is counted on ``/v1/metrics``
        (this grid's walk retries one root from the base state)."""
        request = {**REQ, "tau_grid": [0.85, 0.9, 0.95, 0.99]}

        async def run():
            async with running_server(tmp_path) as server:
                explore = await http(server.port, "POST", "/v1/explore",
                                     request)
                prom = await http(server.port, "GET", "/v1/metrics")
                return explore, prom
        explore, prom = asyncio.run(run())
        assert explore[0] == prom[0] == 200
        assert re.search(r'^repro_pruner_root_fallbacks_total'
                         r'\{to="base"\} [1-9]', prom[2], re.M)

    def test_x_trace_opt_in_keeps_default_lines_identical(self, tmp_path):
        async def run():
            async with running_server(tmp_path) as server:
                plain = await http(server.port, "POST", "/v1/explore",
                                   REQ)
                traced = await http(
                    server.port, "POST", "/v1/explore", REQ,
                    headers={"X-Trace": "1", "X-Request-Id": "cid-9"})
                return plain, traced
        plain, traced = asyncio.run(run())
        plain_records = parse_lines(plain[2])
        traced_records = parse_lines(traced[2])
        assert all("trace" not in r for r in plain_records)
        assert all(r["trace"]["request_id"] == "cid-9"
                   for r in traced_records)
        # stripped of the opt-in stamp, the design lines are the same
        stripped = [json.dumps({k: v for k, v in r.items()
                                if k != "trace"})
                    for r in traced_records if r["type"] == "design"]
        assert stripped == design_lines(plain[2])

    def test_events_log_links_server_request_to_engine_walk(
            self, tmp_path):
        events_path = tmp_path / "events.jsonl"

        async def run():
            async with running_server(
                    tmp_path, events_log=str(events_path)) as server:
                await http(server.port, "POST", "/v1/explore", REQ,
                           headers={"X-Request-Id": "linked-1"})
        asyncio.run(run())
        telemetry.get_hub().close()  # flush the owned sink

        spans = [r for r in read_jsonl(events_path) if r["type"] == "span"]
        by_name = {s["name"]: s for s in spans}
        chain = ["server.request", "service.request", "job.run",
                 "job.shard", "engine.walk"]
        assert set(chain) <= set(by_name)
        assert len({by_name[name]["trace"] for name in chain}) == 1
        # parent links: each stage nests under the one above it
        for parent, child in zip(chain, chain[1:]):
            assert by_name[child]["parent"] == by_name[parent]["span"]
        assert by_name["server.request"]["parent"] is None
        assert by_name["job.shard"]["request_id"] == "linked-1"


class TestMetricsCLI:
    def test_fold_events_file(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        telemetry.configure(tracing=True, events_path=str(events_path))
        with telemetry.span("job.run"):
            with telemetry.span("job.shard"):
                pass
            with telemetry.span("job.shard"):
                pass
        telemetry.get_hub().close()
        assert cli.main(["metrics", "--events", str(events_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["type"] == "metrics-events"
        assert report["n_traces"] == 1
        assert report["spans"]["job.shard"]["count"] == 2
        assert report["spans"]["job.run"]["count"] == 1
        assert report["records_by_type"] == {"span": 3}

    def test_scrape_url(self, tmp_path, capsys):
        async def run():
            async with running_server(tmp_path) as server:
                await http(server.port, "GET", "/v1/healthz")
                loop = asyncio.get_running_loop()
                url = f"http://127.0.0.1:{server.port}"
                code = await loop.run_in_executor(
                    None, cli.main, ["metrics", "--url", url])
                return code
        assert asyncio.run(run()) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_server_requests_total counter" in out
        assert 'repro_server_requests_total{endpoint="/v1/healthz"} 1' \
            in out

    def test_requires_exactly_one_source(self, capsys):
        assert cli.main(["metrics"]) == 2
        assert "exactly one" in capsys.readouterr().err
