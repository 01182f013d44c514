"""The repo benchmark: three seeded workloads over the cross-layer flow.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0

Workloads (definitions, request mix and reasons in ``workloads.json``):

* ``explore``      — serial ``CrossLayerFramework(e=4).explore``, all four
  families, default tau grid, one op per circuit in a seeded rotation;
* ``esweep_store`` — a fresh ``DesignStore`` plus a coeff-only
  ``ExplorationService.sweep`` over e=1..10 on one circuit;
* ``serve_mixed``  — a ``repro serve`` process driven over HTTP by two
  closed-loop clients: ~85% repeats of the set-up keys (warm), ~15%
  fresh seed-drawn keys (cold), some fresh keys sent twice at once.

The in-process workloads run in ``worker.py`` (a fresh interpreter);
``serve_mixed`` talks to the server from this process.  Every op's
output is checked against the golden digests in ``golden.json``
(generated from the oracle paths by ``golden.py``).

``--trace 0`` prints the end-to-end metrics: ``ops_per_s``, ``p50_ms``,
``p90_ms``, ``setup_s`` (median of three fresh set-ups), ``peak_rss_mb``
and ``success_ratio`` (1 - fail_ratio).  ``--trace 1`` prints the
per-layer ledger instead, from a separate run whose untraced and traced
rounds also give ``trace.overhead`` (on ``explore``, rounds with
``n_workers=2`` give the pool layer).  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any op's output differs from its digest.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import pathlib
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The program could not be run (not a wrong output)."""


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _round_rate(rounds: list, mode: str = "plain") -> float:
    """Median ops/s over a worker's rounds of one mode (robust to a
    round that a neighbour's burst of load slowed)."""
    return statistics.median(n / s for n, s, m, _cpu in rounds if m == mode)


def _cpu_per_wall(rounds: list, mode: str) -> float:
    picked = [(s, cpu) for _n, s, m, cpu in rounds if m == mode]
    return sum(cpu for _s, cpu in picked) / sum(s for s, _cpu in picked)


# -- in-process workloads (worker.py) ----------------------------------------

def _run_worker(job: dict, tmp: pathlib.Path) -> tuple[float, dict]:
    """Spawn one worker; returns (set-up seconds, its result)."""
    with open(tmp / "worker.err", "ab") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        try:
            stdout, _ = proc.communicate(json.dumps(job).encode(),
                                         timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker timed out")
    if proc.returncode != 0 or not stdout.strip():
        tail = (tmp / "worker.err").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker failed ({proc.returncode}):\n{tail}")
    out = json.loads(stdout.decode().strip().splitlines()[-1])
    return out["t_first"] - t0, out


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool,
                  tmp: pathlib.Path, golden: dict) -> dict:
    job = {"workload": workload, "ops": spec.inprocess_ops(workload, seed),
           "seconds": seconds, "trace": trace, "setup_only": True,
           "scratch": str(tmp)}
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(_run_worker(job, tmp)[0])
    setup_s, out = _run_worker({**job, "setup_only": False}, tmp)
    setups.append(setup_s)

    expected = golden[workload]
    checked = out["warmup"] + [[c, d] for c, _lat, d, _t in out["results"]]
    failed = sum(1 for circuit, dig in checked if expected[circuit] != dig)
    latencies = [lat for _c, lat, _d, _t in out["results"]]
    result = {"attempted": len(checked), "failed": failed}
    if not trace:
        result["metrics"] = {
            "ops_per_s": _round_rate(out["rounds"]),
            "p50_ms": statistics.median(latencies) * 1e3,
            "p90_ms": _p90(latencies) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        return result

    tr = out["trace"]
    n = sum(k for k, _s, mode, _cpu in out["rounds"] if mode == "traced")
    layers, counts, reg = tr["layers"], tr["counts"], tr["registry"]

    def calls(layer):
        return layers.get(layer, [0, 0.0, 0.0])[0] / n

    def incl_ms(layer):
        return layers.get(layer, [0, 0.0, 0.0])[1] * 1e3 / n

    def self_ms(layer):
        return layers.get(layer, [0, 0.0, 0.0])[2] * 1e3 / n

    get_calls = layers.get("store.get", [0])[0]
    setup = out["setup"]
    layer = {
        "import.s": setup["import_s"],
        "zoo.case_s": setup["case_s"],
        "setup.warmup_s": setup["warmup_s"],
        "setup.total_s": setup_s,
        "setup.unattributed_s": setup_s - setup["import_s"]
        - setup["case_s"] - setup["warmup_s"],
        "cross_layer.explore_ms": incl_ms("cross_layer"),
        "cross_layer.self_ms": self_ms("cross_layer"),
        "coeff_approx.calls": calls("coeff_approx"),
        "coeff_approx.ms": incl_ms("coeff_approx"),
        "bespoke.calls": calls("bespoke"),
        "bespoke.ms": incl_ms("bespoke"),
        "bespoke.gates": tracing.counter_sum(reg, "build.gates_emitted") / n,
        "netlist.calls": calls("netlist"),
        "netlist.ms": incl_ms("netlist"),
        "fingerprint.calls": calls("fingerprint"),
        "fingerprint.ms": incl_ms("fingerprint"),
        "fingerprint.calls_per_netlist": _ratio(
            layers.get("fingerprint", [0])[0],
            counts.get("fingerprint.netlists", 0)),
        "store.get_calls": calls("store.get"),
        "store.get_ms": incl_ms("store.get"),
        "store.put_calls": calls("store.put"),
        "store.put_ms": incl_ms("store.put"),
        "store.hit_ratio": _ratio(counts.get("store.get_hits", 0), get_calls),
        "evaluator.from_split_ms": incl_ms("evaluator.from_split"),
        "evaluator.netlists": counts.get("evaluator.netlists", 0) / n,
        "evaluator.ms": incl_ms("evaluator"),
        "pruning.calls": calls("pruning"),
        "pruning.ms": incl_ms("pruning"),
        "pruning.grid_points": counts.get("pruning.grid_points", 0) / n,
        "pruning.unique_ratio": _ratio(counts.get("pruning.unique", 0),
                                       counts.get("pruning.grid_points", 0)),
        f"{workload}.unattributed_ms": self_ms("op"),
        "trace.overhead": _round_rate(out["rounds"])
        / _round_rate(out["rounds"], "traced"),
        "trace.ops": n,
    }
    pool_mode = "pool" if workload == "explore" else "plain"
    layer["pool.cpu_per_wall"] = _cpu_per_wall(out["rounds"], pool_mode)
    if workload == "explore":
        layer["pool.speedup"] = _round_rate(out["rounds"], "pool") \
            / _round_rate(out["rounds"])
        layer["pool.respawns"] = tracing.counter_sum(
            tr["run_registry"], "pruner.events", kind="pool_respawns")
    layer.update(_registry_layers(reg, n))
    result["layers"] = layer
    return result


def _registry_layers(reg: dict, n: int) -> dict:
    """Layers the program's own metrics registry already measures."""
    _walks, walk_ms = tracing.span_totals(reg, "engine.walk")
    _jobs, job_ms = tracing.span_totals(reg, "job.run")
    _requests, request_ms = tracing.span_totals(reg, "service.request")
    return {
        "engine.walk_ms": walk_ms / n,
        "engine.batches": tracing.counter_sum(reg, "engine.batches") / n,
        "engine.plan_builds":
            tracing.counter_sum(reg, "engine.plan_builds") / n,
        "jobs.run_ms": job_ms / n,
        "jobs.shards": tracing.counter_sum(reg, "job.shards",
                                           result="computed") / n,
        "runner.request_ms": request_ms / n,
        "runner.grid_hit_ratio": _ratio(
            tracing.counter_sum(reg, "service.requests", outcome="grid_hit"),
            tracing.counter_sum(reg, "service.requests")),
    }


# -- serve_mixed (repro serve over HTTP) -------------------------------------

async def _post(port: int, request: dict) -> tuple[int, str, float]:
    """One closed-connection ``POST /v1/explore``: (status, body, ttfb)."""
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    data = json.dumps(request).encode()
    writer.write(b"POST /v1/explore HTTP/1.1\r\nHost: bench\r\n"
                 b"Connection: close\r\nContent-Length: "
                 + str(len(data)).encode() + b"\r\n\r\n" + data)
    await writer.drain()
    status_line = await reader.readline()
    ttfb = time.perf_counter() - start
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass
    parts = status_line.split()
    status = int(parts[1]) if len(parts) > 1 else 0
    _head, _, body = raw.partition(b"\r\n\r\n")
    return status, body.decode(errors="replace"), ttfb


async def _get_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
                 "Accept: application/json\r\nConnection: close\r\n\r\n"
                 .encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    _head, _, body = raw.partition(b"\r\n\r\n")
    return json.loads(body.decode())


def _read_ready(proc: subprocess.Popen, timeout: float) -> dict:
    """The server's ``{"type": "serving", ...}`` stdout line."""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while time.monotonic() < deadline:
            if not sel.select(timeout=deadline - time.monotonic()):
                break
            line = proc.stdout.readline()
            if not line:
                break
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("type") == "serving":
                return record
    raise BenchError("server did not report ready")


def _proc_stat(pid: int) -> tuple[float, float]:
    """(CPU seconds, peak RSS MB) of a live process, from /proc."""
    fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    parts = fields.split()
    cpu = (int(parts[11]) + int(parts[12])) / os.sysconf("SC_CLK_TCK")
    peak_kb = 0
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            peak_kb = int(line.split()[1])
    return cpu, peak_kb / 1024.0


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class ServeSession:
    """One ``repro serve`` process on a fresh store root."""

    def __init__(self, tmp: pathlib.Path, tag: str, golden: dict,
                 events_log: bool = False) -> None:
        self.tmp = tmp
        self.tag = tag
        self.golden = golden
        self.events_log = events_log
        self.checked = 0
        self.failed = 0

    def _check(self, request: dict, status: int, body: str) -> None:
        self.checked += 1
        ok = (status == 200 and '"type": "error"' not in body
              and spec.served_digest(body)
              == self.golden.get(spec.request_key(request)))
        self.failed += not ok

    async def setup(self) -> float:
        """Spawn, wait for ready, compute and warm the set-up keys."""
        store_root = self.tmp / f"stores-{self.tag}"
        cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
               "--store-root", str(store_root), "--concurrency", "2",
               "--queue-depth", "16"]
        if self.events_log:
            cmd += ["--events-log", str(self.tmp / f"events-{self.tag}.jsonl")]
        self.err = open(self.tmp / f"server-{self.tag}.err", "wb")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                                     stdout=subprocess.PIPE, stderr=self.err)
        self.port = _read_ready(self.proc, CHILD_TIMEOUT_S)["port"]
        self.ready_s = time.monotonic() - t0
        t = time.monotonic()
        for _round in range(2):  # cold, then once warm
            for request in spec.warm_requests():
                self._check(request, *(await _post(self.port, request))[:2])
        self.warmup_s = time.monotonic() - t
        return time.monotonic() - t0

    async def timed(self, stream: list, seconds: float,
                    scrape: bool) -> dict:
        before = await _get_json(self.port, "/v1/metrics") if scrape else None
        cpu0, _ = _proc_stat(self.proc.pid)
        start = time.perf_counter()
        deadline = start + seconds
        cursor = itertools.cycle(stream)
        samples: list[tuple[str, float, float, float]] = []

        async def client() -> None:
            for kind, request in cursor:
                if time.perf_counter() >= deadline:
                    return
                begin = time.perf_counter()
                try:
                    status, body, ttfb = await _post(self.port, request)
                except OSError:
                    status, body, ttfb = 0, "", 0.0
                end = time.perf_counter()
                samples.append((kind, end - begin, ttfb, end))
                self._check(request, status, body)

        await asyncio.gather(*[client() for _ in range(spec.SERVE_CLIENTS)])
        wall = max(end for *_rest, end in samples) - start
        after = await _get_json(self.port, "/v1/metrics") if scrape else None
        cpu1, peak_mb = _proc_stat(self.proc.pid)
        return {"samples": samples, "peak_rss_mb": peak_mb,
                "ops_per_s": len(samples) / wall,
                "cpu_per_wall": (cpu1 - cpu0) / wall,
                "registry": tracing.registry_delta(before, after)
                if scrape else None}

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is not None:
            _stop(proc)
            proc.stdout.close()
        err = getattr(self, "err", None)
        if err is not None:
            err.close()


async def _serve_session(tmp, tag, golden, stream=None, seconds=0.0,
                         events_log=False, scrape=False):
    session = ServeSession(tmp, tag, golden, events_log=events_log)
    try:
        setup_s = await session.setup()
        timed = await session.timed(stream, seconds, scrape) \
            if stream is not None else None
        return session, setup_s, timed
    finally:
        session.close()


def _import_probe(tmp: pathlib.Path) -> dict:
    """``import repro.cli`` and ``get_case`` over the circuits, timed in
    a fresh interpreter (the server pays both before its first reply)."""
    code = (
        "import json, time\n"
        "t = time.monotonic()\n"
        "import repro.cli\n"
        "import_s = time.monotonic() - t\n"
        "from repro.experiments.zoo import get_case\n"
        "t = time.monotonic()\n"
        f"for d, m in {list(spec.CIRCUITS)!r}: get_case(d, m)\n"
        "print(json.dumps({'import_s': import_s,"
        " 'case_s': time.monotonic() - t}))\n")
    with open(tmp / "probe.err", "wb") as err:
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=_env(), stdout=subprocess.PIPE, stderr=err,
                             timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def run_serve(seed: int, seconds: float, trace: bool, tmp: pathlib.Path,
              golden: dict) -> dict:
    stream = spec.serve_stream(seed)
    sessions = []
    if not trace:
        setups = []
        for i in range(SETUP_REPEATS - 1):
            session, setup_s, _ = asyncio.run(
                _serve_session(tmp, f"setup{i}", golden))
            sessions.append(session)
            setups.append(setup_s)
        session, setup_s, timed = asyncio.run(_serve_session(
            tmp, "main", golden, stream, seconds))
        sessions.append(session)
        setups.append(setup_s)
        latencies = [lat for _k, lat, _t, _e in timed["samples"]]
        return {
            "attempted": sum(s.checked for s in sessions),
            "failed": sum(s.failed for s in sessions),
            "metrics": {
                "ops_per_s": timed["ops_per_s"],
                "p50_ms": statistics.median(latencies) * 1e3,
                "p90_ms": _p90(latencies) * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": timed["peak_rss_mb"],
            },
        }

    probe = _import_probe(tmp)
    plain, _setup, untraced = asyncio.run(_serve_session(
        tmp, "untraced", golden, stream, seconds / 2))
    traced_session, setup_s, traced = asyncio.run(_serve_session(
        tmp, "traced", golden, stream, seconds / 2, events_log=True,
        scrape=True))
    reg = traced["registry"]
    samples = traced["samples"]
    n = len(samples)
    _requests, request_ms = tracing.span_totals(reg, "server.request")
    _svc, service_ms = tracing.span_totals(reg, "service.request")
    builds, build_ms = tracing.span_totals(reg, "build.bespoke")
    lookups = tracing.counter_sum(reg, "store.lookups")
    mean_ms = sum(lat for _k, lat, _t, _e in samples) * 1e3 / n
    layer = {
        "import.s": probe["import_s"],
        "zoo.case_s": probe["case_s"],
        "setup.server_ready_s": traced_session.ready_s,
        "setup.warmup_s": traced_session.warmup_s,
        "setup.total_s": setup_s,
        "setup.unattributed_s": setup_s - traced_session.ready_s
        - traced_session.warmup_s,
        "bespoke.calls": builds / n,
        "bespoke.ms": build_ms / n,
        "bespoke.gates": tracing.counter_sum(reg, "build.gates_emitted") / n,
        "store.get_calls": lookups / n,
        "store.hit_ratio": _ratio(
            tracing.counter_sum(reg, "store.lookups", result="hit"), lookups),
        "pool.cpu_per_wall": traced["cpu_per_wall"],
        "server.request_ms": request_ms / n,
        "server.unattributed_ms": (request_ms - service_ms) / n,
        "server.ttfb_ms": statistics.median(
            t for _k, _l, t, _e in samples) * 1e3,
        "server.computed": tracing.counter_sum(reg, "server.computed"),
        "server.coalesced": tracing.counter_sum(reg, "server.coalesced"),
        "server.rejected": tracing.counter_sum(reg, "server.rejected"),
        "serve_mixed.unattributed_ms": mean_ms - request_ms / n,
        "trace.overhead": untraced["ops_per_s"] / traced["ops_per_s"],
        "trace.ops": n,
    }
    layer.update(_registry_layers(reg, n))
    return {"attempted": plain.checked + traced_session.checked,
            "failed": plain.failed + traced_session.failed,
            "layers": layer}


# -- entry point --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(args.trace)
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if trace else "end_to_end"]}

    scratch = ROOT / ".perfbench_tmp"
    tmp = scratch / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve_mixed":
            result = run_serve(args.seed, args.seconds, trace, tmp,
                               golden["serve_mixed"])
        else:
            result = run_inprocess(args.workload, args.seed, args.seconds,
                                   trace, tmp, golden)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted, failed = result["attempted"], result["failed"]
    if trace:
        # Layers a workload never enters read 0.
        values = dict.fromkeys(units, 0.0)
        values.update(result["layers"])
    else:
        values = dict(result["metrics"])
        values["success_ratio"] = 1.0 - failed / attempted
    unknown = set(values) - set(units)
    if unknown:
        print(f"run.py: metrics missing from BENCHMARK.json: "
              f"{sorted(unknown)}", file=sys.stderr)
        return 3
    for name, unit in units.items():
        print(f"{args.workload:>13} {name:<30} {values[name]:>14.6g} {unit}")
    print(f"{args.workload:>13} {'fail_ratio':<30} "
          f"{failed / attempted:>14.6g} ratio ({failed}/{attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
