"""Command-line entry point: paper artifacts and the exploration service.

Paper experiments (regenerate any table or figure)::

    repro-printed-ml table1
    repro-printed-ml table2 --datasets redwine cardio
    repro-printed-ml fig2 --quick
    repro-printed-ml all

Exploration service (content-addressed store, resumable jobs)::

    repro-printed-ml explore --dataset redwine --model svm_r \\
        --store designs.sqlite --resume
    repro-printed-ml sweep-e --dataset redwine --model svm_c \\
        --e-max 10 --store designs.sqlite --out sweep.jsonl
    repro-printed-ml serve-batch --manifest manifest.json \\
        --store designs.sqlite --out results.jsonl

``explore`` runs (or resumes, or simply looks up) one pruning
exploration and streams JSONL; ``sweep-e`` sweeps the coefficient
search radius (Fig. 2 lifted to whole circuits): per ``e`` a
coefficient-approximated design plus — unless ``--coeff-only`` — its
pruning family, each radius a resumable
store-backed job with the approximated netlists content-addressed
(warm re-sweeps skip the area search and the rebuild);
``serve-batch`` does the same for a whole manifest of requests
(which may carry per-request ``e`` values), deduplicating them
against the store.

Store maintenance::

    repro-printed-ml store stats --store designs.sqlite
    repro-printed-ml store gc --store designs.sqlite --keep-days 30
    repro-printed-ml store gc --store designs.sqlite --dry-run

``store gc`` deletes grids older than ``--keep-days``, variants no
surviving grid manifest references, orphaned shard checkpoints, and
stale coefficient-cache rows, then runs ``VACUUM`` (the store
otherwise only ever grows).  See the "Service layer" section of
``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from .experiments import fig1, fig2, fig3, proxy_correlation, table1, table2, table3
from .experiments.zoo import MODEL_KINDS, get_case

_EXPERIMENTS = ("table1", "table2", "table3", "fig1", "fig2", "fig3", "proxy")
_DEFAULT_STORE = "designs.sqlite"


def _selected_cases(datasets: list[str] | None, include_excluded: bool = False):
    if not datasets:
        return None
    cases = []
    for dataset in datasets:
        for kind in MODEL_KINDS:
            case = get_case(dataset, kind)
            if include_excluded or not case.excluded:
                cases.append(case)
    return cases


def _run_one(name: str, args: argparse.Namespace) -> str:
    cases = _selected_cases(args.datasets)
    if name == "table1":
        # Table I reports the excluded Pendigits regressors too.
        return table1.format_table(
            table1.run(_selected_cases(args.datasets,
                                       include_excluded=True)))
    if name == "table2":
        return table2.format_table(table2.run(cases))
    if name == "table3":
        return table3.format_table(table3.run(cases))
    if name == "fig1":
        return fig1.format_table(fig1.run())
    if name == "fig2":
        configurations = ((4, 8),) if args.quick else fig2.CONFIGURATIONS
        return fig2.format_table(fig2.run(configurations=configurations))
    if name == "fig3":
        return fig3.format_table(fig3.run(cases))
    if name == "proxy":
        n = 100 if args.quick else 1000
        return proxy_correlation.format_table(proxy_correlation.run(n))
    raise ValueError(f"unknown experiment {name!r}")


def _run_experiments(args: argparse.Namespace) -> int:
    names = _EXPERIMENTS if args.command == "all" else (args.command,)
    for name in names:
        print(_run_one(name, args))
        print()
    return 0


def _open_service(args: argparse.Namespace):
    from .service import ExplorationService

    if getattr(args, "events_log", None):
        from .service.telemetry import configure

        configure(tracing=True, events_path=args.events_log)
    store = args.store
    if getattr(args, "coordinator", None):
        from .service.coordinator import CoordinatorClient, RemoteStore

        store = RemoteStore(CoordinatorClient(args.coordinator,
                                              tenant=args.tenant))
    return ExplorationService(store, shard_size=args.shard_size)


def _out_stream(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _run_explore(args: argparse.Namespace) -> int:
    from .service import ExploreRequest

    service = _open_service(args)
    request_dict = {
        "dataset": args.dataset,
        "model": args.model,
        "base": args.base,
        "tau_grid": args.tau,
    }
    request = ExploreRequest.from_dict(request_dict)  # validate early
    if args.coordinator and not args.worker_id:
        print("[explore] --coordinator requires --worker-id "
              "(coordinator mode is fleet-worker mode)", file=sys.stderr)
        return 2
    if args.worker_id:
        return _run_fleet_worker(args, service, request)
    out, close = _out_stream(args.out)
    try:
        summary = service.run_manifest([request_dict], out,
                                       resume=not args.fresh)
    finally:
        if close:
            out.close()
    print(f"[explore] {request.name}: {summary['n_designs']} designs, "
          f"grid hit: {bool(summary['n_grid_hits'])}, "
          f"{summary['runtime_s']:.2f}s "
          f"(store: {args.store})", file=sys.stderr)
    return 0


def _run_fleet_worker(args: argparse.Namespace, service, request) -> int:
    """One lease-based fleet worker: claim and compute shards until the
    grid is done.  Launch N of these against one ``--store`` to drain a
    grid concurrently; every process prints the identical design count
    plus its own worker report as JSONL."""
    from .service.coordinator import CoordinatorError
    from .service.jsonl import write_line

    backend = args.coordinator or args.store
    try:
        designs, report = service.fleet_worker(
            request, args.worker_id, ttl_s=args.lease_ttl)
    except CoordinatorError as exc:
        # The coordinator stayed unreachable past the retry deadline:
        # abandon cleanly (the lease expires, a peer reclaims the
        # shard, our fence blocks any stale write) and fail loudly.
        print(f"[explore] fleet worker {args.worker_id}: abandoning — "
              f"{exc}", file=sys.stderr)
        return 3
    out, close = _out_stream(args.out)
    try:
        write_line(out, {"type": "fleet-worker",
                         "n_designs": len(designs),
                         **report.to_dict()})
    finally:
        if close:
            out.close()
    print(f"[explore] fleet worker {args.worker_id}: "
          f"{len(designs)} designs, "
          f"computed shards {report.shards_computed} "
          f"of {report.n_shards}, grid hit: {report.grid_hit}, "
          f"{report.runtime_s:.2f}s (store: {backend})",
          file=sys.stderr)
    return 0


def _run_store_gc(args: argparse.Namespace) -> int:
    from .service import DesignStore

    report = DesignStore(args.store).gc(keep_days=args.keep_days,
                                        dry_run=args.dry_run)
    verb = "would delete" if report["dry_run"] else "deleted"
    print(f"[store gc] {verb} {report['grids_deleted']} grids, "
          f"{report['variants_deleted']} variants, "
          f"{report['shards_deleted']} shard checkpoints, "
          f"{report['leases_deleted']} expired leases, "
          f"{report['coeff_deleted']} coeff-cache rows, "
          f"{report['coeff_netlists_deleted']} coeff netlists "
          f"(keep-days: {report['keep_days']:g}); "
          f"db {report['db_bytes_before']} -> "
          f"{report['db_bytes_after']} bytes")
    print(json.dumps(report))
    return 0


def _run_store_stats(args: argparse.Namespace) -> int:
    from .service import DesignStore

    print(json.dumps(DesignStore(args.store).stats(), indent=2))
    return 0


def _run_sweep_e(args: argparse.Namespace) -> int:
    from .service import ExploreRequest

    if args.e:
        e_values = tuple(args.e)
    else:
        e_values = tuple(range(args.e_min, args.e_max + 1))
    service = _open_service(args)
    request = ExploreRequest.from_dict({
        "dataset": args.dataset,
        "model": args.model,
        "tau_grid": args.tau,
    })
    out, close = _out_stream(args.out)
    try:
        summary = service.run_sweep(request, e_values, out,
                                    resume=not args.fresh,
                                    include_cross=not args.coeff_only)
    finally:
        if close:
            out.close()
    print(f"[sweep-e] {args.dataset}/{args.model} e={list(e_values)}: "
          f"{summary['n_designs']} designs, "
          f"{summary['n_grid_hits']}/{summary['n_e_values']} grid hits, "
          f"{summary['runtime_s']:.2f}s (store: {args.store})",
          file=sys.stderr)
    return 0


def _run_serve_batch(args: argparse.Namespace) -> int:
    manifest = json.loads(pathlib.Path(args.manifest).read_text())
    service = _open_service(args)
    out, close = _out_stream(args.out)
    try:
        summary = service.run_manifest(manifest, out,
                                       resume=not args.fresh)
    finally:
        if close:
            out.close()
    print(f"[serve-batch] {summary['n_requests']} requests "
          f"({summary['n_grid_hits']} grid hits), "
          f"{summary['n_designs']} designs, "
          f"{summary['runtime_s']:.2f}s (store: {args.store})",
          file=sys.stderr)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from .service.server import ServeConfig, serve

    try:
        config = ServeConfig(
            host=args.host, port=args.port, store_root=args.store_root,
            concurrency=args.concurrency, queue_depth=args.queue_depth,
            shard_size=args.shard_size,
            events_log=args.events_log, trace_sample=args.trace_sample)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    serve(config)
    return 0


def _run_metrics(args: argparse.Namespace) -> int:
    """Scrape a running server's /v1/metrics, or fold an events log."""
    if bool(args.url) == bool(args.events):
        print("metrics: pass exactly one of --url or --events",
              file=sys.stderr)
        return 2
    if args.url:
        from urllib.request import Request, urlopen

        url = args.url.rstrip("/") + "/v1/metrics"
        headers = {"Accept": "application/json"} if args.json else {}
        with urlopen(Request(url, headers=headers), timeout=30) as resp:
            sys.stdout.write(resp.read().decode())
        return 0
    return _fold_events(args.events)


def _fold_events(path: str) -> int:
    """Aggregate a ``--events-log`` JSONL file into one summary record."""
    from .service.jsonl import read_jsonl

    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    traces: set[str] = set()
    n_records = 0
    for record in read_jsonl(path):
        n_records += 1
        kind = record.get("type", "unknown")
        counts[kind] = counts.get(kind, 0) + 1
        if record.get("trace"):
            traces.add(record["trace"])
        if kind == "span":
            spans.setdefault(record.get("name", "?"), []).append(
                float(record.get("ms", 0.0)))
    span_stats = {}
    for name in sorted(spans):
        durations = sorted(spans[name])
        # Exact (not interpolated) percentiles: the event log holds
        # every sampled duration, unlike the fixed-bucket histograms.
        span_stats[name] = {
            "count": len(durations),
            "total_ms": round(sum(durations), 3),
            "p50_ms": round(durations[len(durations) // 2], 3),
            "p90_ms": round(durations[min(int(len(durations) * 0.90),
                                          len(durations) - 1)], 3),
            "p99_ms": round(durations[min(int(len(durations) * 0.99),
                                          len(durations) - 1)], 3),
            "max_ms": round(durations[-1], 3),
        }
    print(json.dumps({"type": "metrics-events", "path": path,
                      "n_records": n_records, "n_traces": len(traces),
                      "records_by_type": dict(sorted(counts.items())),
                      "spans": span_stats}, indent=2))
    return 0


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=_DEFAULT_STORE,
                        help="path to the content-addressed design store "
                             f"(default: {_DEFAULT_STORE})")
    parser.add_argument("--out", default=None,
                        help="JSONL output path ('-' or omitted: stdout)")
    parser.add_argument("--shard-size", type=int, default=4,
                        help="tau_c chains per checkpoint shard")
    parser.add_argument("--resume", action="store_true", default=True,
                        help="resume from shard checkpoints (the default; "
                             "kept explicit for scripts)")
    parser.add_argument("--fresh", action="store_true",
                        help="force recomputation: discard this request's "
                             "stored grid and shard checkpoints first")
    parser.add_argument("--events-log", default=None,
                        help="append structured telemetry events (spans, "
                             "supervision, faults) as JSONL to this file; "
                             "fold it with 'metrics --events'")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-printed-ml",
        description="Regenerate the tables and figures of the DATE'22 "
                    "printed-ML cross-layer approximation paper, or run "
                    "the exploration service (explore / serve-batch).")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    for name in (*_EXPERIMENTS, "all"):
        exp = sub.add_parser(name, help=f"regenerate {name}"
                             if name != "all" else "regenerate everything")
        exp.add_argument("--datasets", nargs="*", default=None,
                         help="restrict to these datasets (default: all)")
        exp.add_argument("--quick", action="store_true",
                         help="reduced workloads for a fast smoke run")
        exp.set_defaults(handler=_run_experiments)

    explore = sub.add_parser(
        "explore", help="run/resume one store-backed pruning exploration")
    explore.add_argument("--dataset", required=True,
                         help="zoo dataset (e.g. redwine, cardio)")
    explore.add_argument("--model", required=True, choices=MODEL_KINDS,
                         help="zoo model kind")
    explore.add_argument("--base", default="coeff",
                         choices=("exact", "coeff"),
                         help="base netlist: exact bespoke or coefficient-"
                              "approximated (default: coeff)")
    explore.add_argument("--tau", type=float, nargs="*", default=None,
                         help="tau_c grid (default: the paper's 80..99%%)")
    explore.add_argument("--worker-id", default=None,
                         help="run as a lease-based fleet worker under "
                              "this id: N processes with distinct ids "
                              "and one shared --store drain the grid's "
                              "shards concurrently")
    explore.add_argument("--lease-ttl", type=float, default=300.0,
                         help="fleet shard-lease TTL in seconds; a "
                              "worker dead longer than this has its "
                              "shard reclaimed (default: 300)")
    explore.add_argument("--coordinator", default=None, metavar="URL",
                         help="fleet-worker mode over HTTP: talk to a "
                              "repro serve coordinator at this "
                              "http://host:port instead of a shared "
                              "--store file (requires --worker-id)")
    explore.add_argument("--tenant", default=None,
                         help="coordinator tenant (X-Tenant header; "
                              "default: the server's default store)")
    _add_service_options(explore)
    explore.set_defaults(handler=_run_explore)

    sweep = sub.add_parser(
        "sweep-e", help="sweep the coefficient search radius (Fig. 2 "
                        "style) with per-e coeff+cross families")
    sweep.add_argument("--dataset", required=True,
                       help="zoo dataset (e.g. redwine, cardio)")
    sweep.add_argument("--model", required=True, choices=MODEL_KINDS,
                       help="zoo model kind")
    sweep.add_argument("--e", type=int, nargs="*", default=None,
                       help="explicit radius list (default: e-min..e-max)")
    sweep.add_argument("--e-min", type=int, default=1,
                       help="first radius of the sweep (default: 1)")
    sweep.add_argument("--e-max", type=int, default=10,
                       help="last radius of the sweep (default: 10)")
    sweep.add_argument("--coeff-only", action="store_true",
                       help="skip the per-e pruning (cross) families")
    sweep.add_argument("--tau", type=float, nargs="*", default=None,
                       help="tau_c grid for the cross families "
                            "(default: the paper's 80..99%%)")
    _add_service_options(sweep)
    sweep.set_defaults(handler=_run_sweep_e)

    batch = sub.add_parser(
        "serve-batch", help="run a manifest of exploration requests")
    batch.add_argument("--manifest", required=True,
                       help="JSON manifest: {'requests': [...]} or a list")
    _add_service_options(batch)
    batch.set_defaults(handler=_run_serve_batch)

    server = sub.add_parser(
        "serve", help="long-lived asyncio HTTP server: streaming "
                      "JSONL/SSE explore + sweep with store-backed "
                      "idempotency (see docs/ARCHITECTURE.md 'Server')")
    server.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    server.add_argument("--port", type=int, default=8765,
                        help="bind port; 0 picks an ephemeral one, "
                             "announced on the 'serving' stdout line "
                             "(default: 8765)")
    server.add_argument("--store-root", default="stores",
                        help="directory of per-tenant store files "
                             "(default: ./stores)")
    server.add_argument("--concurrency", type=int, default=2,
                        help="computations running at once (default: 2)")
    server.add_argument("--queue-depth", type=int, default=16,
                        help="computations allowed to wait before new "
                             "submissions get 429 (default: 16)")
    server.add_argument("--shard-size", type=int, default=4,
                        help="tau_c chains per checkpoint shard")
    server.add_argument("--events-log", default=None,
                        help="append structured telemetry events (spans, "
                             "supervision, faults) as JSONL to this file "
                             "(enables tracing)")
    server.add_argument("--trace-sample", type=float, default=1.0,
                        help="fraction of traces recorded to the events "
                             "log, decided per trace id (default: 1.0)")
    server.set_defaults(handler=_run_serve)

    metrics = sub.add_parser(
        "metrics", help="scrape a server's /v1/metrics (--url) or fold "
                        "an --events-log file into span/event stats")
    metrics.add_argument("--url", default=None,
                         help="server base URL, e.g. http://127.0.0.1:8765")
    metrics.add_argument("--json", action="store_true",
                         help="with --url: request the JSON snapshot "
                              "instead of Prometheus text")
    metrics.add_argument("--events", default=None,
                         help="events-log JSONL file to aggregate")
    metrics.set_defaults(handler=_run_metrics)

    store = sub.add_parser("store", help="design-store maintenance")
    store_sub = store.add_subparsers(dest="store_command", required=True,
                                     metavar="store-command")
    gc = store_sub.add_parser(
        "gc", help="delete unreachable old rows, then VACUUM")
    gc.add_argument("--store", default=_DEFAULT_STORE,
                    help=f"store path (default: {_DEFAULT_STORE})")
    gc.add_argument("--keep-days", type=float, default=30.0,
                    help="age threshold in days (default: 30)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be deleted without deleting")
    gc.set_defaults(handler=_run_store_gc)
    stats = store_sub.add_parser("stats", help="print store row counts")
    stats.add_argument("--store", default=_DEFAULT_STORE,
                       help=f"store path (default: {_DEFAULT_STORE})")
    stats.set_defaults(handler=_run_store_stats)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    finally:
        if getattr(args, "events_log", None):
            # The event sink buffers lines; flush the tail so the log
            # is complete however the command exits.  (The serve path
            # already closes the hub in its drain sequence — close()
            # is idempotent.)
            from .service.telemetry import get_hub

            get_hub().close()


if __name__ == "__main__":
    sys.exit(main())
