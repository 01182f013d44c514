"""One in-process workload run of the repo benchmark (a fresh interpreter).

Started by ``run.py`` with ``PYTHONPATH=src``; reads its generated inputs
as one JSON object on stdin and prints one JSON object on stdout::

    {"workload": "explore", "ops": [[dataset, model, e, tau_grid], ...],
     "seconds": 15, "trace": false, "setup_only": false,
     "scratch": "<dir for store files>"}

Set-up is everything up to the first timed op: the imports, ``get_case``
over the op circuits, and one untimed warm-up op per circuit.  The timed
phase then cycles the op rotation in whole rounds until ``seconds`` have
passed.  With ``trace`` the rounds alternate between untraced and traced
(shims from :mod:`tracer` installed), so the same process yields the
per-layer ledger and the tracing overhead; on ``explore`` a third kind
of round runs the same ops with ``n_workers=2``, the pool layer's
measurement.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import spec  # perfbench/ is sys.path[0]
import tracer as tracing


def _op_function(workload: str, scratch: str, n_workers: int | None = None):
    """``(op, digest_of, cleanup)`` for a workload; ``op(index, dataset,
    model, e, tau_grid)`` returns the output ``digest_of`` hashes."""
    from repro import CrossLayerFramework
    from repro.experiments.zoo import get_case
    from repro.service import DesignStore, ExplorationService, ExploreRequest

    if workload == "explore":
        def op(_index, dataset, model, e, tau_grid):
            case = get_case(dataset, model)
            split = case.split
            kwargs = {} if tau_grid is None else {"tau_grid": tuple(tau_grid)}
            framework = CrossLayerFramework(e=e, clock_ms=case.clock_ms,
                                            n_workers=n_workers, **kwargs)
            result = framework.explore(case.quant_model, split.X_train,
                                       split.X_test, split.y_test,
                                       name=f"{dataset}_{model}")
            return result.points

        return op, spec.explore_digest, None

    if workload == "esweep_store":
        def store_path(index):
            return os.path.join(scratch, f"esweep-{index}.sqlite")

        def op(index, dataset, model, e, _tau_grid):
            store = DesignStore(store_path(index))
            request = ExploreRequest.from_dict({"dataset": dataset,
                                                "model": model})
            rows = ExplorationService(store).sweep(
                request, tuple(e), include_cross=False)
            return [(radius, record) for radius, record, *_rest in rows]

        def cleanup(index):
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.remove(store_path(index) + suffix)
                except FileNotFoundError:
                    pass

        return op, spec.esweep_digest, cleanup

    raise SystemExit(f"worker: no in-process workload {workload!r}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def main() -> int:
    job = json.load(sys.stdin)
    workload = job["workload"]

    t = time.monotonic()
    import repro.cli  # noqa: F401  (the import every CLI/serve start pays)
    import_s = time.monotonic() - t

    from repro.experiments.zoo import get_case
    from repro.service import telemetry

    ops = job["ops"]
    seconds = float(job["seconds"])
    trace = bool(job["trace"])
    modes = ["plain"]
    if trace:
        modes.append("traced")
        if workload == "explore":
            modes.append("pool")
    t = time.monotonic()
    for dataset, model, *_rest in ops:
        get_case(dataset, model)
    case_s = time.monotonic() - t

    op, digest_of, cleanup = _op_function(workload, job["scratch"])
    run_op = {"plain": op, "traced": op}
    if "pool" in modes:
        run_op["pool"] = _op_function(workload, job["scratch"],
                                      n_workers=spec.POOL_WORKERS)[0]
    index = 0
    t = time.monotonic()
    warmup = []
    for dataset, model, e, tau_grid in ops:  # one warm-up op per circuit
        warmup.append([spec.circuit_key(dataset, model),
                       digest_of(op(index, dataset, model, e, tau_grid))])
        if cleanup is not None:
            cleanup(index)
        index += 1
    warmup_s = time.monotonic() - t
    setup = {"import_s": import_s, "case_s": case_s, "warmup_s": warmup_s}

    t_first = time.monotonic()
    if job["setup_only"]:
        print(json.dumps({"setup": setup, "t_first": t_first}))
        return 0

    tracer = tracing.LayerTracer()
    registry = telemetry.get_hub().registry
    reg_total = {"counters": {}, "histograms": {}}
    results = []            # [circuit, latency_s, digest, mode]
    round_log = []          # [ops, seconds, mode, cpu_s]
    run_before = registry.snapshot()
    wall0 = time.monotonic()
    rounds = 0
    while True:
        elapsed = time.monotonic() - wall0
        # Whole rounds keep every circuit equally represented; a traced
        # run needs at least one round of each mode.
        if elapsed >= seconds and rounds >= len(modes):
            break
        mode = modes[rounds % len(modes)]
        traced = mode == "traced"
        if traced:
            tracer.install()
            before = registry.snapshot()
        cpu_start, round_start = _cpu_s(), time.monotonic()
        for dataset, model, e, tau_grid in ops:
            start = time.perf_counter()
            root = tracer.push("op") if traced else None
            output = run_op[mode](index, dataset, model, e, tau_grid)
            if root is not None:
                tracer.pop(root)
            latency = time.perf_counter() - start
            results.append([spec.circuit_key(dataset, model), latency,
                            digest_of(output), mode])
            if cleanup is not None:
                cleanup(index)
            index += 1
        round_log.append([len(ops), time.monotonic() - round_start, mode,
                          _cpu_s() - cpu_start])
        if traced:
            tracer.uninstall()
            tracing.merge_delta(reg_total, tracing.registry_delta(
                before, registry.snapshot()))
        rounds += 1

    out = {
        "setup": setup, "t_first": t_first, "warmup": warmup,
        "results": results, "rounds": round_log,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        out["trace"] = {
            "layers": {name: [s.calls, s.incl_s, s.self_s]
                       for name, s in tracer.stats.items()},
            "counts": tracer.counts,
            "registry": reg_total,
            "run_registry": tracing.registry_delta(run_before,
                                                   registry.snapshot()),
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
