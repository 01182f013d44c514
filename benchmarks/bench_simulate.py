"""Microbenchmark of the compiled evaluation spine vs the legacy engine.

Two measurement families, both written to ``BENCH_simulate.json`` at the
repository root so the performance trajectory is machine-readable from
this PR onward:

* **micro** — simulate-plus-activity and bus-decode throughput of the
  compiled word-parallel engine (``engine="auto"``) against the legacy
  bigint loop (``engine="bigint"``), on a small circuit and on an
  MLP-C-sized one (gate-evaluations per second, where one
  gate-evaluation is one gate over one stimulus vector).

* **end_to_end** — the full netlist-pruning design-space exploration per
  circuit, on three paths, with equivalence checks:

  - ``legacy``  — the seed pipeline (per-grid-point loop +
    builder-replay synthesis + bigint simulation);
  - ``bigint``  — ``explore()``'s oracle walk (``engine="bigint"``):
    one from-scratch synthesis + bigint simulation per unique prune
    set, timed once;
  - ``batched`` — the fast walk (``engine="auto"``): plan-epoch trie
    walk scoring variants in bulk ``(n_nets, K, n_words)`` passes
    (:class:`repro.hw.compiled.BatchedEvaluator`).

  Legacy and batched timings are best-of-N (shared hosts are noisy);
  ``speedup`` is legacy vs batched.  The exit status enforces the
  contract: any design-list difference between the three paths fails
  the run.

  Schema 4 adds a per-circuit ``telemetry`` block: one extra batched
  run with tracing on (events to an in-memory sink) captures the
  ``pruner.chain_walk_ms`` and ``engine.batch_size`` histograms, and
  its designs must match the untraced run exactly — the
  ``telemetry_inert`` bit folds into ``all_equivalent``.

  Schema 5 drops the retired relaxed identity mode: its run, the
  ``relaxed_*`` fields and the ``relaxed_floor`` block.

  Schema 6 drops the retired per-variant compiled walk: the
  ``compiled_s``, ``speedup_compiled`` and ``batched_vs_compiled``
  fields and ``best_batched_vs_compiled``.  It adds ``bigint_s``, the
  oracle walk that now takes the compiled walk's place in the identity
  check.

  Schema 7 times ``simulate()`` and ``activity()`` as one unit per
  engine (``simulate_activity_s``): the compiled engine counts activity
  inside its level loop, so the two no longer split.  The micro
  ``engines`` keys are the selectors ``"auto"`` and ``"bigint"``, and
  ``speedup`` (bigint over auto) replaces ``simulate_speedup`` and
  ``activity_speedup``.

Run standalone (not collected by pytest)::

    PYTHONPATH=src python benchmarks/bench_simulate.py           # full
    PYTHONPATH=src python benchmarks/bench_simulate.py --smoke   # CI

Smoke mode (``--quick`` is an alias) shrinks the circuit set and tau
grid so the benchmark finishes in a few seconds while still exercising
every path.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.pruning import DEFAULT_TAU_GRID, NetlistPruner  # noqa: E402
from repro.eval.accuracy import CircuitEvaluator  # noqa: E402
from repro.experiments.zoo import get_case  # noqa: E402
from repro.hw.bespoke import build_bespoke_netlist, input_payload  # noqa: E402
from repro.hw.simulate import simulate, simulate_bigint  # noqa: E402
from repro.quant import quantize_inputs  # noqa: E402
from repro.service import telemetry  # noqa: E402

OUTPUT = REPO_ROOT / "BENCH_simulate.json"

# (dataset, model kind) pairs; the end-to-end set covers the size classes
# the tier-1 suite exercises (hundreds to thousands of gates).
MICRO_CIRCUITS = [("redwine", "svm_r"), ("pendigits", "mlp_c")]
END_TO_END_CIRCUITS = [
    ("redwine", "svm_r"),
    ("redwine", "mlp_c"),
    ("redwine", "svm_c"),
    ("whitewine", "svm_c"),
    ("cardio", "svm_c"),
]
SMOKE_MICRO = [("redwine", "svm_r")]
SMOKE_END_TO_END = [("redwine", "svm_r")]


def _repeat(fn, repeats: int) -> tuple[float, object]:
    """Best-of-N wall time (seconds) and the last call's result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _simulate_activity(netlist, payload, engine: str) -> tuple:
    """One simulation and its activity report, timed as one unit."""
    sim = simulate(netlist, payload, engine=engine)
    return sim, sim.activity()


def bench_micro(dataset: str, kind: str, repeats: int) -> dict:
    case = get_case(dataset, kind)
    netlist = build_bespoke_netlist(case.quant_model)
    payload = input_payload(quantize_inputs(case.split.X_test))
    n_vectors = len(case.split.X_test)
    gate_evals = netlist.n_gates * n_vectors
    output_bus = next(iter(netlist.output_buses))

    rows = {}
    for engine in ("auto", "bigint"):
        sim_s, (sim, _activity) = _repeat(
            lambda: _simulate_activity(netlist, payload, engine), repeats)
        dec_s, _ = _repeat(lambda: sim.bus_ints(output_bus), repeats)
        rows[engine] = {
            "simulate_activity_s": sim_s,
            "decode_s": dec_s,
            "gate_evals_per_s": gate_evals / sim_s,
        }
    # Spot-check equivalence on this circuit while we are here.
    fast = simulate(netlist, payload, engine="auto")
    oracle = simulate_bigint(netlist, payload)
    fast_activity, oracle_activity = fast.activity(), oracle.activity()
    equivalent = bool(
        (fast.bus_ints(output_bus) == oracle.bus_ints(output_bus)).all()
        and (fast_activity.ones == oracle_activity.ones).all()
        and (fast_activity.flips == oracle_activity.flips).all())
    return {
        "circuit": f"{dataset}/{kind}",
        "n_gates": netlist.n_gates,
        "n_vectors": n_vectors,
        "engines": rows,
        "speedup": rows["bigint"]["simulate_activity_s"]
        / rows["auto"]["simulate_activity_s"],
        "equivalent": equivalent,
    }


def bench_end_to_end(dataset: str, kind: str, tau_grid,
                     repeats: int) -> dict:
    case = get_case(dataset, kind)
    netlist = build_bespoke_netlist(case.quant_model)
    split = case.split

    def make_evaluator(engine):
        return CircuitEvaluator.from_split(
            case.quant_model, split.X_train, split.X_test, split.y_test,
            engine=engine)

    def run_explore(engine):
        return NetlistPruner(netlist, make_evaluator(engine),
                             tau_grid).explore()

    batched_s, batched = _repeat(lambda: run_explore("auto"), repeats)
    bigint_s, bigint = _repeat(lambda: run_explore("bigint"), 1)
    legacy_s, legacy = _repeat(
        lambda: NetlistPruner(netlist, make_evaluator("bigint"),
                              tau_grid).explore_legacy(
                                  synthesis="reference"), repeats)

    def rows(designs):
        return [(d.tau_c, d.phi_c, d.n_pruned, d.record, d.duplicate_of)
                for d in designs]

    identical = rows(legacy) == rows(bigint) == rows(batched)

    # Telemetry breakdown + inertness: one instrumented batched run with
    # tracing on must yield the exact designs of the untraced run, and
    # its registry histograms give the engine-level stage profile.
    telemetry.reset()
    telemetry.configure(tracing=True, events_out=io.StringIO())
    traced = run_explore("auto")
    hists = telemetry.get_hub().registry.snapshot()["histograms"]
    telemetry.reset()

    def hist_stats(key):
        hist = hists.get(key)
        if hist is None or not hist["count"]:
            return None
        return {"count": hist["count"],
                "mean": hist["sum"] / hist["count"]}

    telemetry_inert = rows(traced) == rows(batched)
    return {
        "circuit": f"{dataset}/{kind}",
        "n_gates": netlist.n_gates,
        "n_designs": len(batched),
        "legacy_s": legacy_s,
        "bigint_s": bigint_s,
        "batched_s": batched_s,
        "new_s": batched_s,  # kept for PR-1 schema continuity
        "legacy_designs_per_s": len(legacy) / legacy_s,
        "new_designs_per_s": len(batched) / batched_s,
        "speedup": legacy_s / batched_s,
        "identical_designs": identical,
        "telemetry": {
            "inert": telemetry_inert,
            "chain_walk_ms": hist_stats(
                "pruner.chain_walk_ms{engine=batched}"),
            "batch_size": hist_stats("engine.batch_size"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", "--quick", dest="smoke",
                        action="store_true",
                        help="small circuit set + reduced grid (CI)")
    parser.add_argument("--out", type=pathlib.Path, default=OUTPUT)
    args = parser.parse_args(argv)

    micro_set = SMOKE_MICRO if args.smoke else MICRO_CIRCUITS
    e2e_set = SMOKE_END_TO_END if args.smoke else END_TO_END_CIRCUITS
    tau_grid = (0.9, 0.95, 0.99) if args.smoke else DEFAULT_TAU_GRID
    repeats = 2 if args.smoke else 3

    micro = []
    for dataset, kind in micro_set:
        row = bench_micro(dataset, kind, repeats)
        micro.append(row)
        print(f"[micro] {row['circuit']}: {row['n_gates']} gates x "
              f"{row['n_vectors']} vectors -> auto "
              f"{row['engines']['auto']['gate_evals_per_s']:.3e}"
              f" gate-evals/s, simulate+activity speedup "
              f"{row['speedup']:.2f}x, equivalent {row['equivalent']}")

    end_to_end = []
    for dataset, kind in e2e_set:
        row = bench_end_to_end(dataset, kind, tau_grid, repeats)
        end_to_end.append(row)
        print(f"[end-to-end] {row['circuit']}: {row['n_designs']} designs, "
              f"legacy {row['legacy_s']:.2f}s, bigint walk "
              f"{row['bigint_s']:.2f}s, batched {row['batched_s']:.2f}s "
              f"({row['speedup']:.2f}x vs legacy, "
              f"identical={row['identical_designs']}, "
              f"telemetry_inert={row['telemetry']['inert']})")

    report = {
        "schema": 7,
        "smoke": args.smoke,
        "tau_grid_points": len(tau_grid),
        "micro": micro,
        "end_to_end": end_to_end,
        "best_end_to_end_speedup": max(
            (row["speedup"] for row in end_to_end), default=0.0),
        "all_equivalent": all(row["equivalent"] for row in micro)
        and all(row["identical_designs"] for row in end_to_end)
        and all(row["telemetry"]["inert"] for row in end_to_end),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nbest end-to-end speedup: "
          f"{report['best_end_to_end_speedup']:.2f}x vs legacy "
          f"(all equivalent: {report['all_equivalent']})")
    print(f"[report saved to {args.out}]")
    if not report["all_equivalent"]:
        print("FAIL: equivalence contract violated")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
