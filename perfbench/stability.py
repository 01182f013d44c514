"""Stability report: repeat ``run.py`` over seeds and summarize each metric.

Run from the repository root::

    python3 perfbench/stability.py --runs 1            # every workload once
    python3 perfbench/stability.py --workload explore --runs 10
    python3 perfbench/stability.py --workload serve_mixed --runs 5 --trace 1

Each run uses another seed (``--first-seed`` upward).  For every metric
it prints the median and quartiles across the runs (Python's
``statistics.quantiles(values, n=4)``) and the quartile spread as a
share of the median, marking the metrics whose spread is within a
tenth.  End-to-end metrics are compared with their bound from
``BENCHMARK.json``: ``steady`` below a third of it, ``in-bound`` below
it, ``UNSTEADY`` otherwise.  The exit code is non-zero when a run
fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    status = 0
    for workload in workloads:
        status |= _report(bench, workload, args, seconds, bounds)
    return status


def _report(bench: dict, workload: str, args, seconds: float,
            bounds: dict) -> int:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    status = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        start = time.monotonic()
        proc = subprocess.run(
            bench["command"] + ["--workload", workload,
                                "--seed", str(seed), "--seconds",
                                str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - start
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            status = 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"{workload} seed {seed}: {wall:.1f}s wall, "
              f"correct={result['correct']}, {result['attempted']} ops, "
              f"fail_ratio={result['failed'] / result['attempted']:g}",
              flush=True)

    if not values:
        print(f"{workload}: no finished run", file=sys.stderr)
        return 1
    print(f"\n{workload} (trace={args.trace}, {seconds:g}s runs, "
          f"seeds {args.first_seed}..{args.first_seed + args.runs - 1})")
    print(f"{'metric':<32}{'unit':>7}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}  verdict")
    for name, series in values.items():
        if len(series) < 2:  # one run: its value, no quartiles
            print(f"{name:<32}{units[name]:>7}{series[0]:>12.5g}")
            continue
        median, q1, q3, spread = _spread(series)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "steady" if spread < bound / 3 else \
                "in-bound" if spread <= bound else "UNSTEADY"
            verdict += f" (bound {bound:g})"
        if spread <= 0.1:
            verdict += " within a tenth"
        print(f"{name:<32}{units[name]:>7}{median:>12.5g}{q1:>12.5g}"
              f"{q3:>12.5g}{spread:>9.3f}  {verdict}")
    print()
    return status


if __name__ == "__main__":
    sys.exit(main())
