"""Shared benchmark utilities.

Every benchmark regenerates one table or figure of the paper, prints the
paper-vs-measured report, and writes it to ``results/<name>.txt`` so the
artifacts survive the run (pytest captures stdout unless ``-s`` is given).
Timing is plain ``time.perf_counter``: the benches need nothing beyond
``numpy pytest hypothesis``.
"""

from __future__ import annotations

import pathlib
import time

import pytest

_RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def save_report():
    """Persist a formatted report and echo it to stdout."""

    def _save(name: str, text: str) -> None:
        _RESULTS_DIR.mkdir(exist_ok=True)
        (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n[report saved to results/{name}.txt]")

    return _save


def run_once(fn, rounds: int = 1):
    """Run ``fn`` and print its wall-clock time; returns its result.

    Full design-space explorations are deterministic and expensive:
    they run once, since repeating them for statistics would only
    re-measure caches.  The substrate micro-benchmarks take a few
    ``rounds`` and print the best.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    print(f"\n[{best * 1e3:.1f} ms, best of {rounds}]")
    return result
