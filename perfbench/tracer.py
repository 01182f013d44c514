"""Layer timing from outside the program, for the benchmark's traced run.

:class:`LayerTracer` wraps public functions and methods of ``repro``
with timing shims while it is installed, and removes them again when
uninstalled, so traced and untraced blocks of one run execute the same
program.  Each wrapped call is a span on one stack (the in-process
workloads run their ops on a single thread): a layer's
self time is its duration minus the spans that ran under it, and the
op's own root span keeps whatever no layer claimed (the workload's
unattributed remainder).  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


class LayerStats:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class LayerTracer:
    """Span stack + per-layer totals; install/uninstall the shims."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []      # [layer, start, child_s]
        self._patches: list[tuple] = []   # (owner, attr, original)
        self._fingerprinted: dict[int, object] = {}

    # -- spans -------------------------------------------------------

    def push(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        elapsed = time.perf_counter() - frame[1]
        self._stack.pop()
        stats = self.stats.get(frame[0])
        if stats is None:
            stats = self.stats[frame[0]] = LayerStats()
        stats.self_s += elapsed - frame[2]
        # A layer re-entered under itself counts once, at its outermost
        # call, so inclusive time never double-counts.
        if all(outer[0] != frame[0] for outer in self._stack):
            stats.calls += 1
            stats.incl_s += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, layer: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            frame = tracer.push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if on_result is not None:
                on_result(args, result)
            return result

        return shim

    # -- installation ------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr: str, layer: str,
                      on_result=None) -> None:
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            self._patch(cls, attr, staticmethod(
                self._wrap(layer, raw.__func__, on_result)))
        else:
            self._patch(cls, attr, self._wrap(layer, raw, on_result))

    def _patch_function(self, fn, layer: str, on_result=None) -> None:
        """Replace ``fn`` in every ``repro`` module that imported it."""
        shim = self._wrap(layer, fn, on_result)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, shim)

    def install(self) -> None:
        from repro.core.coeff_approx import CoefficientApproximator
        from repro.core.cross_layer import CrossLayerFramework
        from repro.core.pruning import NetlistPruner
        from repro.eval.accuracy import CircuitEvaluator
        from repro.hw.array_builder import build_bespoke_arrays
        from repro.hw.bespoke import build_bespoke_netlist
        from repro.hw.synthesis import ArrayCircuit
        from repro.service.store import DesignStore, netlist_fingerprint

        self._patch_method(CrossLayerFramework, "explore", "cross_layer")
        self._patch_method(CoefficientApproximator, "approximate_model",
                           "coeff_approx")
        self._patch_function(build_bespoke_netlist, "bespoke")
        self._patch_function(build_bespoke_arrays, "bespoke")
        self._patch_method(ArrayCircuit, "to_netlist", "netlist")
        self._patch_function(netlist_fingerprint, "fingerprint",
                             self._on_fingerprint)
        for attr in sorted(vars(DesignStore)):
            if attr.startswith("get_"):
                self._patch_method(DesignStore, attr, "store.get",
                                   self._on_store_get)
            elif attr.startswith("put_"):
                self._patch_method(DesignStore, attr, "store.put")
        self._patch_method(CircuitEvaluator, "from_split",
                           "evaluator.from_split")
        self._patch_method(CircuitEvaluator, "evaluate_many", "evaluator",
                           self._on_evaluate_many)
        self._patch_method(NetlistPruner, "explore", "pruning",
                           self._on_prune)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        # Distinct netlists are counted per installed block; dropping the
        # references lets the block's netlists be freed.
        self.count("fingerprint.netlists", len(self._fingerprinted))
        self._fingerprinted.clear()

    # -- result hooks ------------------------------------------------

    def _on_fingerprint(self, args, _result) -> None:
        netlist = args[0]
        self._fingerprinted[id(netlist)] = netlist  # pin: ids stay unique

    def _on_store_get(self, _args, result) -> None:
        self.count("store.get_hits", result is not None)

    def _on_evaluate_many(self, args, _result) -> None:
        self.count("evaluator.netlists", len(args[1]))

    def _on_prune(self, _args, designs) -> None:
        self.count("pruning.grid_points", len(designs))
        self.count("pruning.unique",
                   sum(1 for d in designs if d.duplicate_of is None))


def registry_delta(before: dict, after: dict) -> dict:
    """Counter and histogram (count, sum) growth between two snapshots
    of ``MetricsRegistry.snapshot()``."""
    delta: dict = {"counters": {}, "histograms": {}}
    for name, value in after.get("counters", {}).items():
        grown = value - before.get("counters", {}).get(name, 0)
        if grown:
            delta["counters"][name] = grown
    for name, hist in after.get("histograms", {}).items():
        old = before.get("histograms", {}).get(name, {"count": 0, "sum": 0.0})
        count = hist["count"] - old["count"]
        if count:
            delta["histograms"][name] = {"count": count,
                                         "sum": hist["sum"] - old["sum"]}
    return delta


def merge_delta(total: dict, delta: dict) -> None:
    for name, value in delta["counters"].items():
        total["counters"][name] = total["counters"].get(name, 0) + value
    for name, hist in delta["histograms"].items():
        slot = total["histograms"].setdefault(name, {"count": 0, "sum": 0.0})
        slot["count"] += hist["count"]
        slot["sum"] += hist["sum"]


def _matching(series_map: dict, name: str, labels: dict):
    """Values of the ``name{k=v,...}`` series whose labels include
    ``labels`` (the key format of ``MetricsRegistry.snapshot()``)."""
    for series, value in series_map.items():
        base, _, rest = series.partition("{")
        if base != name:
            continue
        pairs = dict(item.split("=", 1)
                     for item in rest.rstrip("}").split(",") if item)
        if all(pairs.get(k) == v for k, v in labels.items()):
            yield value


def counter_sum(delta: dict, name: str, **labels) -> float:
    """Sum of one counter over its series matching ``labels``."""
    return sum(_matching(delta["counters"], name, labels))


def span_totals(delta: dict, name: str) -> tuple[int, float]:
    """``(count, total ms)`` of one span from ``span.duration_ms``."""
    hists = list(_matching(delta["histograms"], "span.duration_ms",
                           {"name": name}))
    return (sum(h["count"] for h in hists), sum(h["sum"] for h in hists))
