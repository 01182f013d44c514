"""Batch job runner: many exploration requests, one store, JSONL out.

The facade the CLI (``repro-printed-ml explore`` / ``serve-batch``)
and any embedding server talk to.  A **request** names a circuit and a
pruning grid::

    {"dataset": "redwine", "model": "svm_r", "base": "coeff",
     "tau_grid": [0.9, 0.95, 0.99]}

* ``dataset`` / ``model`` select a zoo circuit (trained + quantized
  deterministically, so the content hash is reproducible across
  processes);
* ``base`` is ``"exact"`` (the bespoke baseline) or ``"coeff"`` (the
  coefficient-approximated netlist — the paper's cross-layer input);
* ``tau_grid`` defaults to the paper's 80..99% sweep.

A **manifest** is a JSON document with a ``requests`` list (or a bare
list).  :meth:`ExplorationService.run_manifest` resolves repeated
requests against the store *and within the batch* — identical
requests resolve to the same content key, so the second occurrence is
a lookup — and streams results as JSONL: a ``request`` header line
per request, a ``design`` line per design point, and one final
``summary`` line.
"""

from __future__ import annotations

import json
import numbers
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import NamedTuple

from ..core.multiplier_area import default_library
from ..core.coeff_approx import CoefficientApproximator
from ..core.cross_layer import DEFAULT_E_SWEEP
from ..core.pruning import (DEFAULT_TAU_GRID, NetlistPruner, PrunedDesign,
                            PruneSpace)
from ..eval.accuracy import CircuitEvaluator
from ..hw.bespoke import build_bespoke_netlist
from ..hw.synthesis import ArrayCircuit
from .faults import fault_point
from .jobs import DEFAULT_SHARD_SIZE, ExplorationJob, JobReport
from .jsonl import write_line
from .telemetry import counter as _metric
from .telemetry import span as _span
from .leases import DEFAULT_LEASE_TTL_S, FleetReport, run_fleet_worker
from .store import (
    DesignStore,
    base_fingerprint_from_parts,
    build_coeff_netlist_cached,
    coeff_netlist_key,
    designs_from_text,
    evaluator_fingerprint,
    grid_key as make_grid_key,
    netlist_fingerprint,
    open_store,
    variant_key,
)

__all__ = ["ExploreRequest", "ExplorationService", "render_request"]

_BASES = ("exact", "coeff")
_DEFAULT_E = 4  # the paper's fixed coefficient search radius

# Entries of each service's two bounded caches: its prepared bases and
# its rendered grids.  Every tenant service has its own; no build is
# cached across tenants.  A prepared coefficient base of the bench
# circuits holds ~0.2-0.3 MB (circuit plus prune space).  A sweep needs
# its 10 radii at once; serving 5 circuits radius after radius (the
# 400 fresh serve_mixed keys) missed 54 times at 8 to 16 entries, 50
# times unbounded and 221 times at 4.
BASE_CACHE_SIZE = 16


class BoundedCache:
    """A thread-safe mapping of at most ``size`` entries.

    A read or write makes its key the most recently used one; a write
    past ``size`` drops the least recently used entries and counts them
    on ``metric{result=evict}``.  Pool threads share one instance.
    """

    def __init__(self, size: int, metric: str) -> None:
        self.size = size
        self.metric = metric
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            if key not in self._entries:
                return default
            self._entries.move_to_end(key)
            return self._entries[key]

    def __setitem__(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = len(self._entries) - self.size
            for _ in range(evicted):
                self._entries.popitem(last=False)
        if evicted > 0:
            _metric(self.metric, evicted, result="evict")

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def values(self) -> list:
        with self._lock:
            return list(self._entries.values())


class _Base(NamedTuple):
    """One served pruning base, prepared once per service.

    ``space`` stays ``None`` until a job on the base built its prune
    space; every later job takes it, and prunes ``space.netlist``
    (the folded base) without refolding or retraining.
    """

    circuit: ArrayCircuit
    grid_meta: dict
    store_hit: bool
    fingerprint: str
    space: PruneSpace | None = None


@dataclass(frozen=True)
class ExploreRequest:
    """One (dataset, model, grid) exploration request.

    ``e`` is the coefficient search radius of a ``base="coeff"``
    request (``None``: the paper's e = 4).  Sweeps enumerate it —
    :meth:`ExplorationService.sweep` runs one request per radius, and
    a manifest may carry per-request ``e`` values; content addressing
    makes requests at the same radius resolve to the same keys however
    they were spelled.
    """

    dataset: str
    model: str
    base: str = "coeff"
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    label: str | None = None
    e: int | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExploreRequest":
        """Parse one wire/manifest request; malformed input is ValueError."""
        known = {"dataset", "model", "base", "tau_grid", "label", "e"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown request fields {sorted(unknown)}; "
                             f"expected a subset of {sorted(known)}")
        try:
            dataset, model = data["dataset"], data["model"]
        except KeyError as exc:
            raise ValueError(
                f"request is missing required field {exc.args[0]!r}") from exc
        label = data.get("label")
        for field_name, value in (("dataset", dataset), ("model", model),
                                  ("label", "" if label is None else label)):
            if not isinstance(value, str):
                raise ValueError(f"{field_name} must be a string, "
                                 f"got {value!r}")
        base = data.get("base", "coeff")
        if base not in _BASES:
            raise ValueError(f"unknown base {base!r}; use one of {_BASES}")
        e = data.get("e")
        if e is not None:
            e = _e_value(e)
            if base != "coeff":
                raise ValueError(
                    "e is only meaningful for base='coeff' requests")
        tau_grid = data.get("tau_grid")
        if tau_grid is None:
            tau_grid = DEFAULT_TAU_GRID
        elif not isinstance(tau_grid, (list, tuple)):
            raise ValueError(f"tau_grid must be a list of numbers, "
                             f"got {tau_grid!r}")
        else:
            tau_grid = tuple(_tau_value(t) for t in tau_grid)
        return ExploreRequest(dataset, model, base, tau_grid, label, e)

    @property
    def name(self) -> str:
        name = self.label or f"{self.dataset}/{self.model}/{self.base}"
        if self.label is None and self.e is not None:
            name += f"@e{self.e}"
        return name


def _e_value(value) -> int:
    """One coefficient search radius: an integer >= 0 (``4.0`` is 4)."""
    # ``value % 1`` is NaN (truthy) for NaN and infinities.
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or value % 1:
        raise ValueError(f"coefficient search radius e must be an "
                         f"integer, got {value!r}")
    if value < 0:
        raise ValueError("coefficient search radius e must be >= 0")
    return int(value)


def _tau_value(value) -> float:
    """One ``tau_grid`` entry: a finite number in [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"tau_grid values must be numbers, got {value!r}")
    if not 0 <= value <= 1:  # also rejects NaN
        raise ValueError(f"tau_grid values must lie in [0, 1], got {value!r}")
    return float(value)


def design_head(index: int, **tags) -> str:
    """The head of a ``design`` line: ``{"type": "design", "index": …,``
    then ``tags`` (the e-sweep's ``e``), up to the design's fields."""
    return json.dumps({"type": "design", "index": index, **tags})[:-1] \
        + ", "


def design_body(design: PrunedDesign) -> str:
    """The rest of a ``design`` line: the design's own fields and ``}``."""
    return json.dumps({
        "tau_c": design.tau_c, "phi_c": design.phi_c,
        "n_pruned": design.n_pruned,
        "duplicate_of": design.duplicate_of,
        **design.record.to_dict(),
    })[1:]


def render_design(index: int, design: PrunedDesign, **tags) -> str:
    """One ``design`` JSONL line (no trailing newline).

    The line is :func:`design_head` plus :func:`design_body`, which is
    byte-for-byte ``json.dumps({"type": "design", "index": index,
    **tags, **fields})``.  The only renderer of design lines:
    :func:`render_request`, :meth:`ExplorationService.run_sweep` and
    the memoized bodies of :meth:`ExplorationService.warm_lines` all
    come from these two halves.
    """
    return design_head(index, **tags) + design_body(design)


def _render_header(index: int, request: ExploreRequest, n_designs: int,
                   report: JobReport) -> str:
    return json.dumps({
        "type": "request", "index": index,
        "dataset": request.dataset, "model": request.model,
        "base": request.base, "label": request.name,
        "tau_grid_points": len(request.tau_grid),
        "n_designs": n_designs,
        **report.to_dict(),
    })


def render_request(index: int, request: ExploreRequest,
                   designs: list[PrunedDesign],
                   report: JobReport) -> list[str]:
    """One request's JSONL lines: its ``request`` header, then its designs.

    Each line is serialized exactly once, already carrying its manifest
    ``index`` (no trailing newline); the design lines are
    :func:`render_design`'s, with one head for the whole request.
    :meth:`ExplorationService.run_manifest` writes these lines and
    ``repro serve`` streams them, so served bytes equal the batch
    runner's by construction.
    """
    head = design_head(index)
    return [_render_header(index, request, len(designs), report),
            *(head + design_body(design) for design in designs)]


class ExplorationService:
    """Store-backed exploration server for many circuits and grids.

    One service owns one :class:`~repro.service.store.DesignStore`, its
    own cache of evaluators, and a bounded cache of prepared
    pruning bases (``BASE_CACHE_SIZE`` entries, least recently used out
    first).  A base is built (or decoded) once, and the first job on it
    keeps its prune space — folded base, training activity and phi — so
    every later grid on that base only walks; the store shares the
    evaluations between them.  An evicted base is rebuilt on its next
    request.  A finished grid's design lines are rendered once too, in
    a cache of the same bound (see :meth:`warm_lines`).
    """

    def __init__(self, store: DesignStore | str, engine: str = "auto",
                 shard_size: int = DEFAULT_SHARD_SIZE) -> None:
        self.store = open_store(store)
        self.engine = engine
        self.shard_size = shard_size
        self._evaluators: dict[tuple, tuple[CircuitEvaluator, str]] = {}
        self._netlists = BoundedCache(BASE_CACHE_SIZE, "service.bases")
        # grid key -> (stored designs text, rendered design bodies)
        self._rendered = BoundedCache(BASE_CACHE_SIZE, "service.rendered")
        self._base_keys: dict[tuple, str] = {}

    def _evaluator(self, dataset: str,
                   model: str) -> tuple[CircuitEvaluator, str]:
        """The per-(dataset, model) scoring context and its fingerprint,
        cached per process.

        One evaluator (quantized split, packed stimulus) serves every
        base/radius of a circuit — which is what lets a sweep score all
        its per-``e`` netlists in one multi-netlist batch.  Every path
        that builds one also keys a base with it, so the fingerprint is
        computed with it.
        """
        key = (dataset, model)
        cached = self._evaluators.get(key)
        if cached is not None:
            return cached
        from ..experiments.zoo import get_case  # heavy import, deferred
        case = get_case(dataset, model)
        split = case.split
        evaluator = CircuitEvaluator.from_split(
            case.quant_model, split.X_train, split.X_test, split.y_test,
            clock_ms=case.clock_ms, engine=self.engine)
        cached = self._evaluators[key] = (evaluator,
                                          evaluator_fingerprint(evaluator))
        return cached

    def _netlist(self, request: ExploreRequest) -> tuple:
        """``(circuit, grid_meta, store_hit, fingerprint)`` for a base."""
        return tuple(self._prepared(request)[:4])

    def _prepared(self, request: ExploreRequest) -> _Base:
        """The request's prepared base (:class:`_Base`), cached.

        ``coeff`` bases route through the store's coefficient cache
        *and* coefficient-netlist table: a warm request skips the area
        search and the bespoke rebuild, and a cold one stays the array
        builder's :class:`~repro.hw.synthesis.ArrayCircuit`, which
        scoring and the pruner read directly.  ``grid_meta`` carries the
        netlist's content key so ``store gc`` keeps it reachable while
        any surviving grid was explored on it.  ``fingerprint`` is the
        circuit's netlist fingerprint, computed once here.
        """
        key = self._base_cache_key(request)
        cached = self._netlists.get(key)
        if cached is not None:
            _metric("service.bases", result="hit")
            return cached
        _metric("service.bases", result="miss")
        from ..experiments.zoo import get_case  # heavy import, deferred
        case = get_case(request.dataset, request.model)
        model = case.quant_model
        name = f"{request.dataset}_{request.model}_{request.base}"
        if request.base == "coeff":
            e = _DEFAULT_E if request.e is None else request.e
            approximator = CoefficientApproximator(
                library=default_library(), e=e)
            circuit, fingerprint, hit = build_coeff_netlist_cached(
                approximator, model, self.store, name=name)
            grid_meta = {
                "coeff_netlist_key": coeff_netlist_key(model, approximator),
                "e": e,
            }
        else:
            circuit, hit = build_bespoke_netlist(model, name=name), False
            fingerprint = netlist_fingerprint(circuit)
            grid_meta = {}
        base = _Base(circuit, grid_meta, hit, fingerprint)
        self._netlists[key] = base
        return base

    def _base_cache_key(self, request: ExploreRequest) -> tuple:
        """The base a request names: a coefficient base without ``e``
        is the one at the paper's radius, ``e=4``."""
        e = request.e
        if request.base == "coeff" and e is None:
            e = _DEFAULT_E
        return (request.dataset, request.model, request.base, e)

    def _base_key(self, request: ExploreRequest) -> str:
        """The request's base fingerprint, without a netlist if possible.

        ``coeff`` bases whose netlist the store already holds resolve
        through the *stored* netlist fingerprint
        (:meth:`~repro.service.store.DesignStore.
        get_coeff_netlist_fingerprint`) — no bespoke build, no JSON
        deserialize.  Everything else builds the circuit once (cached
        per process) and uses the fingerprint computed with it.
        """
        cache_key = self._base_cache_key(request)
        cached = self._base_keys.get(cache_key)
        if cached is not None:
            return cached
        netlist_fp = None
        if request.base == "coeff" \
                and cache_key not in self._netlists:
            from ..experiments.zoo import get_case
            model = get_case(request.dataset, request.model).quant_model
            e = _DEFAULT_E if request.e is None else request.e
            approximator = CoefficientApproximator(
                library=default_library(), e=e)
            netlist_fp = self.store.get_coeff_netlist_fingerprint(
                coeff_netlist_key(model, approximator))
        if netlist_fp is None:
            netlist_fp = self._prepared(request).fingerprint
        base_key = base_fingerprint_from_parts(
            netlist_fp, self._evaluator(request.dataset, request.model)[1],
            namespace=self.store.namespace)
        self._base_keys[cache_key] = base_key
        return base_key

    def grid_key(self, request: ExploreRequest) -> str:
        """The request's content key (first contact may train/build)."""
        return make_grid_key(self._base_key(request), request.tau_grid)

    def cached_grid_key(self, request: ExploreRequest) -> str | None:
        """The content key if this service already resolved the base.

        A dict read plus one small hash: never trains, builds or touches
        the store, so an event loop may call it inline.
        """
        base_key = self._base_keys.get(self._base_cache_key(request))
        if base_key is None:
            return None
        return make_grid_key(base_key, request.tau_grid)

    def _warm_grid(self, request: ExploreRequest):
        """A finished grid served purely by content key, or ``None``.

        The warm fast path: base and grid keys derive from stored
        fingerprints, so a repeated request never rebuilds (or even
        deserializes) its base netlist — it is one SQLite lookup.
        """
        start = time.perf_counter()
        gkey = self.grid_key(request)
        designs = self.store.get_grid(gkey)
        if designs is None:
            return None
        report = JobReport(gkey, grid_hit=True,
                           runtime_s=time.perf_counter() - start)
        return designs, report

    def job(self, request: ExploreRequest) -> ExplorationJob:
        """The resumable job a request maps to (exposes its content key).

        A base some earlier job prepared hands its prune space to the
        pruner, which then prunes the space's folded base with no fold,
        training pass or phi of its own.  No walk's plans outlive the
        job: the pruner caches none on the kept circuits.
        """
        base = self._prepared(request)
        circuit = base.circuit if base.space is None else base.space.netlist
        evaluator, _fp = self._evaluator(request.dataset, request.model)
        pruner = NetlistPruner(circuit, evaluator, request.tau_grid,
                               engine=self.engine, _space=base.space)
        return ExplorationJob(pruner, self.store,
                              shard_size=self.shard_size,
                              label=request.name,
                              grid_meta=base.grid_meta,
                              base_fp=self._base_key(request))

    def _keep_space(self, request: ExploreRequest,
                    pruner: NetlistPruner) -> None:
        """Keep the prune space a job built, for later jobs on its base."""
        key = self._base_cache_key(request)
        base = self._netlists.get(key)
        if base is not None and base.space is None \
                and pruner._space is not None:
            self._netlists[key] = base._replace(space=pruner._space)

    def request_span(self, request: ExploreRequest):
        return _span("service.request", dataset=request.dataset,
                     model=request.model, base=request.base)

    def warm_lines(self, index: int,
                   request: ExploreRequest) -> list[str] | None:
        """A finished grid's JSONL lines at manifest ``index``, or ``None``.

        The lines are :func:`render_request`'s, byte for byte: the
        ``request`` header (a ``grid_hit`` report) and one ``design``
        line per design.  Nothing is built, trained or evaluated beyond
        what resolving the content key needs, and a miss returns
        ``None`` having done only that and one store read.
        """
        with self.request_span(request):
            return self._warm_lines(index, request)

    def _warm_lines(self, index: int,
                    request: ExploreRequest) -> list[str] | None:
        """:meth:`warm_lines` without its span.

        The store's text is read on every call and stays the source of
        truth: the memoized bodies serve only while that text equals
        the text they were rendered from, so a deleted grid misses and
        a rewritten one is decoded and rendered again.
        """
        start = time.perf_counter()
        gkey = self.grid_key(request)
        text = self.store.get_grid_text(gkey)
        if text is None:
            return None
        memo = self._rendered.get(gkey)
        if memo is not None and memo[0] == text:
            _metric("service.rendered", result="hit")
            bodies = memo[1]
        else:
            _metric("service.rendered", result="miss")
            bodies = [design_body(d) for d in designs_from_text(text)]
            self._rendered[gkey] = (text, bodies)
        _metric("service.requests", outcome="grid_hit")
        report = JobReport(gkey, grid_hit=True,
                           runtime_s=time.perf_counter() - start)
        head = design_head(index)
        return [_render_header(index, request, len(bodies), report),
                *(head + body for body in bodies)]

    def explore(self, request: ExploreRequest, resume: bool = True,
                on_shard=None) -> tuple[list[PrunedDesign], JobReport]:
        """Run (or look up) one request; returns (designs, report).

        A finished grid is served straight off its content key (no
        circuit build or decode — see :meth:`_warm_grid`); anything
        else goes through the resumable job.
        """
        with self.request_span(request):
            if resume:
                warm = self._warm_grid(request)
                if warm is not None:
                    _metric("service.requests", outcome="grid_hit")
                    return warm
            return self.compute(request, resume, on_shard)

    def compute(self, request: ExploreRequest, resume: bool,
                on_shard=None) -> tuple[list[PrunedDesign], JobReport]:
        """Run the request's resumable job (the cold half of explore).

        For a caller whose own warm read just missed: the job reads the
        grid once more before it walks, so a grid another writer
        finished meanwhile is still returned as a hit.  Callers open
        :meth:`request_span` around it.
        """
        job = self.job(request)
        report = JobReport(job.grid_key())
        designs = job.run(resume=resume, on_shard=on_shard, report=report)
        self._keep_space(request, job.pruner)
        _metric("service.requests", outcome="computed")
        return designs, report

    def sweep(self, request: ExploreRequest,
              e_values: tuple[int, ...] = DEFAULT_E_SWEEP,
              resume: bool = True, include_cross: bool = True,
              on_shard=None) -> list[tuple]:
        """Per-radius coeff+cross families of one circuit (Fig. 2 style).

        Runs one ``base="coeff"`` request per ``e`` in ``e_values``:
        the coefficient-approximated designs score in a single
        multi-netlist batch (their netlists come store-warm when
        possible), and — with ``include_cross`` — each radius's pruning
        grid runs as its own resumable :class:`ExplorationJob`.  The
        sweep is therefore *sharded by radius on top of the per-grid
        shard checkpoints*: a kill loses at most the in-flight shard of
        the in-flight radius, and a resumed sweep reproduces the cold
        sweep exactly (finished radii are grid hits, the interrupted
        one resumes from its checkpoint).

        The per-radius coefficient records are themselves
        content-addressed (empty-pruneset ``variants`` rows under each
        radius's base fingerprint), and base fingerprints resolve from
        the stored netlist fingerprints — so a warm re-sweep touches
        neither the approximator, nor the bespoke builder, nor the
        simulator: it is a sequence of SQLite lookups.

        Returns ``[(e, coeff record, warm_hit, designs, report)]``
        with ``designs``/``report`` ``None`` when cross is skipped.
        """
        e_values = tuple(int(e) for e in e_values)
        requests = [replace(request, base="coeff", e=e) for e in e_values]
        evaluator, _fp = self._evaluator(request.dataset, request.model)
        base_keys = [self._base_key(req) for req in requests]
        record_keys = [variant_key(base_key, ()) for base_key in base_keys]
        records = [self.store.get_variant(key) if resume else None
                   for key in record_keys]
        missing = [i for i, record in enumerate(records) if record is None]
        if missing:
            fresh = evaluator.evaluate_many(
                [self._prepared(requests[i]).circuit for i in missing])
            for i, record in zip(missing, fresh):
                records[i] = record
                self.store.put_variant(record_keys[i], base_keys[i], (),
                                       record)
        cold = set(missing)
        results = []
        for i, (req, record) in enumerate(zip(requests, records)):
            designs = report = None
            if include_cross:
                designs, report = self.explore(req, resume=resume,
                                               on_shard=on_shard)
            results.append((req.e, record, i not in cold, designs, report))
        return results

    def run_sweep(self, request: ExploreRequest, e_values, out,
                  resume: bool = True,
                  include_cross: bool = True) -> dict:
        """Stream :meth:`sweep` as JSONL; returns the summary dict.

        Lines: one ``sweep`` header; per radius a ``coeff`` line (the
        coefficient-approximated design's record, with its
        ``coeff_hit`` warm flag) and — with cross — a ``request``
        header plus ``design`` lines, every one tagged with its ``e``;
        one final ``summary``.
        """
        start = time.perf_counter()
        results = self.sweep(request, e_values, resume=resume,
                             include_cross=include_cross)
        write_line(out, {
            "type": "sweep",
            "dataset": request.dataset, "model": request.model,
            "e_values": [e for e, *_rest in results],
            "tau_grid_points": len(request.tau_grid),
            "include_cross": include_cross,
        })
        n_designs = 0
        n_cached = 0
        for index, (e, record, hit, designs, report) in enumerate(results):
            write_line(out, {
                "type": "coeff", "index": index, "e": e,
                "coeff_hit": hit, **record.to_dict(),
            })
            if designs is None:
                continue
            n_cached += int(report.grid_hit)
            n_designs += len(designs)
            write_line(out, {
                "type": "request", "index": index, "e": e,
                "dataset": request.dataset, "model": request.model,
                "base": "coeff", "n_designs": len(designs),
                **report.to_dict(),
            })
            for design in designs:
                write_line(out, render_design(index, design, e=e))
        summary = {
            "type": "summary",
            "kind": "sweep",
            "n_e_values": len(results),
            "n_grid_hits": n_cached,
            "n_designs": n_designs,
            "runtime_s": time.perf_counter() - start,
            "store": self.store.stats(),
        }
        write_line(out, summary)
        return summary

    def run_manifest(self, manifest, out, resume: bool = True) -> dict:
        """Stream a manifest of requests to ``out`` as JSONL.

        ``manifest`` is a dict with a ``requests`` list, or a bare
        list of request dicts.  Returns the summary dict that is also
        written as the last line.
        """
        if isinstance(manifest, dict):
            manifest = manifest.get("requests", [])
        requests = [ExploreRequest.from_dict(d) for d in manifest]

        start = time.perf_counter()
        n_cached = 0
        n_designs = 0
        for index, request in enumerate(requests):
            fault_point("service.request", index=index,
                        dataset=request.dataset)
            with self.request_span(request):
                lines = self._warm_lines(index, request) if resume \
                    else None
                hit = lines is not None
                if not hit:
                    designs, report = self.compute(request, resume)
                    hit = report.grid_hit
                    lines = render_request(index, request, designs, report)
            n_cached += int(hit)
            n_designs += len(lines) - 1
            for line in lines:
                write_line(out, line)
        summary = {
            "type": "summary",
            "n_requests": len(requests),
            "n_grid_hits": n_cached,
            "n_designs": n_designs,
            "runtime_s": time.perf_counter() - start,
            "store": self.store.stats(),
        }
        write_line(out, summary)
        return summary

    def fleet_worker(self, request: ExploreRequest, worker_id: str,
                     ttl_s: float = DEFAULT_LEASE_TTL_S
                     ) -> tuple[list[PrunedDesign], "FleetReport"]:
        """Run one lease-based fleet worker for ``request``'s grid.

        N processes calling this against the same store drain the
        grid's shards concurrently (see
        :func:`~repro.service.leases.run_fleet_worker`); each returns
        the identical finished design list.  A grid the store already
        holds is returned as a warm hit without building the netlist's
        pruner job.
        """
        warm = self._warm_grid(request)
        if warm is not None:
            designs, job_report = warm
            report = FleetReport(worker=worker_id,
                                 grid_key=job_report.grid_key,
                                 grid_hit=True,
                                 runtime_s=job_report.runtime_s)
            return designs, report
        job = self.job(request)
        result = run_fleet_worker(job, worker_id, ttl_s=ttl_s)
        self._keep_space(request, job.pruner)
        return result
