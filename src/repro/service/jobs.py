"""Resumable sharded pruning exploration on top of the design store.

An :class:`ExplorationJob` wraps one
:class:`~repro.core.pruning.NetlistPruner` and turns its full-grid
exploration into a sequence of checkpointed **shards** — contiguous
groups of tau_c chains:

1. If the store already holds the finished grid, return it (warm hit:
   no simulation at all).
2. Otherwise pre-seed the pruner's record memo with every variant the
   store has for this base circuit, so overlapping grids reuse each
   other's evaluations.
3. Walk the shards in tau order.  A shard whose checkpoint exists (and
   matches its tau partition) is loaded; a missing shard is computed
   through :meth:`~repro.core.pruning.NetlistPruner.chain_rows`, then
   written in one store transaction — the checkpoint *and* its fresh
   variant records — before the next shard starts.  A kill at any
   point therefore loses at most the in-flight shard, and never leaves
   a checkpoint without its variants.
4. Assemble the design list from all rows with
   :func:`~repro.core.pruning.assemble_designs` — a pure function of
   the rows in tau order, which is why a resumed run reproduces the
   cold run's list *exactly* (same designs, same duplicate
   attribution) — and store the finished grid in one transaction that
   also deletes the checkpoints and leases it supersedes.

Every walk keys its rows by the sorted-gate-id byte form, and resumed
shards load back into it, so stored and freshly-computed shards share
records whichever engine produced them.

A job walks its shards in the process that runs it.  Multi-core work
runs whole jobs side by side instead: the framework's family executor
runs one job per pruning family (the store pickles as its path, so a
worker reopens it), and the lease fleet
(:mod:`repro.service.leases`) lets several processes drain one grid's
shards.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from functools import partial

from ..core.pruning import (
    NetlistPruner,
    PrunedDesign,
    assemble_designs,
    prune_key_bytes,
)
from .faults import fault_point
from .retry import RetryPolicy, retry_call
from .store import (
    DesignStore,
    _deserialize_rows,
    _serialize_rows,
    base_fingerprint,
    grid_key,
    open_store,
)
from .telemetry import counter as _metric
from .telemetry import span as _span

__all__ = ["ExplorationJob", "JobReport"]

# Chains per shard: small enough that a kill loses little work, large
# enough that checkpoint writes stay a rounding error next to the
# chain evaluations themselves.
DEFAULT_SHARD_SIZE = 4

# Job-level shard retry: a shard whose compute-and-checkpoint raises (an
# evaluation fault that survived the pruner's engine ladder, a store
# write that kept failing) is re-walked with capped exponential backoff
# before the run gives up.  Chains are pure functions of their inputs
# and the shard write is one idempotent transaction, so a retried shard
# is safe by construction.
SHARD_RETRY = RetryPolicy(attempts=3, base_s=0.05, cap_s=2.0, jitter="none")


@dataclass
class JobReport:
    """What one :meth:`ExplorationJob.run` actually did (observability).

    ``shards_retried`` counts job-level shard retries (a shard whose
    compute-and-checkpoint raised and was re-walked).
    ``engine_fallbacks`` and ``fault_events`` copy the pruner's
    :attr:`~repro.core.pruning.NetlistPruner.fallbacks` when the run
    ends: a pruner reused across jobs carries its history along.
    Fields are declared in wire order; ``to_dict()`` keys are pinned by
    the server's wire contract.
    """

    grid_key: str
    n_shards: int = 0
    shards_loaded: int = 0
    shards_computed: int = 0
    grid_hit: bool = False
    variants_preloaded: int = 0
    runtime_s: float = 0.0
    shards_retried: int = 0
    engine_fallbacks: int = 0
    fault_events: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExplorationJob:
    """One resumable, store-backed pruning exploration.

    Args:
        pruner: the configured exploration (netlist, evaluator, grid,
            engine).  The job never changes what is explored —
            only how the work is checkpointed and reused.
        store: the content-addressed design store (or a path to one).
        shard_size: tau_c chains per checkpoint shard.
        label: human-readable tag recorded in the grid metadata.
        grid_meta: extra keys merged into the stored grid metadata —
            the e-sweep records its ``coeff_netlist_key``/``e`` here so
            ``store gc`` can keep a grid's base netlist reachable.
        base_fp: the exploration's base fingerprint, when the caller
            already resolved it (the service keys every request before
            it builds a job); ``None`` derives it from the pruner.
    """

    pruner: NetlistPruner
    store: DesignStore
    shard_size: int = DEFAULT_SHARD_SIZE
    label: str = "circuit"
    grid_meta: dict | None = None
    base_fp: str | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.store = open_store(self.store)
        self.shard_size = max(1, int(self.shard_size))

    def base_key(self) -> str:
        """Content fingerprint of (netlist, evaluator inputs).

        The store's tenant namespace participates: the same exploration
        keyed through two tenants' store handles never shares rows.
        """
        if self.base_fp is None:
            self.base_fp = base_fingerprint(
                self.pruner.netlist, self.pruner.evaluator,
                namespace=self.store.namespace)
        return self.base_fp

    def grid_key(self) -> str:
        """Content key of this exploration's finished design list."""
        return grid_key(self.base_key(), self.pruner.tau_grid)

    def shards(self) -> list[tuple[float, ...]]:
        """The tau grid partitioned into checkpoint units, in order."""
        taus = [float(t) for t in self.pruner.tau_grid]
        size = self.shard_size
        return [tuple(taus[i:i + size]) for i in range(0, len(taus), size)]

    def _preload_memo(self) -> int:
        """Seed the pruner's record memo from the store's variants.

        Keys enter in the sorted-id byte form every walk uses, so a
        stored variant is a memo hit on either engine.
        """
        stored = self.store.variants_for_base(self.base_key())
        for ids, record in stored.items():
            self.pruner._record_memo.setdefault(prune_key_bytes(ids),
                                                record)
        return len(stored)

    def run(self, resume: bool = True,
            on_shard=None,
            report: JobReport | None = None) -> list[PrunedDesign]:
        """Explore, resuming from checkpoints; returns the design list.

        ``on_shard(index, n_shards)`` fires after each shard is safely
        checkpointed — the kill-and-resume tests (and any progress UI)
        hook in here.  ``resume=False`` discards the stored grid *and*
        any checkpoints first, forcing a full recomputation.
        """
        start = time.perf_counter()
        gkey = self.grid_key()
        if report is None:
            report = JobReport(gkey)
        report.grid_key = gkey

        with _span("job.run", grid_key=gkey[:12]):
            return self._run(resume, on_shard, report, gkey, start)

    def load_shard(self, index: int, taus: tuple) -> tuple[list, list] | None:
        """One checkpointed shard's ``(chains, rows)``, or ``None``.

        A checkpoint only counts when its tau partition matches —
        anything else (a different shard size from an earlier run)
        recomputes rather than assembling the wrong grid.
        """
        stored = self.store.get_shard(self.grid_key(), index)
        if stored is None or tuple(stored[0]) != taus:
            return None
        return _deserialize_rows(stored[1])

    def compute_shard(self, index: int, taus: tuple,
                      fence: tuple | None = None) -> tuple[list, list]:
        """Walk and checkpoint one shard (the fleet work unit).

        Everything a shard produces is durable before this returns: one
        store transaction writes the checkpoint row *and* the fresh
        variant records.  Idempotent — recomputing an
        already-checkpointed shard overwrites it with identical content
        (chains are pure functions of their inputs), which is what lets
        lease-based workers and job-level retries share this method
        without coordination beyond the store.

        ``fence`` is a ``(worker, token)`` pair from the worker's lease:
        the store rejects the write when the lease was reclaimed, and
        nothing lands, so a zombie worker can never land stale rows.
        """
        with _span("job.shard", index=index, n_taus=len(taus)):
            fault_point("job.shard", index=index)
            chains, rows = self.pruner.chain_rows(taus)
            self.store.put_shard(self.grid_key(), index, taus,
                                 _serialize_rows(chains, rows),
                                 self.base_key(), fence=fence)
        _metric("job.shards", result="computed")
        return chains, rows

    def _run(self, resume, on_shard, report: JobReport, gkey: str,
             start: float) -> list[PrunedDesign]:
        if not resume:
            self.store.delete_grid(gkey)

        cached = self.store.get_grid(gkey)
        if cached is not None:
            report.grid_hit = True
            report.runtime_s = time.perf_counter() - start
            return cached
        report.variants_preloaded = self._preload_memo()

        def count_retry(*_retry) -> None:
            report.shards_retried += 1
            _metric("job.shard_retries")

        shards = self.shards()
        report.n_shards = len(shards)
        all_chains: list = []
        all_rows: list = []
        for index, taus in enumerate(shards):
            loaded = self.load_shard(index, taus) if resume else None
            if loaded is not None:
                chains, rows = loaded
                report.shards_loaded += 1
                _metric("job.shards", result="loaded")
            else:
                chains, rows = retry_call(
                    partial(self.compute_shard, index, taus), SHARD_RETRY,
                    on_retry=count_retry)
                report.shards_computed += 1
            all_chains.extend(chains)
            all_rows.extend(rows)
            if on_shard is not None:
                on_shard(index, len(shards))

        designs = self.finalize(all_chains, all_rows)
        report.engine_fallbacks = len(self.pruner.fallbacks)
        report.fault_events = list(self.pruner.fallbacks)
        report.runtime_s = time.perf_counter() - start
        return designs

    def finalize(self, all_chains: list,
                 all_rows: list) -> list[PrunedDesign]:
        """Assemble the design list from all shards and store the grid.

        Shared by :meth:`run` and the lease-based fleet workers
        (:mod:`repro.service.leases`): whoever holds every shard's rows
        assembles.  The grid write also deletes the grid's checkpoints
        and leases, in the same transaction.  Idempotent — assembly is
        a pure function of the rows in grid order, so two workers racing
        to finalize write the identical grid row.
        """
        fault_point("job.assemble")
        designs = assemble_designs(all_chains, all_rows)
        self.store.put_grid(self.grid_key(), designs, meta={
            "label": self.label,
            "base_key": self.base_key(),
            "tau_grid": [float(t) for t in self.pruner.tau_grid],
            "n_designs": len(designs),
            **(self.grid_meta or {}),
        })
        return designs
