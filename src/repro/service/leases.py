"""Lease-based fleet claiming: shards as a concurrent work unit.

The sharded :class:`~repro.service.jobs.ExplorationJob` made shards the
*crash-safety* unit — a killed run resumes from its checkpoints.  This
module promotes them to a *fleet work unit*: N independent worker
processes drain one grid's shards concurrently against one shared
store, coordinating purely through the ``shard_leases`` table (no
sockets, no coordinator process — SQLite's WAL serialization is the
transport, matching the store's existing concurrency model).

Lease lifecycle
---------------
A worker **claims** a missing shard by upserting a ``(grid_key, shard,
worker, heartbeat, expiry)`` row; the upsert only replaces a row whose
lease has expired (or the worker's own), and the claim is verified
inside the same transaction — two workers racing for one shard can
never both win.  While computing, the holder's lease carries an expiry
``ttl_s`` in the future; a finished shard **releases** its lease (its
durable checkpoint is now the ownership record).  A worker that dies
mid-shard simply stops heartbeating: once the lease expires, any other
worker's claim **reclaims** the shard and recomputes it — safe because
:meth:`~repro.service.jobs.ExplorationJob.compute_shard` is idempotent
(chains are pure functions of their inputs, and a shard's one
checkpoint-and-variants write is last/first-writer-wins with identical
content).

``ttl_s`` must exceed the worst-case shard compute time, or a merely
*slow* worker gets its shard stolen and executed twice — still correct
(identical rows), but wasted work; the default is generous for
tier-1-sized grids.

Completion: whichever worker's pass holds every shard's rows assembles
the design list and stores the grid
(:meth:`~repro.service.jobs.ExplorationJob.finalize`, a pure function
of the rows — racing finalizers write identical grids).  The grid write
deletes the grid's checkpoints and leases in the same transaction, and
a claim on a finished grid always loses, so a worker that missed the
grid by a moment loses every claim and picks the grid up on its next
pass instead of recomputing it.  The final design list is
byte-identical to a single-process run by the same argument that makes
kill-and-resume exact.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .jobs import ExplorationJob
from .store import DesignStore, FencedWriteError
from .telemetry import counter as _metric
from .telemetry import span as _span

__all__ = ["DEFAULT_LEASE_TTL_S", "FleetReport", "LeaseManager",
           "run_fleet_worker"]

# Generous against tier-1 shard compute times: reclamation is for dead
# workers, not slow ones (a stolen live shard is wasted work, never an
# incorrect result).
DEFAULT_LEASE_TTL_S = 300.0


@dataclass
class LeaseManager:
    """One worker's handle on one grid's shard leases.

    Thin policy layer over the store's lease primitives — claim,
    heartbeat, release, and visibility into which shards are stale
    (expired leases left by dead workers, reclaimable by anyone).
    """

    store: DesignStore
    grid_key: str
    worker: str
    ttl_s: float = DEFAULT_LEASE_TTL_S
    tokens: dict = field(default_factory=dict)

    def claim(self, shard: int) -> bool:
        """Claim one shard (reclaims expired leases atomically).

        A successful claim records the lease's fencing token; it rides
        along on every subsequent renew and shard upload for this
        ownership span, so a reclaimed (zombie) holder can never land a
        stale write.
        """
        token = self.store.claim_lease(self.grid_key, shard, self.worker,
                                       self.ttl_s)
        if token:
            self.tokens[shard] = int(token)
        return bool(token)

    def renew(self, shard: int) -> bool:
        """Heartbeat a held shard; ``False`` means the lease was lost."""
        return self.store.renew_lease(self.grid_key, shard, self.worker,
                                      self.ttl_s,
                                      token=self.tokens.get(shard))

    def release(self, shard: int) -> None:
        self.tokens.pop(shard, None)
        self.store.release_lease(self.grid_key, shard, self.worker)

    def fence(self, shard: int) -> tuple:
        """``(worker, token)`` to stamp on this shard's checkpoint write."""
        return (self.worker, self.tokens.get(shard, 0))

    @contextmanager
    def guarding(self, shard: int):
        """Hold-open hook around one shard's compute (local no-op).

        Remote lease managers run a heartbeat thread here so a long
        compute outlives its TTL; the local SQLite fleet relies on a
        generous ``ttl_s`` instead.
        """
        yield

    def held(self) -> set[int]:
        """Shards this worker currently holds an unexpired lease on."""
        now = time.time()
        return {shard for shard, info
                in self.store.leases_for_grid(self.grid_key).items()
                if info["worker"] == self.worker and info["expiry"] > now}

    def stale(self) -> set[int]:
        """Shards whose lease expired (dead holders, reclaimable)."""
        now = time.time()
        return {shard for shard, info
                in self.store.leases_for_grid(self.grid_key).items()
                if info["expiry"] <= now}


@dataclass
class FleetReport:
    """What one fleet worker actually did (the fleet-side JobReport)."""

    worker: str
    grid_key: str = ""
    n_shards: int = 0
    shards_computed: list = field(default_factory=list)
    claims_lost: int = 0
    fenced: int = 0
    waits: int = 0
    grid_hit: bool = False
    finalized: bool = False
    runtime_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "worker": self.worker,
            "grid_key": self.grid_key,
            "n_shards": self.n_shards,
            "shards_computed": list(self.shards_computed),
            "claims_lost": self.claims_lost,
            "fenced": self.fenced,
            "waits": self.waits,
            "grid_hit": self.grid_hit,
            "finalized": self.finalized,
            "runtime_s": self.runtime_s,
        }


def run_fleet_worker(job: ExplorationJob, worker_id: str,
                     ttl_s: float = DEFAULT_LEASE_TTL_S,
                     poll_s: float = 0.2,
                     max_wait_s: float = 600.0):
    """Drain one grid's shards cooperatively; returns ``(designs, report)``.

    Every worker of a fleet runs this same loop against the same store:

    1. a finished grid in the store ends the run immediately (grid hit);
    2. otherwise sweep the shard list — load checkpointed shards, lease
       missing ones, compute what was claimed (releasing the lease once
       the checkpoint is durable); expired leases of dead workers are
       reclaimed by the claim upsert itself, and a claim on a grid a
       peer already finished loses;
    3. when the pass holds every shard's rows, assemble and store the
       grid (one transaction that also retires the grid's checkpoints
       and leases) — racing finalizers write identical content;
    4. shards leased to live peers are waited out (``poll_s`` between
       passes, bounded by ``max_wait_s`` — a fleet where every peer died
       *and* left unexpired leases should fail loudly, not hang).

    The designs returned are byte-identical to a single-process
    :meth:`~repro.service.jobs.ExplorationJob.run` of the same grid.
    """
    store, gkey = job.store, job.grid_key()
    report = FleetReport(worker=worker_id, grid_key=gkey)
    start = time.perf_counter()
    shards = job.shards()
    report.n_shards = len(shards)
    # Stores that front a remote coordinator supply their own manager
    # (heartbeat thread, HTTP-side fencing); plain stores get the local
    # SQLite one.  Duck-typed so RemoteStore needs no import from here.
    factory = getattr(store, "make_lease_manager", None)
    lease = (factory(gkey, worker_id, ttl_s) if factory is not None
             else LeaseManager(store, gkey, worker_id, ttl_s))
    deadline = time.monotonic() + max_wait_s
    preloaded = False

    def take(index: int, taus: tuple):
        """Claim and compute one missing shard; its rows, or ``None``."""
        nonlocal preloaded
        if not lease.claim(index):
            # A live peer holds it, or the grid is finished.
            report.claims_lost += 1
            return None
        # Won the race for a shard another worker may have just
        # finished — re-check under the lease before computing.
        loaded = job.load_shard(index, taus)
        if loaded is not None:
            lease.release(index)
            return loaded
        if not preloaded:
            # Seed the record memo once, lazily: a worker that only
            # ever loads checkpoints never pays for it.
            job._preload_memo()
            preloaded = True
        try:
            with lease.guarding(index):
                computed = job.compute_shard(index, taus,
                                             fence=lease.fence(index))
        except FencedWriteError:
            # The lease was reclaimed mid-compute and the store refused
            # the stale write: nothing landed, the shard belongs to a
            # peer now.  (The release below only deletes our own row,
            # so the peer's lease is untouched.)
            report.fenced += 1
            return None
        finally:
            lease.release(index)
        report.shards_computed.append(index)
        _metric("fleet.shards_computed")
        return computed

    # Claim/renew/reclaim counters live in the store's lease
    # transactions (the only place a reclaim is detectable atomically);
    # this span times the whole drain loop of one worker.
    with _span("fleet.worker", worker=worker_id, grid_key=gkey[:12]):
        while True:
            cached = store.get_grid(gkey)
            if cached is not None:
                report.grid_hit = True
                report.runtime_s = time.perf_counter() - start
                return cached, report

            computed = len(report.shards_computed)
            parts = []  # each shard's (chains, rows); None while missing
            for index, taus in enumerate(shards):
                loaded = job.load_shard(index, taus)
                parts.append(loaded if loaded is not None
                             else take(index, taus))

            if all(part is not None for part in parts):
                designs = job.finalize(
                    [chain for chains, _ in parts for chain in chains],
                    [row for _, rows in parts for row in rows])
                report.finalized = True
                report.runtime_s = time.perf_counter() - start
                return designs, report

            if len(report.shards_computed) == computed:
                if time.monotonic() > deadline:
                    raise TimeoutError(
                        f"fleet worker {worker_id!r}: grid {gkey[:12]} "
                        f"still has unfinished shards after "
                        f"{max_wait_s:.0f}s (peers holding leases may "
                        "have hung; lower ttl_s to let the fleet "
                        "reclaim them)")
                report.waits += 1
                _metric("fleet.waits")
                time.sleep(poll_s)

