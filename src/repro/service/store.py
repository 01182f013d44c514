"""Content-addressed design store (SQLite).

The exploration service memoizes *everything it ever evaluated* so that
repeated or overlapping explorations become lookups:

* **variants** — one row per evaluated pruned design, keyed by a stable
  content hash of (base netlist, evaluator inputs, pruned-gate set);
* **grids** — one row per finished (tau_c, phi_c) exploration, keyed by
  the base fingerprint plus the tau grid, holding the full ordered
  design list;
* **shards** — checkpoints of in-flight explorations (see
  :mod:`repro.service.jobs`): a killed run resumes from the last
  finished shard.  A checkpoint lands in the same transaction as its
  shard's variants, and the grid lands in the same transaction that
  deletes the grid's checkpoints and leases.

Hash contract
-------------
A key is the SHA-256 of length-prefixed canonical-JSON parts.  The
*base fingerprint* covers the circuit structure
(:func:`~repro.hw.netlist_io.netlist_to_dict`; the bytes come from
:func:`~repro.hw.netlist_io.encode_netlist`, which writes that canonical
form straight from an ``ArrayCircuit``'s rows) and every evaluator
input that can change a record: the decode rule, the train stimulus
(it defines tau/const via switching activity), the test stimulus,
the labels, and the clock.  It deliberately **excludes** the evaluation
engine, worker count, and shard size — every engine produces
bit-identical records (the repo's core equivalence contract), so any
engine may hit any cached entry.  Records round-trip through
:meth:`~repro.eval.accuracy.EvaluationRecord.to_dict` exactly (shortest
-repr floats), which is what makes ``cached == fresh`` hold
bit-for-bit; the service tests pin that identity on real grids.

Concurrency: a store handle holds one connection per process and
thread that uses it, opened on first use with WAL journaling and a
generous busy timeout, so concurrent shard writers (threads or
processes) serialize at the SQLite layer instead of corrupting each
other.  Every operation is one transaction on the caller's held
connection; a forked child opens its own instead of touching the
parent's, and dropping the store closes its connections at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
import warnings
import weakref
from contextlib import closing
from pathlib import Path

import numpy as np

from ..core.coeff_approx import ApproximatedSum
from ..core.pruning import PrunedDesign, prune_key_bytes, prune_key_ids
from ..eval.accuracy import EvaluationRecord
from ..hw.netlist_io import encode_netlist
from .faults import fault_point
from .retry import RetryPolicy, retry_call
from .telemetry import counter as _metric
from .telemetry import observe as _observe

__all__ = [
    "DesignStore",
    "FencedWriteError",
    "approximate_model_cached",
    "build_coeff_netlist_cached",
    "canonical_json",
    "coeff_key",
    "coeff_netlist_key",
    "content_key",
    "model_fingerprint",
    "open_store",
    "netlist_fingerprint",
    "evaluator_fingerprint",
    "base_fingerprint",
    "grid_key",
    "variant_key",
    "design_to_dict",
    "design_from_dict",
    "designs_from_text",
]

# Bump when the schema or any fingerprint input changes; formats this
# build cannot migrate are rejected loudly instead of silently missing
# every lookup.
# 2: base fingerprints include the exploration identity mode (one mode
#    remains, and its literal "exact" is still hashed), and the
#    coeff_cache table memoizes coefficient-approximation results.
# 3: coefficient-approximated *netlists* are content-addressed
#    (coeff_netlists table) so warm cross-layer sweeps skip the bespoke
#    rebuild, and both coefficient tables carry hit counters
#    (``repro store stats`` observability).
# 4: shard_leases table — shards become a claimable fleet work unit
#    (see :mod:`repro.service.leases`), with per-worker heartbeats and
#    stale-lease reclamation.
# 5: leases carry a monotonic fencing token (store_meta 'fence'
#    counter): a reclaimed worker's late shard upload is rejected with
#    :class:`FencedWriteError` instead of silently landing — the
#    write-safety half of the multi-host coordinator protocol.
# 6: coeff_netlists keeps each circuit's fingerprint, not its netlist
#    text: the circuit is rebuilt on first contact and checked against
#    the fingerprint.  A format-5 file migrates in place on open.
STORE_FORMAT = 6

_SCHEMA = """
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS variants (
    key        TEXT PRIMARY KEY,
    base_key   TEXT NOT NULL,
    prune_ids  TEXT NOT NULL,
    record     TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_variants_base ON variants(base_key);
CREATE TABLE IF NOT EXISTS grids (
    key        TEXT PRIMARY KEY,
    designs    TEXT NOT NULL,
    meta       TEXT NOT NULL,
    n_designs  INTEGER NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    grid_key   TEXT NOT NULL,
    shard      INTEGER NOT NULL,
    taus       TEXT NOT NULL,
    payload    TEXT NOT NULL,
    created_at REAL NOT NULL,
    PRIMARY KEY (grid_key, shard)
);
CREATE TABLE IF NOT EXISTS coeff_cache (
    key        TEXT PRIMARY KEY,
    payload    TEXT NOT NULL,
    hits       INTEGER NOT NULL DEFAULT 0,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS coeff_netlists (
    key         TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS shard_leases (
    grid_key   TEXT NOT NULL,
    shard      INTEGER NOT NULL,
    worker     TEXT NOT NULL,
    heartbeat  REAL NOT NULL,
    expiry     REAL NOT NULL,
    created_at REAL NOT NULL,
    token      INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (grid_key, shard)
);
"""

# Bounded retry for busy/locked errors that outlive SQLite's own busy
# timeout (a writer hung mid-transaction, a filesystem hiccup): short
# capped-exponential backoff, then surface the real error.  Jitter is
# off so fault-schedule replays stay exactly deterministic; the HTTP
# coordinator client layers jitter on the same policy type.
_RETRY_POLICY = RetryPolicy(attempts=5, base_s=0.05, cap_s=1.0,
                            jitter="none")

# OperationalError text that marks a *transient* contention failure (vs
# a structural one like "unable to open database file").
_TRANSIENT_MARKERS = ("locked", "busy")

# DatabaseError text that marks on-disk corruption worth quarantining.
_CORRUPT_MARKERS = ("not a database", "malformed", "corrupt")

# Connections a forked child inherited from its parent: parked here
# when the child's store handle dies, so that freeing them never closes
# the parent's SQLite handles from the child.
_INHERITED: list = []


def _transient(exc: Exception) -> bool:
    """Busy/locked contention, worth a retry on the same connection."""
    if not isinstance(exc, sqlite3.OperationalError):
        return False
    text = str(exc).lower()
    return any(marker in text for marker in _TRANSIENT_MARKERS)


def _close_all(cons: dict) -> None:
    """Close this process's held connections (a store's finalizer).

    ``sqlite3.Connection`` sits in a reference cycle through its
    statement cache, so without an explicit close only the cyclic GC
    would release the file.  Connections of other pids were inherited
    through a fork and are parked, never closed.
    """
    pid = os.getpid()
    for (owner, _thread), con in list(cons.items()):
        if owner == pid:
            con.close()
        else:
            _INHERITED.append(con)
    cons.clear()


class FencedWriteError(RuntimeError):
    """A shard upload carried a stale fencing token and was rejected.

    Raised by :meth:`DesignStore.put_shard` (and surfaced as HTTP 409
    by the coordinator) when the uploader's lease was reclaimed — the
    zombie's write never mutates the store.
    """


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, shortest floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(*parts) -> str:
    """SHA-256 hex digest of length-prefixed canonical parts.

    Strings hash as UTF-8, bytes as-is, everything else through
    :func:`canonical_json`.  Length prefixes make the framing
    unambiguous (no concatenation collisions between parts).
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            blob = part.encode("utf-8")
        elif isinstance(part, (bytes, bytearray)):
            blob = bytes(part)
        else:
            blob = canonical_json(part).encode("utf-8")
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


def _array_digest(arr: np.ndarray) -> list:
    """Shape/dtype/bytes summary of one stimulus array (hash input)."""
    arr = np.ascontiguousarray(arr)
    return [list(arr.shape), arr.dtype.str,
            hashlib.sha256(arr.tobytes()).hexdigest()]


def _payload_digest(payload: dict) -> dict:
    return {name: _array_digest(np.asarray(arr))
            for name, arr in sorted(payload.items())}


def netlist_fingerprint(nl) -> str:
    """Content hash of a circuit's structure, ports, and pruning meta.

    ``nl`` is an :class:`~repro.hw.synthesis.ArrayCircuit`.  The hashed
    bytes are the canonical JSON of
    :func:`~repro.hw.netlist_io.netlist_to_dict`.  The cosmetic
    ``name`` is excluded: logically
    identical circuits built through different entry points (the CLI,
    the framework, a bench script) must resolve to the same content key
    or the store would recompute across them instead of deduplicating.
    """
    return content_key("netlist", encode_netlist(nl).canonical)


def evaluator_fingerprint(evaluator) -> str:
    """Content hash of every evaluator input that can change a record.

    Covers the decode rule, both stimulus payloads, the labels, and the
    clock; excludes the engine selector (all engines are bit-identical
    by contract) and caches.
    """
    decode = evaluator.decode
    decode_part = {
        "kind": decode.kind,
        "classes": None if decode.classes is None
        else _array_digest(np.asarray(decode.classes)),
        "y_min": decode.y_min,
        "y_max": decode.y_max,
        "output_scale": decode.output_scale,
    }
    return content_key(
        "evaluator", decode_part,
        _payload_digest(evaluator.train_inputs),
        _payload_digest(evaluator.test_inputs),
        _array_digest(np.asarray(evaluator.y_test)),
        {"clock_ms": evaluator.clock_ms})


def base_fingerprint_from_parts(netlist_fp: str, evaluator_fp: str,
                                namespace: str = "") -> str:
    """:func:`base_fingerprint` from precomputed part fingerprints.

    The warm service path resolves grid keys from the *stored* netlist
    fingerprint (``coeff_netlists.fingerprint``) without deserializing
    or rebuilding the circuit — a warm request is then a pure lookup.

    ``namespace`` isolates tenants that share one store file: a
    non-empty namespace is folded into the key metadata, so two tenants
    can never alias each other's grids or variants.  The empty default
    hashes exactly as before the parameter existed — keys in every
    pre-namespace store stay valid.
    """
    # The exploration once had a second record-identity mode, and its
    # name was hashed into every key.  Only "exact" remains; hashing the
    # literal keeps every existing key valid without a store migration.
    meta = {"identity": "exact"}
    if namespace:
        meta["namespace"] = namespace
    return content_key("base", netlist_fp, evaluator_fp, meta)


def base_fingerprint(netlist, evaluator, namespace: str = "") -> str:
    """The (circuit, evaluation context) identity all keys derive from.

    ``namespace`` is the store's tenant namespace (see
    :class:`DesignStore`).
    """
    return base_fingerprint_from_parts(netlist_fingerprint(netlist),
                                       evaluator_fingerprint(evaluator),
                                       namespace)


def grid_key(base_key: str, tau_grid) -> str:
    """Key of one finished exploration: base + the tau sweep."""
    return content_key("grid", base_key,
                       [float(tau_c) for tau_c in tau_grid])


def variant_key(base_key: str, ids) -> str:
    """Key of one evaluated variant: base + canonical pruned-gate ids."""
    return content_key("variant", base_key,
                       [int(i) for i in ids])


def design_to_dict(design: PrunedDesign) -> dict:
    """JSON-safe form of one design row (exact float round-trip)."""
    return {
        "tau_c": design.tau_c,
        "phi_c": design.phi_c,
        "n_pruned": design.n_pruned,
        "record": design.record.to_dict(),
        "duplicate_of": None if design.duplicate_of is None
        else [design.duplicate_of[0], design.duplicate_of[1]],
    }


def coeff_key(model, approximator) -> str:
    """Content key of one coefficient-approximation run.

    Covers exactly the inputs of
    :meth:`~repro.core.coeff_approx.CoefficientApproximator.approximate_model`:
    every weighted sum's (layer, unit, coefficients, input width) plus
    the search radius, strategy, and coefficient word length.  The
    bespoke-multiplier library is derived deterministically from
    ``coeff_bits``, so it contributes no extra entropy.
    """
    specs = [[spec.layer, spec.unit, [int(w) for w in spec.coefficients],
              spec.input_bits] for spec in model.weighted_sums()]
    return content_key("coeff", specs,
                       {"e": approximator.e,
                        "strategy": approximator.strategy,
                        "coeff_bits": approximator.coeff_bits})


def approximate_model_cached(approximator, model, store: "DesignStore"):
    """``approximate_model`` through the store's coefficient cache.

    A warm hit skips the per-coefficient area search entirely and
    rebuilds the identical ``(approximated model, reports)`` pair —
    ``approximate_model`` is deterministic and every payload field
    round-trips exactly, so cached == fresh is strict equality (the
    coefficient-axis analogue of the variant store's hit identity).
    """
    key = coeff_key(model, approximator)
    payload = store.get_coeff(key)
    specs = model.weighted_sums()
    if payload is not None and len(payload) == len(specs):
        updates = {}
        reports = []
        for item, spec in zip(payload, specs):
            approximated = tuple(int(w) for w in item["approximated"])
            updates[(spec.layer, spec.unit)] = approximated
            reports.append(ApproximatedSum(
                tuple(int(w) for w in item["original"]), approximated,
                int(item["error_sum"]), float(item["area_before"]),
                float(item["area_after"])))
        return model.replace_coefficients(updates), reports
    approx_model, reports = approximator.approximate_model(model)
    store.put_coeff(key, [
        {"original": list(report.original),
         "approximated": list(report.approximated),
         "error_sum": report.error_sum,
         "area_before": report.area_before,
         "area_after": report.area_after}
        for report in reports])
    return approx_model, reports


def model_fingerprint(model) -> str:
    """Content hash of everything a bespoke netlist build reads.

    Covers the integer weight matrices and biases, the per-layer shifts
    and activation widths (MLPs), the model kind, and the quantization
    configuration — the full input set of
    :func:`~repro.hw.bespoke.build_bespoke_netlist`.  Decode-only
    fields (class labels, scales, label range) are excluded: they shape
    predictions, not structure, and the evaluator fingerprint covers
    them where they matter.
    """
    weights = model.weights
    biases = model.biases
    if not isinstance(weights, list):
        weights, biases = [weights], [biases]
    return content_key(
        "quant-model",
        [_array_digest(np.asarray(w)) for w in weights],
        [_array_digest(np.asarray(b)) for b in biases],
        {
            "kind": model.kind,
            "input_bits": model.input_bits,
            "coeff_bits": getattr(model, "coeff_bits", None),
            "hidden_bits": getattr(model, "hidden_bits", None),
            "shifts": list(getattr(model, "shifts", []) or []),
            "activation_bits": list(getattr(model, "activation_bits", [])
                                    or []),
        })


def coeff_netlist_key(model, approximator) -> str:
    """Content key of one coefficient-approximated *netlist*.

    The build is a deterministic function of (model, approximation
    inputs): :func:`model_fingerprint` pins every structural model
    field and :func:`coeff_key` the approximation's own inputs, so two
    runs that share this key build circuits with one fingerprint.
    """
    return content_key("coeff-netlist", model_fingerprint(model),
                       coeff_key(model, approximator))


def build_coeff_netlist_cached(approximator, model, store: "DesignStore",
                               name: str = "coeff",
                               approx_model=None,
                               builder: str = "auto") -> tuple:
    """The coefficient-approximated circuit, checked against the store.

    Returns ``(circuit, fingerprint, hit)``; ``fingerprint`` is the
    circuit's :func:`netlist_fingerprint`, handed back so callers key
    their work without hashing the circuit again.  The circuit is
    always built, through the (cached) approximation and ``builder``
    (see :func:`~repro.hw.bespoke.build_bespoke_netlist`), so it comes
    out ``folded``.  The store keeps only the fingerprint: the first
    build records it (``hit`` is ``False``), and a later build that
    does not reproduce it raises ``ValueError`` naming the key.
    ``approx_model`` short-circuits the approximation step when the
    caller already holds it.
    """
    from ..hw.bespoke import build_bespoke_netlist  # lazy: service -> hw

    if approx_model is None:
        approx_model, _reports = approximate_model_cached(
            approximator, model, store)
    circuit = build_bespoke_netlist(approx_model, name=name, builder=builder)
    fingerprint = netlist_fingerprint(circuit)
    key = coeff_netlist_key(model, approximator)
    stored, hit = store.put_coeff_netlist(key, fingerprint)
    if stored != fingerprint:
        raise ValueError(
            f"coefficient circuit {key} rebuilds to fingerprint "
            f"{fingerprint}, but the store holds {stored}")
    return circuit, fingerprint, hit


def design_from_dict(data: dict) -> PrunedDesign:
    """Rebuild a design serialized by :func:`design_to_dict`."""
    duplicate = data["duplicate_of"]
    return PrunedDesign(
        float(data["tau_c"]), int(data["phi_c"]), int(data["n_pruned"]),
        EvaluationRecord.from_dict(data["record"]),
        None if duplicate is None
        else (float(duplicate[0]), int(duplicate[1])))


def designs_from_text(text: str) -> list[PrunedDesign]:
    """Decode a grid's stored designs text (:meth:`DesignStore.put_grid`)."""
    return [design_from_dict(d) for d in json.loads(text)]


def _serialize_rows(chains: list, rows: list) -> dict:
    """Checkpoint payload of one shard's walked chains.

    Each row is ``[phi_c, pruned-gate ids, n_pruned, record dict]``;
    :meth:`DesignStore.put_shard` reads the shard's variant rows from
    the same lists.
    """
    return {"chains": [
        {"tau_c": tau_c,
         "rows": [[phi_c, list(prune_key_ids(key)), n_pruned,
                   record.to_dict()]
                  for phi_c, key, n_pruned, record in chain_rows]}
        for (tau_c, _steps), chain_rows in zip(chains, rows)]}


def _deserialize_rows(payload: dict) -> tuple[list, list]:
    """Inverse of :func:`_serialize_rows`, keys in canonical byte form."""
    chains, rows = [], []
    for chain in payload["chains"]:
        chains.append((float(chain["tau_c"]), None))
        rows.append([(int(phi_c), prune_key_bytes(ids), int(n_pruned),
                      EvaluationRecord.from_dict(record))
                     for phi_c, ids, n_pruned, record in chain["rows"]])
    return chains, rows


class DesignStore:
    """SQLite-backed content-addressed store of evaluated designs.

    ``path`` is a filesystem path (shared WAL databases need a real
    file; use a temporary directory in tests).  The store is safe to
    share between threads and processes: each (process, thread) pair
    runs its calls on its own held connection, writes are single
    transactions, and variant inserts are idempotent (same key ⇒ same
    content, first writer wins).  The connections close as soon as the
    handle is dropped.

    ``namespace`` is a tenant label threaded into every base
    fingerprint derived *through this store handle* (the jobs/runner
    layers read ``store.namespace`` when keying work).  It is a handle
    attribute, not persisted store state: the same file opened with a
    different namespace simply resolves different keys.  The default
    ``""`` reproduces the historical keys byte-for-byte.
    """

    def __init__(self, path: str | Path, namespace: str = "") -> None:
        self.path = str(path)
        self.namespace = str(namespace)
        # (pid, thread id) -> held connection; the finalizer closes this
        # process's connections the moment the handle is dropped.
        self._cons: dict = {}
        weakref.finalize(self, _close_all, self._cons)
        parent = Path(self.path).parent
        if str(parent) not in ("", ".") and not parent.exists():
            try:
                parent.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ValueError(
                    f"cannot create design store directory {str(parent)!r}"
                    f": {exc}; pass a --store path under a writable "
                    "directory") from exc
        try:
            self._open_schema()
        except sqlite3.DatabaseError as exc:
            self._heal_or_raise(exc)
            self._open_schema()

    def __reduce__(self):
        # A pickled store is its file and namespace: the process that
        # unpickles it reopens the file on its own held connection.
        return type(self), (self.path, self.namespace)

    def _open_schema(self) -> None:
        """Create the tables and migrate a format-5 file to 6 (one
        write transaction that re-reads the format, so of two openers
        one migrates); any other format raises ``ValueError``."""
        def read_format(con):
            row = con.execute(
                "SELECT value FROM store_meta WHERE key='format'").fetchone()
            return None if row is None else int(row[0])

        def create(con):
            con.executescript(_SCHEMA)
            found = read_format(con)
            if found is None:
                con.execute(
                    "INSERT OR IGNORE INTO store_meta VALUES('format', ?)",
                    (str(STORE_FORMAT),))
            elif found == 5:
                con.execute("BEGIN IMMEDIATE")
                if read_format(con) == 5:
                    con.execute(
                        "ALTER TABLE coeff_netlists DROP COLUMN netlist")
                    con.execute(
                        "UPDATE store_meta SET value=? WHERE key='format'",
                        (str(STORE_FORMAT),))
            elif found != STORE_FORMAT:
                raise ValueError(
                    f"design store {self.path!r} has format {found}, "
                    f"this build expects {STORE_FORMAT}")
        self._with_connection("open_schema", create)

    def _heal_or_raise(self, exc: sqlite3.DatabaseError) -> None:
        """Quarantine a corrupt database file, or explain a broken path.

        Corruption (``file is not a database``, a malformed image, a
        failing ``PRAGMA integrity_check``) is recoverable: the bad file
        moves to a ``.corrupt-<n>`` sidecar — kept for post-mortems,
        never silently destroyed — and the caller rebuilds a clean
        store; every row is recomputable, so losing the cache is a
        slowdown, not data loss.  Anything else (unwritable directory,
        read-only file, a locked store that never opens) is an
        environment problem no rebuild can fix — re-raise with an
        actionable message instead of the raw sqlite error.
        """
        path = Path(self.path)
        text = str(exc).lower()
        corrupt = any(marker in text for marker in _CORRUPT_MARKERS)
        if not corrupt and path.is_file():
            # The open failed for a non-corruption reason, but the file
            # may still be damaged in a way that surfaces differently —
            # ask SQLite directly before giving up on healing.
            try:
                with closing(sqlite3.connect(self.path, timeout=5.0)) as con:
                    corrupt = con.execute(
                        "PRAGMA integrity_check(1)").fetchone()[0] != "ok"
            except sqlite3.DatabaseError:
                corrupt = True
        if not corrupt or not path.is_file():
            raise ValueError(
                f"cannot open design store at {self.path!r}: {exc}; "
                "check that the path is writable (or point --store at "
                "a fresh location)") from exc
        n = 0
        while path.with_name(f"{path.name}.corrupt-{n}").exists():
            n += 1
        quarantine = path.with_name(f"{path.name}.corrupt-{n}")
        path.rename(quarantine)
        _metric("store.quarantines")
        for suffix in ("-wal", "-shm"):
            sidecar = Path(self.path + suffix)
            if sidecar.exists():
                sidecar.rename(f"{quarantine}{suffix}")
        warnings.warn(
            f"design store {self.path!r} failed to open ({exc}); "
            f"quarantined the corrupt file to {str(quarantine)!r} and "
            "rebuilding a clean store (all rows are recomputable)",
            RuntimeWarning, stacklevel=4)

    def _open(self) -> sqlite3.Connection:
        """A new connection to the store file; the PRAGMAs run once, here.

        ``check_same_thread=False`` only lets the finalizer close it
        from whichever thread drops the store: every other use stays on
        the (process, thread) it is held for.
        """
        con = sqlite3.connect(self.path, timeout=30.0,
                              check_same_thread=False)
        try:
            con.execute("PRAGMA journal_mode=WAL")
            con.execute("PRAGMA synchronous=NORMAL")
            con.execute("PRAGMA busy_timeout=30000")
        except BaseException:
            con.close()
            raise
        return con

    def _with_connection(self, op: str, fn):
        """Run ``fn(con)`` in one transaction on the held connection.

        ``store.connect`` fires once per attempt.  Busy/locked
        ``OperationalError`` — contention that outlived the 30 s busy
        timeout, or an injected fault — rolls back and retries on the
        same connection under the shared :data:`_RETRY_POLICY` (see
        :mod:`repro.service.retry`); each attempt is a whole fresh
        transaction, so a retried write never commits twice.  Any other
        ``DatabaseError`` closes the connection (the next operation
        reopens the file) and surfaces immediately.  The whole logical
        operation, retries included, is timed on ``store.op_ms{op=}``.
        """
        def attempt():
            fault_point("store.connect", path=self.path)
            key = (os.getpid(), threading.get_ident())
            con = self._cons.get(key)
            if con is None:
                con = self._cons[key] = self._open()
            try:
                with con:
                    return fn(con)
            except sqlite3.DatabaseError as exc:
                if not _transient(exc):
                    self._cons.pop(key, None)
                    con.close()
                raise

        start = time.perf_counter()
        try:
            return retry_call(
                attempt, _RETRY_POLICY, retryable=_transient,
                on_retry=lambda _n, _exc, _delay: _metric("store.retries"))
        finally:
            _observe("store.op_ms",
                     (time.perf_counter() - start) * 1000.0, op=op)

    @staticmethod
    def _count_lookup(table: str, row) -> None:
        """Feed the per-table hit/miss counters (``/v1/metrics``)."""
        _metric("store.lookups", table=table,
                result="miss" if row is None else "hit")

    # -- variants ------------------------------------------------------

    def get_variant(self, key: str) -> EvaluationRecord | None:
        row = self._with_connection("get_variant", lambda con: con.execute(
            "SELECT record FROM variants WHERE key=?", (key,)).fetchone())
        self._count_lookup("variants", row)
        return None if row is None \
            else EvaluationRecord.from_dict(json.loads(row[0]))

    def put_variant(self, key: str, base_key: str, ids,
                    record: EvaluationRecord) -> None:
        self._with_connection("put_variant", lambda con: con.execute(
            "INSERT OR IGNORE INTO variants VALUES (?,?,?,?,?)",
            (key, base_key, canonical_json([int(i) for i in ids]),
             canonical_json(record.to_dict()), time.time())))

    def variants_for_base(self, base_key: str, after: int = 0
                          ) -> tuple[dict[tuple, EvaluationRecord], int]:
        """One base circuit's stored ``{pruned-gate ids -> record}`` rows
        past rowid ``after``, and the highest rowid read.

        ``after=0`` reads every row.  A reader that keeps what it parsed
        passes the returned rowid back and parses only the rows stored
        since; ``idx_variants_base`` serves the range, so the read costs
        the new rows, not the store.  The rowid comes back as ``after``
        when nothing new was read.  Rows keep their rowid, but SQLite
        may hand the rowids of the highest rows a ``store gc`` deleted
        to new rows: a reader that is past them misses such a row, and
        at worst re-simulates its variant (with the identical record).
        """
        rows = self._with_connection(
            "variants_for_base", lambda con: con.execute(
                "SELECT rowid, prune_ids, record FROM variants "
                "WHERE base_key=? AND rowid>?",
                (base_key, int(after))).fetchall())
        variants = {tuple(json.loads(ids)):
                    EvaluationRecord.from_dict(json.loads(record))
                    for _rowid, ids, record in rows}
        return variants, max((row[0] for row in rows), default=int(after))

    # -- grids ---------------------------------------------------------

    def get_grid_text(self, key: str) -> str | None:
        """The finished design list's stored JSON text, or ``None``.

        One ``SELECT``, counted and timed as ``get_grid``: the warm
        serving path compares this text with the one it rendered last
        (:meth:`~repro.service.runner.ExplorationService.warm_lines`).
        """
        row = self._with_connection("get_grid", lambda con: con.execute(
            "SELECT designs FROM grids WHERE key=?", (key,)).fetchone())
        self._count_lookup("grids", row)
        return None if row is None else row[0]

    def get_grid(self, key: str) -> list[PrunedDesign] | None:
        """The finished design list, or ``None`` when never completed."""
        text = self.get_grid_text(key)
        return None if text is None else designs_from_text(text)

    def put_grid(self, key: str, designs: list[PrunedDesign],
                 meta: dict | None = None) -> None:
        """Store a finished grid and retire its checkpoints and leases.

        One transaction: a grid never sits next to the stale shard
        checkpoints and leases it supersedes, and a failed write leaves
        them as they were.
        """
        payload = canonical_json([design_to_dict(d) for d in designs])

        def write(con):
            fault_point("store.put_grid", key=key)
            con.execute(
                "INSERT OR REPLACE INTO grids VALUES (?,?,?,?,?)",
                (key, payload, canonical_json(meta or {}), len(designs),
                 time.time()))
            con.execute("DELETE FROM shards WHERE grid_key=?", (key,))
            con.execute("DELETE FROM shard_leases WHERE grid_key=?",
                        (key,))
        self._with_connection("put_grid", write)

    def delete_grid(self, key: str) -> None:
        """Drop a finished grid and its checkpoints (a forced rerun)."""
        def delete(con):
            con.execute("DELETE FROM grids WHERE key=?", (key,))
            con.execute("DELETE FROM shards WHERE grid_key=?", (key,))
        self._with_connection("delete_grid", delete)

    def grid_meta(self, key: str) -> dict | None:
        row = self._with_connection("grid_meta", lambda con: con.execute(
            "SELECT meta FROM grids WHERE key=?", (key,)).fetchone())
        return None if row is None else json.loads(row[0])

    # -- shard checkpoints ---------------------------------------------

    def put_shard(self, grid_key: str, shard: int, taus, payload: dict,
                  base_key: str,
                  fence: tuple[str, int] | None = None) -> None:
        """Checkpoint one shard and store its variants, in one transaction.

        ``payload`` is a :func:`_serialize_rows` checkpoint; its rows
        become ``variants`` rows under ``base_key`` (inserts are
        idempotent: same key, same content, first writer wins).  A
        checkpoint therefore never exists without its variants.

        ``fence=(worker, token)`` verifies the write: it only lands
        while ``worker`` still holds the shard's lease under the exact
        ``token`` its claim returned; anything else (reclaimed lease,
        released lease, finalized grid) raises
        :class:`FencedWriteError` *inside the transaction* — the zombie
        writer mutates nothing.  Uploads are idempotent by content key:
        a replay after an ambiguous failure re-commits the identical
        rows.
        """
        now = time.time()
        variants = []
        for chain in payload["chains"]:
            for _phi, ids, _n, record in chain["rows"]:
                # One serialization of the ids feeds both the column and
                # the content key (bytes hash as-is, so the key equals
                # :func:`variant_key`'s).
                ids_json = canonical_json(ids)
                variants.append((
                    content_key("variant", base_key,
                                ids_json.encode("utf-8")),
                    base_key, ids_json, canonical_json(record), now))

        def write(con):
            if fence is not None:
                worker, token = fence
                row = con.execute(
                    "SELECT worker, token FROM shard_leases "
                    "WHERE grid_key=? AND shard=?",
                    (grid_key, int(shard))).fetchone()
                if row is None or row[0] != worker \
                        or int(row[1]) != int(token):
                    _metric("fleet.fenced_writes")
                    holder = "no lease" if row is None \
                        else f"lease held by {row[0]!r} (token {row[1]})"
                    raise FencedWriteError(
                        f"stale shard upload fenced: shard {shard} of "
                        f"grid {grid_key[:12]} from {worker!r} "
                        f"(token {token}), {holder}")
            fault_point("store.put_shard", grid_key=grid_key, index=shard)
            con.execute(
                "INSERT OR REPLACE INTO shards VALUES (?,?,?,?,?)",
                (grid_key, int(shard),
                 canonical_json([float(t) for t in taus]),
                 canonical_json(payload), now))
            fault_point("store.put_variants", base_key=base_key)
            con.executemany(
                "INSERT OR IGNORE INTO variants VALUES (?,?,?,?,?)",
                variants)
        self._with_connection("put_shard", write)

    def get_shard(self, grid_key: str, shard: int) -> tuple[list, dict] | None:
        """``(taus, payload)`` of one checkpointed shard, or ``None``."""
        row = self._with_connection("get_shard", lambda con: con.execute(
            "SELECT taus, payload FROM shards WHERE grid_key=? AND shard=?",
            (grid_key, int(shard))).fetchone())
        self._count_lookup("shards", row)
        if row is None:
            return None
        return json.loads(row[0]), json.loads(row[1])

    def shard_indices(self, grid_key: str) -> set[int]:
        rows = self._with_connection("shard_indices", lambda con: con.execute(
            "SELECT shard FROM shards WHERE grid_key=?",
            (grid_key,)).fetchall())
        return {row[0] for row in rows}

    # -- shard leases ---------------------------------------------------
    #
    # The low-level SQL of the fleet protocol; policy (claim order,
    # heartbeats, reclamation loops) lives in
    # :mod:`repro.service.leases`.  Claims are atomic: the upsert only
    # replaces a row whose lease expired (or our own), and the
    # SELECT-verify runs inside the same transaction, so two workers
    # racing for one shard can never both see themselves as holder.

    def claim_lease(self, grid_key: str, shard: int, worker: str,
                    ttl_s: float, now: float | None = None) -> int:
        """Try to claim one shard; the lease's fencing token, or 0.

        A win returns the positive monotonic **fencing token** the
        claim carries (truthy — callers may keep treating the result as
        a boolean); a loss returns 0.  A fresh acquisition (new row, or
        a reclaim from another worker) draws a new token from the
        store-wide counter; the holder re-claiming its own live lease
        keeps its token — so a token uniquely identifies one ownership
        span, which is what :meth:`put_shard`'s fence checks against.
        A finished grid has nothing left to claim: once its row exists,
        every claim loses.
        """
        now = time.time() if now is None else now

        def claim(con):
            fault_point("store.lease", grid_key=grid_key, index=shard,
                        worker=worker)
            if con.execute("SELECT 1 FROM grids WHERE key=?",
                           (grid_key,)).fetchone() is not None:
                _metric("lease.claims", result="lost")
                return 0
            prior = con.execute(
                "SELECT worker, expiry, token FROM shard_leases "
                "WHERE grid_key=? AND shard=?",
                (grid_key, int(shard))).fetchone()
            con.execute(
                "INSERT INTO shard_leases VALUES (?,?,?,?,?,?,0) "
                "ON CONFLICT(grid_key, shard) DO UPDATE SET "
                "worker=excluded.worker, heartbeat=excluded.heartbeat, "
                "expiry=excluded.expiry "
                "WHERE shard_leases.expiry <= excluded.heartbeat "
                "OR shard_leases.worker = excluded.worker",
                (grid_key, int(shard), worker, now, now + float(ttl_s),
                 now))
            row = con.execute(
                "SELECT worker, token FROM shard_leases "
                "WHERE grid_key=? AND shard=?",
                (grid_key, int(shard))).fetchone()
            won = row is not None and row[0] == worker
            _metric("lease.claims", result="won" if won else "lost")
            if not won:
                return 0
            if prior is not None and prior[0] == worker \
                    and int(prior[2]) > 0:
                return int(prior[2])  # our own live lease: same span
            if prior is not None and prior[0] != worker \
                    and prior[1] <= now:
                _metric("lease.reclaims")
            con.execute(
                "INSERT INTO store_meta VALUES ('fence', '1') "
                "ON CONFLICT(key) DO UPDATE SET "
                "value=CAST(value AS INTEGER)+1")
            token = int(con.execute(
                "SELECT value FROM store_meta WHERE key='fence'"
            ).fetchone()[0])
            con.execute(
                "UPDATE shard_leases SET token=? "
                "WHERE grid_key=? AND shard=?",
                (token, grid_key, int(shard)))
            return token
        return self._with_connection("claim_lease", claim)

    def renew_lease(self, grid_key: str, shard: int, worker: str,
                    ttl_s: float, now: float | None = None,
                    token: int | None = None) -> bool:
        """Heartbeat one held lease; ``False`` when it was lost.

        With ``token``, the heartbeat additionally requires the lease
        to still be the same ownership span the token names — a worker
        whose lease was reclaimed and then (improbably) re-claimed
        under its own id still learns it lost the original span.
        """
        now = time.time() if now is None else now

        def renew(con):
            fault_point("store.lease", grid_key=grid_key, index=shard,
                        worker=worker)
            fence_sql, fence_args = "", ()
            if token is not None:
                fence_sql, fence_args = " AND token=?", (int(token),)
            cursor = con.execute(
                "UPDATE shard_leases SET heartbeat=?, expiry=? "
                "WHERE grid_key=? AND shard=? AND worker=?" + fence_sql,
                (now, now + float(ttl_s), grid_key, int(shard), worker,
                 *fence_args))
            renewed = cursor.rowcount == 1
            _metric("lease.renewals", result="ok" if renewed else "lost")
            return renewed
        return self._with_connection("renew_lease", renew)

    def release_lease(self, grid_key: str, shard: int, worker: str) -> None:
        self._with_connection("release_lease", lambda con: con.execute(
            "DELETE FROM shard_leases "
            "WHERE grid_key=? AND shard=? AND worker=?",
            (grid_key, int(shard), worker)))

    def leases_for_grid(self, grid_key: str) -> dict[int, dict]:
        """``{shard -> {worker, heartbeat, expiry, token}}`` (all rows)."""
        rows = self._with_connection(
            "leases_for_grid", lambda con: con.execute(
                "SELECT shard, worker, heartbeat, expiry, token "
                "FROM shard_leases WHERE grid_key=?", (grid_key,)).fetchall())
        return {int(shard): {"worker": worker, "heartbeat": heartbeat,
                             "expiry": expiry, "token": int(token)}
                for shard, worker, heartbeat, expiry, token in rows}

    # -- coefficient-approximation cache -------------------------------

    def _count_hit(self, con: sqlite3.Connection, table: str,
                   key: str) -> None:
        """Best-effort hit-counter bump; reads stay usable on stores
        the process cannot write (read-only mounts, foreign files)."""
        try:
            con.execute(f"UPDATE {table} SET hits=hits+1 WHERE key=?",
                        (key,))
        except sqlite3.OperationalError:
            pass  # read-only database: serve the hit, skip the count

    def get_coeff(self, key: str) -> list | None:
        """Cached per-sum approximation payload, or ``None``.

        A hit bumps the row's counter (``stats()`` reports the totals —
        the cheap answer to "are warm sweeps actually warm?").
        """
        def read(con):
            row = con.execute("SELECT payload FROM coeff_cache WHERE key=?",
                              (key,)).fetchone()
            if row is not None:
                self._count_hit(con, "coeff_cache", key)
            return row
        row = self._with_connection("get_coeff", read)
        self._count_lookup("coeff_cache", row)
        return None if row is None else json.loads(row[0])

    def put_coeff(self, key: str, payload: list) -> None:
        self._with_connection("put_coeff", lambda con: con.execute(
            "INSERT OR IGNORE INTO coeff_cache(key, payload, created_at)"
            " VALUES (?,?,?)",
            (key, canonical_json(payload), time.time())))

    # -- coefficient-approximated netlists -----------------------------

    def put_coeff_netlist(self, key: str,
                          fingerprint: str) -> tuple[str, bool]:
        """Record one approximated circuit's fingerprint, first writer
        wins; returns the stored fingerprint and whether it was there.

        An existing row is a hit: its counter goes up, and the caller
        checks its rebuild against the fingerprint handed back.
        """
        def write(con):
            inserted = con.execute(
                "INSERT OR IGNORE INTO coeff_netlists"
                "(key, fingerprint, created_at) VALUES (?,?,?)",
                (key, fingerprint, time.time())).rowcount
            if inserted:
                return fingerprint, False
            self._count_hit(con, "coeff_netlists", key)
            return con.execute(
                "SELECT fingerprint FROM coeff_netlists WHERE key=?",
                (key,)).fetchone()[0], True
        stored, hit = self._with_connection("put_coeff_netlist", write)
        self._count_lookup("coeff_netlists", stored if hit else None)
        return stored, hit

    def get_coeff_netlist_fingerprint(self, key: str) -> str | None:
        """The stored fingerprint of one approximated circuit, or ``None``."""
        row = self._with_connection(
            "get_coeff_netlist_fingerprint", lambda con: con.execute(
                "SELECT fingerprint FROM coeff_netlists WHERE key=?",
                (key,)).fetchone())
        return None if row is None else row[0]

    # -- garbage collection --------------------------------------------

    def gc(self, keep_days: float = 30.0, dry_run: bool = False,
           now: float | None = None) -> dict:
        """Delete unreachable old rows, then ``VACUUM``; returns a report.

        The store only ever grows in normal operation; ``gc`` trims it:

        * **grids** older than ``keep_days`` are dropped (their design
          lists are recomputable — and usually re-derivable from the
          surviving variants at warm-ish speed);
        * **variants** are dropped when they are older than
          ``keep_days`` *and* unreachable — no surviving grid manifest
          references their base fingerprint (recent variants stay even
          without a grid: they may belong to an in-flight run);
        * **coefficient netlist fingerprints** follow the same
          reachability rule through the grids' ``coeff_netlist_key``
          metadata: a stale row survives while any surviving grid was
          explored on its circuit (deleting it would make those grids'
          warm re-sweeps rebuild the circuit to key them);
        * orphaned **shard checkpoints** and **coefficient-cache** rows
          older than the cutoff are dropped.

        ``dry_run`` only reports what would be deleted.  ``now`` is an
        injectable clock for tests.  The report carries the database
        size before/after (``VACUUM`` reclaims the pages).
        """
        cutoff = (time.time() if now is None else now) \
            - keep_days * 86400.0
        path = Path(self.path)
        report = {
            "dry_run": bool(dry_run),
            "keep_days": float(keep_days),
            "db_bytes_before": path.stat().st_size if path.exists() else 0,
        }

        def sweep(con):
            stale_grids = [row[0] for row in con.execute(
                "SELECT key FROM grids WHERE created_at < ?",
                (cutoff,))]
            live_bases = {row[0] for row in con.execute(
                "SELECT json_extract(meta, '$.base_key') FROM grids "
                "WHERE created_at >= ?", (cutoff,)) if row[0]}
            placeholders = ",".join("?" * len(live_bases))
            base_filter = (
                f" AND base_key NOT IN ({placeholders})"
                if live_bases else "")
            stale_variants = con.execute(
                "SELECT COUNT(*) FROM variants WHERE created_at < ?"
                + base_filter, (cutoff, *live_bases)).fetchone()[0]
            stale_shards = con.execute(
                "SELECT COUNT(*) FROM shards WHERE created_at < ?",
                (cutoff,)).fetchone()[0]
            # Leases expire on their own clock (seconds, not days):
            # anything past its expiry is a dead worker's leftovers.
            lease_now = time.time() if now is None else now
            stale_leases = con.execute(
                "SELECT COUNT(*) FROM shard_leases WHERE expiry <= ?",
                (lease_now,)).fetchone()[0]
            stale_coeff = con.execute(
                "SELECT COUNT(*) FROM coeff_cache WHERE created_at < ?",
                (cutoff,)).fetchone()[0]
            live_coeff_netlists = {row[0] for row in con.execute(
                "SELECT json_extract(meta, '$.coeff_netlist_key') "
                "FROM grids WHERE created_at >= ?", (cutoff,)) if row[0]}
            netlist_placeholders = ",".join("?" * len(live_coeff_netlists))
            netlist_filter = (
                f" AND key NOT IN ({netlist_placeholders})"
                if live_coeff_netlists else "")
            stale_coeff_netlists = con.execute(
                "SELECT COUNT(*) FROM coeff_netlists WHERE created_at < ?"
                + netlist_filter,
                (cutoff, *live_coeff_netlists)).fetchone()[0]
            report.update(grids_deleted=len(stale_grids),
                          variants_deleted=stale_variants,
                          shards_deleted=stale_shards,
                          leases_deleted=stale_leases,
                          coeff_deleted=stale_coeff,
                          coeff_netlists_deleted=stale_coeff_netlists)
            if not dry_run:
                con.execute("DELETE FROM grids WHERE created_at < ?",
                            (cutoff,))
                con.execute(
                    "DELETE FROM variants WHERE created_at < ?"
                    + base_filter, (cutoff, *live_bases))
                con.execute("DELETE FROM shards WHERE created_at < ?",
                            (cutoff,))
                con.execute("DELETE FROM shard_leases WHERE expiry <= ?",
                            (lease_now,))
                con.execute("DELETE FROM coeff_cache WHERE created_at < ?",
                            (cutoff,))
                con.execute(
                    "DELETE FROM coeff_netlists WHERE created_at < ?"
                    + netlist_filter, (cutoff, *live_coeff_netlists))
        self._with_connection("gc", sweep)

        def vacuum(con):
            con.execute("VACUUM")  # needs autocommit, no transaction
            # The held connection stays open, so nothing checkpoints on
            # close: move the rewritten pages into the file here, or
            # the size below would still be the old one.
            con.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        if not dry_run:
            self._with_connection("gc_vacuum", vacuum)
        report["db_bytes_after"] = path.stat().st_size if path.exists() \
            else 0
        return report

    # -- inspection ----------------------------------------------------

    def stats(self) -> dict:
        """Row counts per table plus coefficient-axis hit counters."""
        def count(con):
            counts = {table: con.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
                for table in ("variants", "grids", "shards",
                              "shard_leases", "coeff_cache",
                              "coeff_netlists")}
            for table in ("coeff_cache", "coeff_netlists"):
                counts[f"{table}_hits"] = con.execute(
                    f"SELECT COALESCE(SUM(hits), 0) FROM {table}"
                ).fetchone()[0]
            return counts
        counts = self._with_connection("stats", count)
        counts["path"] = self.path
        counts["format"] = STORE_FORMAT
        return counts

    def integrity_ok(self) -> bool:
        """SQLite's own integrity check (used by the concurrency tests)."""
        return self._with_connection("integrity_ok", lambda con: con.execute(
            "PRAGMA integrity_check").fetchone()[0] == "ok")


def open_store(store):
    """A path (``str``, ``bytes`` or ``os.PathLike``) opens a local
    :class:`DesignStore`; anything else (a ``DesignStore``, or a
    store-shaped facade like ``coordinator.RemoteStore``) passes
    through unchanged."""
    if isinstance(store, (str, bytes, os.PathLike)):
        return DesignStore(store)
    return store
