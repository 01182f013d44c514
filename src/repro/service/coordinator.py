"""HTTP fleet client: run the lease worker loop with no shared disk.

PR 6's fleet made shards a concurrent work unit, but every worker had
to open the *same SQLite file* — one box, many processes.  This module
is the other half of the ROADMAP's "distributed fleet DSE" item: the
server's coordinator plane (see :mod:`repro.service.server`) exposes
the store's lease/checkpoint primitives as JSON endpoints, and the
classes here speak to them with stdlib HTTP so ``repro explore
--worker-id W --coordinator http://host:port`` runs the *unchanged*
:func:`~repro.service.leases.run_fleet_worker` loop across machines.

Three layers, each duck-typed against an existing seam:

* :class:`CoordinatorClient` — one keep-alive HTTP/1.1 connection with
  deadline-bounded retries (exponential backoff + decorrelated jitter,
  the shared :mod:`repro.service.retry` policy).  The ``coord.request``
  / ``coord.response`` fault points put the wire under the
  ``REPRO_FAULTS`` chaos grammar: a fault *before* send is a request
  the server never saw; one *after* the body was read is a committed
  write whose acknowledgement was lost — retrying it exercises the
  idempotent-replay contract.
* :class:`RemoteStore` — a store-shaped facade implementing exactly
  the surface :class:`~repro.service.runner.ExplorationService`,
  :class:`~repro.service.jobs.ExplorationJob`, and the fleet loop
  touch.  A 409 from a fenced shard upload surfaces as the same
  :class:`~repro.service.store.FencedWriteError` the local store
  raises, so the worker loop needs no remote special case.  A shard's
  upload carries its ``base_key``: the coordinator stores the
  checkpoint and the variant rows it holds in one transaction, so the
  rows cross the wire once.
* :class:`RemoteLeaseManager` — the local lease policy plus a
  heartbeat thread around each shard compute (``guarding``): renews at
  a quarter TTL on its *own* connection (``http.client`` is not
  thread-safe).  If the coordinator stays unreachable past the
  client's retry deadline the heartbeat stops and the lease simply
  expires — a peer reclaims the shard, and this worker's eventual
  upload is fenced server-side.  Nothing ever wedges: unreachability
  during a store call itself surfaces as :class:`CoordinatorError`
  after the deadline, and the CLI exits nonzero.

Correctness note: every payload crossing the wire round-trips through
the same serializers the store itself uses (``design_to_dict``,
``EvaluationRecord.to_dict``, the shard checkpoint JSON), so a
multi-host fleet's final design list is byte-identical to a serial
run's — pinned by the network-chaos matrix in
``benchmarks/bench_faults.py``.
"""

from __future__ import annotations

import http.client
import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from urllib.parse import urlsplit

from ..eval.accuracy import EvaluationRecord
from .faults import fault_point
from .leases import LeaseManager
from .retry import RetryPolicy, retry_call
from .store import (FencedWriteError, canonical_json, design_to_dict,
                    designs_from_text)
from .telemetry import counter as _metric
from .telemetry import span as _span

__all__ = ["CoordinatorClient", "CoordinatorError", "RemoteLeaseManager",
           "RemoteStore"]

# Liberal attempts under a firm deadline: transient blips (a restart, a
# drain window, injected chaos) are absorbed; a genuinely dead
# coordinator surfaces as CoordinatorError once the deadline passes.
# Attempts are set high enough that the deadline is the binding bound —
# connection-refused fails instantly, so a coordinator restart must be
# ridden out on wall-clock, not on a try counter.
_DEFAULT_POLICY = RetryPolicy(attempts=24, base_s=0.05, cap_s=2.0,
                              deadline_s=30.0)
_RETRYABLE_STATUSES = (429, 503)


class CoordinatorError(RuntimeError):
    """The coordinator stayed unreachable past the retry deadline."""


class _TransientHttpError(ConnectionError):
    """A retryable HTTP status (503 drain window, 429 backpressure)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(f"coordinator answered {status}: {detail}")
        self.status = status


class _ProtocolError(ConnectionError):
    """A response that was not parseable JSON (truncated body, garbage).

    ``ConnectionError`` so the retry predicate treats a torn response
    like any other transport failure — the server may well have
    committed, which is exactly what idempotent uploads are for.
    """


class CoordinatorClient:
    """Stdlib HTTP/1.1 client for the server's coordinator plane.

    One persistent keep-alive connection, rebuilt on any transport
    error; every call runs under the shared retry policy.  **Not**
    thread-safe — give each thread its own :meth:`clone`.
    """

    def __init__(self, base_url: str, tenant: str | None = None,
                 timeout_s: float = 10.0,
                 policy: RetryPolicy | None = None) -> None:
        if "//" not in base_url:
            base_url = "http://" + base_url
        split = urlsplit(base_url)
        if split.scheme != "http" or not split.hostname:
            raise ValueError(f"coordinator URL must be http://host:port, "
                             f"got {base_url!r}")
        self.base_url = f"http://{split.netloc}"
        self.host = split.hostname
        self.port = split.port or 80
        self.tenant = tenant
        self.timeout_s = float(timeout_s)
        self.policy = policy if policy is not None else _DEFAULT_POLICY
        self._conn: http.client.HTTPConnection | None = None

    def clone(self) -> "CoordinatorClient":
        """A client with its own connection (for heartbeat threads)."""
        return CoordinatorClient(self.base_url, tenant=self.tenant,
                                 timeout_s=self.timeout_s,
                                 policy=self.policy)

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except Exception:
                pass
            self._conn = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    @staticmethod
    def _endpoint(path: str) -> str:
        # Low-cardinality span/metric label: "/v1/jobs", "/v1/coeff", ...
        return "/".join(path.split("/", 3)[:3])

    def request(self, method: str, path: str,
                payload: dict | bytes | None = None) -> tuple[int, dict]:
        """One JSON exchange; returns ``(status, parsed body)``.

        ``payload`` is the JSON body as a dict, or already encoded as
        bytes.  Retries transport failures, injected network faults,
        torn responses, and 429/503 answers under the client policy;
        any other status returns to the caller.  Exhaustion raises
        :class:`CoordinatorError`.
        """
        if isinstance(payload, bytes):
            body = payload
        else:
            body = b"" if payload is None else json.dumps(payload).encode()
        headers = {"Connection": "keep-alive",
                   "Content-Type": "application/json"}
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        endpoint = self._endpoint(path)

        def attempt() -> tuple[int, dict]:
            # A fault here is a request the server never received.
            fault_point("coord.request", method=method, path=path)
            with _span("coord.request", method=method, endpoint=endpoint):
                conn = self._connection()
                conn.request(method, path, body, headers)
                response = conn.getresponse()
                data = response.read()
            # ... and a fault here is a response lost *after* the
            # server committed: the retry that follows replays the
            # request, exercising idempotency by content key.
            fault_point("coord.response", method=method, path=path)
            if response.status in _RETRYABLE_STATUSES:
                raise _TransientHttpError(response.status,
                                          data[:200].decode("latin-1"))
            try:
                parsed = json.loads(data.decode() or "null")
            except (ValueError, UnicodeDecodeError) as exc:
                raise _ProtocolError(
                    f"unparseable coordinator response for {method} "
                    f"{path}: {exc}")
            return response.status, \
                parsed if isinstance(parsed, dict) else {}

        def transient(exc: Exception) -> bool:
            return isinstance(exc, (OSError, http.client.HTTPException))

        def on_retry(_attempt: int, _exc: Exception, _delay: float) -> None:
            _metric("coord.retries", endpoint=endpoint)
            self.close()  # the kept-alive socket may be poisoned

        try:
            return retry_call(attempt, self.policy, retryable=transient,
                              on_retry=on_retry)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise CoordinatorError(
                f"coordinator {self.base_url} unreachable after retries: "
                f"{exc}") from exc


class RemoteStore:
    """A store-shaped facade over the coordinator plane.

    Implements exactly the surface the service/job/fleet layers touch
    (duck-typed — :class:`~repro.service.jobs.ExplorationJob` passes
    any non-path store through).  ``namespace`` must match the
    coordinator-side tenant namespace so worker-derived content keys
    equal the server's (the default tenant's namespace is ``""``).
    """

    def __init__(self, client: CoordinatorClient,
                 namespace: str = "") -> None:
        self.client = client
        self.namespace = str(namespace)
        self.path = client.base_url  # reports/status show the URL

    def for_thread(self) -> "RemoteStore":
        """A facade with its own connection (heartbeat threads)."""
        return RemoteStore(self.client.clone(), namespace=self.namespace)

    def _call(self, method: str, path: str,
              payload: dict | bytes | None = None) -> dict | None:
        status, data = self.client.request(method, path, payload)
        if status == 404:
            return None
        if status == 409:
            _metric("fleet.fenced_writes", side="client")
            raise FencedWriteError(data.get("error", "fenced write"))
        if status != 200:
            raise CoordinatorError(
                f"{method} {path} failed with {status}: "
                f"{data.get('error', data)}")
        return data

    # -- shard leases ---------------------------------------------------

    def claim_lease(self, grid_key: str, shard: int, worker: str,
                    ttl_s: float, now: float | None = None) -> int:
        data = self._call("POST", f"/v1/jobs/{grid_key}/leases/claim",
                          {"shard": int(shard), "worker": worker,
                           "ttl_s": float(ttl_s)})
        return int(data["token"])

    def renew_lease(self, grid_key: str, shard: int, worker: str,
                    ttl_s: float, now: float | None = None,
                    token: int | None = None) -> bool:
        data = self._call("POST", f"/v1/jobs/{grid_key}/leases/renew",
                          {"shard": int(shard), "worker": worker,
                           "ttl_s": float(ttl_s), "token": token})
        return bool(data["renewed"])

    def release_lease(self, grid_key: str, shard: int,
                      worker: str) -> None:
        self._call("POST", f"/v1/jobs/{grid_key}/leases/release",
                   {"shard": int(shard), "worker": worker})

    def leases_for_grid(self, grid_key: str) -> dict[int, dict]:
        data = self._call("GET", f"/v1/jobs/{grid_key}/leases")
        return {int(shard): info
                for shard, info in data["leases"].items()}

    # -- shard checkpoints ---------------------------------------------

    def put_shard(self, grid_key: str, shard: int, taus, payload: dict,
                  base_key: str,
                  fence: tuple[str, int] | None = None) -> None:
        body = {"taus": [float(t) for t in taus], "payload": payload,
                "base_key": str(base_key)}
        if fence is not None:
            body["fence"] = [str(fence[0]), int(fence[1])]
        self._call("PUT", f"/v1/jobs/{grid_key}/shards/{int(shard)}",
                   body)

    def get_shard(self, grid_key: str,
                  shard: int) -> tuple[list, dict] | None:
        data = self._call("GET",
                          f"/v1/jobs/{grid_key}/shards/{int(shard)}")
        if data is None:
            return None
        return data["taus"], data["payload"]

    def shard_indices(self, grid_key: str) -> set[int]:
        data = self._call("GET", f"/v1/jobs/{grid_key}/shards")
        return {int(i) for i in data["indices"]}

    # -- grids ---------------------------------------------------------

    def get_grid_text(self, key: str) -> str | None:
        """The grid's designs as canonical JSON (the stored form)."""
        data = self._call("GET", f"/v1/jobs/{key}/grid")
        return None if data is None else canonical_json(data["designs"])

    def get_grid(self, key: str):
        text = self.get_grid_text(key)
        return None if text is None else designs_from_text(text)

    def put_grid(self, key: str, designs: list,
                 meta: dict | None = None) -> None:
        self._call("PUT", f"/v1/jobs/{key}/grid",
                   {"designs": [design_to_dict(d) for d in designs],
                    "meta": meta or {}})

    def delete_grid(self, key: str) -> None:
        self._call("DELETE", f"/v1/jobs/{key}/grid")

    def grid_meta(self, key: str) -> dict | None:
        data = self._call("GET", f"/v1/jobs/{key}/grid")
        return None if data is None else data["meta"]

    # -- variants ------------------------------------------------------

    def variants_for_base(self, base_key: str) -> dict:
        data = self._call("GET", f"/v1/bases/{base_key}/variants")
        return {tuple(int(i) for i in ids):
                EvaluationRecord.from_dict(record)
                for ids, record in data["variants"]}

    # -- coefficient caches --------------------------------------------

    def get_coeff(self, key: str) -> list | None:
        data = self._call("GET", f"/v1/coeff/{key}")
        return None if data is None else data["payload"]

    def put_coeff(self, key: str, payload: list) -> None:
        self._call("PUT", f"/v1/coeff/{key}", {"payload": payload})

    def get_coeff_netlist(self, key: str) -> dict | None:
        data = self._call("GET", f"/v1/coeff-netlists/{key}")
        return None if data is None else data["netlist"]

    def put_coeff_netlist(self, key: str, netlist_data: dict | str,
                          fingerprint: str) -> None:
        if isinstance(netlist_data, str):
            # Pre-encoded document text: splice it in as the "netlist"
            # object, so the wire body matches the dict form's.
            body = (f'{{"netlist":{netlist_data},'
                    f'"fingerprint":{json.dumps(str(fingerprint))}}}')
            self._call("PUT", f"/v1/coeff-netlists/{key}", body.encode())
            return
        self._call("PUT", f"/v1/coeff-netlists/{key}",
                   {"netlist": netlist_data,
                    "fingerprint": str(fingerprint)})

    def get_coeff_netlist_fingerprint(self, key: str) -> str | None:
        data = self._call("GET", f"/v1/coeff-netlists/{key}/fingerprint")
        return None if data is None else data["fingerprint"]

    # -- fleet hooks ---------------------------------------------------

    def make_lease_manager(self, grid_key: str, worker: str,
                           ttl_s: float) -> "RemoteLeaseManager":
        """The fleet loop's lease-manager factory (duck-typed hook)."""
        return RemoteLeaseManager(self, grid_key, worker, ttl_s)

    def stats(self) -> dict:
        """Minimal stats surface (the coordinator owns the real ones)."""
        return {"path": self.path, "remote": True}


@dataclass
class RemoteLeaseManager(LeaseManager):
    """Lease policy over a :class:`RemoteStore`, plus heartbeats.

    ``guarding(shard)`` renews the held lease at a quarter TTL on a
    dedicated connection while the shard computes, so a compute longer
    than the TTL keeps its ownership span (same token — the fence
    still matches).  A heartbeat that learns the lease was lost, or
    that cannot reach the coordinator past the retry deadline, simply
    stops: the server-side fence is what guarantees the stale upload
    never lands.
    """

    heartbeat_s: float | None = None

    @contextmanager
    def guarding(self, shard: int):
        stop = threading.Event()
        interval = self.heartbeat_s if self.heartbeat_s is not None \
            else max(self.ttl_s / 4.0, 0.05)
        store = self.store.for_thread()
        token = self.tokens.get(shard)

        def beat() -> None:
            while not stop.wait(interval):
                try:
                    if not store.renew_lease(self.grid_key, shard,
                                             self.worker, self.ttl_s,
                                             token=token):
                        _metric("fleet.lease_lost")
                        return  # reclaimed; the fence rejects our write
                except Exception:
                    # Unreachable past the retry deadline: let the
                    # lease expire so a peer can reclaim the shard.
                    return

        thread = threading.Thread(
            target=beat, daemon=True,
            name=f"lease-heartbeat-{self.worker}-{shard}")
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=5.0)
            store.client.close()
