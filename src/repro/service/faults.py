"""Deterministic fault injection for the exploration service stack.

Chaos testing only proves anything when the chaos is *replayable*: the
same schedule must fire the same faults at the same sites every run, or
a green chaos bench is luck, not evidence.  This module provides named
**fault points** threaded through the service and exploration layers
(:mod:`repro.service.store`, :mod:`repro.service.jobs`,
:mod:`repro.service.runner`, the :mod:`repro.core.pruning` walk and
the :mod:`repro.core.cross_layer` family executor) and a :class:`FaultInjector` that fires scheduled faults at
exact hit counts of those points.

Fault points currently instrumented (grep ``fault_point(`` for the
authoritative list):

==========================  ====================================================
site                        where it fires
==========================  ====================================================
``store.connect``           every ``DesignStore`` operation attempt
``store.put_shard``         inside a shard write, before its checkpoint row
``store.put_variants``      inside the same shard write, before the shard's
                            variant rows
``store.put_grid``          inside a grid write, before the grid lands and
                            its checkpoints and leases are deleted
``store.lease``             inside every lease acquire/renew transaction
``job.shard``               before a job computes one shard (ctx: ``index``)
``job.assemble``            before the final design-list assembly
``service.request``         as the batch runner starts one request
``engine.<name>``           as the serial walk starts on engine ``<name>``
``worker.family``           in an executor worker, per pruning family
                            (ctx: ``family``, the family label)
``server.accept``           per accepted HTTP connection (ctx: ``peer``)
``server.enqueue``          before a request enters the server queue
``server.stream``           per streamed result line (ctx: ``index``)
``server.drain``            as SIGTERM-triggered drain begins
``coord.request``           in the HTTP client, before a request is sent
``coord.response``          in the HTTP client, after the response body
                            was read (the server committed; losing it
                            here exercises idempotent replay)
==========================  ====================================================

Schedule grammar (``;``-separated entries)::

    site[@ctxkey=ctxvalue]:hit=action[(arg)]

    store.put_shard:2=err-locked     # 2nd checkpoint write raises locked
    job.shard@index=1:1=kill         # SIGKILL when shard 1 first starts
    worker.family:1=exit             # an executor worker dies
    engine.batched:1=err             # batched walk fails once
    job.shard:1=sleep(5)             # one slow/hung shard

Actions: ``err`` (``RuntimeError``), ``err-locked`` / ``err-busy``
(``sqlite3.OperationalError``, exercising the store's bounded retry),
``kill`` (SIGKILL the current process), ``exit`` (``os._exit`` — an
executor worker dying without cleanup, surfacing as
``BrokenProcessPool`` in the parent), ``sleep(s)`` (a slow/hung shard,
exercising timeouts), and ``corrupt`` (overwrite the head of the file
named by the fault point's ``path`` context — a corrupt store,
exercising quarantine).

Network actions (for the ``coord.*`` client sites): ``drop`` (raise
:class:`NetworkFault` — the request, or its response, vanished),
``delay(s)`` (latency before the call proceeds, default 0.05 s),
``error-503`` (the coordinator answered 503 — retryable without a
reconnect), and ``partial-body`` (the response arrived truncated).
All three raising actions are :class:`NetworkFault`\\ s — subclasses of
``ConnectionError`` — so the client's retry policy treats injected and
real network failures identically.

Enabling: programmatically via :func:`install` (or the
:func:`installed` context manager), or through the environment —
``REPRO_FAULTS`` holds the schedule string and propagates to
subprocesses and to executor workers forked after it was set (workers
forked earlier keep the environment they forked with, and never see a
later :func:`install` either).  ``REPRO_FAULTS_STATE`` names a
directory where fired entries leave a marker file, making every entry
**one-shot across processes**: a fresh worker or a resumed run sees
the marker and does not re-fire, which is exactly the semantics of a
real transient fault and what lets recovery runs terminate.

Determinism: every entry counts its own matching hits (site plus
optional context filter) from zero in each process, so a schedule is a
pure function of the code path — no wall clock, no randomness.
:func:`seeded_schedule` derives a schedule string from an integer seed
for soak-style runs; the derivation is deterministic, so a seed is as
replayable as a hand-written schedule.

When no injector is active (the normal case) a fault point is a no-op
guarded by one module-global check.
"""

from __future__ import annotations

import os
import re
import signal
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FaultError",
    "FaultInjector",
    "NetworkFault",
    "fault_point",
    "install",
    "installed",
    "seeded_schedule",
]

ENV_SCHEDULE = "REPRO_FAULTS"
ENV_STATE = "REPRO_FAULTS_STATE"


class FaultError(RuntimeError):
    """The generic injected failure (``err`` action)."""


class NetworkFault(ConnectionError):
    """An injected network failure (``drop``/``error-503``/
    ``partial-body``).

    A ``ConnectionError`` subclass so the coordinator client's retry
    predicate needs no special case for injected chaos — it retries
    these exactly as it would a real reset.  ``kind`` names the action
    that fired, ``site`` the fault point it fired at.
    """

    def __init__(self, kind: str, site: str, detail: str) -> None:
        super().__init__(detail)
        self.kind = kind
        self.site = site


_ENTRY_RE = re.compile(
    r"^(?P<site>[\w.-]+)"
    r"(?:@(?P<ckey>[\w.-]+)=(?P<cval>[^:]+))?"
    r":(?P<hit>\d+)"
    r"=(?P<action>[\w-]+)"
    r"(?:\((?P<arg>[^)]*)\))?$")

_ACTIONS = ("err", "err-locked", "err-busy", "kill", "exit", "sleep",
            "corrupt", "drop", "delay", "error-503", "partial-body")


@dataclass
class FaultEntry:
    """One scheduled fault: fire ``action`` on hit number ``hit``."""

    site: str
    hit: int
    action: str
    arg: str | None = None
    ctx_key: str | None = None
    ctx_value: str | None = None
    count: int = field(default=0, repr=False)

    @property
    def ident(self) -> str:
        """Stable identity used for cross-process one-shot markers."""
        ctx = f"@{self.ctx_key}={self.ctx_value}" if self.ctx_key else ""
        arg = f"({self.arg})" if self.arg is not None else ""
        return f"{self.site}{ctx}:{self.hit}={self.action}{arg}"

    def matches(self, site: str, ctx: dict) -> bool:
        if site != self.site:
            return False
        if self.ctx_key is None:
            return True
        return str(ctx.get(self.ctx_key)) == self.ctx_value


def _parse_entry(text: str) -> FaultEntry:
    match = _ENTRY_RE.match(text.strip())
    if match is None:
        raise ValueError(
            f"bad fault entry {text!r}; expected "
            "'site[@key=value]:hit=action[(arg)]'")
    action = match["action"]
    if action not in _ACTIONS:
        raise ValueError(f"unknown fault action {action!r} in {text!r}; "
                         f"use one of {_ACTIONS}")
    return FaultEntry(match["site"], int(match["hit"]), action,
                      match["arg"], match["ckey"], match["cval"])


class FaultInjector:
    """A deterministic schedule of faults over named fault points.

    ``state_dir`` (optional) makes entries one-shot across processes:
    a fired entry drops a marker file there and never fires again in
    any process sharing the directory — the mechanics behind
    "kill, resume, and terminate" chaos scenarios.
    """

    def __init__(self, entries: list[FaultEntry],
                 state_dir: str | os.PathLike | None = None) -> None:
        self.entries = entries
        self.state_dir = None if state_dir is None else Path(state_dir)
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self.fired: list[str] = []

    @staticmethod
    def parse(spec: str,
              state_dir: str | os.PathLike | None = None) -> "FaultInjector":
        entries = [_parse_entry(part) for part in spec.split(";")
                   if part.strip()]
        return FaultInjector(entries, state_dir)

    def spec(self) -> str:
        """The schedule string (round-trips through :meth:`parse`)."""
        return ";".join(entry.ident for entry in self.entries)

    # -- cross-process one-shot markers --------------------------------

    def _marker(self, entry: FaultEntry) -> Path | None:
        if self.state_dir is None:
            return None
        safe = re.sub(r"[^\w.=@-]", "_", entry.ident)
        return self.state_dir / f"fired-{safe}"

    def _already_fired(self, entry: FaultEntry) -> bool:
        marker = self._marker(entry)
        return marker is not None and marker.exists()

    def _mark_fired(self, entry: FaultEntry) -> None:
        self.fired.append(entry.ident)
        marker = self._marker(entry)
        if marker is not None:
            # The marker must hit the disk *before* the fault does its
            # damage (a SIGKILL right after this line must not re-fire
            # on resume), so write-and-close, no buffering games.
            marker.write_text(str(time.time()))

    # -- firing --------------------------------------------------------

    def hit(self, site: str, ctx: dict) -> None:
        for entry in self.entries:
            if not entry.matches(site, ctx):
                continue
            entry.count += 1
            if entry.count != entry.hit or self._already_fired(entry):
                continue
            self._mark_fired(entry)
            self._record_fired(entry, site, ctx)
            self._fire(entry, site, ctx)

    @staticmethod
    def _record_fired(entry: FaultEntry, site: str, ctx: dict) -> None:
        """Attribute the fired fault: counter + structured event.

        Runs after the one-shot marker and before the damage, so even a
        ``kill`` leaves an attributable event line.  The current
        request id (when the fault fired under a server request) makes
        chaos runs traceable back to the connection that hit them.
        """
        from .telemetry import counter, current_request_id, event
        counter("faults.fired", site=site, action=entry.action)
        record = {
            "type": "fault",
            "ts": round(time.time(), 6),
            "site": site,
            "ident": entry.ident,
            "action": entry.action,
        }
        request_id = current_request_id()
        if request_id is not None:
            record["request_id"] = request_id
        if ctx:
            record["ctx"] = {key: str(value) for key, value in ctx.items()}
        event(record)

    def _fire(self, entry: FaultEntry, site: str, ctx: dict) -> None:
        action = entry.action
        if action == "err":
            raise FaultError(f"injected fault at {site} ({entry.ident})")
        if action == "err-locked":
            raise sqlite3.OperationalError(
                f"database is locked [injected at {site}]")
        if action == "err-busy":
            raise sqlite3.OperationalError(
                f"database is busy [injected at {site}]")
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "exit":
            # A worker dying without cleanup: no atexit, no executor
            # handshake — the parent sees BrokenProcessPool.
            os._exit(17)
        if action == "sleep":
            time.sleep(float(entry.arg or "1"))
            return
        if action == "drop":
            raise NetworkFault("drop", site,
                               f"injected network drop at {site} "
                               f"({entry.ident})")
        if action == "delay":
            time.sleep(float(entry.arg or "0.05"))
            return
        if action == "error-503":
            raise NetworkFault("error-503", site,
                               f"injected 503 at {site} ({entry.ident})")
        if action == "partial-body":
            raise NetworkFault("partial-body", site,
                               f"injected truncated response at {site} "
                               f"({entry.ident})")
        if action == "corrupt":
            path = ctx.get("path")
            if path and Path(path).exists():
                with open(path, "r+b") as handle:
                    handle.write(b"\xde\xad\xbe\xef" * 8)
            return


def seeded_schedule(seed: int, sites: list[str],
                    actions: tuple[str, ...] = ("err", "err-locked"),
                    max_hit: int = 3) -> str:
    """A deterministic schedule string derived from an integer seed.

    One entry per site; the hit number and action are a pure function
    of ``(seed, site)`` via a small LCG — no :mod:`random` state, fully
    replayable from the seed alone.
    """
    entries = []
    state = (int(seed) * 6364136223846793005 + 1442695040888963407) \
        % (1 << 64)
    for site in sites:
        for char in site:
            state = (state * 6364136223846793005 + ord(char)) % (1 << 64)
        hit = 1 + (state >> 33) % max_hit
        action = actions[(state >> 17) % len(actions)]
        entries.append(f"{site}:{hit}={action}")
    return ";".join(entries)


# -- module-global activation ------------------------------------------

# Programmatic and environment activation are tracked separately, so
# unsetting REPRO_FAULTS (or leaving an `installed` block) deactivates
# cleanly without one path leaking a stale injector into the other.
_installed: FaultInjector | None = None
_env_active: FaultInjector | None = None
_env_spec_loaded: str | None = None


def install(injector: FaultInjector | None) -> FaultInjector | None:
    """Activate ``injector`` process-wide (``None`` deactivates).

    Returns the previously active injector so callers can restore it.
    Programmatic installation takes precedence over ``REPRO_FAULTS``.
    """
    global _installed
    previous, _installed = _installed, injector
    return previous


class installed:
    """Context manager: activate an injector, restore on exit."""

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector
        self._previous: FaultInjector | None = None

    def __enter__(self) -> FaultInjector:
        self._previous = install(self.injector)
        return self.injector

    def __exit__(self, *exc_info) -> None:
        install(self._previous)


def _env_injector() -> FaultInjector | None:
    """The injector ``REPRO_FAULTS`` describes, parsed once per value.

    Re-checks the environment when the variable's value changes (tests
    monkeypatch it), but never re-parses an unchanged spec.
    """
    global _env_active, _env_spec_loaded
    spec = os.environ.get(ENV_SCHEDULE)
    if spec != _env_spec_loaded:
        _env_spec_loaded = spec
        _env_active = None if not spec else FaultInjector.parse(
            spec, os.environ.get(ENV_STATE) or None)
    return _env_active


def fault_point(site: str, **ctx) -> None:
    """Declare a named fault point; a no-op unless an injector is live.

    Instrumented code calls this at exact, replayable sites; the active
    injector (installed programmatically or via ``REPRO_FAULTS``) may
    raise, sleep, corrupt, or kill according to its schedule.
    """
    injector = _installed
    if injector is None:
        if ENV_SCHEDULE not in os.environ:
            return
        injector = _env_injector()
        if injector is None:
            return
    injector.hit(site, ctx)
