"""Netlist pruning through full-search exploration (Section III-C).

Two statistics constrain which gates may be replaced by constants:

* ``tau`` — the maximum fraction of (training-set) time a gate's output is
  '0' or '1'; replacing the gate with that constant yields an error rate
  of at most ``1 - tau``.  The paper's sweep runs tau_c over [80%, 99%]
  (note: the paper's prose says "tau <= tau_c", but pruning *mostly
  constant* gates — ``tau >= tau_c`` — is the only reading consistent with
  its own example and with the sweep's direction; this implementation
  prunes gates with ``tau >= tau_c``).

* ``phi`` — the most significant *relevant* output bit a gate reaches
  through any path, bounding the error magnitude at ``2^(phi_c + 1)``.
  For regressors the relevant bits are the output bus itself.  For
  classifiers the paper's key observation applies: the argmax head
  congests all paths into a few index bits and destroys the correlation
  between numerical error and classification error, so ``phi`` is
  computed with respect to the *inputs of the argmax* (the pre-argmax
  neuron/score buses, carried in the netlist ``meta``); gates past that
  point (inside the comparator/vote network) reach no watched bit and get
  ``phi = -1``, making them prunable under any ``phi_c`` — their damage is
  already bounded in *frequency* by ``tau``.

The exploration is a full search over the (tau_c, phi_c) grid, organized
for speed:

* **Incremental chains.** For a fixed tau_c the prune sets grow
  monotonically with phi_c, so each chain ties only the *delta* gates
  onto the previously pruned-and-folded circuit (the cone rewrite of
  :class:`~repro.hw.incremental.IncrementalCircuit`, located through
  the node map of :func:`~repro.hw.synthesis.synthesize_arrays`)
  instead of resynthesizing the base circuit from scratch.
* **Memoized records.** Identical prune sets arising from different
  (tau_c, phi_c) pairs are evaluated once and listed as duplicates of
  the first pair that produced them.  Each walk leaves every record it
  returns in the pruner's record memo, which persists across
  ``explore()`` calls and which the service layer pre-seeds from the
  store.
* **Batched evaluation.** The trie walk defers scoring: variants are
  described against shared *plan epochs* by constant-clamp masks and
  evaluated in bulk ``(n_nets, K, n_words)`` passes
  (:class:`~repro.hw.compiled.BatchedEvaluator`), so no variant pays
  for its own compaction, plan build and NumPy sweeps.

A pruner walks in the process that calls it.  Multi-core runs fan out
whole pruning families instead, one pruner per task on
:class:`~repro.core.cross_layer.CrossLayerFramework`'s process-wide
executor, so every family keeps the trie and root-ladder sharing above.

Which walk am I using?  ``NetlistPruner.resolved_engine()`` answers
for one pruner: ``engine=None`` inherits the evaluator's selector.
``"auto"`` resolves to ``"batched"``, the trie walk above and the one
fast path, on hosts that support the compiled word layout, and to
``"bigint"`` elsewhere.  ``"bigint"`` is the oracle walk: one
from-scratch synthesis and bigint simulation per unique prune set.  It
is also the rung the batched walk degrades to under an evaluation fault;
each such fallback is kept in ``NetlistPruner.fallbacks``.  Both walks
return the identical design list; ``explore_legacy()`` keeps the
original one-synthesis-per-grid-point loop as the reference oracle the
walks are benchmarked and regression-tested against.  It attributes
duplicates on its own, without :func:`assemble_designs`, and scores
each variant on the evaluator's own engine.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ..eval.accuracy import (
    CircuitEvaluator,
    EvaluationRecord,
    check_engine,
    resolve_engine,
)
from ..hw.incremental import IncrementalCircuit
from ..hw.simulate import ActivityReport
from ..hw.synthesis import (ArrayCircuit, synthesize_arrays,
                             synthesize_reference)

__all__ = [
    "compute_phi",
    "PruneSpace",
    "PrunedDesign",
    "NetlistPruner",
    "DEFAULT_TAU_GRID",
    "assemble_designs",
    "prune_key_ids",
    "prune_key_bytes",
]

# tau_c in {0.80, 0.81, ..., 0.99}, the paper's grid.
DEFAULT_TAU_GRID = tuple(np.round(np.arange(0.80, 1.00, 0.01), 2))

# Lazy bridge to repro.service.faults: importing it at module level
# would close the core ↔ service import cycle (this module loads before
# the service package, and service.jobs loads this module mid-way).
# Resolved on first use, long after both packages finished importing.
_fault_point = None


def fault_point(site: str, **ctx) -> None:
    """Named fault-injection site (see :mod:`repro.service.faults`)."""
    global _fault_point
    if _fault_point is None:
        from ..service.faults import fault_point as resolved
        _fault_point = resolved
    _fault_point(site, **ctx)


# Same lazy-bridge pattern for the telemetry hub: the core walk reports
# spans and counters to :mod:`repro.service.telemetry` without ever
# importing the service package at module level.
_telemetry = None


def _service_telemetry():
    global _telemetry
    if _telemetry is None:
        from ..service import telemetry as resolved
        _telemetry = resolved
    return _telemetry


def compute_phi(circuit: ArrayCircuit,
                watch_buses: list[list[int]] | None = None) -> np.ndarray:
    """Per-gate ``phi``: highest watched output bit reachable (-1 if none).

    ``watch_buses``, in node ids, defaults to the circuit's watch buses
    (pre-argmax buses for classifiers), else its output buses
    (regressors).  A single reverse-topological sweep propagates the
    maximum watched bit index backwards through the fanin cones; unused
    operand slots hold node 0, whose phi nothing reads.
    """
    if watch_buses is None:
        watch_buses = circuit.watch if circuit.watch is not None \
            else list(circuit.outputs.values())
    node_phi = [-1] * circuit.n_nets
    for bus in watch_buses:
        for bit, node in enumerate(bus):
            node_phi[node] = max(node_phi[node], bit)
    n_fixed = circuit.n_fixed
    for k in range(circuit.n_gates - 1, -1, -1):
        phi = node_phi[n_fixed + k]  # final: consumers follow operands
        if phi >= 0:
            for node in (circuit.ina[k], circuit.inb[k], circuit.inc[k]):
                if node_phi[node] < phi:
                    node_phi[node] = phi
    return np.array(node_phi[n_fixed:], dtype=np.int64)


@dataclass(frozen=True)
class PruneSpace:
    """Precomputed pruning statistics over one base circuit (a pruner's
    folded base).

    A space depends only on that base and the training stimulus, so
    any number of pruners over the same base, whatever their tau grids,
    may share one: the service keeps one per served base.
    """

    netlist: ArrayCircuit
    tau: np.ndarray
    const_value: np.ndarray
    phi: np.ndarray
    # Candidate sets are shared between phi_levels/prune_set and the
    # batched walk, so one tau_c never recomputes the tau comparison (mutable cache on a
    # frozen dataclass; excluded from equality).
    _candidates: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def from_activity(circuit: ArrayCircuit,
                      activity: ActivityReport) -> "PruneSpace":
        return PruneSpace(circuit, activity.tau, activity.const_value,
                          compute_phi(circuit))

    def candidates(self, tau_c: float) -> np.ndarray:
        """Gate indices whose output is constant at least ``tau_c`` of the
        time (small epsilon absorbs float rounding on the grid)."""
        key = round(float(tau_c), 9)
        cached = self._candidates.get(key)
        if cached is None:
            cached = np.flatnonzero(self.tau >= tau_c - 1e-9)
            self._candidates[key] = cached
        return cached

    def phi_levels(self, tau_c: float) -> list[int]:
        """The paper's ``Phi_tau``: unique phi values among candidates."""
        gates = self.candidates(tau_c)
        return sorted(int(v) for v in np.unique(self.phi[gates]))

    def prune_set(self, tau_c: float, phi_c: int) -> dict[int, int]:
        """Gate -> constant map for all gates with tau >= tau_c, phi <= phi_c."""
        gates = self.candidates(tau_c)
        selected = gates[self.phi[gates] <= phi_c]
        return {int(g): int(self.const_value[g]) for g in selected}


@dataclass(frozen=True)
class PrunedDesign:
    """One evaluated point of the pruning design space."""

    tau_c: float
    phi_c: int
    n_pruned: int
    record: EvaluationRecord
    duplicate_of: tuple[float, int] | None = None


def prune_key_ids(key: bytes) -> tuple[int, ...]:
    """Canonical prune-set identity: the sorted pruned-gate ids.

    Every walk keys its steps by the sorted gate-id int64 byte string
    (:func:`prune_key_bytes`).  For one base netlist the tied constants
    are a pure function of the gate set (the training activity fixes
    ``const_value``), so the sorted gate ids identify the variant.  The
    service layer's content-addressed store
    (:mod:`repro.service.store`) hashes this canonical form.
    """
    return tuple(int(v) for v in np.frombuffer(key, dtype=np.int64))


def prune_key_bytes(ids) -> bytes:
    """The step key of a collection of gate ids (any order).

    Inverse of :func:`prune_key_ids`; the service layer uses it to
    pre-seed a pruner's record memo from stored variants so a warm walk
    skips their evaluation entirely.
    """
    return np.sort(np.fromiter(ids, dtype=np.int64)).tobytes()


def _fold_base(circuit: ArrayCircuit) -> tuple[ArrayCircuit, bool]:
    """``circuit`` folded and stripped, and whether that changed any row.

    The folded base is the circuit a pruner prunes: its training
    activity, prune space, every walk and the legacy oracle name its
    gates.  A circuit marked ``folded`` (every builder's optimized
    output, and any :func:`~repro.hw.synthesis.synthesize_arrays`
    output) is returned as is: its fold would rebuild the same rows.
    An unmarked circuit (``from_netlist`` output, a decoded store hit)
    is folded, and its rows compared.
    """
    if circuit.folded:
        return circuit, False
    folded = synthesize_arrays(circuit)[0]
    same = (folded.ops == circuit.ops and folded.ina == circuit.ina
            and folded.inb == circuit.inb and folded.inc == circuit.inc
            and folded.outputs == circuit.outputs
            and folded.watch == circuit.watch)
    return folded, not same


def _synthesize_pruned(base: ArrayCircuit, force: dict) -> ArrayCircuit:
    """The from-scratch synthesis of ``base`` under a prune set."""
    return synthesize_arrays(base, {base.n_fixed + gate: value
                                    for gate, value in force.items()})[0]


def _explore_bigint(base: ArrayCircuit, evaluator: CircuitEvaluator,
                    space: PruneSpace, chains: list[tuple[float, list]],
                    memo: dict) -> list[list[tuple]]:
    """The oracle walk: one from-scratch synthesis per unique prune set.

    Shares nothing between steps but the record memo, so it leans on no
    cone rewrite, plan epoch or batch.  It runs when ``engine="bigint"``,
    on hosts without the compiled word layout, and as the last rung of
    the serial walk's fault ladder.  Rows and keys have the batched
    walk's form, and every returned key is left in ``memo``.
    """
    results = []
    for tau_c, steps in chains:
        rows = []
        for phi_c, _ in steps:
            force = space.prune_set(tau_c, phi_c)
            key = prune_key_bytes(force)
            record = memo.get(key)
            if record is None:
                record = evaluator.evaluate(_synthesize_pruned(base, force))
                memo[key] = record
            rows.append((phi_c, key, len(force), record))
        results.append(rows)
    return results


# Rebuild a variant's evaluation plan once the circuit shrank below
# this fraction of the plan it inherited: simulations then never run on
# a plan more than 1/PLAN_REFRESH times the variant's own size, while
# total plan-build work stays geometric (a few rebuilds per chain).
_PLAN_REFRESH = 0.5
# ... but only when the plan is big enough for simulation size to
# matter (gate-words): small plans are NumPy-dispatch-bound, where one
# shared plan per batch beats many right-sized plans.
_PLAN_REFRESH_MIN_WORK = 16_000


def _explore_trie_batched(base: ArrayCircuit, evaluator: CircuitEvaluator,
                          space: PruneSpace,
                          chains: list[tuple[float, list]],
                          known_records: dict) -> list[list[tuple]]:
    """The fast exploration walk: a batched trie over prune-set prefixes.

    Chains whose prune-set sequences share a prefix (extremely common:
    neighboring tau_c values usually select identical candidate sets)
    are walked as one trie, so every unique prefix is tied and scored
    exactly once.  Sibling branches fork the shared prefix state; each
    group ties only its delta gates onto the already-folded circuit
    (:meth:`~repro.hw.incremental.IncrementalCircuit.tie_gates`).
    The trie's depth-0 layer is a *root ladder*: roots are walked
    smallest first (descending tau_c on the default grid).  A root whose
    prune set contains the previous root's forks that root's state and
    ties only the delta gates, inheriting its plan epoch and clamps, so
    plan epochs are shared across chains.  Any other root forks the base
    state and ties its full prefix.  Phi increments then run on a fork
    of their root; a state is never mutated after it was forked.

    Scoring rests on two mechanisms built on the rewriter's stable node
    ids:

    * **Plan epochs.**  A levelized plan (in node-id space) is captured
      only when a variant has shrunk below ``_PLAN_REFRESH`` of the
      plan its chain inherited; between refreshes a variant is
      described against the epoch plan by its accumulated clamp set
      (union of applied ``tie`` constants, restricted to plan nodes —
      clamps on newer helper nodes are unreadable by construction and
      drop out) plus the live helper gates created since the epoch.
      Simulations therefore track variant size without one plan per
      variant, and the clamped-parent waveforms equal the rewritten
      variant's exactly (cone rewriting only replaces nodes with
      functionally identical ones).

    * **Deferred batches.**  Specs collect during the walk and evaluate
      afterwards, grouped per epoch plan, as
      :class:`~repro.hw.compiled.BatchedEvaluator` ``(n_nets, K,
      n_words)`` passes — the per-level NumPy dispatch overhead is paid
      once per batch, not once per variant.  Each chunk of a batch is
      scored through
      :meth:`~repro.eval.accuracy.CircuitEvaluator.evaluate_batch` and
      released before the next chunk is simulated.

    * **No-op steps.**  Each state carries the key of the circuit it
      holds.  A step whose delta gates an earlier tie already stripped
      gets an empty applied map back: ``tie()`` replaced no node and
      created no helper, so the circuit is its predecessor's.  It
      queues no spec; its key takes the predecessor's record once the
      batches are scored (counted ``pruner.aliased_steps``).

    A walk state is a chain of cone rewrites: the ladder of roots,
    then phi increments.  Such a chain reaches the circuit
    ``explore_legacy``'s from-scratch synthesis does, because
    :meth:`~repro.hw.incremental.IncrementalCircuit.tie` refuses every
    tie that would reach logic beyond the named gate: a forwarded node
    or a shared one, live or dead.

    A refused ladder delta counts ``pruner.root_fallbacks{to=base}``
    and retries the root from the base state.  A refused tie on the
    base (conflict, refusal or rewrite-cascade overflow) rebuilds the
    branch from scratch (counted ``{to=refold}`` for a root) and starts
    a fresh plan epoch in the rebuilt node space; the next root then
    starts from the base again.  Records are integer reductions
    that come out bit-identical to the oracle walk's, pinned by the
    equivalence tests against ``explore_legacy``.

    Bookkeeping note: a chain's steps are *prefix slices* of its
    phi-sorted candidate arrays, and chains grouped together in the
    trie have set-equal prefixes, so step deltas are plain array
    slices and step identity is a sorted-ids byte string — no per-step
    force dicts.
    """
    from ..hw.compiled import BatchedEvaluator

    results: list[list[tuple]] = [[] for _ in chains]
    n_fixed = base.n_fixed
    n_vectors, _arrays, packed = evaluator.test_stimulus(base)
    n_words = max(1, (n_vectors + 63) // 64)

    # Array-form chains: candidate gates/constants sorted by phi; each
    # step is (phi_c, prefix length) into those arrays.
    chain_arrays: list[tuple] = []
    for tau_c, steps in chains:
        gates = space.candidates(tau_c)
        phis = space.phi[gates]
        order = np.argsort(phis, kind="stable")
        gates_sorted = gates[order]
        consts_sorted = space.const_value[gates][order]
        sorted_phis = phis[order]
        counts = np.searchsorted(sorted_phis,
                                 [phi_c for phi_c, _force in steps],
                                 side="right")
        chain_arrays.append(
            (gates_sorted.tolist(), consts_sorted.tolist(), gates_sorted,
             [(phi_c, int(count))
              for (phi_c, _force), count in zip(steps, counts)]))

    pending: dict[bytes, tuple] = {}  # step key -> (plan, VariantSpec)
    resolved: dict[bytes, EvaluationRecord] = {}
    aliases: dict[bytes, bytes] = {}  # no-op step key -> predecessor key

    def known(key: bytes) -> bool:
        return key in known_records or key in resolved or key in pending \
            or key in aliases

    def capture(key: bytes, state: list) -> None:
        """Queue one variant for the deferred batch (or refresh epoch)."""
        inc, plan, plan_slots, clamps = state[0], state[3], state[4], \
            state[5]
        if plan is None or (inc.n_live < _PLAN_REFRESH * plan.n_gates
                            and plan.n_gates * n_words
                            >= _PLAN_REFRESH_MIN_WORK):
            # New epoch: the plan captured now *is* this variant; later
            # steps on this chain describe themselves against it.
            plan = inc.plan()
            plan_slots = len(inc.ops)
            clamps = {}
            state[3], state[4], state[5] = plan, plan_slots, clamps
        pending[key] = (plan, inc.variant_spec(dict(clamps), plan_slots))

    def merge_clamps(state: list, applied: dict) -> None:
        """Fold a tie's applied clamp map into the state's epoch clamps."""
        plan = state[3]
        if plan is not None:
            plan_nets = plan.n_nets
            clamps = state[5]
            for node, value in applied.items():
                if node < plan_nets:
                    clamps[node] = value

    def refold(state: list, ci: int, count: int, key: bytes) -> list:
        """Rebuild a state's prune-set prefix from scratch, in place.

        The degenerate-tie fallback: the variant is synthesized and
        evaluated directly (structure exact by construction), and the
        state restarts in the rebuilt node space with a fresh plan
        epoch.
        """
        gates_l, consts_l, _gates_np, _steps = chain_arrays[ci]
        force_by_node = {n_fixed + gate_idx: value
                         for gate_idx, value
                         in zip(gates_l[:count], consts_l[:count])}
        pruned, chain_map = synthesize_arrays(base, force_by_node)
        state[:] = [IncrementalCircuit.from_arrays(pruned, shared=True),
                    chain_map, count, None, 0, {}, key]
        if not known(key):
            resolved[key] = evaluator.evaluate(pruned)
        return state

    def advance(state: list, applied: dict, count: int,
                key: bytes) -> list:
        """Make a successful tie the state's step ``key``, in place."""
        state[2] = count
        merge_clamps(state, applied)
        if not known(key):
            if applied:
                capture(key, state)
            else:
                # A no-op step: tie() replaced nothing, so the circuit
                # (and with it the record) is the predecessor's.  Never
                # the base state's: a root ties at least one live gate.
                aliases[key] = state[6]
        state[6] = key
        return state

    def apply_step(state: list, ci: int, depth: int, key: bytes) -> list:
        """Advance a chain state by one prune step, in place."""
        gates_l, consts_l, _gates_np, steps = chain_arrays[ci]
        count = steps[depth][1]
        lo = state[2]
        applied = state[0].tie_gates(gates_l[lo:count],
                                     consts_l[lo:count], state[1])
        if applied is None:
            return refold(state, ci, count, key)
        return advance(state, applied, count, key)

    def fork(state: list) -> list:
        return [state[0].fork(), state[1], state[2], state[3], state[4],
                dict(state[5]), state[6]]

    def tie_root(source: list, ci: int, gates: list, consts: list,
                 key: bytes) -> list | None:
        """Chain ``ci``'s root: ``gates`` tied onto a fork of ``source``.

        ``source`` is never mutated, and the root inherits its plan
        epoch and clamps.  ``None`` when the tie is refused.
        """
        state = fork(source)
        applied = state[0].tie_gates(gates, consts, state[1])
        if applied is None:
            return None
        return advance(state, applied, chain_arrays[ci][3][0][1], key)

    def record_rows(ids: list[int], depth: int, key: bytes) -> None:
        n_pruned = chain_arrays[ids[0]][3][depth][1]
        for ci in ids:
            results[ci].append((chain_arrays[ci][3][depth][0], key,
                                n_pruned))

    def groups(chain_ids, depth: int) -> list[tuple[bytes, list[int]]]:
        """The chains that reach ``depth``, grouped by that step's key."""
        found: dict[bytes, list[int]] = {}
        for ci in chain_ids:
            gates_np = chain_arrays[ci][2]
            steps = chain_arrays[ci][3]
            if depth < len(steps):
                key = np.sort(gates_np[:steps[depth][1]]).tobytes()
                found.setdefault(key, []).append(ci)
        return list(found.items())

    def branches(chain_ids, depth: int, state: list) -> list[tuple]:
        """The trie branches below ``state``, last sibling first.

        Sibling branches mutate the chain state in place, so every
        branch but the last works on a fork of the shared prefix; the
        flag marks the one that may take ``state`` over.
        """
        items = groups(chain_ids, depth)
        return [(key, ids, depth, state, position == len(items) - 1)
                for position, (key, ids) in reversed(list(enumerate(items)))]

    def visit(chain_ids: list[int], depth: int, state: list) -> None:
        """Walk the subtree below ``state`` depth first.

        An explicit stack, not recursion: a nested function that calls
        itself is a reference cycle, which would keep the whole walk —
        base circuit, epoch plans, queued specs — alive until the next
        full garbage collection.
        """
        stack = branches(chain_ids, depth, state)
        while stack:
            key, ids, depth, source, last = stack.pop()
            branch = apply_step(source if last else fork(source), ids[0],
                                depth, key)
            record_rows(ids, depth, key)
            stack.extend(branches(ids, depth + 1, branch))

    # The root ladder (the trie's depth-0 layer, see above).  On the
    # default grid the candidate sets nest, so every root whose lowest
    # phi level did not drop builds on the previous one.
    telemetry = _service_telemetry()
    # The base state: the folded base, whose node map is the identity
    # (it is at the fold fixpoint).  A root that cannot build on the
    # previous root forks it and ties its first prune set onto it; the
    # walk never mutates it.
    base_state = [IncrementalCircuit.from_arrays(base),
                  list(range(base.n_nets)), 0, None, 0, {}, None]
    ladder: list | None = None
    ladder_ids = None
    ordered = sorted(groups(range(len(chains)), 0),
                     key=lambda item: chain_arrays[item[1][0]][3][0][1])
    for position, (key, ids) in enumerate(ordered):
        ci = ids[0]
        gates_l, consts_l, gates_np, steps = chain_arrays[ci]
        count = steps[0][1]
        state = None
        if ladder is not None:
            root_ids = gates_np[:count]
            fresh = ~np.isin(root_ids, ladder_ids, assume_unique=True)
            if count - int(np.count_nonzero(fresh)) == ladder_ids.size:
                delta = root_ids[fresh]
                state = tie_root(ladder, ci, delta.tolist(),
                                 space.const_value[delta].tolist(), key)
                if state is None:
                    telemetry.counter("pruner.root_fallbacks", to="base")
        if state is None:
            state = tie_root(base_state, ci, gates_l[:count],
                             consts_l[:count], key)
        if state is None:
            telemetry.counter("pruner.root_fallbacks", to="refold")
            state = refold([None] * 7, ci, count, key)
            ladder = None
        else:
            ladder, ladder_ids = state, np.frombuffer(key, dtype=np.int64)
        record_rows(ids, 0, key)
        # Phi increments run on a fork of the root, so the next root can
        # still build on it; the last root has no successor.
        if any(len(chain_arrays[i][3]) > 1 for i in ids):
            visit(ids, 1, state if position == len(ordered) - 1
                  else fork(state))

    # Deferred evaluation: one batch per plan epoch, each chunk scored
    # and released before the next one is simulated.
    if pending:
        by_plan: dict[int, list] = {}
        for key, (plan, spec) in pending.items():
            by_plan.setdefault(id(plan), [plan, [], []])
            by_plan[id(plan)][1].append(key)
            by_plan[id(plan)][2].append(spec)
        for plan, keys, specs in by_plan.values():
            done = 0
            for sims in BatchedEvaluator(plan, n_vectors,
                                         packed).chunks(specs):
                for record in evaluator.evaluate_batch(sims):
                    resolved[keys[done]] = record
                    done += 1
    # A no-op step's predecessor was queued, refolded, memoized or
    # aliased before it, so insertion order resolves every chain.
    for key, predecessor in aliases.items():
        record = resolved.get(predecessor)
        resolved[key] = record if record is not None \
            else known_records[predecessor]
    if aliases:
        telemetry.counter("pruner.aliased_steps", len(aliases))

    for key, record in resolved.items():
        known_records.setdefault(key, record)
    return [[(phi_c, key, n_pruned, known_records[key])
             for phi_c, key, n_pruned in rows] for rows in results]


def assemble_designs(chains: list, chain_rows: list) -> list[PrunedDesign]:
    """Fold per-chain rows into the final :class:`PrunedDesign` list.

    ``chains`` and ``chain_rows`` are positionally aligned (the output
    of :meth:`NetlistPruner.chain_rows`); chains must arrive in tau-grid
    order so duplicate attribution — the first (tau_c, phi_c) pair that
    produced each unique prune set — is deterministic.  Shared between
    :meth:`NetlistPruner.explore` and the service layer's sharded jobs,
    which is what makes a resumed run reassemble the *exact* cold-run
    list: assembly is a pure function of the rows.
    """
    designs: list[PrunedDesign] = []
    seen: dict[object, tuple[PrunedDesign, tuple[float, int]]] = {}
    for (tau_c, _), rows in zip(chains, chain_rows):
        for phi_c, key, n_pruned, record in rows:
            if key in seen:
                first, origin = seen[key]
                designs.append(PrunedDesign(
                    tau_c, phi_c, n_pruned, first.record,
                    duplicate_of=origin))
                continue
            design = PrunedDesign(tau_c, phi_c, n_pruned, record)
            designs.append(design)
            seen[key] = (design, (tau_c, phi_c))
    return designs


@dataclass
class NetlistPruner:
    """Full-search pruning exploration over one base circuit.

    Args:
        netlist: base circuit (exact or coefficient-approximated —
            the cross-layer flow runs both), an
            :class:`~repro.hw.synthesis.ArrayCircuit`.  A base marked
            ``folded`` (every builder's optimized circuit) is pruned as
            is: the pruner reads the caller's circuit and caches no
            plan on it.  Any other base is folded and stripped once at
            construction, and the pruner prunes that private fold
            output; a raw base is replaced here by its folded form.
        evaluator: stimulus/scoring context; training activity defines
            tau, the test set scores every pruned variant.
        tau_grid: the tau_c sweep (defaults to the paper's 80..99%).
        engine: walk override — ``None`` (default) inherits the
            evaluator's ``engine``.  ``"auto"`` runs the batched trie
            walk where the host supports the compiled word layout;
            ``"bigint"`` runs the oracle walk (one from-scratch
            synthesis and bigint simulation per unique prune set).
            Both return the identical design list.

    A pruner holds no processes: it walks in the process that calls
    it, which may be a worker of the framework's family executor.

    ``_space`` takes a :class:`PruneSpace` already built over this
    base's fold output (``space.netlist``); the pruner then skips the
    training simulation and phi.  The service prepares each base once
    this way and hands the space to every later job on it.
    """

    netlist: ArrayCircuit
    evaluator: CircuitEvaluator
    tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID
    engine: str | None = None
    _space: PruneSpace | None = field(default=None, repr=False)
    _record_memo: dict = field(default_factory=dict, repr=False)
    _base_arrays: ArrayCircuit = field(init=False, repr=False)
    # One ``{kind, engine, to, error[, request_id]}`` dict per engine
    # fallback, for the pruner's lifetime; the service layer's
    # JobReport copies it.
    fallbacks: list = field(init=False, default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.engine is not None:
            check_engine(self.engine)
        # Fold and strip the base once, here: a raw base's gate ids name
        # logic the folding walks never see.  Everything after this
        # reads the fold output, which is the caller's circuit when it
        # came marked ``folded``: the training pass and the walks build
        # plans of their own, so none is cached on it.
        self._base_arrays, changed = _fold_base(self.netlist)
        if changed:
            self.netlist = self._base_arrays

    def resolved_engine(self) -> str:
        """The walk ``engine``/the evaluator select: batched or bigint."""
        if self.engine is None:
            return self.evaluator.resolved_engine()
        return resolve_engine(self.engine)

    def space(self) -> PruneSpace:
        """Lazily simulate the training set and build the statistics."""
        if self._space is None:
            activity = self.evaluator.train_activity(self._base_arrays)
            self._space = PruneSpace.from_activity(self._base_arrays,
                                                   activity)
        return self._space

    def prune(self, tau_c: float, phi_c: int) -> ArrayCircuit:
        """One pruned and resynthesized variant, to score or export."""
        force = self.space().prune_set(tau_c, phi_c)
        return _synthesize_pruned(self._base_arrays, force)

    def explore(self) -> list[PrunedDesign]:
        """Evaluate the full (tau_c, phi_c) design space.

        Identical prune sets arising from different (tau_c, phi_c) pairs
        are evaluated once and recorded as duplicates, so the result list
        still enumerates the paper's full grid.
        """
        return assemble_designs(*self.chain_rows())

    def chain_rows(self, tau_values: tuple | list | None = None
                   ) -> tuple[list, list]:
        """Evaluate the chains of a tau subset; the service shard hook.

        Returns ``(chains, rows)`` where ``chains`` is the non-empty
        ``(tau_c, steps)`` list actually walked and ``rows[i]`` holds
        chain *i*'s ``(phi_c, key, n_pruned, record)`` tuples — exactly
        what :func:`assemble_designs` folds into the final design list.
        ``tau_values`` defaults to the full ``tau_grid``; the service
        layer's sharded explorer (:mod:`repro.service.jobs`) calls this
        per shard and checkpoints the rows, so a killed run re-walks only
        unfinished shards.

        Every walk keys its rows by the sorted-id bytes of
        :func:`prune_key_bytes` and leaves each row's record in the
        pruner's record memo, so the memo transfers between calls and
        engines.
        """
        space = self.space()
        if tau_values is None:
            tau_values = self.tau_grid
        engine = self.resolved_engine()
        chains = [(float(tau_c),
                   [(phi_c, None) for phi_c in space.phi_levels(tau_c)])
                  for tau_c in tau_values]
        chains = [(tau_c, steps) for tau_c, steps in chains if steps]

        telemetry = _service_telemetry()
        walk_start = time.perf_counter()
        with telemetry.span("engine.walk", engine=engine,
                            n_chains=len(chains)):
            chain_rows = self._run_chains(chains, space, engine)
        telemetry.observe("pruner.chain_walk_ms",
                          (time.perf_counter() - walk_start) * 1e3,
                          engine=engine)
        return chains, chain_rows

    def _walk_evaluator(self, engine: str) -> CircuitEvaluator:
        """The evaluator the ``engine`` walk scores with.

        The oracle walk simulates on the bigint loop whatever the
        evaluator's own selector says; the batched walk scores through
        its own batches and takes the evaluator as given.
        """
        if engine == "bigint" and self.evaluator.engine != "bigint":
            return replace(self.evaluator, engine="bigint")
        return self.evaluator

    def _run_chains(self, chains: list, space: PruneSpace,
                    engine: str) -> list:
        """The walk, degrading batched → bigint on faults.

        Both rungs produce bit-identical records (the repo's core
        equivalence contract), so degrading under an evaluation fault
        trades only speed.  Each fallback is appended to
        :attr:`fallbacks`, counted ``pruner.events{kind=engine_fallbacks}``,
        logged as a ``supervision`` event (stamped with the server
        request id, if any) and warned as a ``RuntimeWarning``.
        """
        ladder = ("batched", "bigint") if engine == "batched" \
            else ("bigint",)
        for rung, name in enumerate(ladder):
            walk = _explore_trie_batched if name == "batched" \
                else _explore_bigint
            try:
                fault_point(f"engine.{name}")
                return walk(self._base_arrays, self._walk_evaluator(name),
                            space, chains, self._record_memo)
            except Exception as exc:
                if rung == len(ladder) - 1:
                    raise
                event = {"kind": "engine_fallbacks", "engine": name,
                         "to": ladder[rung + 1], "error": repr(exc)}
                telemetry = _service_telemetry()
                request_id = telemetry.current_request_id()
                if request_id is not None:
                    event["request_id"] = request_id
                self.fallbacks.append(event)
                telemetry.counter("pruner.events", kind="engine_fallbacks")
                telemetry.event({"type": "supervision",
                                 "ts": round(time.time(), 6), **event})
                warnings.warn(
                    f"exploration failed on the {name!r} engine "
                    f"({exc!r}); degrading to {ladder[rung + 1]!r}",
                    RuntimeWarning, stacklevel=4)
        raise AssertionError("unreachable: ladder is never empty")

    def explore_legacy(self, synthesis: str = "compiled"
                       ) -> list[PrunedDesign]:
        """The original per-grid-point exploration (reference oracle).

        Resynthesizes every prune set from the folded base and shares no
        work between grid points; kept for equivalence tests and as the
        baseline of ``benchmarks/bench_simulate.py``.  ``synthesis``
        selects the compiled array engine (default) or the builder-replay
        ``"reference"`` implementation — the seed pipeline is recovered
        with ``synthesis="reference"`` plus a ``"bigint"``-engine
        evaluator; only that replay builds a
        :class:`~repro.hw.netlist.Netlist` (the folded base's, once) and
        converts each of its results back to rows.
        """
        reference = None
        if synthesis == "reference":
            reference = self._base_arrays.to_netlist()
        space = self.space()
        designs: list[PrunedDesign] = []
        seen: dict[frozenset, tuple[PrunedDesign, tuple[float, int]]] = {}
        for tau_c in self.tau_grid:
            for phi_c in space.phi_levels(tau_c):
                force = space.prune_set(tau_c, phi_c)
                if not force:
                    continue
                key = frozenset(force)
                if key in seen:
                    first, origin = seen[key]
                    designs.append(PrunedDesign(
                        float(tau_c), phi_c, len(force), first.record,
                        duplicate_of=origin))
                    continue
                pruned = _synthesize_pruned(self._base_arrays, force) \
                    if reference is None \
                    else ArrayCircuit.from_netlist(synthesize_reference(
                        reference, force_constants=force))[0]
                record = self.evaluator.evaluate(pruned)
                design = PrunedDesign(float(tau_c), phi_c, len(force), record)
                designs.append(design)
                seen[key] = (design, (float(tau_c), phi_c))
        return designs
