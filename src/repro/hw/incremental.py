"""Incremental constant-tie rewriting on a folded circuit.

The pruning exploration applies a *growing* sequence of constant ties to
one base circuit.  Re-folding the whole circuit per prune set costs
O(circuit) per design; this module maintains a mutable, already-folded
circuit and applies each tie by rewriting only the affected fanout cone
(plus the dead fanin it leaves behind), which is typically a few dozen
gates.

Each touched gate is refolded by :class:`~repro.hw.fold.FoldRules`, the
same rule kernel the batch fold pass and the array builder run, so the
rewriter states no rule of its own.  Correctness rests on a property of
those rules: their outcome is determined by circuit *structure*, not by
gate visit order.  Operands always precede their consumers, every INV
pair is registered before any gate that could fold over it, and
structural hashing is keyed purely on (opcode, operands).  The rewriter
maintains the same three indices the batch fold builds (structural-hash
table, inverse pairs, reference counts), so draining a tie's worklist
reaches the same live-gate multiset the batch fold would produce from
scratch — pinned down by the exploration equivalence tests against
``explore_legacy``, random netlists with every cell type included.

Unlike the batch fold, the hash table and the inverse-pair index are
maintained *lazily*: killing or rewiring a gate leaves its stale entries
in place, and every read validates the entry against the gate's current
(opcode, operands, liveness) before trusting it.  A stale entry can
only ever *miss* (node ids are never reused), so validated reads return
exactly what an eagerly-scrubbed index would — but the kill cascade that
strips a tied gate's dead fanin cone (the dominant cost of a tie,
~25% of exploration time before this change) reduces to a pure
refcount worklist with no hash-key arithmetic or dict deletions.

Node ids are *stable*: a rewritten gate keeps its id, a folded-away gate
leaves a forwarding pointer to its replacement, and dead slots simply
stop being live.  The circuit feeds the batched evaluation path in that
id space: :meth:`IncrementalCircuit.plan` levelizes the live gates
without compaction, so constant-tie masks and helper-gate descriptors
reference nodes directly, and :meth:`IncrementalCircuit.variant_spec`
captures one applied tie set as a
:class:`~repro.hw.compiled.VariantSpec` for
:class:`~repro.hw.compiled.BatchedEvaluator`.

A conservative work cap guards against any unforeseen rewrite cascade;
hitting it raises :class:`RewriteOverflow` and the exploration falls
back to the batch fold for that step.
"""

from __future__ import annotations

import numpy as np

from .compiled import OP_BUF, OP_INV, OP_MUX
from .fold import FoldRules, cse_key

__all__ = ["IncrementalCircuit", "RewriteOverflow"]


class RewriteOverflow(RuntimeError):
    """Raised when a tie's rewrite cascade exceeds the safety cap."""


class IncrementalCircuit(FoldRules):
    """A folded circuit under incremental constant-tie rewriting."""

    __slots__ = ("n_fixed", "ops", "ina", "inb", "inc", "level", "alive",
                 "rc", "fanout", "fanout_owned", "cse", "inv_of", "forward",
                 "outputs", "out_nodes", "signed", "input_buses", "n_live",
                 "_work", "_ops_np", "shared", "_slot", "_created",
                 "_pending")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(circ, shared: bool = False) -> "IncrementalCircuit":
        """Build the mutable state from a freshly folded ArrayCircuit.

        ``circ`` is :func:`~repro.hw.synthesis.synthesize_arrays` output,
        so it carries its gate levels.  ``shared`` marks every node
        shared, so any later :meth:`tie` refuses: pass it when ``circ``
        is a forced fold, whose structural-hash hand-outs went
        unrecorded.  An unforced fold of an already-folded circuit
        shares nothing.
        """
        self = IncrementalCircuit()
        n_fixed = circ.n_fixed
        ops = list(circ.ops)
        ina = list(circ.ina)
        inb = list(circ.inb)
        inc = list(circ.inc)
        n_gates = len(ops)
        n_nodes = n_fixed + n_gates
        self.n_fixed = n_fixed
        self.ops, self.ina, self.inb, self.inc = ops, ina, inb, inc
        self.level = list(circ.levels)
        self.alive = bytearray(b"\x01") * n_gates if n_gates else bytearray()
        self.n_live = n_gates
        rc = [0] * n_nodes
        fanout: list[list[int]] = [[] for _ in range(n_nodes)]
        cse: dict[int, int] = {}
        inv_of = [-1] * n_nodes
        self.shared = bytearray(b"\x01" if shared else b"\x00") * n_nodes
        for k in range(n_gates):
            op = ops[k]
            node = n_fixed + k
            a = ina[k]
            rc[a] += 1
            fanout[a].append(k)
            cse[cse_key(op, a, inb[k], inc[k])] = node
            if op == OP_INV:
                inv_of[a] = node
                inv_of[node] = a
                continue
            b = inb[k]
            rc[b] += 1
            fanout[b].append(k)
            if op == OP_MUX:
                c = inc[k]
                rc[c] += 1
                fanout[c].append(k)
        self.rc = rc
        self.fanout = fanout
        # Copy-on-write ownership: forked states share fanout lists and
        # privatize them on first mutation (ties touch few nodes).
        self.fanout_owned = bytearray(b"\x01") * n_nodes if n_nodes \
            else bytearray()
        self.cse = cse
        self.inv_of = inv_of
        self.forward = {}
        self.outputs = {nm: list(nodes) for nm, nodes in circ.outputs.items()}
        # The nodes driving output bits: a replacement scans the buses
        # only when it retires one of them.
        self.out_nodes = set()
        self.signed = dict(circ.signed)
        self.input_buses = circ.input_buses
        for nodes in self.outputs.values():
            for node in nodes:
                rc[node] += 1
            self.out_nodes.update(nodes)
        self._work = 0
        self._ops_np = None
        return self

    def fork(self) -> "IncrementalCircuit":
        """Independent copy (the exploration trie branches on it)."""
        other = IncrementalCircuit()
        other.n_fixed = self.n_fixed
        other.ops = list(self.ops)
        other.ina = list(self.ina)
        other.inb = list(self.inb)
        other.inc = list(self.inc)
        other.level = list(self.level)
        other.alive = bytearray(self.alive)
        other.n_live = self.n_live
        other.rc = list(self.rc)
        # Share the fanout lists; both sides mark them un-owned so any
        # later mutation (on either side) copies its list first.  A
        # state is only mutated after every fork taken from it has been
        # fully consumed, so sharing never leaks writes.
        other.fanout = list(self.fanout)
        self.fanout_owned = bytearray(len(self.fanout))
        other.fanout_owned = bytearray(len(self.fanout))
        other.cse = dict(self.cse)
        other.inv_of = list(self.inv_of)
        other.shared = bytearray(self.shared)
        other.forward = dict(self.forward)
        other.outputs = {nm: list(n) for nm, n in self.outputs.items()}
        other.out_nodes = set(self.out_nodes)
        other.signed = dict(self.signed)
        other.input_buses = self.input_buses
        other._work = 0
        # Opcodes are append-only, so the mirror is shared: extensions
        # reallocate, never write into the common prefix.
        other._ops_np = self._ops_np
        return other

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve(self, node: int) -> int:
        """Follow forwarding pointers to the node's current identity."""
        forward = self.forward
        seen = None
        while node in forward:
            if seen is None:
                seen = []
            seen.append(node)
            node = forward[node]
        if seen:
            for src in seen:  # path compression
                forward[src] = node
        return node

    def is_live_signal(self, node: int) -> bool:
        """True when the node still carries a signal (input or live gate)."""
        if node < self.n_fixed:
            return True
        return bool(self.alive[node - self.n_fixed])

    def _own_fanout(self, node: int) -> list[int]:
        """The node's fanout list, privatized for mutation (COW)."""
        fan = self.fanout[node]
        if not self.fanout_owned[node]:
            fan = list(fan)
            self.fanout[node] = fan
            self.fanout_owned[node] = 1
        return fan

    # ------------------------------------------------------------------
    # Tie application
    # ------------------------------------------------------------------
    def tie(self, ties: dict[int, int]) -> dict[int, int]:
        """Tie each (resolved, live) node to its constant and refold.

        ``ties`` may name nodes that already forwarded to the requested
        constant (no-ops), and unforwarded, unshared nodes stripped as
        dead (skipped).  ValueError — which callers answer with a
        from-scratch fold — is raised for:

        * a node forwarded to the *opposite* constant;
        * a node forwarded to any other node, live or dead: a collapse
          moved its function there, so tying it would tie that other
          logic (or silently skip the tie when the target died since);
        * a node marked ``shared``, live or dead (handed out by a
          structural-hash hit, or the INV gate of a complement pair a
          fold relied on): a fold that saw through it outlives it.

        The batch fold never ties logic beyond the named gate, so only
        a tie on a node carrying its own gate alone stays exact.

        Returns the ties as *applied*: the map from each live node that
        was actually replaced by a constant to that constant (entries
        already folded to their constant or stripped as dead drop out).
        It is exactly the clamp set a simulation of the *pre-tie*
        circuit needs to reproduce this variant (the batched evaluator's
        per-variant constant-tie mask).
        """
        self._work = 0
        budget = 64 * (len(self.ops) + self.n_fixed) + 4096
        created: list[int] = []
        self._created = created
        # Slots whose operands changed, awaiting their refold.
        self._pending: list[int] = []
        applied: dict[int, int] = {}
        for node, value in ties.items():
            target = self.resolve(node)
            if target < 2:
                if target != value:
                    raise ValueError("tie conflicts with folded constant")
                continue
            if target != node or self.shared[target]:
                raise ValueError("tie target is shared with other logic")
            if not self.is_live_signal(target):
                continue  # the signal was stripped as dead
            applied[target] = value
            self._replace(target, 1 if value else 0)
        self._drain(budget)
        # Helper gates whose uses all folded away mirror the batch
        # fold's final dead-strip.
        for slot in created:
            node = self.n_fixed + slot
            if self.alive[slot] and self.rc[node] == 0:
                self._kill(slot)
        return applied

    def tie_gates(self, gate_ids, values, node_map):
        """Tie base-circuit gates by id through a base-node → node map.

        The exploration's step application in one place: every chain
        step expresses a prune delta as parallel ``gate_ids`` /
        ``values`` sequences over the *base* circuit plus the node map
        of the chain's root fold.  Gates the root fold already stripped
        as dead (``node_map`` entry < 0) contribute nothing; two gates
        merging onto one live node with opposite constants — or a tie
        :meth:`tie` refuses, or a rewrite-cascade overflow — return
        ``None``, and the caller must discard this (possibly partially
        rewritten) state and refold from scratch.

        Returns the applied clamp map of :meth:`tie` on success.
        """
        n_fixed = self.n_fixed
        ties: dict[int, int] = {}
        for gate_idx, value in zip(gate_ids, values):
            node = node_map[n_fixed + gate_idx]
            if node < 0:
                continue  # already stripped as dead at the chain root
            if ties.get(node, value) != value:
                return None  # two deltas merged onto one node
            ties[node] = value
        try:
            return self.tie(ties)
        except (ValueError, RewriteOverflow):
            return None  # degenerate: caller rebuilds from scratch

    # ------------------------------------------------------------------
    # Rewrite machinery
    # ------------------------------------------------------------------
    # Unused operand slots hold node 0 (level 0, never rewired), so one
    # level formula and one structural-hash key serve every arity.
    def _operand_count(self, op: int) -> int:
        if op == OP_INV or op == OP_BUF:
            return 1
        return 3 if op == OP_MUX else 2

    # -- lazily-validated indices --------------------------------------
    # Kills and rewires leave stale entries in ``cse``/``inv_of``; these
    # readers check an entry against the gate's current structure before
    # trusting it.  Node ids are never reused, so a stale entry can only
    # miss — validated reads are behaviorally identical to the eager
    # delete-on-kill maintenance they replaced, at a fraction of the
    # kill-cascade cost.

    def _complement(self, x: int) -> int:
        """Rule hook: the validated complement node of ``x``, or -1.

        The pair's INV gate is marked shared: the fold that uses it
        would not happen once that gate is tied.
        """
        partner = self.inv_of[x]
        if partner < 0:
            return -1
        n_fixed = self.n_fixed
        s = partner - n_fixed
        if s >= 0 and self.alive[s] and self.ops[s] == OP_INV \
                and self.ina[s] == x:
            self.shared[partner] = 1
            return partner
        s = x - n_fixed
        if s >= 0 and self.alive[s] and self.ops[s] == OP_INV \
                and self.ina[s] == partner:
            self.shared[x] = 1
            return partner
        return -1

    def _is_complement(self, a: int, b: int) -> bool:
        """Rule hook: ``b`` is the validated complement of ``a``."""
        return self.inv_of[a] == b and self._complement(a) == b

    def _cse_hit(self, key: int) -> int:
        """Validated structural-hash lookup: a live, matching node or -1.

        Keys are injective, so a gate matches exactly when its current
        structure still packs to ``key``.
        """
        node = self.cse.get(key)
        if node is None:
            return -1
        s = node - self.n_fixed
        if s >= 0 and self.alive[s] and cse_key(
                self.ops[s], self.ina[s], self.inb[s], self.inc[s]) == key:
            return node
        return -1

    def _kill(self, slot: int) -> None:
        """Remove a gate with no remaining uses; cascade into its fanin.

        Pure worklist refcount updates: the gate's ``cse``/``inv_of``
        entries go stale instead of being scrubbed (validated readers
        ignore them), so each dead gate costs a few list writes.
        """
        ops, ina, inb, inc = self.ops, self.ina, self.inb, self.inc
        alive, rc = self.alive, self.rc
        n_fixed = self.n_fixed
        stack = [slot]
        n_killed = 0
        while stack:
            s = stack.pop()
            if not alive[s]:
                continue
            alive[s] = 0
            n_killed += 1
            op = ops[s]
            a = ina[s]
            rc[a] -= 1
            if rc[a] == 0 and a >= n_fixed and alive[a - n_fixed]:
                stack.append(a - n_fixed)
            if op != OP_INV and op != OP_BUF:
                b = inb[s]
                rc[b] -= 1
                if rc[b] == 0 and b >= n_fixed and alive[b - n_fixed]:
                    stack.append(b - n_fixed)
                if op == OP_MUX:
                    c = inc[s]
                    rc[c] -= 1
                    if rc[c] == 0 and c >= n_fixed and alive[c - n_fixed]:
                        stack.append(c - n_fixed)
        self.n_live -= n_killed

    def _replace(self, old: int, new: int) -> None:
        """Repoint every use of ``old`` to ``new``; ``old`` dies."""
        if old == new:
            return
        self.forward[old] = new
        n_fixed = self.n_fixed
        rc = self.rc
        alive = self.alive
        ina, inb, inc = self.ina, self.inb, self.inc
        pending = self._pending
        consumers = self.fanout[old]
        self.fanout[old] = []
        self.fanout_owned[old] = 1
        new_fan = self._own_fanout(new) if new >= 2 else None
        for slot in consumers:
            if not alive[slot]:
                continue
            a, b, c = ina[slot], inb[slot], inc[slot]
            if a != old and b != old and c != old:
                continue  # stale fanout entry from an earlier rewire
            moved = 0
            if a == old:
                # (An INV gate stops being INV(old) here; its stale
                # cse/inv_of entries fail validation until the refold
                # re-registers it for the new input.)
                ina[slot] = new
                moved += 1
            if b == old:
                inb[slot] = new
                moved += 1
            if c == old:
                inc[slot] = new
                moved += 1
            rc[old] -= moved
            rc[new] += moved
            if new_fan is not None:
                new_fan.append(slot)
            if new >= n_fixed \
                    and self.level[new - n_fixed] >= self.level[slot]:
                self._raise_level(slot)
            pending.append(slot)
        # Output buses referencing the old signal follow it.
        out_nodes = self.out_nodes
        if old in out_nodes:
            out_nodes.discard(old)
            out_nodes.add(new)
            for nodes in self.outputs.values():
                for i, node in enumerate(nodes):
                    if node == old:
                        nodes[i] = new
                        rc[old] -= 1
                        rc[new] += 1
        if old >= n_fixed:
            slot = old - n_fixed
            if self.alive[slot] and rc[old] == 0:
                self._kill(slot)

    def _raise_level(self, slot: int) -> None:
        """Restore level[gate] > level[operands] after a repoint."""
        n_fixed = self.n_fixed
        stack = [slot]
        while stack:
            s = stack.pop()
            depth = max(self._node_level(self.ina[s]),
                        self._node_level(self.inb[s]),
                        self._node_level(self.inc[s])) + 1
            if depth > self.level[s]:
                self.level[s] = depth
                node = n_fixed + s
                for consumer in self.fanout[node]:
                    if self.alive[consumer] \
                            and self.level[consumer] <= depth:
                        stack.append(consumer)

    def _node_level(self, node: int) -> int:
        return self.level[node - self.n_fixed] if node >= self.n_fixed else 0

    def _gate(self, op: int, a: int, b: int, c: int) -> int:
        """Rule hook: the node computing ``op(a, b, c)``.

        A validated structural-hash hit wins.  Otherwise, when the rules
        left the gate being refolded standing, that gate is the answer,
        re-registered under its current operands; anything else is a new
        helper gate (an INV, or the AND/OR a MUX reduces to).
        """
        key = cse_key(op, a, b, c)
        hit = self._cse_hit(key)
        slot = self._slot
        if hit >= 0:
            if hit != self.n_fixed + slot:
                self.shared[hit] = 1  # handed to other logic
            return hit
        if op == self.ops[slot] and a == self.ina[slot] \
                and b == self.inb[slot] and c == self.inc[slot]:
            node = self.n_fixed + slot
            self.cse[key] = node
            if op == OP_INV:
                # A rewired INV: its consumers may have been refolded
                # before this new complement pair was known, so they
                # fold again (the batch fold sees every INV first).
                self.inv_of[a] = node
                self.inv_of[node] = a
                self._pending.extend(self.fanout[node])
            return node
        return self._new_gate(op, a, b, c, key)

    def _new_gate(self, op: int, a: int, b: int, c: int, key: int) -> int:
        slot = len(self.ops)
        node = self.n_fixed + slot
        self.ops.append(op)
        self.ina.append(a)
        self.inb.append(b)
        self.inc.append(c)
        self.level.append(max(self._node_level(a), self._node_level(b),
                              self._node_level(c)) + 1)
        self.alive.append(1)
        self.n_live += 1
        self.rc.append(0)
        self.fanout.append([])
        self.fanout_owned.append(1)
        self.inv_of.append(-1)
        self.shared.append(0)
        for operand in (a, b, c)[:self._operand_count(op)]:
            self.rc[operand] += 1
            self._own_fanout(operand).append(slot)
        self.cse[key] = node
        if op == OP_INV:
            self.inv_of[a] = node
            self.inv_of[node] = a
        self._created.append(slot)
        return node

    def _drain(self, budget: int) -> None:
        """Refold every touched gate until the cascade settles."""
        pending = self._pending
        while pending:
            self._work += 1
            if self._work > budget:
                raise RewriteOverflow("tie rewrite cascade exceeded cap")
            slot = pending.pop()
            if not self.alive[slot]:
                continue
            # Fold the gate under its current operands; a result other
            # than the gate itself replaces it.
            self._slot = slot
            result = self.fold(self.ops[slot], self.ina[slot],
                               self.inb[slot], self.inc[slot])
            node = self.n_fixed + slot
            if result != node:
                self._replace(node, result)

    # ------------------------------------------------------------------
    # Evaluation plan, batched-variant capture
    # ------------------------------------------------------------------
    def plan(self):
        """Levelized evaluation plan over the live gates, in node-id space.

        The plan performs *no compaction*: gate *k* still writes node
        ``n_fixed + k``, so per-variant constant-tie masks and helper
        gates (:meth:`variant_spec`) can address the value matrix by the
        stable node ids the rewriter hands out.  This is the shared plan
        one :class:`~repro.hw.compiled.BatchedEvaluator` batch of sibling
        variants evaluates against.
        """
        from .compiled import CompiledNetlist

        n_fixed = self.n_fixed
        ops = self._ops_array()
        ina = np.array(self.ina, dtype=np.int64)
        inb = np.array(self.inb, dtype=np.int64)
        inc = np.array(self.inc, dtype=np.int64)
        level = np.array(self.level, dtype=np.int64)
        plan = CompiledNetlist.__new__(CompiledNetlist)
        plan.netlist = self
        plan.n_nets = n_fixed + len(ops)
        live = np.flatnonzero(np.frombuffer(bytes(self.alive),
                                            dtype=np.uint8))
        plan.n_gates = int(live.size)
        if live.size == 0:
            plan.gate_out = np.zeros(0, dtype=np.int64)
            plan._empty_plan()
            return plan
        order = live[np.argsort(level[live] << np.int64(4) | ops[live],
                                kind="stable")]
        plan.gate_out = n_fixed + order
        plan._build_plan(ops[order], ina[order], inb[order], inc[order],
                         plan.gate_out, level[order])
        return plan

    def _ops_array(self) -> np.ndarray:
        """Append-only NumPy mirror of ``ops`` (opcodes never mutate).

        Shared across forks: an extension reallocates instead of writing
        into the common prefix, so a refresh is O(appended).
        """
        arr = self._ops_np
        n = len(self.ops)
        if arr is None:
            arr = np.fromiter(self.ops, dtype=np.int64, count=n)
            self._ops_np = arr
        elif len(arr) < n:
            arr = np.concatenate(
                (arr, np.fromiter(self.ops[len(arr):], dtype=np.int64,
                                  count=n - len(arr))))
            self._ops_np = arr
        return arr

    def variant_spec(self, ties: dict[int, int], n_parent_slots: int):
        """Capture the circuit *after* a tie as a batched-variant spec.

        ``ties`` is the accumulated clamp set (union of :meth:`tie`
        return values along the chain), expressed against the parent
        circuit whose :meth:`plan` the batch evaluates;
        ``n_parent_slots`` is ``len(parent.ops)`` at plan time.  Slots
        at or past that index are helper gates the rewrites created —
        absent from the shared plan, replayed per-variant by the batch
        evaluator (in level order, so operands always precede their
        consumers).
        """
        from .compiled import VariantSpec

        n_fixed = self.n_fixed
        ops_np = self._ops_array()
        alive = np.frombuffer(bytes(self.alive), dtype=np.uint8)
        live = np.flatnonzero(alive)
        split = int(np.searchsorted(live, n_parent_slots))
        parent_live = live[:split]
        helper_slots = live[split:]
        if helper_slots.size:
            level = self.level
            ordered = sorted(helper_slots.tolist(), key=level.__getitem__)
            ina, inb, ops = self.ina, self.inb, self.ops
            helpers = [(n_fixed + s, ops[s], ina[s], inb[s])
                       for s in ordered]
            live_ops = np.concatenate(
                (ops_np[parent_live],
                 ops_np[np.asarray(ordered, dtype=np.int64)]))
        else:
            helpers = []
            live_ops = ops_np[parent_live]
        return VariantSpec(
            ties=ties,
            live_nodes=n_fixed + parent_live,
            live_ops=live_ops,
            helpers=helpers,
            outputs={name: list(nodes)
                     for name, nodes in self.outputs.items()},
            signed=dict(self.signed),
        )
