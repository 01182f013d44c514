"""The folding rules, written once, over integer node ids.

The paper's flow leans on synthesis-style constant folding twice: a
bespoke constant multiplier folds to wiring when the circuit is built
(Fig. 1), and every (tau_c, phi_c) prune set is tied to constants and
resynthesized (Section III-C, step 5).  :class:`FoldRules` states those
rules once — constant propagation, operand deduplication, complement
detection, double-inversion removal, MUX strength reduction — over int
node ids, with ``0``/``1`` the constant ties.  Subclasses supply the
hooks:

* ``_complement(x)`` — the known inverse of node ``x``, or ``-1``;
* ``_is_complement(a, b)`` — whether ``b`` is the known inverse of
  ``a``;
* ``_gate(op, a, b, c)`` — the node computing ``op(a, b, c)`` once no
  rule applies: a structural-hash hit, or a new gate.

Two kinds of circuit use the kernel:

* :class:`RowFolder` appends each surviving gate as a row of the flat
  :class:`~repro.hw.synthesis.ArrayCircuit` arrays.  The synthesis fold
  pass (``_fold_arrays``) replays a circuit's rows through a fresh one,
  and :class:`~repro.hw.array_builder.ArrayEmitter` extends it to fold
  bespoke circuits at emission time.
* :class:`~repro.hw.incremental.IncrementalCircuit` refolds the gates a
  constant tie touches; its hooks validate its lazily maintained
  indices.

The per-gate builders of :class:`~repro.hw.netlist.Netlist` apply the
same rules, branch order included, through driver-table lookups; they
stay as the readable oracle every fast path is tested against.
"""

from __future__ import annotations

from .compiled import (
    OP_AND,
    OP_INV,
    OP_MUX,
    OP_NAND,
    OP_NOR,
    OP_OR,
    OP_XNOR,
    OP_XOR,
)

__all__ = ["FoldRules", "RowFolder", "cse_key"]


def cse_key(op: int, a: int, b: int, c: int) -> int:
    """Structural-hash key packing (opcode, operands) into one int.

    Int keys hash measurably faster than tuples on the hottest dicts of
    the exploration.  Two-input cells are commutative, so their operands
    hash sorted (the gate itself keeps the order it was given in).
    """
    if op == OP_MUX:
        return OP_MUX | (a << 4) | (b << 34) | (c << 64)
    return (op | (b << 4) | (a << 34)) if a > b else (op | (a << 4) | (b << 34))


class FoldRules:
    """The folding rules; subclasses implement the three hooks."""

    __slots__ = ()

    def _complement(self, x: int) -> int:
        raise NotImplementedError

    def _is_complement(self, a: int, b: int) -> bool:
        raise NotImplementedError

    def _gate(self, op: int, a: int, b: int, c: int) -> int:
        raise NotImplementedError

    def not_(self, x: int) -> int:
        if x < 2:
            return 1 - x
        inv = self._complement(x)
        if inv >= 0:
            return inv
        return self._gate(OP_INV, x, 0, 0)

    def and_(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        if a == b:
            return a
        if self._is_complement(a, b):
            return 0
        return self._gate(OP_AND, a, b, 0)

    def or_(self, a: int, b: int) -> int:
        if a == 1 or b == 1:
            return 1
        if a == 0:
            return b
        if b == 0:
            return a
        if a == b:
            return a
        if self._is_complement(a, b):
            return 1
        return self._gate(OP_OR, a, b, 0)

    def xor_(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        if a == 1:
            return self.not_(b)
        if b == 1:
            return self.not_(a)
        if a == b:
            return 0
        if self._is_complement(a, b):
            return 1
        return self._gate(OP_XOR, a, b, 0)

    def nand_(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 1
        if a == 1:
            return self.not_(b)
        if b == 1:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        if self._is_complement(a, b):
            return 1
        return self._gate(OP_NAND, a, b, 0)

    def nor_(self, a: int, b: int) -> int:
        if a == 1 or b == 1:
            return 0
        if a == 0:
            return self.not_(b)
        if b == 0:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        if self._is_complement(a, b):
            return 0
        return self._gate(OP_NOR, a, b, 0)

    def xnor_(self, a: int, b: int) -> int:
        return self.not_(self.xor_(a, b))

    def mux_(self, a: int, b: int, sel: int) -> int:
        """Two-way multiplexer: ``b`` when ``sel`` is 1, else ``a``."""
        if sel == 0:
            return a
        if sel == 1:
            return b
        if a == b:
            return a
        if a == 0:
            return self.and_(b, sel)
        if a == 1:
            return self.or_(b, self.not_(sel))
        if b == 0:
            return self.and_(a, self.not_(sel))
        if b == 1:
            return self.or_(a, sel)
        if b == sel:  # sel ? sel : a  ==  a | sel
            return self.or_(a, sel)
        if a == sel:  # sel ? b : sel  ==  b & sel
            return self.and_(b, sel)
        return self._gate(OP_MUX, a, b, sel)

    def fold(self, op: int, a: int, b: int, c: int) -> int:
        """Fold one gate given by opcode and operands; returns its node."""
        if op == OP_AND:
            return self.and_(a, b)
        if op == OP_XOR:
            return self.xor_(a, b)
        if op == OP_OR:
            return self.or_(a, b)
        if op == OP_INV:
            return self.not_(a)
        if op == OP_MUX:
            return self.mux_(a, b, c)
        if op == OP_NAND:
            return self.nand_(a, b)
        if op == OP_NOR:
            return self.nor_(a, b)
        if op == OP_XNOR:
            return self.xnor_(a, b)
        return a  # OP_BUF


class RowFolder(FoldRules):
    """Folds gates into appended flat rows; node ids are ``n_fixed + row``.

    Owns the int-packed structural-hash table and the symmetric inverse
    registry.  INV rows only ever come from :meth:`not_`, registered both
    ways, so the registry serves double-inversion removal and complement
    detection alike.  ``levels`` holds each row's topological depth
    (constants and inputs at 0), so the simulation plan never has to
    re-levelize the circuit.
    """

    __slots__ = ("n_fixed", "ops", "ina", "inb", "inc", "levels",
                 "_node_level", "_inv", "_cse")

    def __init__(self, n_fixed: int) -> None:
        self.n_fixed = n_fixed
        self.ops: list[int] = []
        self.ina: list[int] = []
        self.inb: list[int] = []
        self.inc: list[int] = []
        self.levels: list[int] = []
        # Topological depth per node id, fixed nodes included.
        self._node_level: list[int] = [0] * n_fixed
        self._inv: dict[int, int] = {}
        self._cse: dict[int, int] = {}

    def _complement(self, x: int) -> int:
        return self._inv.get(x, -1)

    def _is_complement(self, a: int, b: int) -> bool:
        return self._inv.get(a) == b

    def _gate(self, op: int, a: int, b: int, c: int) -> int:
        if op == OP_INV:
            node = self._row(op, a, 0, 0)
            self._inv[a] = node
            self._inv[node] = a
            return node
        key = cse_key(op, a, b, c)
        hit = self._cse.get(key)
        if hit is not None:
            return hit
        node = self._row(op, a, b, c)
        self._cse[key] = node
        return node

    def _row(self, op: int, a: int, b: int, c: int) -> int:
        # Unused operand slots hold node 0 (level 0), so one level
        # formula serves every arity.
        lvl = self._node_level
        la, lb, lc = lvl[a], lvl[b], lvl[c]
        level = (la if la > lb else lb)
        level = (level if level > lc else lc) + 1
        node = self.n_fixed + len(self.ops)
        self.ops.append(op)
        self.ina.append(a)
        self.inb.append(b)
        self.inc.append(c)
        self.levels.append(level)
        lvl.append(level)
        return node
