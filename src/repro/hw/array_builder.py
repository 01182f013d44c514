"""Array-level bespoke emission — the fold-at-emission backend.

The bespoke op sequence is written once, in :mod:`repro.hw.blocks` and
:mod:`repro.hw.bespoke`, against a small emitter interface.  On the
per-gate backend (:class:`~repro.hw.netlist.Netlist`) every gate pays
method dispatch, peephole checks over driver tables, tuple-key
structural hashing and per-net driver bookkeeping, and ``synthesize``
then folds the built netlist all over again.  That per-call cost is the
universal cold-path bound: cold e-sweeps, single explorations, service
cold misses and the multiplier area library all re-instantiate bespoke
datapaths per coefficient radius.

:class:`ArrayEmitter` is the other backend.  It appends each gate as a
row of the flat opcode/operand arrays of the
:class:`~repro.hw.synthesis.ArrayCircuit` layout (node ids are
``n_fixed + row``) and folds *at emission time*: it extends
:class:`~repro.hw.fold.RowFolder`, the one kernel of folding rules
(constant propagation, operand dedup, the symmetric inversion registry,
MUX strength reduction, int-packed structural hashing).  Emission
therefore lands directly on the fold fixpoint — a full circuit
materializes as one pass over flat int lists plus one dead-gate strip,
with no builder objects and no separate fold.

Why this is gate-for-gate identical to the per-gate backend
-----------------------------------------------------------

Construction through the :class:`~repro.hw.netlist.Netlist` folding
builders *is* a streaming fold of the logical op sequence: the builders
apply the kernel's rules, one op at a time, in emission order, and
``synthesize``'s extra pass over the result is a structural identity
(see :func:`~repro.hw.synthesis.synthesize_arrays`).  Both backends
receive the same op sequence by construction — one ``Value`` generator
drives them — and the synthesis fold pass replays rows through the very
kernel the emitter folds with, so a fold pass over the emitted arrays is
the identity transform (``changed == False``) — an invariant the
equivalence tests assert directly.

:meth:`ArrayEmitter.ripple_add` is the one block with its own fused
loop: adders are most of every bespoke circuit, and inlining the carry
chain's five ops per bit over the flat arrays keeps the build stage
clear of per-op rule calls (routing it through the rule methods costs
10-14% of the build stage; see ``docs/ARCHITECTURE.md``).  It applies
the kernel's AND/OR/XOR rules and emits the same ops, in the same
order, as :meth:`Netlist.ripple_add <repro.hw.netlist.Netlist.ripple_add>`.
"""

from __future__ import annotations

from .bespoke import _build, _emit_multiplier, _emit_weighted_sum, emit_bespoke
from .compiled import OP_AND, OP_OR, OP_XOR
from .fold import RowFolder
from .synthesis import ArrayCircuit, _strip_arrays

__all__ = [
    "ArrayEmitter",
    "build_bespoke_arrays",
    "build_weighted_sum_arrays",
    "build_bespoke_multiplier_arrays",
]


class ArrayEmitter(RowFolder):
    """Appends folded gate rows for one circuit; node ids ``n_fixed + row``.

    Implements the emitter interface of :mod:`repro.hw.blocks` on top of
    the :class:`~repro.hw.fold.RowFolder` rule kernel, so the emitted
    arrays are already at the fold fixpoint and only the dead-gate strip
    remains.  Input buses must all be declared before the first gate row
    (the bespoke generators do; it is what keeps node ids final at
    emission time).  ``finish``/``finish_synthesized`` package the rows
    as an :class:`~repro.hw.synthesis.ArrayCircuit`.
    """

    __slots__ = ("name", "input_buses", "outputs", "signed", "meta")

    def __init__(self, name: str = "netlist") -> None:
        super().__init__(2)  # nodes 0/1 are the constant ties
        self.name = name
        self.input_buses: dict[str, list[int]] = {}
        self.outputs: dict[str, list[int]] = {}
        self.signed: dict[str, bool] = {}
        self.meta: dict = {}

    # -- interface -----------------------------------------------------
    @property
    def n_gates(self) -> int:
        return len(self.ops)

    def add_input_bus(self, name: str, width: int) -> list[int]:
        """Declare a primary input bus (before any gate row); its nodes."""
        if self.ops:
            raise ValueError("declare input buses before emitting gates")
        if name in self.input_buses:
            raise ValueError(f"input bus {name!r} already exists")
        if width < 1:
            raise ValueError("bus width must be positive")
        nodes = list(range(self.n_fixed, self.n_fixed + width))
        self.input_buses[name] = nodes
        self.n_fixed += width
        self._node_level.extend([0] * width)
        return list(nodes)

    def set_output_bus(self, name: str, nets: list[int],
                       signed: bool = False) -> None:
        if name in self.outputs:
            raise ValueError(f"output bus {name!r} already exists")
        self.outputs[name] = list(nets)
        self.signed[name] = signed

    # -- block emitters -------------------------------------------------
    def ripple_add(self, a: list[int], b: list[int],
                   cin: int) -> list[int]:
        """Width-preserving ripple-carry sum; returns the sum node ids.

        Per bit, in :meth:`Netlist.ripple_add`'s order: propagate, sum,
        generate, propagate&carry, carry-out.  The whole carry chain lands in one
        inlined loop over the flat row arrays — the kernel's fold rules
        with direct appends; the rule methods only serve the rare
        constant-one operand (bias bits).
        """
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        ops, ina, inb, inc = self.ops, self.ina, self.inb, self.inc
        ops_append, ina_append = ops.append, ina.append
        inb_append, inc_append = inb.append, inc.append
        levels, lvl = self.levels, self._node_level
        levels_append, lvl_append = levels.append, lvl.append
        inv_get = self._inv.get
        cse = self._cse
        cse_get = cse.get
        node = self.n_fixed + len(ops)
        carry = cin
        out = []
        out_append = out.append
        for ai, bi in zip(a, b):
            # propagate = xor(ai, bi)
            if ai == 0:
                p = bi
            elif bi == 0:
                p = ai
            elif ai == 1 or bi == 1:
                p = self.xor_(ai, bi)
                node = self.n_fixed + len(ops)
            elif ai == bi:
                p = 0
            elif inv_get(ai) == bi:
                p = 1
            else:
                key = (OP_XOR | (bi << 4) | (ai << 34)) if ai > bi \
                    else (OP_XOR | (ai << 4) | (bi << 34))
                p = cse_get(key)
                if p is None:
                    p = node
                    node += 1
                    ops_append(OP_XOR)
                    ina_append(ai)
                    inb_append(bi)
                    inc_append(0)
                    la, lb = lvl[ai], lvl[bi]
                    level = (la if la > lb else lb) + 1
                    levels_append(level)
                    lvl_append(level)
                    cse[key] = p
            # sum = xor(propagate, carry)
            if p == 0:
                s = carry
            elif carry == 0:
                s = p
            elif p == 1 or carry == 1:
                s = self.xor_(p, carry)
                node = self.n_fixed + len(ops)
            elif p == carry:
                s = 0
            elif inv_get(p) == carry:
                s = 1
            else:
                key = (OP_XOR | (carry << 4) | (p << 34)) if p > carry \
                    else (OP_XOR | (p << 4) | (carry << 34))
                s = cse_get(key)
                if s is None:
                    s = node
                    node += 1
                    ops_append(OP_XOR)
                    ina_append(p)
                    inb_append(carry)
                    inc_append(0)
                    la, lb = lvl[p], lvl[carry]
                    level = (la if la > lb else lb) + 1
                    levels_append(level)
                    lvl_append(level)
                    cse[key] = s
            out_append(s)
            # generate = and(ai, bi)
            if ai == 0 or bi == 0:
                g = 0
            elif ai == 1:
                g = bi
            elif bi == 1:
                g = ai
            elif ai == bi:
                g = ai
            elif inv_get(ai) == bi:
                g = 0
            else:
                key = (OP_AND | (bi << 4) | (ai << 34)) if ai > bi \
                    else (OP_AND | (ai << 4) | (bi << 34))
                g = cse_get(key)
                if g is None:
                    g = node
                    node += 1
                    ops_append(OP_AND)
                    ina_append(ai)
                    inb_append(bi)
                    inc_append(0)
                    la, lb = lvl[ai], lvl[bi]
                    level = (la if la > lb else lb) + 1
                    levels_append(level)
                    lvl_append(level)
                    cse[key] = g
            # through = and(propagate, carry)
            if p == 0 or carry == 0:
                t = 0
            elif p == 1:
                t = carry
            elif carry == 1:
                t = p
            elif p == carry:
                t = p
            elif inv_get(p) == carry:
                t = 0
            else:
                key = (OP_AND | (carry << 4) | (p << 34)) if p > carry \
                    else (OP_AND | (p << 4) | (carry << 34))
                t = cse_get(key)
                if t is None:
                    t = node
                    node += 1
                    ops_append(OP_AND)
                    ina_append(p)
                    inb_append(carry)
                    inc_append(0)
                    la, lb = lvl[p], lvl[carry]
                    level = (la if la > lb else lb) + 1
                    levels_append(level)
                    lvl_append(level)
                    cse[key] = t
            # carry-out = or(generate, through)
            if g == 1 or t == 1:
                carry = 1
            elif g == 0:
                carry = t
            elif t == 0:
                carry = g
            elif g == t:
                carry = g
            elif inv_get(g) == t:
                carry = 1
            else:
                key = (OP_OR | (t << 4) | (g << 34)) if g > t \
                    else (OP_OR | (g << 4) | (t << 34))
                carry = cse_get(key)
                if carry is None:
                    carry = node
                    node += 1
                    ops_append(OP_OR)
                    ina_append(g)
                    inb_append(t)
                    inc_append(0)
                    la, lb = lvl[g], lvl[t]
                    level = (la if la > lb else lb) + 1
                    levels_append(level)
                    lvl_append(level)
                    cse[key] = carry
        return out

    # -- packaging ------------------------------------------------------
    def finish(self) -> ArrayCircuit:
        """The emitted rows as an (unstripped) :class:`ArrayCircuit`.

        The rows are already at the fold fixpoint (``_fold_arrays`` over
        them is the identity transform); dead gates — carry chains past
        a truncation, orphaned by downstream folding — still need the
        strip, exactly as on the per-gate path.
        """
        circ = ArrayCircuit()
        circ.name = self.name
        circ.input_buses = dict(self.input_buses)
        circ.n_fixed = self.n_fixed
        circ.ops, circ.ina, circ.inb, circ.inc = (self.ops, self.ina,
                                                  self.inb, self.inc)
        circ.levels = self.levels
        for name, nodes in self.outputs.items():
            circ.outputs[name] = list(nodes)
            circ.signed[name] = self.signed[name]
        circ.meta = dict(self.meta)
        watch = circ.meta.pop("watch_buses", None)
        if watch is not None:
            circ.watch = [list(bus) for bus in watch]
        return circ

    def finish_synthesized(self) -> ArrayCircuit:
        """Strip dead gates off the emitted (already-folded) rows; the
        result is marked ``folded``."""
        stripped, _node_map = _strip_arrays(self.finish())
        stripped.folded = True
        return stripped


def build_bespoke_arrays(model, name: str = "bespoke") -> ArrayCircuit:
    """Emit + strip a model's bespoke circuit; returns the folded form.

    The returned :class:`ArrayCircuit` is row-for-row identical to the
    per-gate backend's ``build_bespoke_netlist(model, builder="gate")``.
    """
    return _build(ArrayEmitter(name), emit_bespoke, model,
                  kind=type(model).__name__)


def build_weighted_sum_arrays(coefficients, input_bits: int,
                              bias: int = 0) -> ArrayCircuit:
    """The folded form of :func:`bespoke.build_weighted_sum_netlist`."""
    return _build(ArrayEmitter("weighted_sum"), _emit_weighted_sum,
                  coefficients, input_bits, bias)


def build_bespoke_multiplier_arrays(coefficient: int,
                                    input_bits: int) -> ArrayCircuit:
    """The folded form of :func:`bespoke.build_bespoke_multiplier_netlist`.

    The hottest call site (the area library builds one per candidate
    coefficient per width) consumes this directly — ``area_mm2`` reads
    the ``ops`` array — so no ``Netlist`` is materialized at all.
    """
    return _build(ArrayEmitter(f"bm_{coefficient}_{input_bits}b"),
                  _emit_multiplier, coefficient, input_bits)
