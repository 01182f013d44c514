"""Gate-level netlist intermediate representation.

A :class:`Netlist` is a combinational DAG of standard cells from the EGT
library (:mod:`repro.hw.cells`).  Nets are dense integer ids; nets ``0`` and
``1`` are the constant-zero and constant-one ties.  Gates are stored in
construction order, and because a gate may only reference nets that already
exist, the gate list is always topologically sorted — the reference
synthesis replay and the conversion to
:class:`~repro.hw.synthesis.ArrayCircuit` rows (the form every other
pass reads) are single linear sweeps.

The builder methods (:meth:`Netlist.and_`, :meth:`Netlist.xor_`, ...) apply
local peephole folding (constant propagation, operand deduplication,
double-inversion removal) and structural hashing at construction time.  This
mirrors what a synthesis tool does to RTL with hardwired constants and is
what makes *bespoke* circuits cheap: a multiplier by a power-of-two constant
folds to pure wiring and zero gates, the effect the paper's Fig. 1 shows and
both approximation layers exploit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cells import EGT_LIBRARY, cell_spec

__all__ = ["Netlist", "CONST0", "CONST1"]

# Cell arity, inlined from the library for the add_gate hot path (the
# synthesis replay instantiates hundreds of thousands of gates per
# exploration, so per-gate overhead matters).
_ARITY = {name: spec.n_inputs for name, spec in EGT_LIBRARY.items()}

CONST0 = 0
CONST1 = 1

# Driver kind tags for nets.
_DRIVER_CONST = 0
_DRIVER_INPUT = 1
_DRIVER_GATE = 2


class Netlist:
    """A combinational gate-level netlist over the printed EGT cell set.

    Typical construction::

        nl = Netlist()
        x = nl.add_input_bus("x", 4)
        s = nl.xor_(x[0], x[1])
        nl.set_output_bus("parity", [s])

    The instance exposes parallel gate arrays (``gate_type``, ``gate_inputs``,
    ``gate_out``) that the reference synthesis replay indexes directly.
    A netlist has two roles: the per-gate builder's construction IR and
    that reference oracle's.  Every other consumer (simulation, scoring,
    pruning, reports, exporters) reads the
    :class:`~repro.hw.synthesis.ArrayCircuit` rows it converts to through
    ``ArrayCircuit.from_netlist`` (or ``synthesize``).
    """

    def __init__(self, name: str = "netlist", cse: bool = True) -> None:
        self.name = name
        # Net 0 / net 1 are the constant ties.
        self._driver_kind: list[int] = [_DRIVER_CONST, _DRIVER_CONST]
        self._driver_info: list = [0, 1]
        self.gate_type: list[str] = []
        self.gate_inputs: list[tuple[int, ...]] = []
        self.gate_out: list[int] = []
        self.input_buses: dict[str, list[int]] = {}
        self.output_buses: dict[str, list[int]] = {}
        self.output_signed: dict[str, bool] = {}
        # Free-form builder metadata (e.g. pre-argmax watch buses).
        self.meta: dict = {}
        self._cse_enabled = cse
        self._cse: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n_nets(self) -> int:
        return len(self._driver_kind)

    @property
    def n_gates(self) -> int:
        return len(self.gate_type)

    def add_input_bus(self, name: str, width: int) -> list[int]:
        """Declare a primary input bus and return its nets, LSB first."""
        if name in self.input_buses:
            raise ValueError(f"input bus {name!r} already exists")
        if width < 1:
            raise ValueError("bus width must be positive")
        nets = []
        for bit in range(width):
            net = self.n_nets
            self._driver_kind.append(_DRIVER_INPUT)
            self._driver_info.append((name, bit))
            nets.append(net)
        self.input_buses[name] = nets
        return nets

    def set_output_bus(self, name: str, nets: Sequence[int],
                       signed: bool = False) -> None:
        """Declare a primary output bus (LSB first)."""
        if name in self.output_buses:
            raise ValueError(f"output bus {name!r} already exists")
        for net in nets:
            self._check_net(net)
        self.output_buses[name] = list(nets)
        self.output_signed[name] = signed

    def _check_net(self, net: int) -> None:
        if not 0 <= net < self.n_nets:
            raise ValueError(f"net {net} does not exist (n_nets={self.n_nets})")

    def add_gate(self, cell: str, *inputs: int) -> int:
        """Instantiate ``cell`` driven by ``inputs``; return the output net.

        No folding is applied — use the builder helpers for that.  Inputs
        must already exist, which keeps the gate list topologically sorted.
        """
        arity = _ARITY.get(cell)
        if arity is None:
            cell_spec(cell)  # raises the canonical unknown-cell error
        if len(inputs) != arity:
            raise ValueError(
                f"{cell} expects {arity} inputs, got {len(inputs)}")
        n_nets = len(self._driver_kind)
        for net in inputs:
            if not 0 <= net < n_nets:
                raise ValueError(f"net {net} does not exist (n_nets={n_nets})")
        if self._cse_enabled:
            key = self._cse_key(cell, inputs)
            hit = self._cse.get(key)
            if hit is not None:
                return hit
            out = self._append_gate_unchecked(cell, inputs)
            self._cse[key] = out
            return out
        return self._append_gate_unchecked(cell, inputs)

    def _append_gate_unchecked(self, cell: str, inputs: tuple[int, ...]) -> int:
        """Append one gate with no validation, hashing, or folding.

        Internal fast path for passes that replay known-valid structure
        (e.g. the dead-gate strip); everyone else goes through
        :meth:`add_gate` or the folding builders.
        """
        driver_kind = self._driver_kind
        out = len(driver_kind)
        self._driver_info.append(len(self.gate_type))
        driver_kind.append(_DRIVER_GATE)
        self.gate_type.append(cell)
        self.gate_inputs.append(tuple(inputs))
        self.gate_out.append(out)
        return out

    @staticmethod
    def _cse_key(cell: str, inputs: tuple[int, ...] | Sequence[int]) -> tuple:
        # Commutative cells hash with sorted operands.
        if cell in ("AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"):
            a, b = inputs
            if a > b:
                a, b = b, a
            return (cell, a, b)
        return (cell, *inputs)

    # ------------------------------------------------------------------
    # Driver queries
    # ------------------------------------------------------------------
    def driver_gate(self, net: int) -> int | None:
        """Index of the gate driving ``net``, or None for inputs/constants."""
        if self._driver_kind[net] == _DRIVER_GATE:
            return self._driver_info[net]
        return None

    def const_value(self, net: int) -> int | None:
        """0 or 1 if ``net`` is a constant tie, else None."""
        if self._driver_kind[net] == _DRIVER_CONST:
            return self._driver_info[net]
        return None

    # ------------------------------------------------------------------
    # Folding builders
    # ------------------------------------------------------------------
    def not_(self, a: int) -> int:
        ca = self.const_value(a)
        if ca is not None:
            return CONST1 - a
        gate = self.driver_gate(a)
        if gate is not None and self.gate_type[gate] == "INV":
            return self.gate_inputs[gate][0]
        return self.add_gate("INV", a)

    def buf_(self, a: int) -> int:
        return a

    def and_(self, a: int, b: int) -> int:
        ca, cb = self.const_value(a), self.const_value(b)
        if ca == 0 or cb == 0:
            return CONST0
        if ca == 1:
            return b
        if cb == 1:
            return a
        if a == b:
            return a
        if self._is_complement(a, b):
            return CONST0
        return self.add_gate("AND2", a, b)

    def or_(self, a: int, b: int) -> int:
        ca, cb = self.const_value(a), self.const_value(b)
        if ca == 1 or cb == 1:
            return CONST1
        if ca == 0:
            return b
        if cb == 0:
            return a
        if a == b:
            return a
        if self._is_complement(a, b):
            return CONST1
        return self.add_gate("OR2", a, b)

    def nand_(self, a: int, b: int) -> int:
        ca, cb = self.const_value(a), self.const_value(b)
        if ca == 0 or cb == 0:
            return CONST1
        if ca == 1:
            return self.not_(b)
        if cb == 1:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        if self._is_complement(a, b):
            return CONST1
        return self.add_gate("NAND2", a, b)

    def nor_(self, a: int, b: int) -> int:
        ca, cb = self.const_value(a), self.const_value(b)
        if ca == 1 or cb == 1:
            return CONST0
        if ca == 0:
            return self.not_(b)
        if cb == 0:
            return self.not_(a)
        if a == b:
            return self.not_(a)
        if self._is_complement(a, b):
            return CONST0
        return self.add_gate("NOR2", a, b)

    def xor_(self, a: int, b: int) -> int:
        ca, cb = self.const_value(a), self.const_value(b)
        if ca == 0:
            return b
        if cb == 0:
            return a
        if ca == 1:
            return self.not_(b)
        if cb == 1:
            return self.not_(a)
        if a == b:
            return CONST0
        if self._is_complement(a, b):
            return CONST1
        return self.add_gate("XOR2", a, b)

    def xnor_(self, a: int, b: int) -> int:
        return self.not_(self.xor_(a, b))

    def mux_(self, a: int, b: int, sel: int) -> int:
        """Two-way multiplexer: returns ``b`` when ``sel`` is 1, else ``a``."""
        cs = self.const_value(sel)
        if cs == 0:
            return a
        if cs == 1:
            return b
        if a == b:
            return a
        ca, cb = self.const_value(a), self.const_value(b)
        if ca == 0:
            return self.and_(b, sel)
        if ca == 1:
            return self.or_(b, self.not_(sel))
        if cb == 0:
            return self.and_(a, self.not_(sel))
        if cb == 1:
            return self.or_(a, sel)
        if b == sel:  # sel ? sel : a  ==  a | sel
            return self.or_(a, sel)
        if a == sel:  # sel ? b : sel  ==  b & sel
            return self.and_(b, sel)
        return self.add_gate("MUX2", a, b, sel)

    def ripple_add(self, a: Sequence[int], b: Sequence[int],
                   cin: int) -> list[int]:
        """Width-preserving ripple-carry sum of two equally wide buses.

        Per bit: propagate, sum, generate, propagate&carry, carry-out —
        the op order :class:`~repro.hw.array_builder.ArrayEmitter`'s
        fused kernel reproduces.
        """
        if len(a) != len(b):
            raise ValueError("operand widths differ")
        carry = cin
        out = []
        for bit_a, bit_b in zip(a, b):
            propagate = self.xor_(bit_a, bit_b)
            out.append(self.xor_(propagate, carry))
            carry = self.or_(self.and_(bit_a, bit_b),
                             self.and_(propagate, carry))
        return out

    def _is_complement(self, a: int, b: int) -> bool:
        ga, gb = self.driver_gate(a), self.driver_gate(b)
        if ga is not None and self.gate_type[ga] == "INV" \
                and self.gate_inputs[ga][0] == b:
            return True
        if gb is not None and self.gate_type[gb] == "INV" \
                and self.gate_inputs[gb][0] == a:
            return True
        return False

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    def live_gates(self) -> list[bool]:
        """Mark gates in the transitive fan-in of any primary output.

        Because the gate list is topologically sorted, one reverse sweep
        over it suffices: a gate is live iff its output net is read by a
        primary output or by a later live gate.
        """
        live_net = bytearray(len(self._driver_kind))
        for nets in self.output_buses.values():
            for net in nets:
                live_net[net] = 1
        live = [False] * len(self.gate_type)
        gate_inputs = self.gate_inputs
        gate_out = self.gate_out
        for gate_idx in range(len(live) - 1, -1, -1):
            if live_net[gate_out[gate_idx]]:
                live[gate_idx] = True
                for net in gate_inputs[gate_idx]:
                    live_net[net] = 1
        return live

    def validate(self) -> None:
        """Internal consistency check (used by tests)."""
        for gate_idx, inputs in enumerate(self.gate_inputs):
            spec = EGT_LIBRARY[self.gate_type[gate_idx]]
            if len(inputs) != spec.n_inputs:
                raise AssertionError(f"gate {gate_idx} arity mismatch")
            out = self.gate_out[gate_idx]
            for net in inputs:
                if net >= out:
                    raise AssertionError(
                        f"gate {gate_idx} input net {net} not before output {out}")
        for nets in self.output_buses.values():
            for net in nets:
                self._check_net(net)


def bus_value(bits: Iterable[int], signed: bool = False) -> int:
    """Interpret a list of 0/1 integers (LSB first) as a bus value."""
    bits = list(bits)
    value = 0
    for position, bit in enumerate(bits):
        value |= (bit & 1) << position
    if signed and bits and bits[-1]:
        value -= 1 << len(bits)
    return value
