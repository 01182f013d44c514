"""Arithmetic block generators for bespoke printed circuits.

Everything the bespoke ML architectures of the paper need is generated here
as plain EGT gates, written once against a small *emitter* interface:

* ``not_``/``and_``/``or_``/``xor_``/``mux_`` — folding gate builders over
  integer net ids, with nets ``0``/``1`` the constant ties;
* ``ripple_add(a, b, cin)`` — a width-preserving ripple-carry sum;
* ``add_input_bus``/``set_output_bus`` and a ``meta`` dict.

Two backends implement it: :class:`~repro.hw.netlist.Netlist`, the per-gate
oracle (folded again by ``synthesize``), and
:class:`~repro.hw.array_builder.ArrayEmitter`, which lands each gate as a
flat row already at the fold fixpoint.  Every op-order decision below
(widths, range shortcuts, recoding digits, compare/select chains) is a
pure function of value ranges and hardwired coefficients, never of
emitter state, so both backends see the same op sequence.

The blocks:

* :class:`Value` — a two's-complement bus with an exact value range, so
  every adder is sized to the smallest width that provably cannot overflow
  (fully-parallel bespoke datapaths keep full precision, Section III-A).
* ripple-carry addition/subtraction with build-time constant folding, so
  adding a hardwired intercept costs a stripped increment chain, not a full
  adder row;
* the **bespoke constant multiplier** ``BM_w`` (Section III-B): canonical
  signed-digit (CSD) shift-and-add by the hardwired coefficient ``w`` —
  powers of two cost zero gates, which produces the jagged area profile of
  Fig. 1 that the coefficient approximation exploits;
* a conventional array multiplier used as the Fig. 1 reference;
* signed comparison, argmax with NumPy tie semantics (first maximum wins),
  and the 1-vs-1 vote counter used by SVM classifiers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .netlist import CONST0, CONST1

__all__ = [
    "Value",
    "bits_for_range",
    "csd_digits",
    "bespoke_multiplier",
    "conventional_multiplier",
    "argmax",
    "balanced_sum",
    "one_vs_one_votes",
]


def bits_for_range(lo: int, hi: int) -> int:
    """Smallest two's-complement width representing every value in [lo, hi].

    Non-negative ranges are treated as unsigned buses (no sign bit).
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo >= 0:
        return max(1, int(hi).bit_length())
    width = 1
    while lo < -(1 << (width - 1)) or hi > (1 << (width - 1)) - 1:
        width += 1
    return width


@dataclass(slots=True)
class Value:
    """A bus (LSB first) carrying integers within a known range.

    The range drives width inference: two's complement when ``lo < 0``,
    unsigned otherwise.  All arithmetic helpers return new :class:`Value`
    instances on the same emitter ``em`` with exactly-sized results.
    """

    em: object
    nets: list[int]
    lo: int
    hi: int

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def constant(em, value: int) -> "Value":
        width = bits_for_range(value, value)
        nets = [CONST1 if (value >> bit) & 1 else CONST0 for bit in range(width)]
        return Value(em, nets, value, value)

    @staticmethod
    def from_bus(em, nets: list[int], lo: int, hi: int) -> "Value":
        width = bits_for_range(lo, hi)
        if len(nets) < width:
            raise ValueError(
                f"bus of {len(nets)} bits cannot carry range [{lo}, {hi}]")
        return Value(em, list(nets), lo, hi)

    @staticmethod
    def input_bus(em, name: str, width: int) -> "Value":
        """Declare an unsigned primary-input bus as a Value."""
        nets = em.add_input_bus(name, width)
        return Value(em, nets, 0, (1 << width) - 1)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return len(self.nets)

    @property
    def signed(self) -> bool:
        return self.lo < 0

    def sign_net(self) -> int:
        """The sign bit for signed values, constant zero otherwise."""
        return self.nets[-1] if self.signed else CONST0

    def bits_extended(self, width: int) -> list[int]:
        """Sign/zero-extend the bus to ``width`` bits."""
        if width < self.width:
            raise ValueError("cannot extend to a smaller width")
        pad = self.nets[-1] if self.signed else CONST0
        return self.nets + [pad] * (width - self.width)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(self, other: "Value") -> "Value":
        lo, hi = self.lo + other.lo, self.hi + other.hi
        width = bits_for_range(lo, hi)
        # When operands at range extremes cancel, the result needs fewer
        # bits than the operands; computing at operand width and keeping
        # the low result bits is exact (two's complement is mod 2^W).
        compute_width = max(width, self.width, other.width)
        a = self.bits_extended(compute_width)
        b = other.bits_extended(compute_width)
        total = self.em.ripple_add(a, b, CONST0)
        return Value(self.em, total[:width], lo, hi)

    def sub(self, other: "Value") -> "Value":
        lo, hi = self.lo - other.hi, self.hi - other.lo
        width = bits_for_range(lo, hi)
        compute_width = max(width, self.width, other.width)
        a = self.bits_extended(compute_width)
        b = [self.em.not_(bit) for bit in other.bits_extended(compute_width)]
        total = self.em.ripple_add(a, b, CONST1)
        return Value(self.em, total[:width], lo, hi)

    def neg(self) -> "Value":
        return Value.constant(self.em, 0).sub(self)

    def add_constant(self, value: int) -> "Value":
        if value == 0:
            return self
        return self.add(Value.constant(self.em, value))

    def shifted(self, amount: int) -> "Value":
        """Multiply by ``2**amount`` (pure wiring)."""
        if amount < 0:
            raise ValueError("use truncate_lsbs for right shifts")
        if amount == 0:
            return self
        return Value(self.em, [CONST0] * amount + self.nets,
                     self.lo << amount, self.hi << amount)

    def truncate_lsbs(self, amount: int) -> "Value":
        """Arithmetic right shift by ``amount`` bits (free in hardware)."""
        if amount <= 0:
            return self
        if amount >= self.width:
            # Only the sign remains: floor(v / 2**amount) is 0 or -1.
            lo, hi = self.lo >> amount, self.hi >> amount
            if lo >= 0:
                return Value.constant(self.em, 0)
            sign = self.sign_net()
            return Value(self.em, [sign], lo, hi)
        return Value(self.em, self.nets[amount:],
                     self.lo >> amount, self.hi >> amount)

    def relu(self) -> "Value":
        """max(value, 0): gate every bit with the inverted sign bit."""
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Value.constant(self.em, 0)
        keep = self.em.not_(self.sign_net())
        width = bits_for_range(0, self.hi)
        nets = [self.em.and_(bit, keep) for bit in self.nets[:width]]
        return Value(self.em, nets, 0, self.hi)

    # ------------------------------------------------------------------
    # Comparison / selection
    # ------------------------------------------------------------------
    def ge(self, other: "Value") -> int:
        """Net that is 1 iff ``self >= other`` (signed-exact)."""
        if self.lo >= other.hi:
            return CONST1
        if self.hi < other.lo:
            return CONST0
        diff = self.sub(other)
        return self.em.not_(diff.sign_net())

    def gt(self, other: "Value") -> int:
        """Net that is 1 iff ``self > other``."""
        return self.em.not_(other.ge(self))

    def select(self, other: "Value", sel: int) -> "Value":
        """Per-bit mux: returns ``other`` when ``sel`` is 1, else ``self``."""
        lo, hi = min(self.lo, other.lo), max(self.hi, other.hi)
        width = bits_for_range(lo, hi)
        a = self.bits_extended(width)
        b = other.bits_extended(width)
        nets = [self.em.mux_(a[bit], b[bit], sel) for bit in range(width)]
        return Value(self.em, nets, lo, hi)


# ----------------------------------------------------------------------
# Multipliers
# ----------------------------------------------------------------------
def csd_digits(value: int) -> list[tuple[int, int]]:
    """Canonical signed-digit recoding: list of (bit position, +1/-1).

    CSD guarantees no two adjacent non-zero digits, hence at most
    ``ceil((bits+1)/2)`` add/subtract terms — the minimal-adder form used
    for hardwired bespoke multipliers.
    """
    digits = []
    position = 0
    remaining = value
    while remaining != 0:
        if remaining & 1:
            digit = 2 - (remaining & 3)  # +1 if ...01, -1 if ...11
            digits.append((position, digit))
            remaining -= digit
        remaining >>= 1
        position += 1
    return digits


def binary_digits(value: int) -> list[tuple[int, int]]:
    """Plain binary recoding: one +/-1 digit per set bit of ``value``.

    The non-recoded baseline for the CSD ablation: dense coefficients
    like 0b1110111 need one adder per set bit instead of the CSD form's
    subtractions.
    """
    sign = 1 if value >= 0 else -1
    magnitude = abs(value)
    return [(position, sign) for position in range(magnitude.bit_length())
            if (magnitude >> position) & 1]


def bespoke_multiplier(x: Value, coefficient: int,
                       recoding: str = "csd") -> Value:
    """The paper's ``BM_w``: multiply a bus by the hardwired ``coefficient``.

    Implemented as a shift-and-add network over the coefficient's signed
    digits (``recoding="csd"`` by default; ``"binary"`` is the ablation
    baseline).  The builder's constant folding removes everything for
    coefficients that are 0 or a power of two, giving the zero-area
    points of Fig. 1.
    """
    em = x.em
    if coefficient == 0 or (x.lo == 0 and x.hi == 0):
        return Value.constant(em, 0)
    if recoding == "csd":
        digits = csd_digits(coefficient)
    elif recoding == "binary":
        digits = binary_digits(coefficient)
    else:
        raise ValueError(f"unknown recoding {recoding!r}")
    accumulator: Value | None = None
    for position, digit in digits:
        term = x.shifted(position)
        if accumulator is None:
            accumulator = term if digit > 0 else term.neg()
        elif digit > 0:
            accumulator = accumulator.add(term)
        else:
            accumulator = accumulator.sub(term)
    assert accumulator is not None
    return accumulator


def conventional_multiplier(x: Value, w: Value) -> Value:
    """Generic shift-and-add multiplier (both operands are live buses).

    Used only as the conventional-area reference quoted in the caption of
    Fig. 1; bespoke circuits never instantiate it.
    """
    em = x.em
    accumulator = Value.constant(em, 0)
    for position, w_bit in enumerate(w.nets):
        is_sign_bit = w.signed and position == w.width - 1
        partial_nets = [em.and_(x_bit, w_bit) for x_bit in x.nets]
        if x.signed:
            magnitude = Value(em, partial_nets, min(x.lo, 0), max(x.hi, 0))
        else:
            magnitude = Value(em, partial_nets, 0, x.hi)
        term = magnitude.shifted(position)
        if is_sign_bit:
            accumulator = accumulator.sub(term)
        else:
            accumulator = accumulator.add(term)
    return accumulator


# ----------------------------------------------------------------------
# Classification heads
# ----------------------------------------------------------------------
def argmax(values: list[Value]) -> Value:
    """Index of the maximum of ``values`` with first-maximum tie breaking.

    A linear scan of compare-and-select stages reproduces ``numpy.argmax``
    semantics exactly, which the integer golden models rely on.
    """
    if not values:
        raise ValueError("argmax of no values")
    em = values[0].em
    best_value = values[0]
    best_index = Value.constant(em, 0)
    for index, candidate in enumerate(values[1:], start=1):
        take = candidate.gt(best_value)
        best_value = best_value.select(candidate, take)
        best_index = best_index.select(Value.constant(em, index), take)
    return best_index


def one_vs_one_votes(scores: list[Value]) -> list[Value]:
    """Pairwise 1-vs-1 voting over per-class score buses (Section III-A).

    For every pair ``i < j`` a comparator votes for class ``i`` when
    ``score_i >= score_j`` (ties favour the lower class index).  Returns
    the per-class vote counts; ``k*(k-1)/2`` comparators are instantiated,
    matching the classifier counts of Table I.
    """
    n_classes = len(scores)
    if n_classes < 2:
        raise ValueError("1-vs-1 voting needs at least two classes")
    em = scores[0].em
    vote_bits: list[list[int]] = [[] for _ in range(n_classes)]
    for i in range(n_classes):
        for j in range(i + 1, n_classes):
            i_wins = scores[i].ge(scores[j])
            vote_bits[i].append(i_wins)
            vote_bits[j].append(em.not_(i_wins))
    counts = []
    for bits in vote_bits:
        values = [Value(em, [bit], 0, 1) for bit in bits]
        counts.append(balanced_sum(values))
    return counts


def balanced_sum(values: list[Value]) -> Value:
    """Adder-tree reduction (kept balanced for depth and symmetry)."""
    if not values:
        raise ValueError("sum of no values")
    layer = values
    while len(layer) > 1:
        next_layer = []
        for index in range(0, len(layer) - 1, 2):
            next_layer.append(layer[index].add(layer[index + 1]))
        if len(layer) % 2:
            next_layer.append(layer[-1])
        layer = next_layer
    return layer[0]

