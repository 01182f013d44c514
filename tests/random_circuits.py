"""Random netlists for the engine-equivalence property tests.

Every test that needs an adversarial circuit draws it here: every cell
of the EGT library (INV/BUF/AND2/OR2/XOR2/XNOR2/NAND2/NOR2/MUX2) over
inputs, constant ties and earlier gates, with no structural hashing, so
the folding rules see duplicates, constants and complement pairs.
:func:`random_circuit` hands the same draw out as the unfolded
:class:`~repro.hw.synthesis.ArrayCircuit` rows the pruner and the
evaluators read.
"""

from __future__ import annotations

import numpy as np

from repro.hw.netlist import CONST0, CONST1, Netlist
from repro.hw.synthesis import ArrayCircuit

CELLS_1 = ("INV", "BUF")
CELLS_2 = ("AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2")


def random_netlist(rng: np.random.Generator, n_gates: int, width: int,
                   output: str = "y", signed: bool | None = None) -> Netlist:
    """A random ``n_gates``-gate netlist over a ``width``-bit input ``x``.

    Its one output bus ``output`` holds up to 4 random nets; ``signed``
    ``None`` draws the bus signedness from ``rng`` as well.
    """
    nl = Netlist(cse=False)
    nets = list(nl.add_input_bus("x", width)) + [CONST0, CONST1]
    for _ in range(n_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            out = nl.add_gate(str(rng.choice(CELLS_1)), int(rng.choice(nets)))
        elif kind == 3:
            out = nl.add_gate("MUX2", int(rng.choice(nets)),
                              int(rng.choice(nets)), int(rng.choice(nets)))
        else:
            out = nl.add_gate(str(rng.choice(CELLS_2)), int(rng.choice(nets)),
                              int(rng.choice(nets)))
        nets.append(out)
    n_out = min(4, len(nets))
    out_nets = [int(rng.choice(nets)) for _ in range(n_out)]
    if signed is None:
        signed = bool(rng.integers(0, 2))
    nl.set_output_bus(output, out_nets, signed=signed)
    return nl


def random_circuit(rng: np.random.Generator, n_gates: int, width: int,
                   output: str = "y",
                   signed: bool | None = None) -> ArrayCircuit:
    """:func:`random_netlist`'s draw as (unfolded) array-circuit rows."""
    return ArrayCircuit.from_netlist(
        random_netlist(rng, n_gates, width, output, signed))[0]
