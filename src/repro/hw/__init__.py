"""Printed-hardware substrate: cells, netlists, synthesis, simulation."""

from .area import AreaReport, area_cm2, area_mm2
from .array_builder import (
    ArrayEmitter,
    build_bespoke_arrays,
    build_bespoke_multiplier_arrays,
    build_weighted_sum_arrays,
)
from .bespoke_tree import build_bespoke_tree_netlist
from .bespoke import (
    CLASS_OUTPUT,
    REGRESSOR_OUTPUT,
    build_bespoke_multiplier_netlist,
    build_bespoke_netlist,
    build_weighted_sum_netlist,
    emit_bespoke,
    input_payload,
)
from .blocks import (
    Value,
    argmax,
    balanced_sum,
    bespoke_multiplier,
    bits_for_range,
    conventional_multiplier,
    csd_digits,
    one_vs_one_votes,
)
from .cells import EGT_LIBRARY, TECHNOLOGY, CellSpec, Technology, cell_area_mm2
from .compiled import (
    BatchedEvaluator,
    CompiledNetlist,
    CompiledSimulation,
    VariantSpec,
    pack_stimulus,
)
from .incremental import IncrementalCircuit
from .netlist import CONST0, CONST1, Netlist
from .netlist_io import load_netlist, netlist_from_dict, netlist_to_dict, save_netlist
from .power import PowerReport, power_mw, power_uw
from .simulate import (
    ActivityReport,
    SimulationResult,
    pack_vectors,
    simulate,
    simulate_bigint,
    unpack_bits,
)
from .synthesis import (
    ArrayCircuit,
    rebuild_folded,
    strip_dead,
    synthesize,
    synthesize_arrays,
    synthesize_reference,
)
from .timing import TimingReport, critical_path_ms
from .verilog import emit_cell_models, to_verilog

__all__ = [
    "AreaReport",
    "area_cm2",
    "area_mm2",
    "CLASS_OUTPUT",
    "REGRESSOR_OUTPUT",
    "ArrayEmitter",
    "build_bespoke_arrays",
    "build_bespoke_multiplier_arrays",
    "build_weighted_sum_arrays",
    "emit_bespoke",
    "build_bespoke_multiplier_netlist",
    "build_bespoke_netlist",
    "build_bespoke_tree_netlist",
    "build_weighted_sum_netlist",
    "input_payload",
    "Value",
    "argmax",
    "balanced_sum",
    "bespoke_multiplier",
    "bits_for_range",
    "conventional_multiplier",
    "csd_digits",
    "one_vs_one_votes",
    "EGT_LIBRARY",
    "TECHNOLOGY",
    "CellSpec",
    "Technology",
    "cell_area_mm2",
    "CONST0",
    "CONST1",
    "Netlist",
    "PowerReport",
    "power_mw",
    "power_uw",
    "ActivityReport",
    "ArrayCircuit",
    "BatchedEvaluator",
    "CompiledNetlist",
    "CompiledSimulation",
    "IncrementalCircuit",
    "VariantSpec",
    "SimulationResult",
    "pack_stimulus",
    "pack_vectors",
    "simulate",
    "simulate_bigint",
    "unpack_bits",
    "rebuild_folded",
    "strip_dead",
    "synthesize",
    "synthesize_arrays",
    "synthesize_reference",
    "TimingReport",
    "critical_path_ms",
    "load_netlist",
    "netlist_from_dict",
    "netlist_to_dict",
    "save_netlist",
    "emit_cell_models",
    "to_verilog",
]
