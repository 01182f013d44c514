"""Bespoke decision-tree circuits (the Mubarik et al. [1] baseline family).

Before the paper, printed classifiers meant Decision Trees and SVM
regressors: a tree circuit is only threshold comparators (against
hardwired constants — the builder folds them into a handful of gates) and
a class-constant mux network, so it fits printed area/power budgets that
MLPs and SVM-Cs blow through.  This generator produces that baseline so
examples can quantify what cross-layer approximation newly enables.

The netlist convention matches the other bespoke circuits: 4-bit feature
buses ``x<i>``, a ``class_idx`` output, and ``meta['kind']`` set for the
evaluation machinery.  Netlist pruning applies to tree circuits too (the
class output is the watch bus — trees have no pre-argmax stage).
"""

from __future__ import annotations

from ..quant.qtree import QuantDecisionTree, QuantTreeNode
from .bespoke import CLASS_OUTPUT
from .blocks import Value
from .netlist import Netlist
from .synthesis import ArrayCircuit, synthesize

__all__ = ["build_bespoke_tree_netlist"]


def build_bespoke_tree_netlist(tree: QuantDecisionTree,
                               n_features: int | None = None,
                               name: str = "bespoke_tree",
                               optimize: bool = True) -> ArrayCircuit:
    """Generate the comparator/mux circuit of a quantized decision tree.

    Emitted on the per-gate builder and returned as an
    :class:`ArrayCircuit`: synthesized, or converted raw when
    ``optimize`` is False.

    ``n_features`` fixes the input-port count (defaults to the highest
    feature index used by any split; pass the dataset width so unused
    features still appear as ports, as a synthesized circuit would).
    """
    nl = Netlist(name=name)
    width = n_features if n_features is not None else tree.n_features
    if width < 1:
        raise ValueError("tree circuit needs at least one input feature")
    inputs = [Value.input_bus(nl, f"x{index}", tree.input_bits)
              for index in range(width)]

    def emit(node: QuantTreeNode) -> Value:
        if node.is_leaf:
            return Value.constant(nl, node.class_index)
        threshold = Value.constant(nl, node.threshold)
        goes_right = inputs[node.feature].gt(threshold)
        left_value = emit(node.left)
        right_value = emit(node.right)
        return left_value.select(right_value, goes_right)

    class_value = emit(tree.root)
    nl.set_output_bus(CLASS_OUTPUT, class_value.nets)
    nl.meta["kind"] = "classifier"
    nl.meta["watch_buses"] = [class_value.nets]
    return synthesize(nl) if optimize else ArrayCircuit.from_netlist(nl)[0]
