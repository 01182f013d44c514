"""Tests for netlist JSON serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coeff_approx import CoefficientApproximator
from repro.core.multiplier_area import default_library
from repro.datasets import load_dataset
from repro.experiments.zoo import case_keys, get_case
from repro.hw.array_builder import build_bespoke_arrays
from repro.hw.bespoke import build_bespoke_netlist, input_payload
from repro.hw.compiled import OPCODES
from repro.hw.netlist import CONST1, Netlist
from repro.hw.netlist_io import (
    encode_netlist,
    load_netlist,
    netlist_from_dict,
    netlist_to_dict,
    save_netlist,
)
from repro.hw.simulate import simulate
from repro.hw.synthesis import ArrayCircuit
from repro.ml import LinearSVMClassifier
from repro.quant import quantize_inputs, quantize_model
from repro.service.store import canonical_json, netlist_fingerprint


def _sample_netlist() -> ArrayCircuit:
    nl = Netlist(name="sample")
    a, b = nl.add_input_bus("x", 2)
    left = nl.add_gate("AND2", a, b)
    right = nl.add_gate("XOR2", a, b)
    nl.set_output_bus("y", [left, right, CONST1], signed=True)
    nl.meta["kind"] = "regressor"
    nl.meta["watch_buses"] = [[left, right]]
    return ArrayCircuit.from_netlist(nl)[0]


class TestRoundTrip:
    def test_structure_preserved(self):
        original = _sample_netlist()
        restored = netlist_from_dict(netlist_to_dict(original))
        assert restored.name == "sample"
        assert restored.n_gates == original.n_gates
        assert restored.ops == original.ops
        assert restored.output_signed == original.output_signed
        assert restored.meta["kind"] == "regressor"
        assert len(restored.watch[0]) == 2
        assert restored.folded is False

    def test_behaviour_preserved(self):
        original = _sample_netlist()
        restored = netlist_from_dict(netlist_to_dict(original))
        vectors = np.arange(4)
        a = simulate(original, {"x": vectors}).bus_ints("y")
        b = simulate(restored, {"x": vectors}).bus_ints("y")
        np.testing.assert_array_equal(a, b)

    def test_file_roundtrip(self, tmp_path):
        original = _sample_netlist()
        path = tmp_path / "sample.json"
        save_netlist(original, path)
        restored = load_netlist(path)
        assert restored.n_gates == original.n_gates

    def test_full_bespoke_circuit_roundtrip(self, tmp_path):
        split = load_dataset("redwine").standard_split(seed=0)
        model = LinearSVMClassifier(seed=1, max_epochs=100).fit(
            split.X_train, split.y_train)
        quant = quantize_model(model)
        original = build_bespoke_netlist(quant)
        path = tmp_path / "circuit.json"
        save_netlist(original, path)
        restored = load_netlist(path)
        Xq = quantize_inputs(split.X_test[:100])
        a = simulate(original, input_payload(Xq)).bus_ints("class_idx")
        b = simulate(restored, input_payload(Xq)).bus_ints("class_idx")
        np.testing.assert_array_equal(a, b)
        assert len(restored.watch) == 6

    def test_unsupported_version_rejected(self):
        data = netlist_to_dict(_sample_netlist())
        data["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            netlist_from_dict(data)

    def test_meta_absent_is_fine(self):
        data = netlist_to_dict(_sample_netlist())
        data["meta"] = {}
        restored = netlist_from_dict(data)
        assert restored.watch is None
        assert "kind" not in restored.meta


class TestMalformedDocuments:
    """A stored or saved document is outside input: every defect is a
    ``ValueError``, never a ``KeyError``."""

    @staticmethod
    def _document() -> dict:
        return netlist_to_dict(_sample_netlist())

    def _assert_rejected(self, data: dict, match: str) -> None:
        with pytest.raises(ValueError, match=match):
            netlist_from_dict(data)

    def test_unknown_cell(self):
        data = self._document()
        data["gates"][0]["cell"] = "NAND9"
        self._assert_rejected(data, "unknown cell")

    def test_wrong_arity(self):
        data = self._document()
        data["gates"][0]["inputs"].append(2)
        self._assert_rejected(data, "expects 2 inputs")

    def test_operand_net_not_yet_defined(self):
        data = self._document()
        data["gates"][0]["inputs"][1] = data["gates"][1]["out"]
        self._assert_rejected(data, "undefined net")

    def test_undefined_output_net(self):
        data = self._document()
        data["outputs"]["y"].append(999)
        self._assert_rejected(data, "undefined net 999")

    def test_duplicate_gate_out(self):
        data = self._document()
        data["gates"][1]["out"] = data["gates"][0]["out"]
        self._assert_rejected(data, "redefines net")

    def test_undefined_watch_net(self):
        data = self._document()
        data["meta"]["watch_buses"] = [[999]]
        self._assert_rejected(data, "undefined net 999")

    def test_missing_output_signed_entry(self):
        data = self._document()
        del data["output_signed"]["y"]
        self._assert_rejected(data, "output_signed")

    def test_missing_field(self):
        data = self._document()
        del data["gates"]
        self._assert_rejected(data, "lacks")


# ----------------------------------------------------------------------
# encode_netlist: one encode, equal to the Netlist document oracle
# ----------------------------------------------------------------------
def _netlist_document(nl: Netlist) -> dict:
    """The document of a builder-IR netlist, written gate by gate: the
    independent oracle the row encoder must match."""
    return {
        "format_version": 1,
        "name": nl.name,
        "inputs": {name: len(nets) for name, nets in nl.input_buses.items()},
        "input_nets": {name: list(nets)
                       for name, nets in nl.input_buses.items()},
        "gates": [{"cell": nl.gate_type[i],
                   "inputs": list(nl.gate_inputs[i]),
                   "out": nl.gate_out[i]}
                  for i in range(nl.n_gates)],
        "outputs": {name: list(nets)
                    for name, nets in nl.output_buses.items()},
        "output_signed": dict(nl.output_signed),
        "meta": {"kind": nl.meta.get("kind"),
                 "watch_buses": nl.meta.get("watch_buses")},
    }


def _oracle(nl: Netlist) -> tuple[bytes, dict]:
    """(canonical fingerprint bytes, full document) the slow way."""
    data = _netlist_document(nl)
    nameless = dict(data)
    nameless.pop("name")
    return canonical_json(nameless).encode("utf-8"), data


def _assert_encodes_like_oracle(circ: ArrayCircuit) -> None:
    canonical, data = _oracle(circ.to_netlist())
    encoded = encode_netlist(circ)
    assert encoded.canonical == canonical
    assert encoded.text == json.dumps(data, separators=(",", ":"))
    assert netlist_to_dict(circ) == data
    assert netlist_fingerprint(circ) \
        == netlist_fingerprint(encode_netlist(circ))
    # The stored text rebuilds to a circuit with the same fingerprint.
    rebuilt = netlist_from_dict(json.loads(encode_netlist(circ).text))
    assert netlist_fingerprint(rebuilt) == netlist_fingerprint(circ)


_BUS_NAMES = ("x3", "a", "zz", "m1", "b0")


@st.composite
def _array_circuits(draw) -> ArrayCircuit:
    """Random well-formed array circuits over every opcode.

    Buses are declared in a random (generally non-sorted) order, unused
    operand slots hold arbitrary live node ids (the encoder must ignore
    them, as ``to_netlist`` does), and empty gate lists, empty output
    buses and watch buses all occur.
    """
    circ = ArrayCircuit()
    circ.name = draw(st.sampled_from(["c", "coeff", "x y"]))
    names = draw(st.permutations(_BUS_NAMES))
    node = 2
    for name in names[:draw(st.integers(1, len(names)))]:
        width = draw(st.integers(1, 4))
        circ.input_buses[name] = list(range(node, node + width))
        node += width
    circ.n_fixed = node
    for _ in range(draw(st.integers(0, 25))):
        live = st.integers(0, node - 1)
        circ.ops.append(draw(st.sampled_from(sorted(OPCODES.values()))))
        circ.ina.append(draw(live))
        circ.inb.append(draw(live))
        circ.inc.append(draw(live))
        node += 1
    live = st.integers(0, node - 1)
    outputs = draw(st.permutations(["y", "class_idx", "b"]))
    for name in outputs[:draw(st.integers(0, 3))]:
        circ.outputs[name] = draw(st.lists(live, max_size=4))
        circ.signed[name] = draw(st.booleans())
    kind = draw(st.sampled_from([None, "classifier", "regressor"]))
    if kind is not None:
        circ.meta["kind"] = kind
    circ.watch = draw(st.none() | st.lists(st.lists(live, max_size=3),
                                           max_size=3))
    return circ


class TestEncodeNetlist:
    @settings(max_examples=150, deadline=None)
    @given(_array_circuits())
    def test_random_array_circuits_match_oracle(self, circ):
        _assert_encodes_like_oracle(circ)

    def test_ndarray_backed_rows(self):
        circ = build_bespoke_arrays(get_case("redwine", "svm_r").quant_model)
        from_lists = encode_netlist(circ)
        for attr in ("ops", "ina", "inb", "inc"):
            setattr(circ, attr, np.asarray(getattr(circ, attr)))
        assert encode_netlist(circ) == from_lists

    def test_name_override_only_touches_text(self):
        circ = build_bespoke_arrays(get_case("redwine", "svm_r").quant_model,
                                    name="mine")
        plain, renamed = encode_netlist(circ), encode_netlist(circ, "coeff")
        assert plain.canonical == renamed.canonical
        assert json.loads(plain.text)["name"] == "mine"
        assert json.loads(renamed.text)["name"] == "coeff"

    @pytest.mark.parametrize("key", case_keys(include_excluded=True),
                             ids="/".join)
    def test_zoo_exact_and_coeff_circuits_match_oracle(self, key):
        model = get_case(*key).quant_model
        approximator = CoefficientApproximator(library=default_library(),
                                               e=4)
        approx_model, _reports = approximator.approximate_model(model)
        for circuit_model in (model, approx_model):
            _assert_encodes_like_oracle(build_bespoke_arrays(circuit_model))
