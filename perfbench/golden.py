"""Regenerate ``golden.json``: per-op output digests from the oracle paths.

Run from the repository root after a change that is meant to alter
design lists or store content::

    PYTHONPATH=src python3 perfbench/golden.py

Every op a seed can generate is covered, so the digests hold for any
``--seed``:

* ``explore`` (its ``n_workers=2`` rounds too): per circuit, the four design
  families rebuilt from the oracles — the per-gate builder, the
  ``bigint`` engine and ``NetlistPruner.explore_legacy`` with reference
  synthesis;
* ``esweep_store``: per circuit, ``CrossLayerFramework.sweep_e`` over
  e=1..10 with ``builder="gate"`` on the ``bigint`` engine;
* ``serve_mixed``: per request key (set-up keys and every fresh key),
  the design lines of a serial ``ExplorationService.run_manifest`` on a
  private store.
"""

from __future__ import annotations

import io
import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def _oracle_points(case, name: str) -> list:
    from repro.core.coeff_approx import CoefficientApproximator
    from repro.core.cross_layer import DesignPoint
    from repro.core.pruning import NetlistPruner
    from repro.eval.accuracy import CircuitEvaluator
    from repro.hw.bespoke import build_bespoke_netlist

    model, split = case.quant_model, case.split
    evaluator = CircuitEvaluator.from_split(
        model, split.X_train, split.X_test, split.y_test,
        clock_ms=case.clock_ms, engine="bigint")
    exact = build_bespoke_netlist(model, name=f"{name}_exact", builder="gate")
    approx_model, _reports = CoefficientApproximator(
        e=spec.EXPLORE_E).approximate_model(model)
    coeff = build_bespoke_netlist(approx_model, name=f"{name}_coeff",
                                  builder="gate")
    points = [DesignPoint.from_record("exact", evaluator.evaluate(exact)),
              DesignPoint.from_record("coeff", evaluator.evaluate(coeff))]
    for technique, netlist in (("prune", exact), ("cross", coeff)):
        pruner = NetlistPruner(netlist, evaluator, engine="bigint")
        for design in pruner.explore_legacy(synthesis="reference"):
            points.append(DesignPoint.from_record(
                technique, design.record, tau_c=design.tau_c,
                phi_c=design.phi_c, n_pruned=design.n_pruned,
                duplicate=design.duplicate_of is not None))
    return points


def _oracle_esweep(case) -> list:
    from repro.core.cross_layer import CrossLayerFramework

    split = case.split
    result = CrossLayerFramework(
        clock_ms=case.clock_ms, builder="gate", engine="bigint").sweep_e(
        case.quant_model, split.X_train, split.X_test, split.y_test,
        e_values=spec.ESWEEP_E_VALUES, include=("coeff",))
    return [(e, result.coeff_point(e)) for e in spec.ESWEEP_E_VALUES]


def _oracle_served(requests: list, store_dir: pathlib.Path) -> dict:
    from repro.service import DesignStore, ExplorationService

    service = ExplorationService(DesignStore(store_dir / "oracle.sqlite"))
    digests = {}
    for request in requests:
        out = io.StringIO()
        service.run_manifest([request], out)
        digests[spec.request_key(request)] = spec.served_digest(
            out.getvalue())
    return digests


def main() -> int:
    from repro.experiments.zoo import get_case

    golden = {"explore": {}, "esweep_store": {}, "serve_mixed": {}}
    for dataset, model in spec.CIRCUITS:
        key = spec.circuit_key(dataset, model)
        case = get_case(dataset, model)
        golden["explore"][key] = spec.explore_digest(
            _oracle_points(case, f"{dataset}_{model}"))
        golden["esweep_store"][key] = spec.esweep_digest(
            _oracle_esweep(case))
        print(f"[golden] {key}", file=sys.stderr)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        golden["serve_mixed"] = _oracle_served(
            spec.warm_requests() + spec.fresh_requests(), pathlib.Path(tmp))
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1,
                                                 sort_keys=True) + "\n")
    print(f"[golden] {sum(map(len, golden.values()))} digests -> "
          f"{HERE / 'golden.json'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
