"""The automated cross-layer approximation framework (Sections III-IV).

Given a quantized model and a dataset split, :class:`CrossLayerFramework`
produces every design family of the paper's Fig. 3:

* ``exact``  — the area-optimized bespoke baseline (black triangle);
* ``coeff``  — only hardware-driven coefficient approximation (red star);
* ``prune``  — only netlist pruning, applied to the exact circuit
  (gray crosses);
* ``cross``  — coefficient approximation followed by pruning of the
  approximated netlist (green dots), the paper's proposal.

Every evaluated design carries measured accuracy (test-set simulation),
synthesized area, and activity-based power, so the result object can
directly regenerate Fig. 3 (Pareto spaces), Table II (area/power at <1%
accuracy loss, with fallback to the parent design when nothing meets the
threshold — the paper's 0%-gain entries), and Table III (execution time).
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from ..eval.accuracy import CircuitEvaluator, EvaluationRecord, check_engine
from ..hw.bespoke import build_bespoke_netlist
from .coeff_approx import ApproximatedSum, CoefficientApproximator
from .multiplier_area import BespokeMultiplierLibrary
from .pareto import best_within_accuracy_loss, pareto_front
from .pruning import (DEFAULT_TAU_GRID, NetlistPruner, PrunedDesign,
                      fault_point)

__all__ = ["DesignPoint", "ExplorationResult", "ESweepResult",
           "CrossLayerFramework", "DEFAULT_E_SWEEP", "TECHNIQUES",
           "TECHNIQUE_LABELS"]

# The Fig. 2 sweep range: every coefficient search radius from 1 to 10.
DEFAULT_E_SWEEP = tuple(range(1, 11))

TECHNIQUES = ("exact", "coeff", "prune", "cross")

# Legend names used in the paper's Fig. 3.
TECHNIQUE_LABELS = {
    "exact": "Exact Bespoke [1]",
    "coeff": "Only Coeff. Approx.",
    "prune": "Only Pruning",
    "cross": "Coef. Approx. & Pruning",
}


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design in the accuracy/area/power space.

    ``e`` tags the coefficient search radius that produced the design's
    base model — ``None`` for the exact family and for single-``e``
    explorations; e-sweeps (:meth:`CrossLayerFramework.sweep_e`) stamp
    it so the union Pareto can attribute every point to its radius.
    """

    technique: str
    accuracy: float
    area_mm2: float
    power_mw: float
    n_gates: int
    tau_c: float | None = None
    phi_c: int | None = None
    n_pruned: int = 0
    duplicate: bool = False
    e: int | None = None

    @property
    def area_cm2(self) -> float:
        return self.area_mm2 / 100.0

    @staticmethod
    def from_record(technique: str, record: EvaluationRecord,
                    **extra) -> "DesignPoint":
        return DesignPoint(technique, record.accuracy, record.area_mm2,
                           record.power_mw, record.n_gates, **extra)


@dataclass
class ExplorationResult:
    """Everything the framework evaluated for one circuit."""

    name: str
    points: list[DesignPoint]
    runtime_s: float
    coeff_reports: list[ApproximatedSum] = field(default_factory=list)

    @property
    def baseline(self) -> DesignPoint:
        """The exact bespoke design everything is normalized against."""
        return next(p for p in self.points if p.technique == "exact")

    @property
    def coeff_point(self) -> DesignPoint:
        return next(p for p in self.points if p.technique == "coeff")

    def technique(self, *names: str) -> list[DesignPoint]:
        wanted = set(names)
        return [p for p in self.points if p.technique in wanted]

    @property
    def n_designs(self) -> int:
        """Designs in the explored space (the paper counts >4300 total)."""
        return len(self.points)

    @property
    def n_unique_designs(self) -> int:
        return sum(1 for p in self.points if not p.duplicate)

    def normalized_area(self, point: DesignPoint) -> float:
        return point.area_mm2 / self.baseline.area_mm2

    def pareto(self, *techniques: str) -> list[DesignPoint]:
        """Accuracy-vs-area Pareto front over the chosen techniques."""
        pool = self.technique(*techniques) if techniques else self.points
        return pareto_front(pool, lambda p: p.area_mm2, lambda p: p.accuracy)

    def best_within_loss(self, technique: str,
                         max_loss: float = 0.01) -> DesignPoint:
        """Area-optimal design of one technique at bounded accuracy loss.

        Candidate pools include the technique's parent design, so when no
        approximate design meets the threshold the selection degrades to
        the parent (the paper's 0%-gain Table II entries): pruning falls
        back to the exact baseline, cross falls back to the coefficient-
        approximated design (and transitively to the baseline).
        """
        pools = {
            "exact": ["exact"],
            "coeff": ["coeff", "exact"],
            "prune": ["prune", "exact"],
            "cross": ["cross", "coeff", "exact"],
        }
        if technique not in pools:
            raise ValueError(f"unknown technique {technique!r}")
        candidates = [p for p in self.technique(*pools[technique])
                      if not p.duplicate]
        chosen = best_within_accuracy_loss(
            candidates, self.baseline.accuracy, max_loss,
            lambda p: p.area_mm2, lambda p: p.accuracy)
        if chosen is None:  # baseline is always eligible (zero loss)
            chosen = self.baseline
        return chosen


@dataclass
class ESweepResult:
    """Per-``e`` coeff+cross families of one circuit's e-sweep.

    The Fig. 2-style exploration generalized to whole circuits: one
    exact baseline plus, for every coefficient search radius ``e``, the
    coefficient-approximated design (``technique="coeff"``) and — when
    requested — its pruning family (``technique="cross"``), every point
    stamped with its ``e``.  :meth:`pareto` ranges over the *union* of
    the families, so the result directly answers the question Fig. 2
    answers for lone multipliers: which radius actually buys area at
    circuit level, and where it saturates.
    """

    name: str
    e_values: tuple[int, ...]
    points: list[DesignPoint]
    runtime_s: float
    coeff_reports: dict[int, list[ApproximatedSum]] = field(
        default_factory=dict)

    @property
    def baseline(self) -> DesignPoint:
        """The exact bespoke design every family normalizes against."""
        return next(p for p in self.points if p.technique == "exact")

    def family(self, e: int) -> list[DesignPoint]:
        """Every evaluated point of one radius (coeff + cross)."""
        return [p for p in self.points if p.e == e]

    def coeff_point(self, e: int) -> DesignPoint:
        return next(p for p in self.points
                    if p.technique == "coeff" and p.e == e)

    def technique(self, *names: str) -> list[DesignPoint]:
        wanted = set(names)
        return [p for p in self.points if p.technique in wanted]

    @property
    def n_designs(self) -> int:
        return len(self.points)

    def pareto(self, *techniques: str) -> list[DesignPoint]:
        """Accuracy-vs-area Pareto front over the union of the families."""
        pool = self.technique(*techniques) if techniques else self.points
        return pareto_front(pool, lambda p: p.area_mm2, lambda p: p.accuracy)


@dataclass(frozen=True)
class _Family:
    """One independent pruning exploration: a task of the executor.

    The pruner is built where the family runs, so a worker folds and
    trains its own base.  ``store`` pickles as its path and namespace:
    a worker reopens the file on its own connection.
    """

    label: str
    circuit: object
    evaluator: CircuitEvaluator
    tau_grid: tuple[float, ...]
    engine: str
    store: object = None
    grid_meta: dict | None = None

    def designs(self) -> list[PrunedDesign]:
        """The family's design list, through the store when set."""
        pruner = NetlistPruner(self.circuit, self.evaluator, self.tau_grid,
                               engine=self.engine)
        if self.store is None:
            return pruner.explore()
        from ..service.jobs import ExplorationJob  # lazy: core <-> service
        return ExplorationJob(pruner, self.store, label=self.label,
                              grid_meta=self.grid_meta).run()


def _run_family(family: _Family) -> list[PrunedDesign]:
    """Executor task: one family's design list, in a worker."""
    fault_point("worker.family", family=family.label)
    return family.designs()


# The process-wide family executor, ``(n_workers, executor)``: made on
# first parallel use, kept across calls and frameworks, replaced when
# it fails.  Its workers fork, so they start with the package already
# imported; they fork from the process as it was then, so a later
# REPRO_FAULTS or ``faults.install()`` change does not reach them.
_EXECUTOR: tuple[int, ProcessPoolExecutor] | None = None


def _family_executor(n_workers: int) -> ProcessPoolExecutor:
    """The process-wide executor for ``n_workers`` workers."""
    global _EXECUTOR
    if _EXECUTOR is not None and _EXECUTOR[0] != n_workers:
        _drop_executor()
    if _EXECUTOR is None:
        _EXECUTOR = (n_workers, ProcessPoolExecutor(
            max_workers=n_workers,
            mp_context=multiprocessing.get_context("fork")))
    return _EXECUTOR[1]


def _drop_executor() -> None:
    """Retire the executor; the next parallel call makes a fresh one."""
    global _EXECUTOR
    if _EXECUTOR is not None:
        executor, _EXECUTOR = _EXECUTOR[1], None
        executor.shutdown(wait=False, cancel_futures=True)


def _design_points(technique: str, designs: list[PrunedDesign],
                   **extra) -> list[DesignPoint]:
    return [DesignPoint.from_record(
        technique, design.record, tau_c=design.tau_c, phi_c=design.phi_c,
        n_pruned=design.n_pruned,
        duplicate=design.duplicate_of is not None, **extra)
        for design in designs]


class CrossLayerFramework:
    """End-to-end automated flow of the paper.

    Args:
        e: coefficient search radius (the paper fixes 4; Fig. 2 shows the
            area gains saturating beyond it).
        strategy: selection strategy for step 3 of the coefficient
            approximation (see :class:`CoefficientApproximator`).
        tau_grid: pruning thresholds (defaults to 80..99%).
        clock_ms: circuit clock for power analysis (the paper uses 200 ms,
            250 ms for the Pendigits MLP-C).
        library: shared bespoke-multiplier area cache.
        n_workers: run each independent pruning family (``explore``'s
            prune and cross families, ``sweep_e``'s per-radius cross
            families) as one task on a process-wide executor of this
            many workers, made on first use and kept across calls.
            ``None``/``0``/``1``, or fewer than two families, stays in
            process.  If the executor fails, the families run in
            process after a ``RuntimeWarning``.  Either way the design
            list is the same.
        engine: evaluation backend for every score and exploration —
            ``"auto"`` (default: the platform's fast path, the batched
            trie walk where the host supports it) or the ``"bigint"``
            oracle.  Both produce the identical design space; any other
            name raises ``ValueError``.  See
            :class:`~repro.eval.accuracy.CircuitEvaluator` for the
            selector semantics.
        store: optional content-addressed design store (a
            :class:`~repro.service.store.DesignStore`, a store-shaped
            object such as a coordinator's ``RemoteStore``, or a path
            to a local store file).  When set, the pruning
            explorations route through the service layer's resumable
            sharded jobs: finished grids are
            lookups, interrupted ones resume from their last shard
            checkpoint, and the records are bit-identical to a
            store-less run (the store-hit identity contract).  The
            coefficient approximation is memoized in the store too, so
            warm ``coeff``/``cross`` runs skip the area search.
        builder: bespoke emitter backend — ``"auto"`` (default: the
            array backend), ``"array"``, or ``"gate"`` (the per-gate
            oracle, for reference runs).  Both produce row-for-row
            identical circuits and byte-identical design lists.  See
            :mod:`repro.hw.bespoke`.
    """

    def __init__(self, e: int = 4, strategy: str = "auto",
                 tau_grid: tuple[float, ...] = DEFAULT_TAU_GRID,
                 clock_ms: float | None = None,
                 library: BespokeMultiplierLibrary | None = None,
                 n_workers: int | None = None,
                 engine: str = "auto",
                 store=None,
                 builder: str = "auto") -> None:
        if builder not in ("auto", "array", "gate"):
            raise ValueError(f"unknown builder {builder!r} "
                             "(expected 'auto', 'array' or 'gate')")
        check_engine(engine)
        self.approximator = CoefficientApproximator(
            library=library, e=e, strategy=strategy)
        self.tau_grid = tau_grid
        self.clock_ms = clock_ms
        self.n_workers = n_workers
        self.engine = engine
        if store is not None:
            from ..service.store import open_store  # lazy: core <-> service
            store = open_store(store)
        self.store = store
        self.builder = builder

    def _family(self, label: str, circuit, evaluator: CircuitEvaluator,
                grid_meta: dict | None = None) -> _Family:
        """One pruning exploration; through the store when configured.

        ``grid_meta`` (the coeff-netlist content key for cross-family
        explorations) rides into the stored grid metadata so
        ``store gc`` keeps the base netlist reachable while the grid
        survives.
        """
        return _Family(label, circuit, evaluator, self.tau_grid,
                       self.engine, self.store, grid_meta)

    def _explore_families(self, families: list[_Family]
                          ) -> list[list[PrunedDesign]]:
        """Each family's design list, in order (see ``n_workers``)."""
        if len(families) > 1 and self.n_workers and self.n_workers > 1:
            try:
                executor = _family_executor(self.n_workers)
                futures = [executor.submit(_run_family, family)
                           for family in families]
                return [future.result() for future in futures]
            except Exception as exc:
                _drop_executor()
                warnings.warn(
                    f"the family executor failed ({exc!r}); exploring "
                    f"the {len(families)} families in process",
                    RuntimeWarning, stacklevel=3)
        return [family.designs() for family in families]

    def _coeff_grid_meta(self, model, approximator=None) -> dict | None:
        """Grid metadata tying a cross exploration to its coeff netlist."""
        if self.store is None:
            return None
        from ..service.store import coeff_netlist_key  # lazy import
        approximator = approximator or self.approximator
        return {"coeff_netlist_key": coeff_netlist_key(model, approximator),
                "e": approximator.e}

    def _approximate(self, model, approximator=None):
        """Coefficient approximation, memoized in the store when set."""
        if approximator is None:
            approximator = self.approximator
        if self.store is None:
            return approximator.approximate_model(model)
        from ..service.store import approximate_model_cached
        return approximate_model_cached(approximator, model, self.store)

    def _coeff_netlist(self, model, approx_model, name: str,
                       approximator=None):
        """The synthesized coefficient-approximated circuit.

        Either way it is an :class:`~repro.hw.synthesis.ArrayCircuit`,
        which scoring and pruning both take.  With a store configured
        the build goes through
        :func:`~repro.service.store.build_coeff_netlist_cached`: the
        circuit is rebuilt from the approximated model and checked
        against the fingerprint the ``coeff_netlists`` table keeps
        under its content key, and the coefficient cache spares a warm
        sweep the area search.
        """
        if self.store is None:
            return build_bespoke_netlist(approx_model, name=name,
                                         builder=self.builder)
        from ..service.store import build_coeff_netlist_cached
        return build_coeff_netlist_cached(
            approximator or self.approximator, model, self.store,
            name=name, approx_model=approx_model, builder=self.builder)[0]

    def explore(self, model, X_train01, X_test01, y_test,
                name: str = "circuit",
                include: tuple[str, ...] = TECHNIQUES) -> ExplorationResult:
        """Run the full design-space exploration for one quantized model.

        ``include`` can drop families (e.g. skip "prune") when an
        experiment only needs part of the space.
        """
        start = time.perf_counter()
        evaluator = CircuitEvaluator.from_split(
            model, X_train01, X_test01, y_test, clock_ms=self.clock_ms,
            engine=self.engine)
        points: list[DesignPoint] = []

        exact_netlist = build_bespoke_netlist(model, name=f"{name}_exact",
                                              builder=self.builder)

        coeff_reports: list[ApproximatedSum] = []
        coeff_netlist = None
        if "coeff" in include or "cross" in include:
            approx_model, coeff_reports = self._approximate(model)
            coeff_netlist = self._coeff_netlist(
                model, approx_model, name=f"{name}_coeff")

        # The exact and coefficient-approximated designs score in one
        # multi-netlist pass (records bit-identical to per-netlist
        # evaluation — the evaluate_many contract).
        pair = [exact_netlist] if coeff_netlist is None \
            else [exact_netlist, coeff_netlist]
        records = evaluator.evaluate_many(pair)
        points.append(DesignPoint.from_record("exact", records[0]))
        if coeff_netlist is not None:
            points.append(DesignPoint.from_record("coeff", records[1]))

        families: dict[str, _Family] = {}
        if "prune" in include:
            families["prune"] = self._family(f"{name}/prune", exact_netlist,
                                             evaluator)
        if "cross" in include:
            families["cross"] = self._family(
                f"{name}/cross", coeff_netlist, evaluator,
                self._coeff_grid_meta(model))
        for technique, designs in zip(
                families, self._explore_families(list(families.values()))):
            points.extend(_design_points(technique, designs))

        runtime = time.perf_counter() - start
        return ExplorationResult(name, points, runtime, coeff_reports)

    def sweep_e(self, model, X_train01, X_test01, y_test,
                name: str = "circuit",
                e_values: tuple[int, ...] = DEFAULT_E_SWEEP,
                include: tuple[str, ...] = ("coeff", "cross")
                ) -> ESweepResult:
        """Sweep the coefficient search radius across whole circuits.

        The Fig. 2 e-sweep lifted from lone multipliers to the full
        cross-layer flow: for every ``e`` in ``e_values`` the model is
        re-approximated and the resulting design family evaluated —
        ``"coeff"`` (always) and optionally ``"cross"`` (a pruning
        exploration of each radius's netlist, store-backed and
        resumable per ``e`` when the framework has a store).

        Shared-work structure, versus a naive per-``e`` loop through
        :meth:`explore`:

        * the candidate search runs **once** — every radius reads its
          rung of one prefix-minima ladder
          (:meth:`~repro.core.multiplier_area.BespokeMultiplierLibrary.
          candidate_ladder`);
        * the evaluator (quantized split, packed stimulus) and the
          exact baseline are built and scored once;
        * all per-``e`` designs score in one multi-netlist batched
          pass (:meth:`~repro.eval.accuracy.CircuitEvaluator.
          evaluate_many`), on the same array circuits the pruner
          then prunes;
        * with a store, each radius's approximation *and* synthesized
          netlist are content-addressed, so a warm re-sweep skips the
          area search and the rebuild, and each radius's pruning grid
          resumes like any other exploration job.

        Records are bit-identical to the naive loop's (enforced by
        ``benchmarks/bench_esweep.py`` on every run).
        """
        start = time.perf_counter()
        evaluator = CircuitEvaluator.from_split(
            model, X_train01, X_test01, y_test, clock_ms=self.clock_ms,
            engine=self.engine)
        e_values = tuple(int(e) for e in e_values)

        exact_netlist = build_bespoke_netlist(model, name=f"{name}_exact",
                                              builder=self.builder)

        variants = []
        reports_by_e: dict[int, list[ApproximatedSum]] = {}
        for e in e_values:
            approximator = self.approximator.with_e(e)
            approx_model, reports = self._approximate(model, approximator)
            reports_by_e[e] = reports
            variants.append((e, approx_model, self._coeff_netlist(
                model, approx_model, name=f"{name}_coeff_e{e}",
                approximator=approximator)))

        records = evaluator.evaluate_many(
            [exact_netlist] + [circ for _e, _m, circ in variants])
        points: list[DesignPoint] = [
            DesignPoint.from_record("exact", records[0])]
        for (e, _m, _c), record in zip(variants, records[1:]):
            points.append(DesignPoint.from_record("coeff", record, e=e))

        if "cross" in include:
            families = [self._family(
                f"{name}/cross@e{e}", coeff_netlist, evaluator,
                self._coeff_grid_meta(model, self.approximator.with_e(e)))
                for e, _approx_model, coeff_netlist in variants]
            for (e, _m, _c), designs in zip(
                    variants, self._explore_families(families)):
                points.extend(_design_points("cross", designs, e=e))

        runtime = time.perf_counter() - start
        return ESweepResult(name, e_values, points, runtime, reports_by_e)
