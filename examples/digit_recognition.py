"""The largest circuit of the evaluation: the Pendigits SVM classifier.

10 classes, 160 hardwired coefficients, 45 pairwise decision units — the
paper's biggest design (Table I: 123.8 cm^2, 364 mW, far beyond any
printed battery).  This example builds it, inspects the structure, and
shows what the coefficient approximation alone buys on a circuit whose
baseline accuracy must not move (digit recognition at 0.98+).

It also demonstrates hyperparameter search with the from-scratch
RandomizedSearchCV, the paper's training protocol.

Run:  python examples/digit_recognition.py
"""

import numpy as np

import _bootstrap  # noqa: F401  (repo-checkout sys.path shim)

from repro import (
    CoefficientApproximator,
    LinearSVMClassifier,
    RandomizedSearchCV,
    build_bespoke_netlist,
    load_dataset,
    quantize_model,
)
from repro.eval.accuracy import CircuitEvaluator
from repro.hw import AreaReport, TimingReport


class LogUniform:
    """Log-uniform draws on [lo, hi], in the ``rvs(random_state=)`` shape
    the hyperparameter sampler takes."""

    def __init__(self, lo: float, hi: float) -> None:
        self.lo, self.hi = np.log(lo), np.log(hi)

    def rvs(self, random_state: int) -> float:
        rng = np.random.default_rng(random_state)
        return float(np.exp(rng.uniform(self.lo, self.hi)))


def main() -> None:
    print("=== pendigits SVM-C: the largest printed circuit ===\n")

    split = load_dataset("pendigits").standard_split(seed=0)

    # RandomizedSearchCV with 5-fold CV (Section III-A).  Small budget:
    # the linear SVM is insensitive on this easy, well-separated data.
    search = RandomizedSearchCV(
        LinearSVMClassifier(seed=1, max_epochs=250),
        {"C": LogUniform(0.1, 10.0), "lr": [0.03, 0.05, 0.1]},
        n_iter=4, cv=5, seed=0)
    search.fit(split.X_train[:1500], split.y_train[:1500])
    print(f"search best params: {search.best_params_} "
          f"(CV accuracy {search.best_score_:.3f})")

    model = LinearSVMClassifier(seed=1, **search.best_params_)
    model.fit(split.X_train, split.y_train)
    quant = quantize_model(model)
    print(f"quantized: {quant.n_coefficients} coefficients "
          f"({quant.n_classes} classes x {quant.weights.shape[0]} features), "
          f"{quant.n_pairwise_classifiers} pairwise classifiers\n")

    netlist = build_bespoke_netlist(quant, name="pendigits-svm-c")
    print(AreaReport.from_netlist(netlist))
    print(TimingReport.from_netlist(netlist, clock_ms=200.0))

    evaluator = CircuitEvaluator.from_split(
        quant, split.X_train, split.X_test, split.y_test, clock_ms=200.0)
    baseline = evaluator.evaluate(netlist)
    print(f"\nexact bespoke: accuracy {baseline.accuracy:.3f}, "
          f"area {baseline.area_cm2:.1f} cm^2, power {baseline.power_mw:.0f} mW")

    approximator = CoefficientApproximator(e=4)
    approx_model, reports = approximator.approximate_model(quant)
    changed = sum(1 for r in reports if r.original != r.approximated)
    mean_reduction = 100 * sum(r.area_reduction for r in reports) / len(reports)
    approx_netlist = build_bespoke_netlist(approx_model,
                                           name="pendigits-svm-c-approx")
    record = evaluator.evaluate(approx_netlist)
    print(f"\ncoefficient approximation (e=4): {changed}/{len(reports)} "
          f"score units changed,")
    print(f"  mean multiplier-area reduction {mean_reduction:.0f}% (proxy)")
    print(f"  measured: accuracy {record.accuracy:.3f} "
          f"({record.accuracy - baseline.accuracy:+.3f}), "
          f"area {record.area_cm2:.1f} cm^2 "
          f"({100 * (1 - record.area_mm2 / baseline.area_mm2):.0f}% smaller), "
          f"power {record.power_mw:.0f} mW")


if __name__ == "__main__":
    main()
