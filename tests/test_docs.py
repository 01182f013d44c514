"""Documentation stays correct: intra-repo links resolve, code
references (in the docs and in the package's docstrings) name real
definitions, examples run, quoted performance figures match the
committed record.

The CI docs job runs the same checks standalone
(``python tools/check_docs.py`` + ``python -m doctest``); keeping them
in the tier-1 suite means a broken link or a drifted doctest fails
locally before it fails in CI.
"""

import doctest
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_docs import (  # noqa: E402
    broken_links,
    doc_files,
    metric_mismatches,
    quoted_mismatches,
    stale_references,
    unresolved_docstring_references,
)


def test_docs_exist():
    names = {f.name for f in doc_files()}
    assert "README.md" in names
    assert "ARCHITECTURE.md" in names


def test_no_broken_intra_repo_links():
    assert broken_links() == []


def test_code_references_resolve():
    assert stale_references() == []


def test_stale_code_reference_is_reported(tmp_path):
    doc = tmp_path / "NOTES.md"
    doc.write_text("\n".join([
        "| Layer | Fast path |",
        "|-------|-----------|",
        "| Simulation | `hw/simulate.py::simulate_bigint` |",
        "| Scoring | `hw/compiled.py::RetiredEngine` via `evaluate_many` |",
        "| Missing | `hw/no_such_module.py::simulate` |",
        "```", "`hw/compiled.py::InsideAFence`", "```"]))
    assert stale_references([doc]) == [
        "NOTES.md: hw/compiled.py::RetiredEngine",
        "NOTES.md: hw/no_such_module.py::simulate"]


def test_docstring_references_resolve():
    assert unresolved_docstring_references()[0] == []


def test_stale_docstring_reference_is_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("def helper():\n    pass\n")
    (package / "engine.py").write_text("\n".join([
        '"""Walks :class:`Engine` via :func:`~pkg.engine.run`,',
        ':func:`pkg.helper`,',
        ':meth:`Engine.plan',
        '<pkg.engine.Engine.plan>` and the retired :meth:`snapshot`."""',
        "from dataclasses import dataclass",
        "@dataclass",
        "class Engine:",
        '    """Reads :attr:`width`, :attr:`_cache`, :attr:`Slots.held`',
        '    and the retired :meth:`Engine._slot_arrays`."""',
        "    width: int = 0",
        "    _cache = None",
        "    def plan(self):",
        "        pass",
        "class Slots:",
        '    __slots__ = ("held",)',
        "def run():",
        "    pass", ""]))
    # A method of the same name elsewhere does not resolve a reference
    # to a retired one.
    (package / "metrics.py").write_text("\n".join([
        "class Registry:",
        "    def snapshot(self):",
        '        """Like :meth:`Engine.plan`, unlike',
        '        :meth:`~pkg.engine.Engine.snapshot`."""', ""]))
    problems, checked = unresolved_docstring_references(package)
    assert problems == [
        "pkg/engine.py: :meth:`snapshot`",
        "pkg/engine.py: :meth:`Engine._slot_arrays`",
        "pkg/metrics.py: :meth:`~pkg.engine.Engine.snapshot`"]
    assert checked == 11


def test_metric_table_matches_the_emitted_names():
    architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    assert metric_mismatches(architecture) == []


def test_undocumented_and_retired_metrics_are_reported(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "emit.py").write_text("\n".join([
        "from .telemetry import counter as _metric",
        "def work(tel, registry, name):",
        '    _metric("kept.count", result="hit")',
        '    tel.observe("kept.ms", 1.0)',
        '    registry.gauge("new.gauge", 3)',
        '    _metric(name)  # not a literal: unchecked',
        '    return "kept.literal"', ""]))
    architecture = "\n".join([
        "**Metric names.** Rendered as Prometheus text:", "",
        "| metric | labels | meaning |", "|---|---|---|",
        "| `kept.count` / `kept.ms` | `result` | both emitted |",
        "| `kept.literal` | — | named as a literal |",
        "| `retired.count` | — | no longer emitted |", ""])
    assert metric_mismatches(architecture, package) == [
        "ARCHITECTURE.md: retired.count is documented but no source "
        "names it",
        "ARCHITECTURE.md: new.gauge is emitted but has no row"]


def test_documented_examples_run():
    """Every ``>>>`` block in README/docs executes and matches."""
    for doc in doc_files():
        failures, attempted = doctest.testfile(str(doc), module_relative=False,
                                               verbose=False)
        assert failures == 0, f"{doc.name}: {failures} doctest failures"
        if doc.name in ("README.md", "ARCHITECTURE.md"):
            assert attempted > 0, f"{doc.name} lost its doctest examples"


def test_quoted_speedups_match_the_record():
    record = json.loads((REPO_ROOT / "BENCH_simulate.json").read_text())
    assert quoted_mismatches((REPO_ROOT / "README.md").read_text(),
                             record) == []


_RECORD = {"end_to_end": [
    {"circuit": "redwine/svm_r", "speedup": 1.94, "legacy_s": 0.0776,
     "batched_s": 0.04, "bigint_s": 0.072},
    {"circuit": "cardio/svm_c", "speedup": 8.04, "legacy_s": 1.608,
     "batched_s": 0.2, "bigint_s": 1.2}]}
_README = "\n".join([
    "## Measured performance", "",
    "| Circuit | Seed pipeline | Batched | Speedup vs seed |",
    "|---------|---------------|---------|-----------------|",
    "| redwine SVM-R | 0.08 s | {batched} | {speedup} |",
    "| cardio SVM-C  | 1.61 s | 0.20 s | 8.0x |", "",
    "The oracle walk (`bigint_s`) took {oracle}x the batched walk's time.",
    "", "Text after the table."])
_FRESH = {"batched": "0.04 s", "speedup": "1.9x", "oracle": "1.8–6.0"}


def test_mismatched_speedup_is_reported():
    assert quoted_mismatches(_README.format(**_FRESH), _RECORD) == []
    problems = quoted_mismatches(
        _README.format(**{**_FRESH, "speedup": "2.4x"}), _RECORD)
    assert len(problems) == 1 and "redwine SVM-R" in problems[0]
    assert quoted_mismatches("no table", _RECORD)


def test_stale_seconds_cell_and_oracle_range_are_reported():
    problems = quoted_mismatches(
        _README.format(**{**_FRESH, "batched": "0.03 s"}), _RECORD)
    assert len(problems) == 1 and "Batched quotes 0.03 s" in problems[0]
    problems = quoted_mismatches(
        _README.format(**{**_FRESH, "oracle": "1.8–9.1"}), _RECORD)
    assert len(problems) == 1 and "oracle walk" in problems[0]
    missing = _README.replace(" Seed pipeline |", "").replace(
        "0.08 s |", "").replace("1.61 s |", "")
    assert "Seed pipeline" in quoted_mismatches(missing.format(**_FRESH),
                                                _RECORD)[0]
