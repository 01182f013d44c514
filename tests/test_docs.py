"""Documentation stays correct: intra-repo links resolve, code
references name real definitions, examples run, quoted speedups match
the committed record.

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
    speedup_mismatches,
    stale_references,
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
    assert speedup_mismatches((REPO_ROOT / "README.md").read_text(),
                              record) == []


def test_mismatched_speedup_is_reported():
    record = {"end_to_end": [{"circuit": "redwine/svm_r", "speedup": 1.94},
                             {"circuit": "cardio/svm_c", "speedup": 8.04}]}
    readme = "\n".join([
        "## Measured performance", "",
        "| Circuit | Batched | Speedup vs seed |",
        "|---------|---------|-----------------|",
        "| redwine SVM-R | 0.04 s | {} |",
        "| cardio SVM-C  | 0.20 s | 8.0x |", "",
        "Text after the table."])
    assert speedup_mismatches(readme.format("1.9x"), record) == []
    problems = speedup_mismatches(readme.format("2.4x"), record)
    assert len(problems) == 1 and "redwine SVM-R" in problems[0]
    assert speedup_mismatches("no table", record)
