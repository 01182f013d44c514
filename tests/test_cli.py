"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("module", ["repro.cli", "repro.experiments.zoo"])
def test_import_leaves_scipy_unloaded(module):
    """scipy serves one experiment; CLI and serve start-up never load it."""
    code = (f"import sys, {module}\n"
            "print(sorted(m for m in sys.modules"
            " if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


class TestCli:
    def test_requires_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_fig1_runs(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "FIG. 1" in out

    def test_proxy_quick(self, capsys):
        assert main(["proxy", "--quick"]) == 0
        assert "Pearson" in capsys.readouterr().out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        assert "FIG. 2" in capsys.readouterr().out

    def test_table1_single_dataset(self, capsys):
        assert main(["table1", "--datasets", "redwine"]) == 0
        out = capsys.readouterr().out
        assert "RW MLP-C" in out
        assert "Card MLP-C" not in out
