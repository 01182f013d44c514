"""Fixtures shared across the test modules."""

from __future__ import annotations

import pytest

import repro.core.cross_layer as cross_layer


@pytest.fixture
def fresh_executor(monkeypatch):
    """An empty family-executor slot for one test.

    The executor a test makes forks after the test's own patches and
    environment, and is shut down when the test ends; the slot then
    gets back whatever executor it held before.
    """
    monkeypatch.setattr(cross_layer, "_EXECUTOR", None)
    yield
    cross_layer._drop_executor()
