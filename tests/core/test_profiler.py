"""Unit tests for the phase profiler."""

import time

import pytest

from repro.core import PhaseProfiler


def test_record_accumulates():
    p = PhaseProfiler()
    p.record("evaluate", 1.0)
    p.record("evaluate", 2.0)
    p.record("evolve", 1.0)
    assert p.seconds("evaluate") == 3.0
    assert p.total == 4.0


def test_negative_duration_rejected():
    p = PhaseProfiler()
    with pytest.raises(ValueError):
        p.record("x", -1.0)


def test_fractions():
    p = PhaseProfiler()
    p.record("a", 3.0)
    p.record("b", 1.0)
    fr = p.fractions()
    assert fr["a"] == pytest.approx(0.75)
    assert sum(fr.values()) == pytest.approx(1.0)


def test_fractions_empty():
    assert PhaseProfiler().fractions() == {}


def test_context_manager_times_block():
    p = PhaseProfiler()
    with p.phase("sleepy"):
        time.sleep(0.01)
    assert p.seconds("sleepy") >= 0.005


def test_context_manager_records_on_exception():
    p = PhaseProfiler()
    with pytest.raises(RuntimeError):
        with p.phase("boom"):
            raise RuntimeError("x")
    assert "boom" in p.phases


def test_phases_returns_copy():
    p = PhaseProfiler()
    p.record("x", 1.0)
    snapshot = p.phases
    snapshot["x"] = 99.0
    assert p.seconds("x") == 1.0
