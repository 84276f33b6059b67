"""perfbench/tracer.py wraps program names by module and attribute path; a
renamed or removed one breaks every traced benchmark run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from pachner33 import acceptance

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name, modname, path", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves(name, modname, path):
    owner = importlib.import_module(modname)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def test_rebound_criteria_are_the_ones_selftest_runs():
    """The tracer and the benchmark's pacing rebind each criterion in
    acceptance's module globals and flat tuples; run_all must call the
    rebound functions, once each, or every criterion's counters read 0."""
    calls = {}

    def stub(name):
        def criterion(seed, tolerance):
            calls[name] = calls.get(name, 0) + 1
            return True, "stub"

        return lambda fn: criterion

    undo = []
    try:
        for k in range(1, 11):
            undo += tracer.rebind("pachner33.acceptance", f"criterion_{k}", stub(f"criterion_{k}"))
        lines = [r.line for r in acceptance.run_all()]
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    assert calls == {f"criterion_{k}": 1 for k in range(1, 11)}
    assert lines == [f"PASS criterion {k}: {title} (stub)" for k, title in enumerate(acceptance.TITLES, 1)]
