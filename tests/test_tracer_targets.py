"""perfbench/tracer.py wraps program names by module and attribute path; a
renamed or removed one breaks every traced benchmark run, and a name the
benchmark reads per call must keep being called once per item."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pachner33 import acceptance, pachner

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


def _counted(modname, path, run):
    """How many times `run()` calls modname.path, through tracer.rebind."""
    calls = []

    def make(fn):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return counted

    undo = tracer.rebind(modname, path, make)
    try:
        run()
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return len(calls)


def test_the_benchmark_reads_one_call_per_simplex_and_per_scene():
    """The tracer keeps each reconstruct_F call's cochain and matrix for
    roundtrip_digits, and the benchmark paces criterion 9 by its verify_33
    calls, so one reconcile rebuilds its six simplices by six reconstruct_F
    calls and criterion 9 verifies its 60 scenes by 60 verify_33 calls.
    These hold until the tracer reads the stacked kernels (ROADMAP item 11)."""
    om = acceptance.generic_cocycle(np.random.default_rng(1), pachner.VERTICES)
    assert _counted("pachner33.cocycle2weight", "reconstruct_F", lambda: pachner.reconcile(om)) == 6
    assert _counted("pachner33.pachner", "verify_33", lambda: acceptance.run(9)) == 60
