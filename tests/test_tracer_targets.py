"""perfbench/tracer.py wraps program names by module and attribute path; a
renamed or removed one breaks every traced benchmark run, and a name the
benchmark reads per call must keep being called once per item.  The
benchmark's workloads draw their inputs through acceptance's names for the
draws, so those names and the draws themselves are pinned here too."""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

from pachner33 import acceptance, elliptic, pachner, simplicial, weights

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
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
    om = simplicial.generic_cocycle(np.random.default_rng(1), pachner.VERTICES)
    assert _counted("pachner33.cocycle2weight", "reconstruct_F", lambda: pachner.reconcile(om)) == 6
    assert _counted("pachner33.pachner", "verify_33", lambda: acceptance.run(9)) == 60


def test_the_workloads_draw_through_the_modules_that_define_the_draws():
    """perfbench/workloads.py calls acceptance.<draw>; each such name is the
    function of the module where the draw lives, so the benchmark draws what
    the CLI draws."""
    used = set(re.findall(r"acceptance\.(\w+)\(", (PERFBENCH / "workloads.py").read_text()))
    owners = {"generic_cocycle": simplicial, "random_weight_matrix": weights, "random_elliptic_params": elliptic}
    assert used == set(owners)
    for name, owner in owners.items():
        assert getattr(acceptance, name) is getattr(owner, name)


def _values(draw):
    """A draw's numbers, as one complex array."""
    if isinstance(draw, elliptic.EllipticParams):
        return np.array([draw.modulus, *draw.coords.values()])
    if isinstance(draw, weights.WeightMatrix):
        return draw.entries
    if isinstance(draw, simplicial.Cochain):
        return np.array(list(draw.values.values()))
    return np.array([draw], dtype=complex)


# each draw's first value at seed 34, as sha256(tobytes()); a change to a draw
# changes every benchmark input, so it has to change one of these on purpose
FIRST_DRAWS = {
    "random_disc": (weights.random_disc, "db7ff0e7ee193b4c"),
    "random_disc-0.2": (lambda rng: weights.random_disc(rng, 0.2), "b4cf05bbe2e499c0"),
    "random_weight_matrix": (weights.random_weight_matrix, "cfa58867c8f14531"),
    "generic_cocycle": (simplicial.generic_cocycle, "16fee8a5ca4354bd"),
    "generic_cocycle-scene": (lambda rng: simplicial.generic_cocycle(rng, pachner.VERTICES), "efce740316f29488"),
    "random_elliptic_params": (elliptic.random_elliptic_params, "c795f55e5be3566f"),
    "random_elliptic_params-scene": (
        lambda rng: elliptic.random_elliptic_params(rng, pachner.VERTICES), "0d30c23881a6f667"),
}


@pytest.mark.parametrize("name", FIRST_DRAWS)
def test_first_draws_are_pinned(name):
    draw, digest = FIRST_DRAWS[name]
    values = _values(draw(np.random.default_rng(34)))
    assert values.dtype == complex
    assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == digest


# 1,000 consecutive draws at seed 34 and the generator's next uniform, as
# sha256(tobytes()) of each in turn: a draw that keeps its first value but
# moves a later one, or takes a different count of variates, changes these
DRAW_STREAMS = {
    "random_disc": (weights.random_disc, "40d429c001592aca"),
    "random_disc-0.2": (lambda rng: weights.random_disc(rng, 0.2), "23c39e275f1ab789"),
    "random_weight_matrix": (weights.random_weight_matrix, "eefa06a52159caf9"),
    "generic_cocycle": (simplicial.generic_cocycle, "3a9720bf9c5165be"),
    "generic_cocycle-scene": (lambda rng: simplicial.generic_cocycle(rng, pachner.VERTICES), "019b971912fb56f5"),
    "random_elliptic_params": (elliptic.random_elliptic_params, "24d653a1e2a9cd2c"),
    "random_elliptic_params-scene": (
        lambda rng: elliptic.random_elliptic_params(rng, pachner.VERTICES), "d5caa9afdb9b5b5c"),
}


@pytest.mark.parametrize("name", DRAW_STREAMS)
def test_draw_streams_are_pinned(name):
    draw, digest = DRAW_STREAMS[name]
    rng = np.random.default_rng(34)
    h = hashlib.sha256()
    for _ in range(1000):
        values = _values(draw(rng))
        assert values.dtype == complex
        h.update(values.tobytes())
    h.update(np.float64(rng.random()).tobytes())
    assert h.hexdigest()[:16] == digest
