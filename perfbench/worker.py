"""Benchmark worker: one process, one closed-loop client.

Imports the program from ``<checkout>/src``, draws each op's inputs from the
workload seed, calls ``pachner33.cli.main(argv)`` in-process with stdout
captured, and checks every output.  Prints ``READY <monotonic_ns> <import_s>``
once set up, ``REFERENCE <ms>`` after timing the reference computation, and
``RESULT <json>`` at the end; ``run.py`` starts it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# numpy and workloads.py are imported only after the program, so that the
# import time measured for the program includes numpy
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# inputs re-run after the timed loop to check byte-identical output, when the
# loop ended before repeating any
DETERMINISM_OPS = 3
# the reference runs before each segment for about this share of a mean
# segment's time, so that a long segment is compared with a long stretch of
# reference
REFERENCE_SHARE = 0.1
REFERENCE_MAX_REPS = 2000
# repetitions of the reference timed right after set-up
SETUP_REFERENCE_REPS = 20
# op segments, and the reference between them, are timed in process CPU time.
# On a shared host other tenants preempt the worker in bursts that stretch an
# op's wall time but that a short reference timed next to it mostly misses, so
# wall time puts the machine's load into the tail of op times; CPU time leaves
# preemption out, and dividing by the reference on the same clock removes a
# slower CPU.  Set-up is timed in wall time, as a user waits for it.
OP_CLOCK = time.process_time_ns


def _say(line: str) -> None:
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def _import_program():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import pachner33.cli as cli

    import_s = time.perf_counter() - t0
    where = os.path.realpath(cli.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"pachner33 imported from {where}, not from {SRC}")
    return cli, import_s


def _reference_matrix():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))


def _reference_ms(matrix, reps: int, clock=time.perf_counter_ns) -> float:
    """Mean time of `reps` runs of a fixed computation with the program's
    mix of work: dictionary and bit operations in Python (as in the
    Grassmann algebra) and small complex SVDs (as in the rank decisions).
    Op times divided by it stay steady when other tenants slow the whole
    machine down."""
    import numpy as np

    times = []
    for _ in range(reps):
        t0 = clock()
        acc: dict[int, complex] = {}
        for i in range(4000):
            acc[i & 511] = acc.get(i & 511, 0) + (i ^ (i >> 3)).bit_count() * 1.5j
        for _ in range(20):
            np.linalg.svd(matrix)
        times.append((clock() - t0) / 1e6)
    return statistics.fmean(times)


def _run_op(cli, argvs: list[list[str]]):
    """Run the CLI calls of one op; return their (exit code, stdout) pairs,
    or the text of an exception that escaped main()."""
    outputs = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a traceback is an answer the contract forbids
                return outputs, f"{type(e).__name__}: {e}"
        outputs.append((code, out.getvalue()))
    return outputs, None


class Loop:
    """Runs ops and keeps what the parent needs to compute the metrics."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.latencies_ms: list[float] = []
        # an op is timed in segments, split at the workload's pace points;
        # the reference is timed before each segment and once after the
        # last, so segment j of the run lies between references j and j + 1
        self.segments_ms: list[list[float]] = []
        self.reference_ms: list[float] = []
        self._segments: list[float] = []  # CPU ms of the current op's segments
        self._wall_ms = 0.0  # wall ms of the current op's segments
        self._start = (0, 0)  # CPU and wall clock at the current segment's start
        self._done = (0, 0.0)  # segments and their CPU ms over the ops timed so far
        self.ref_matrix = _reference_matrix()
        self.digits: list[float] = []
        self.failures: dict[str, list[int]] = {}
        self.incorrect: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, str] = {}  # output hash of each input's first pass
        self.compared = 0
        self.mismatches = 0

    def one(self, j: int, tracer=None, record: bool = True):
        """Run the op on input j; return its wall ms and outputs.  With
        `record` false only these count, as for a repeat of an input that has
        been counted."""
        from workloads import Outcome, accuracy_digits

        argvs = self.workload.prepare(j)
        if tracer is not None:
            tracer.enabled = True
            with tracer.span("op"):
                outputs, crash = self._run(argvs)
            tracer.enabled = False
        else:
            outputs, crash = self._run(argvs)
        ms = self._wall_ms
        if not record:
            return ms, outputs
        if crash is not None:
            outcome = Outcome(error="UncaughtException", incorrect=crash)
        else:
            outcome = self.workload.check(outputs)
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            self.failures.setdefault(outcome.error, []).append(self.workload.input_seed(j))
        if outcome.incorrect is not None:
            self.incorrect.append(f"input {j}: {outcome.incorrect}")
        if outcome.residual is not None:
            self.digits.append(accuracy_digits(outcome.residual))
        return ms, outputs

    def step(self, i: int) -> tuple[float, list]:
        """Op i of the run: the first pass over the workload's inputs is
        counted, and each later op repeats input i mod `inputs` and must give
        the output of its first pass."""
        j = i % self.workload.inputs
        ms, outputs = self.one(j, record=i < self.workload.inputs)
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        if i < self.workload.inputs:
            self.first[j] = digest
        else:
            self.compared += 1
            self.mismatches += digest != self.first[j]
        return ms, outputs

    def _run(self, argvs):
        self._segments = []
        self._wall_ms = 0.0
        self._start = (OP_CLOCK(), time.perf_counter_ns())
        result = _run_op(self.cli, argvs)
        self._close_segment()
        return result

    def _close_segment(self) -> None:
        cpu, wall = OP_CLOCK(), time.perf_counter_ns()
        self._segments.append((cpu - self._start[0]) / 1e6)
        self._wall_ms += (wall - self._start[1]) / 1e6

    def pace(self) -> None:
        """At a pace point inside a timed op: close the current segment, time
        the reference and open the next segment."""
        self._close_segment()
        self._reference()
        self._start = (OP_CLOCK(), time.perf_counter_ns())

    def _reference(self) -> None:
        """Time the reference for about REFERENCE_SHARE of a mean segment of
        the ops done so far, or of the workload's nominal segment before
        the first op has ended."""
        count, ms = self._done
        if count:
            cost = ms / count / self.reference_ms[-1]
        else:
            cost = self.workload.nominal_cost
        reps = max(1, min(REFERENCE_MAX_REPS, round(REFERENCE_SHARE * cost)))
        self.reference_ms.append(_reference_ms(self.ref_matrix, reps, OP_CLOCK))

    def timed(self, seconds: float, max_ops: int | None) -> tuple[int, float]:
        """Closed loop over ops 0, 1, ... until `seconds` of op time and a
        first pass over the workload's inputs are done, with the reference
        computation timed before each segment and once after the last."""
        from tracer import rebind

        restore = [undo for modname, path in self.workload.pace_points
                   for undo in rebind(modname, path, self._paced)]
        gc.collect()
        budget = seconds * 1e3
        spent = 0.0
        i = 0
        try:
            while (spent < budget or i < self.workload.inputs) and (max_ops is None or i < max_ops):
                self._reference()
                ms, _outputs = self.step(i)
                self.latencies_ms.append(ms)
                self.segments_ms.append(self._segments)
                self._done = (self._done[0] + len(self._segments), self._done[1] + sum(self._segments))
                spent += ms
                i += 1
            self._reference()
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)
        return i, spent / 1e3

    def _paced(self, fn):
        loop = self

        @functools.wraps(fn)
        def paced(*args, **kwargs):
            loop.pace()
            return fn(*args, **kwargs)

        return paced

    def rerun(self, inputs) -> None:
        """Run counted inputs again and compare their outputs with the first
        pass, for a run too short to have repeated any."""
        for j in inputs:
            _ms, outputs = self.one(j, record=False)
            self.compared += 1
            self.mismatches += hashlib.sha256(repr(outputs).encode()).hexdigest() != self.first[j]


def _environment() -> dict:
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except Exception:  # the config layout differs between numpy versions
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _roundtrip_digits(tracer) -> float | None:
    """Worst cocycle -> F -> cocycle round trip over the traced reconstructions,
    computed with tracing off, after the traced ops."""
    from pachner33.edgeops import extract_w_cocycle, normalize_family
    from pachner33.errors import Pachner33Error
    from workloads import accuracy_digits

    worst = None
    for omega, wm in tracer.reconstructions:
        try:
            back = extract_w_cocycle(normalize_family(wm))
        except Pachner33Error:
            digits = 0.0
        else:
            top = max(omega.cells(), key=lambda s: abs(omega[s]))
            scale = omega[top] / back[top]
            resid = max(abs(omega[s] - scale * back[s]) for s in back.cells()) / omega.max_abs()
            digits = accuracy_digits(resid)
        worst = digits if worst is None else min(worst, digits)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    cli, import_s = _import_program()
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, "perfbench", "_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare(0)
        _say(f"READY {time.monotonic_ns()} {import_s!r}")
        _say(f"REFERENCE {_reference_ms(_reference_matrix(), SETUP_REFERENCE_REPS)!r}")
        if args.setup_only:
            return 0
        return _measure(cli, workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(cli, workload, args) -> int:
    loop = Loop(cli, workload)
    result = {"env": _environment()}
    if not args.trace:
        n, loop_s = loop.timed(args.seconds, args.max_ops)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not loop.compared:
            loop.rerun(range(min(DETERMINISM_OPS, n)))
    else:
        from tracer import Tracer

        # each op runs untraced, then traced with the wrappers installed, so
        # the overhead compares the same ops at the same moment
        tracer = Tracer()
        budget = args.seconds * 1e3
        untraced_ms = traced_ms = 0.0
        n = 0
        while ((untraced_ms + traced_ms < budget or n < workload.inputs)
               and (args.max_ops is None or n < args.max_ops)):
            ms, outputs = loop.step(n)
            untraced_ms += ms
            tracer.install()
            tracer.op = n
            traced, traced_outputs = loop.one(n % workload.inputs, tracer, record=False)
            tracer.uninstall()
            traced_ms += traced
            loop.compared += 1
            loop.mismatches += traced_outputs != outputs
            n += 1
        loop_s = untraced_ms / 1e3
        layers = tracer.aggregate(n)
        layers["cocycle2weight.roundtrip_digits.min"] = _roundtrip_digits(tracer)
        result["trace"] = {
            "ops_per_s.untraced": n / loop_s,
            "ops_per_s.traced": n / (traced_ms / 1e3),
            "layers": layers,
            "spans": len(tracer.spans),
        }
        if args.spans_out:
            tracer.write(args.spans_out)
    result.update(
        ops=n,
        loop_s=loop_s,
        latencies_ms=loop.latencies_ms,
        segments_ms=loop.segments_ms,
        reference_ms=loop.reference_ms,
        digits=loop.digits,
        attempted=loop.attempted,
        failed=loop.failed,
        failures=loop.failures,
        incorrect=loop.incorrect[:20],
        n_incorrect=len(loop.incorrect),
        determinism={"checked": loop.compared, "mismatches": loop.mismatches},
    )
    _say("RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
