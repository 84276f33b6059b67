"""tools/bench_record.py: what it reads from run.py's output and writes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {
    "affinity": 2, "blas": "scipy-openblas", "commit": "5fd7465",
    "blas_threads": {"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "src_lines": 2819, "src_sha256": "c125e388",
}


def canned(trace: int, failures: dict, correct: bool = True) -> str:
    """run.py's output, as it prints it, for a run of scenes-elliptic."""
    run = {"workload": "scenes-elliptic", "seed": 17, "trace": trace, "ops": 180 - 80 * trace,
           "failures": failures, "incorrect": [], "determinism": {"checked": 80, "mismatches": 0}}
    metrics = (
        [("setup_s", 0.156, "s"), ("op_cost.p50", 2.133, "ref"), ("accuracy_digits.min", 12.3, "digits")]
        if trace == 0
        else [("cli.dumps.ms", 0.73, "ms"), ("elliptic.elliptic_F.calls", 0.0, "count")]
    )
    failed = sum(map(len, failures.values()))
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, v, u in metrics}}
    lines = ["# env " + json.dumps(ENV, sort_keys=True), "# run " + json.dumps(run)]
    lines += [f"# metric {n} {v!r} {u}" for n, v, u in metrics]
    lines += ["# metric fail_share 0.02 share (reported, not gated)"] if trace == 0 else []
    return "\n".join(lines + [json.dumps(result)]) + "\n"


def test_parse_run_reads_every_line():
    run = bench_record.parse_run(canned(0, {"ConsistencyError": [1700007, 1700045]}))
    assert run["env"] == ENV
    assert run["run"]["failures"] == {"ConsistencyError": [1700007, 1700045]}
    assert run["metrics"] == {"setup_s": 0.156, "op_cost.p50": 2.133, "accuracy_digits.min": 12.3}
    assert run["reported"] == {"fail_share": 0.02}
    assert run["result"]["attempted"] == 100 and run["result"]["failed"] == 2


@pytest.mark.parametrize("dropped", ("# env", "# run", "{"))
def test_parse_run_refuses_an_incomplete_output(dropped):
    text = "".join(l for l in canned(0, {}).splitlines(True) if not l.startswith(dropped))
    with pytest.raises(ValueError, match="run.py output has no"):
        bench_record.parse_run(text)


def test_record_holds_both_runs_of_each_workload():
    failures = {"ConsistencyError": [1700007, 1700045]}
    runs = {
        ("scenes-elliptic", 0): bench_record.parse_run(canned(0, failures)),
        ("scenes-elliptic", 1): bench_record.parse_run(canned(1, failures, correct=False)),
    }
    rec = bench_record.bench_record(runs, 3600, src_modified=True)
    assert json.loads(json.dumps(rec)) == rec  # plain JSON
    assert rec["seed"] == 17 and rec["src_modified"] is True
    assert rec["lines"] == {"src": 2819, "tests": 3600}  # src from the # env line
    assert rec["env"]["commit"] == "5fd7465" and rec["env"]["nproc"] == 2
    assert rec["env"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    (name, w), = rec["workloads"].items()
    assert name == "scenes-elliptic"
    assert (w["attempted"], w["failed"], w["failures"]) == (100, 2, failures)
    assert w["correct"] is False  # the traced run was not
    assert w["ops"] == {"trace0": 180, "trace1": 100}
    assert w["end_to_end"]["op_cost.p50"] == 2.133 and w["reported"] == {"fail_share": 0.02}
    assert w["per_layer"] == {"cli.dumps.ms": 0.73, "elliptic.elliptic_F.calls": 0.0}


def test_line_count_skips_caches(tmp_path):
    (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "__pycache__" / "b.py").write_text("z = 3\n")
    (tmp_path / "notes.txt").write_text("not code\n")
    assert bench_record.line_count(tmp_path) == 2
