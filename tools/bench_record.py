"""Record the benchmark's metrics on every workload as BENCH_<N>.json.

    python3 tools/bench_record.py N

Runs perfbench/run.py on each workload that BENCHMARK.json lists, at one
seed, 17, once with --trace 0 (end-to-end metrics) and once with --trace 1
(per-layer metrics), and writes BENCH_<N>.json at the root of the checkout.
The file holds, per workload, the metrics, `attempted`, `failed` and the
failing inputs by error type, whether both runs were correct and how many
ops each made; and, once, the `tests/` line count and, from run.py's
`# env` line, the `src/` line count and the environment: Python, numpy,
BLAS and its thread settings, nproc, the commit and the hash of the sources.  `src_modified`
is true when `src/` differs from that commit.  Eight runs take about seven
minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 17
ENV_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc", "affinity", "commit", "src_sha256")


def parse_run(text: str) -> dict:
    """The `# env` and `# run` records, the metrics (gated and reported)
    and the result line of one run.py output."""
    out: dict = {"metrics": {}, "reported": {}}
    for line in text.splitlines():
        if line.startswith("# env "):
            out["env"] = json.loads(line[len("# env ") :])
        elif line.startswith("# run "):
            out["run"] = json.loads(line[len("# run ") :])
        elif line.startswith("# metric "):
            name, value, _unit, *note = line[len("# metric ") :].split(maxsplit=3)
            out["reported" if note else "metrics"][name] = float(value)
        elif line.startswith("{"):
            out["result"] = json.loads(line)
    missing = {"env", "run", "result"} - set(out)
    if missing:
        raise ValueError(f"run.py output has no {', '.join(sorted(missing))} line")
    return out


def line_count(directory: Path) -> int:
    """Newlines in the .py files under a directory, as run.py counts src/
    for its `src_lines`."""
    return sum(p.read_bytes().count(b"\n") for p in directory.rglob("*.py") if "__pycache__" not in p.parts)


def workload_record(end_to_end: dict, per_layer: dict) -> dict:
    """One workload's entry from its --trace 0 and --trace 1 runs."""
    result = end_to_end["result"]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": end_to_end["run"]["failures"],
        "correct": result["correct"] and per_layer["result"]["correct"],
        "ops": {"trace0": end_to_end["run"]["ops"], "trace1": per_layer["run"]["ops"]},
        "end_to_end": end_to_end["metrics"],
        "reported": end_to_end["reported"],
        "per_layer": per_layer["metrics"],
    }


def bench_record(runs: dict, tests_lines: int, src_modified: bool) -> dict:
    """The BENCH file's content from parsed runs keyed by (workload, trace)."""
    env = next(iter(runs.values()))["env"]
    return {
        "seed": SEED,
        "env": {k: env.get(k) for k in ENV_KEYS},
        "src_modified": src_modified,
        "lines": {"src": env["src_lines"], "tests": tests_lines},
        "workloads": {
            w: workload_record(runs[w, 0], runs[w, 1]) for w in dict.fromkeys(w for w, _ in runs)
        },
    }


def run_once(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="the number in the file name BENCH_<N>.json")
    args = ap.parse_args(argv)
    if args.n < 0:
        ap.error("N must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            print(f"{w['name']} --trace {trace}", file=sys.stderr)
            runs[w["name"], trace] = run_once(w["name"], trace)
    modified = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT).returncode != 0
    record = bench_record(runs, line_count(ROOT / "tests"), modified)
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
