"""pachner33 benchmark: one run of one workload.

    python3 perfbench/run.py --workload scenes-generic --seed 3 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  A run measures ``run_seconds`` of op time
as BENCHMARK.json sets it, so that every run has the same length.  The
benchmark's calling convention also passes ``--seconds <run_seconds>``; it is
accepted only with that value.  The program is imported from ``src/`` of
that checkout by a worker process (see worker.py); this script spawns the
worker several times to time set-up, then once more for the measured loop,
and prints every metric that BENCHMARK.json names for the trace mode, one
``# metric`` line each, followed by one JSON result line.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones.  A record
of each run, with the environment, is written under ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out")
# set-up is timed on this many worker spawns (the measuring worker included)
SETUP_SPAWNS = 5
DEADLINE_S = 170.0
# a segment's cost divides by the median reference time over this many
# segments on each side of it (the two references bracketing the segment are
# always used)
REFERENCE_WINDOW = 1
# setup_s is the set-up wall time scaled to a machine on which the reference
# computation takes this long (an unloaded 2 GHz Xeon vCPU, Python 3.11)
NOMINAL_REFERENCE_MS = 1.5
# BLAS threads in the worker, fixed so that both sides of a comparison match
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _src_record() -> dict:
    """Line count and content hash of the program's sources, and the commit
    when the checkout is a git work tree of its own."""
    src = os.path.join(ROOT, "src")
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                lines += data.count(b"\n")
                digest.update(os.path.relpath(os.path.join(dirpath, name), src).encode() + b"\0" + data)
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        parts = top.stdout.split()
        if top.returncode == 0 and len(parts) == 2 and os.path.realpath(parts[0]) == os.path.realpath(ROOT):
            commit = parts[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"src_lines": lines, "src_sha256": digest.hexdigest(), "commit": commit}


def _worker(args: list[str], timeout: float) -> tuple[float, float, float, dict | None]:
    """Spawn a worker; return (set-up wall seconds, import seconds, reference
    ms timed right after set-up, result)."""
    env = dict(os.environ, **WORKER_ENV)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    ready = reference = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = line.split()
        elif line.startswith("REFERENCE "):
            reference = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or ready is None or reference is None:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return (int(ready[1]) - t0) / 1e9, float(ready[2]), reference, result


def _op_costs(segments: list[list[float]], reference: list[float]) -> list[float]:
    """Each op's cost: the sum over its segments of the segment's time over
    the median reference time around it.  The reference runs before every
    segment and once after the last, so segment j of the run lies between
    references j and j + 1."""
    w = REFERENCE_WINDOW
    costs, j = [], 0
    for op in segments:
        cost = 0.0
        for ms in op:
            cost += ms / statistics.median(reference[max(0, j - w): j + w + 2])
            j += 1
        costs.append(cost)
    if j + 1 != len(reference):
        raise BenchError(f"{j} segments but {len(reference)} reference times")
    return costs


def _end_to_end(setup: list[tuple[float, float]], res: dict) -> tuple[dict, dict]:
    """Gated metrics, and the wall-time ones reported next to them."""
    lat, digits = res["latencies_ms"], res["digits"]
    if not digits:
        raise BenchError("no op completed with a checked residual")
    cost = _op_costs(res["segments_ms"], res["reference_ms"])
    gated = {
        "setup_s": statistics.median(s * NOMINAL_REFERENCE_MS / ref for s, ref in setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "op_cost.mean": statistics.fmean(cost),
        "op_cost.p50": statistics.median(cost),
        "op_cost.p90": _quantile(cost, 90),
        "accuracy_digits.p50": statistics.median(digits),
        "accuracy_digits.min": min(digits),
    }
    wall = {
        "setup_wall_s": (statistics.median(s for s, _ in setup), "s"),
        "ops_per_s": (res["ops"] / res["loop_s"], "1/s"),
        "op_ms.p50": (statistics.median(lat), "ms"),
        "op_ms.p90": (_quantile(lat, 90), "ms"),
        "reference_ms.p50": (statistics.median(res["reference_ms"]), "ms"),
    }
    return gated, wall


def _per_layer(imports: list[float], res: dict) -> dict:
    tr = res["trace"]
    layers = dict(tr["layers"])
    coverage = layers.pop("coverage")
    layers.update({
        "cli.import_s": statistics.median(imports),
        "trace.ops_per_s.untraced": tr["ops_per_s.untraced"],
        "trace.ops_per_s.traced": tr["ops_per_s.traced"],
        "trace.overhead": 100.0 * (tr["ops_per_s.untraced"] / tr["ops_per_s.traced"] - 1.0),
        "trace.coverage.p50": statistics.median(coverage),
        "trace.coverage.min": min(coverage),
    })
    return layers


def run(workload: str, seed: int, seconds: float, trace: int, max_ops: int | None = None) -> tuple[dict, list[str]]:
    """One run; returns the result object and the detail lines printed before it."""
    if not os.path.isfile(os.path.join(ROOT, "src", "pachner33", "cli.py")):
        raise BenchError("no program sources under src/pachner33 in this checkout")
    spec = _spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    os.makedirs(OUT, exist_ok=True)
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    setup, imports = [], []

    def setup_only(count: int) -> None:
        for _ in range(count):
            s, imp, ref, _ = _worker([*base, "--seconds", "0", "--setup-only"], timeout=60)
            setup.append((s, ref))
            imports.append(imp)

    # half the set-up samples before the measured worker and half after it,
    # so that they span the run
    setup_only(SETUP_SPAWNS // 2)
    tag = f"{workload}-seed{seed}-trace{trace}"
    extra = ["--max-ops", str(max_ops)] if max_ops else []
    if trace:
        extra += ["--spans-out", os.path.join(OUT, f"spans-{tag}.jsonl.gz")]
    s, imp, ref, res = _worker([*base, "--seconds", str(seconds), "--trace", str(trace), *extra],
                               timeout=max(DEADLINE_S - 15 - (time.monotonic() - start), 10))
    setup.append((s, ref))
    imports.append(imp)
    if res is None:
        raise BenchError("worker printed no result")
    setup_only(SETUP_SPAWNS - 1 - SETUP_SPAWNS // 2)

    if trace:
        values, reported = _per_layer(imports, res), {}
    else:
        values, reported = _end_to_end(setup, res)
    names = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values or values[m["name"]] is None]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
    det = res["determinism"]
    correct = res["n_incorrect"] == 0 and det["mismatches"] == 0 and det["checked"] > 0
    attempted, failed = res["attempted"], res["failed"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    # reported alongside, not gated: see perfbench/README.md
    reported["fail_share"] = (failed / attempted, "share")
    if workload == "selftest" and not trace:
        reported["suite_s"] = (statistics.median(res["latencies_ms"]) / 1e3, "s")
    env = dict(res["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), **_src_record())
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "ops": res["ops"],
        "failures": {k: sorted(set(v)) for k, v in res["failures"].items()},
        "incorrect": res["incorrect"], "determinism": det,
        "setup_s_samples": setup, "latencies_ms": res["latencies_ms"], "reference_ms": res.get("reference_ms"),
        "reported": {k: v[0] for k, v in reported.items()},
        "result": result,
    }
    if trace:
        record["spans"] = res["trace"]["spans"]
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    lines = [
        "# env " + json.dumps(env, sort_keys=True),
        "# run " + json.dumps({k: record[k] for k in ("workload", "seed", "trace", "ops",
                                                       "failures", "incorrect", "determinism")}),
    ]
    lines += [f"# metric {k} {v['value']!r} {v['unit']}" for k, v in metrics.items()]
    lines += [f"# metric {k} {v!r} {u} (reported, not gated)" for k, (v, u) in reported.items()]
    return result, lines


def smoke() -> int:
    """Every workload in both trace modes with a handful of ops; checks that
    every named metric is printed with its unit and the outputs are correct."""
    spec = _spec()
    problems = []
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            try:
                result, lines = run(w["name"], seed=1, seconds=0.5, trace=trace, max_ops=3)
            except BenchError as e:
                problems.append(f"{w['name']} trace {trace}: {e}")
                continue
            printed = {ln.split()[2]: ln.split()[4] for ln in lines if ln.startswith("# metric ")}
            for m in names:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{w['name']} trace {trace}: metric {m['name']} missing or malformed")
                if printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{w['name']} trace {trace}: metric {m['name']} not printed with its unit")
            if not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: outputs not correct: {lines[1]}")
            print(f"smoke {w['name']} trace {trace}: {result['attempted']} ops, {len(names)} metrics")
    for p in problems:
        print("SMOKE FAIL " + p)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="must equal run_seconds of BENCHMARK.json, the op time every run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="short run of every workload")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if not args.workload or args.seed < 0:
            ap.error("--workload and a seed >= 0 are required")
        seconds = _spec()["run_seconds"]
        if args.seconds is not None and args.seconds != seconds:
            ap.error(f"--seconds must be {seconds}, the run_seconds of BENCHMARK.json")
        result, lines = run(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, json.JSONDecodeError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
