"""The four workloads: how op i's inputs are drawn, which CLI calls make up
the op, and how their outputs are checked.

Inputs come from the workload seed only and reach the program as JSON
files, so the program sees exactly what the ``--seed`` path of its own CLI
would draw.  Every output is checked from the report's own fields; the
``within_tolerance``/``is_cocycle`` flags and the exit code must agree with
the recomputed verdict.  No input is filtered or redrawn.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from pachner33 import acceptance
from pachner33.elliptic import elliptic_cocycle
from pachner33.pachner import VERTICES as SCENE_VERTICES

SIMPLEX = (1, 2, 3, 4, 5)
TOLERANCE = 1e-8  # the CLI's default --tolerance; reports must echo it
DIGITS_CAP = 16.0
# op i of a run with workload seed n draws its inputs from seed n * SEED_STRIDE + i
SEED_STRIDE = 100_000


class OutputCheckError(Exception):
    """The program's output contradicts itself or the contract."""


@dataclass
class Outcome:
    """Verdict on one op: error type if it failed, worst checked residual if
    it produced one, and whether the output was truthful."""

    error: str | None = None
    residual: float | None = None
    incorrect: str | None = None


# ---------------------------------------------------------------------------
# JSON helpers (the benchmark's own, independent of the program's renderer)


def _cell(cell) -> str:
    return ",".join(str(v) for v in cell)


def _pair(z) -> list:
    return [float(z.real), float(z.imag)]


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _finite(obj) -> bool:
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return False


def _complex(pair) -> complex:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise OutputCheckError(f"expected an [re, im] pair, got {pair!r}")
    return complex(pair[0], pair[1])


def _report(code: int, text: str) -> dict:
    try:
        rep = json.loads(text)
    except json.JSONDecodeError as e:
        raise OutputCheckError(f"report is not JSON: {e}") from None
    if not isinstance(rep, dict) or not _finite(rep):
        raise OutputCheckError("report is not an object of finite values")
    if code == 2 and not ("error" in rep and "message" in rep):
        raise OutputCheckError("exit 2 without error and message fields")
    if code != 2 and "error" in rep:
        raise OutputCheckError(f"error field with exit {code}")
    if code not in (0, 1, 2):
        raise OutputCheckError(f"unexpected exit code {code}")
    return rep


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OutputCheckError(what)


def _exit_matches(code: int, ok: bool, what: str) -> None:
    _expect(code == (0 if ok else 1), f"{what}: exit {code} disagrees with verdict {ok}")


def accuracy_digits(residual: float) -> float:
    if residual <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(residual))


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    # a run cycles over inputs 0 .. inputs - 1, at least once; only the first
    # pass enters `attempted`, `failed` and the accuracy metrics, so that
    # they depend on the seed and the numerics only, not on how many ops fit
    # in the run; later ops repeat those inputs and must give the same output
    inputs = 1
    # (module, function) at whose calls a timed op is split into segments,
    # with the reference timed between them; a long op otherwise sees the
    # machine's speed only at its two ends
    pace_points: tuple = ()
    # rough cost of one segment in reference times, to size the reference
    # blocks timed before the first op has ended
    nominal_cost = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def input_seed(self, i: int) -> int:
        return self.seed * SEED_STRIDE + i

    def prepare(self, i: int) -> list[list[str]]:
        """Write op i's input files; return the CLI argv lists of the op."""
        raise NotImplementedError

    def check(self, outputs: list[tuple[int, str]]) -> Outcome:
        try:
            return self._check(outputs)
        except OutputCheckError as e:
            return Outcome(error="OutputCheckError", incorrect=str(e))
        except (KeyError, TypeError, ValueError) as e:
            return Outcome(error="OutputCheckError", incorrect=f"malformed report: {type(e).__name__}: {e}")

    def _check(self, outputs):
        raise NotImplementedError


class Scenes(Workload):
    """verify-pachner on one six-vertex scene per op."""

    inputs = 100
    nominal_cost = 60.0

    def __init__(self, seed: int, workdir: str, elliptic: bool):
        super().__init__(seed, workdir)
        self.elliptic = elliptic

    def prepare(self, i):
        rng = np.random.default_rng(self.input_seed(i))
        if self.elliptic:
            params = acceptance.random_elliptic_params(rng, SCENE_VERTICES)
            omega = elliptic_cocycle(params)
        else:
            omega = acceptance.generic_cocycle(rng, SCENE_VERTICES)
        doc = {"degree": 2, "values": {_cell(s): _pair(omega[s]) for s in omega.cells()}}
        path = _write(os.path.join(self.workdir, "scene.json"), doc)
        return [["verify-pachner", "--cocycle", path]]

    def _check(self, outputs):
        (code, text), = outputs
        rep = _report(code, text)
        _expect(rep.get("command") == "verify-pachner" and rep.get("source") == "file", "wrong command or source")
        _expect(rep.get("tolerance") == TOLERANCE, "tolerance not echoed")
        if code == 2:
            return Outcome(error=rep["error"])
        const = _complex(rep["const"])
        loops = rep["loop_residuals"]
        _expect(isinstance(loops, list) and len(loops) == 10, "expected ten loop residuals")
        _expect(isinstance(rep["gauges"], dict) and len(rep["gauges"]) == 6, "expected gauges on six simplices")
        worst = max(
            float(rep["max_residual"]),
            float(rep["agreement"]),
            float(rep["annihilation_residual"]),
            float(rep["isotropy_residual"]),
            float(rep["annihilator_angle"]),
            max(float(x) for x in loops),
        )
        dim = rep["annihilator_dimension"]
        passed = worst <= TOLERANCE and dim == 9 and abs(const) > 1e-10
        _expect(rep["within_tolerance"] is passed, f"within_tolerance {rep['within_tolerance']} but recomputed {passed}")
        _exit_matches(code, passed, "verify-pachner")
        if not passed:
            return Outcome(error="ResidualExceeded", residual=worst)
        return Outcome(residual=worst)


class Conversions(Workload):
    """The single-simplex commands: cocycle -> weight, weight -> cocycle,
    weight -> edge operators, elliptic data -> weight."""

    inputs = 500
    nominal_cost = 8.0

    def prepare(self, i):
        rng = np.random.default_rng(self.input_seed(i))
        omega = acceptance.generic_cocycle(rng)
        wm = acceptance.random_weight_matrix(rng)
        params = acceptance.random_elliptic_params(rng)
        phi = wm.phi()
        self.coords = {str(v): _pair(z) for v, z in params.coords.items()}
        self.modulus = _pair(params.modulus)
        d = self.workdir
        coc = _write(os.path.join(d, "cocycle.json"),
                     {"degree": 2, "values": {_cell(s): _pair(omega[s]) for s in omega.cells()}})
        wfile = _write(os.path.join(d, "weight.json"),
                       {"simplex": list(SIMPLEX), "phi": {_cell(s): _pair(phi[s]) for s in phi.cells()}})
        cfile = _write(os.path.join(d, "coords.json"), {"modulus": self.modulus, "coords": self.coords})
        return [
            ["weight-from-cocycle", "--cocycle", coc],
            ["cocycle-from-weight", "--cocycle", wfile],
            ["edge-operators", "--cocycle", wfile],
            ["elliptic-f", "--coords", cfile],
        ]

    def _check(self, outputs):
        (c1, t1), (c2, t2), (c3, t3), (c4, t4) = outputs
        residuals = {}
        reps = [_report(c, t) for c, t in outputs]
        for rep, cmd in zip(reps, ("weight-from-cocycle", "cocycle-from-weight", "edge-operators", "elliptic-f")):
            _expect(rep.get("command") == cmd, f"expected {cmd} report")
        for rep, code in zip(reps, (c1, c2, c3, c4)):
            if code == 2:
                return Outcome(error=f"{rep['command']}:{rep['error']}")
        w2c, c2w, eops, ell = reps

        _expect(w2c["simplex"] == list(SIMPLEX) and len(w2c["phi"]) == 10, "weight-from-cocycle: bad matrix")
        resid = float(w2c["roundtrip_residual"])
        ok = resid <= TOLERANCE
        _expect(w2c["within_tolerance"] is ok, "weight-from-cocycle: within_tolerance disagrees")
        _exit_matches(c1, ok, "weight-from-cocycle")
        residuals["roundtrip"] = resid

        values = {tuple(int(v) for v in k.split(",")): _complex(p) for k, p in c2w["values"].items()}
        _expect(c2w["degree"] == 2 and len(values) == 10, "cocycle-from-weight: bad cochain")
        closure = _closure_residual(values)
        closed = closure <= TOLERANCE
        _expect(c2w["is_cocycle"] is closed, f"is_cocycle {c2w['is_cocycle']} but closure {closure:.2e}")
        _exit_matches(c2, closed, "cocycle-from-weight")
        residuals["closure"] = closure

        _expect(c3 == 0 and eops["normalized"] is True, "edge-operators: not a normalized family")
        residuals["vertex_coboundary"] = _family_residual(eops["edges"])

        _expect(c4 == 0 and ell["simplex"] == list(SIMPLEX) and len(ell["phi"]) == 10, "elliptic-f: bad matrix")
        _expect(ell["params"]["coords"] == self.coords and ell["params"]["modulus"] == self.modulus,
                "elliptic-f: parameters not echoed exactly")

        worst = max(residuals.values())
        if not (ok and closed):
            return Outcome(error="ResidualExceeded", residual=worst)
        return Outcome(residual=worst)


def _closure_residual(values: dict) -> float:
    scale = max(max(abs(v) for v in values.values()), 1e-300)
    worst = 0.0
    for i in range(1, 6):
        for j in range(i + 1, 6):
            for k in range(j + 1, 6):
                for l in range(k + 1, 6):
                    s = values[(j, k, l)] - values[(i, k, l)] + values[(i, j, l)] - values[(i, j, k)]
                    worst = max(worst, abs(s))
    return worst / scale


def _family_residual(edges: dict) -> float:
    """Vertex-coboundary sums of the normalized family, which must vanish,
    relative to the largest coefficient; also checks each operator lives on
    the three tetrahedra around its edge."""
    _expect(len(edges) == 10, "edge-operators: expected ten edges")
    ops = {}
    for key, entry in edges.items():
        a, b = (int(v) for v in key.split(","))
        terms = entry["terms"]
        _expect(len(terms) == 5, f"edge {key}: expected five terms")
        for tkey, bg in terms.items():
            t = tuple(int(v) for v in tkey.split(","))
            beta, gamma = _complex(bg["beta"]), _complex(bg["gamma"])
            if not (a in t and b in t):
                _expect(beta == 0 and gamma == 0, f"edge {key}: support outside its star at {tkey}")
            ops[(a, b, t)] = (beta, gamma)
    scale = max(max(abs(x) for bg in ops.values() for x in bg), 1e-300)
    tets = sorted({t for (_a, _b, t) in ops})
    worst = 0.0
    for v in SIMPLEX:
        for t in tets:
            sb = sg = 0j
            for (a, b, tt), (beta, gamma) in ops.items():
                if tt != t or v not in (a, b):
                    continue
                sign = 1.0 if v == b else -1.0
                sb += sign * beta
                sg += sign * gamma
            worst = max(worst, abs(sb), abs(sg))
    return worst / scale


_LINE = re.compile(r"^(PASS|FAIL) criterion (\d+): (.*)$")
# residuals print with a mantissa point (1.24e-16); bounds and floors do not (1e-12)
_RESIDUAL = re.compile(r"\d\.\d+e[+-]\d+")


class Selftest(Workload):
    """The built-in acceptance suite at the workload seed; every op is the
    same invocation."""

    # each criterion and each scene that criterion 9 verifies starts a segment
    pace_points = tuple(("pachner33.acceptance", f"criterion_{k}") for k in range(1, 11)) + (
        ("pachner33.pachner", "verify_33"),
    )
    nominal_cost = 80.0

    def input_seed(self, i):
        return self.seed

    def prepare(self, i):
        return [["selftest", "--seed", str(self.seed)]]

    def _check(self, outputs):
        (code, text), = outputs
        lines = text.splitlines()
        _expect(len(lines) == 11, f"expected 11 selftest lines, got {len(lines)}")
        failed = []
        worst = 0.0
        for k, line in enumerate(lines[:10], start=1):
            m = _LINE.match(line)
            _expect(m is not None and int(m.group(2)) == k, f"malformed criterion line {line!r}")
            if m.group(1) == "FAIL":
                failed.append(f"criterion_{k}")
            if k <= 9:  # criterion 10 prints rank ratios, not residuals
                for tok in _RESIDUAL.findall(m.group(3)):
                    worst = max(worst, float(tok))
        ok = not failed
        verdict = "all criteria pass" if ok else "FAILURES present"
        _expect(lines[10] == f"{verdict} (seed {self.seed})", f"bad summary line {lines[10]!r}")
        _exit_matches(code, ok, "selftest")
        if failed:
            return Outcome(error="+".join(failed), residual=worst)
        return Outcome(residual=worst)


WORKLOADS = {
    "scenes-generic": lambda seed, d: Scenes(seed, d, elliptic=False),
    "scenes-elliptic": lambda seed, d: Scenes(seed, d, elliptic=True),
    "simplex-conversions": Conversions,
    "selftest": Selftest,
}
