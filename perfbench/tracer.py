"""In-memory span recorder wrapped around the program's public names.

Nothing under ``src/`` is edited: each traced name is replaced at every
binding its callers look up (module globals that hold the function, module
tuples that list it, or the class attribute for a method).  A span records
its name, parent span, op id, start and end; spans stay in memory until the
run ends and are then aggregated and written out once.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time

# (metric prefix, module, attribute path).  The prefix is the layer name the
# per-layer metrics use.
TARGETS = (
    ("pachner.reconcile", "pachner33.pachner", "reconcile"),
    ("pachner.side_weight", "pachner33.pachner", "side_weight"),
    ("pachner.verify_33", "pachner33.pachner", "verify_33"),
    ("cocycle2weight.reconstruct_F", "pachner33.cocycle2weight", "reconstruct_F"),
    ("simplicial.cochain_primitive", "pachner33.simplicial", "cochain_primitive"),
    ("edgeops.normalize_family", "pachner33.edgeops", "normalize_family"),
    ("edgeops.extract_w_cocycle", "pachner33.edgeops", "extract_w_cocycle"),
    ("edgeops.raw_edge_operator", "pachner33.edgeops", "raw_edge_operator"),
    ("operators.LinearOperator.apply", "pachner33.operators", "LinearOperator.apply"),
    ("operators.principal_angles", "pachner33.operators", "principal_angles"),
    ("operators.matrix_rank", "pachner33.operators", "matrix_rank"),
    ("operators.nullspace", "pachner33.operators", "nullspace"),
    ("operators.column_space", "pachner33.operators", "column_space"),
    ("operators.annihilator_of", "pachner33.operators", "annihilator_of"),
    ("grassmann.mul", "pachner33.grassmann", "GrassmannElement.__mul__"),
    ("grassmann.berezin_integral", "pachner33.grassmann", "berezin_integral"),
    ("grassmann.exp_even", "pachner33.grassmann", "exp_even"),
    ("weights.gaussian_weight", "pachner33.weights", "gaussian_weight"),
    ("elliptic.elliptic_F", "pachner33.elliptic", "elliptic_F"),
    ("cli.dumps", "pachner33.cli", "dumps"),
) + tuple(
    (f"acceptance.criterion_{k}", "pachner33.acceptance", f"criterion_{k}") for k in range(1, 11)
)

OP = "op"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = -1
        self.spans: list = []  # [name, parent, op, start_ns, end_ns]
        self.stack: list[int] = []
        self.mul_pairs = 0  # sum over products of |a| * |b| nonzero coefficients
        self.reconstructions: list = []  # (omega, weight matrix) per reconstruct_F call
        self._restore: list = []

    # -- recording ----------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, self.stack[-1] if self.stack else -1, self.op, 0, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[3] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[4] = time.perf_counter_ns()
            self.stack.pop()

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            rec = [name, stack[-1] if stack else -1, tracer.op, 0, 0]
            sid = len(tracer.spans)
            tracer.spans.append(rec)
            stack.append(sid)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_pairs(self, args, result):
        a, b = args
        if hasattr(b, "coeffs"):
            self.mul_pairs += len(a.coeffs) * len(b.coeffs)

    def _keep_reconstruction(self, args, result):
        self.reconstructions.append((args[0], result))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every traced name at each binding its callers look up."""
        after = {
            "grassmann.mul": self._count_pairs,
            "cocycle2weight.reconstruct_F": self._keep_reconstruction,
        }
        for name, modname, path in TARGETS:
            self._restore += rebind(modname, path, lambda fn, name=name: self._wrap(name, fn, after.get(name)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def aggregate(self, n_ops: int) -> dict:
        """Per-op calls, inclusive ms and self ms for every traced name, and
        the share of each op span that named child spans cover."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child_ns[rec[1]] += rec[4] - rec[3]
        calls: dict[str, int] = {}
        incl: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        coverage = []
        for sid, (name, parent, _op, t0, t1) in enumerate(spans):
            dur = t1 - t0
            if name == OP:
                coverage.append(100.0 * child_ns[sid] / dur if dur > 0 else 0.0)
                continue
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[sid]
            if not _has_ancestor(spans, parent, name):
                incl[name] = incl.get(name, 0) + dur
        per_op = max(n_ops, 1)
        out = {}
        for name, _mod, _path in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0) / per_op
            out[f"{name}.ms"] = incl.get(name, 0) / 1e6 / per_op
            out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6 / per_op
        out["grassmann.mul.pairs"] = self.mul_pairs / per_op
        out["coverage"] = coverage
        return out

    def write(self, path) -> None:
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "parent", "op", "start_ns", "end_ns"], "names": names}))
            fh.write("\n")
            for rec in self.spans:
                fh.write(f"[{index[rec[0]]},{rec[1]},{rec[2]},{rec[3]},{rec[4]}]\n")


def rebind(modname: str, path: str, make) -> list:
    """Replace the function at `modname`.`path` with `make(function)` at every
    binding its callers look up: the class attribute for a method, else every
    pachner33 module global that holds it and every module tuple that lists
    it.  Returns (owner, attribute, old value) triples that undo it."""
    owner = sys.modules[modname]
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    original = getattr(owner, attr)
    wrapped = make(original)
    undo = []

    def set_(obj, key, value):
        undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    if cls_path:
        set_(owner, attr, wrapped)
        return undo
    for name, mod in sorted(sys.modules.items()):
        if not (name.startswith("pachner33") and mod):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                set_(mod, key, wrapped)
            elif isinstance(value, tuple) and any(v is original for v in value):
                set_(mod, key, tuple(wrapped if v is original else v for v in value))
    return undo


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False
