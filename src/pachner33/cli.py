"""Command line front end: generate, convert and verify scenes as JSON.

All randomness flows through one numpy generator (PCG64) seeded from
--seed, and every report records the seed, so identical invocations give
byte-identical output.  Complex numbers appear in JSON as [re, im] pairs
and every float is printed with 17 significant digits.

Exit codes: 0 when every checked residual is within tolerance, 1 when a
residual exceeds it, 2 on a typed degeneracy or input error.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from collections import defaultdict
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .cocycle2weight import reconstruct_F
from .edgeops import EdgeOperatorFamily, extract_w_cocycle, normalize_family
from .elliptic import EllipticParams, elliptic_F, elliptic_cocycle, random_elliptic_params
from .errors import NumericsError, Pachner33Error
from .pachner import VERTICES as SCENE_VERTICES
from .pachner import SIMPLICES, reconcile, verify_33
from .simplicial import Cochain, faces, generic_cocycle, is_cocycle, roundtrip_residual
from .weights import WeightMatrix, face_values, random_weight_matrix

DEFAULT_TOLERANCE = 1e-8


# ---------------------------------------------------------------------------
# JSON rendering: deterministic layout, sorted keys, 17 significant digits.


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite number in report")
    return f"{float(x):.17g}"


def _complex(z) -> str:
    if not cmath.isfinite(z):
        raise ValueError("non-finite number in report")
    return f"[{float(z.real):.17g}, {float(z.imag):.17g}]"


# a scalar's renderer by its exact type
RENDER = {
    float: _fmt, np.float64: _fmt, np.float32: _fmt, complex: _complex, np.complex128: _complex,
    str: _quote, int: str, np.int64: str, bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}
_NESTED = (dict, list, tuple)


def _lines(obj, pad: str, head: str, tail: str, out: list) -> None:
    """Append obj's lines to out, the first prefixed by head and the last
    followed by tail; pad is the indent of obj's own closing bracket."""
    if isinstance(obj, dict):
        if not obj:
            out.append(head + "{}" + tail)
        elif len(obj) <= 6 and not any(map(isinstance, obj.values(), repeat(_NESTED))):
            body = ", ".join([f"{_quote(str(k))}: {RENDER[type(v)](v)}" for k, v in sorted(obj.items())])
            out.append(head + "{" + body + "}" + tail)
        else:
            out.append(head + "{")
            inner = pad + "  "
            items = sorted(obj.items(), key=lambda kv: str(kv[0]))
            for i, (k, v) in enumerate(items, 1):
                _lines(v, inner, f"{inner}{_quote(str(k))}: ", "," if i < len(items) else "", out)
            out.append(pad + "}" + tail)
    elif isinstance(obj, (list, tuple)):
        if len(obj) <= 8 and not any(map(isinstance, obj, repeat(_NESTED))):
            out.append(head + "[" + ", ".join([RENDER[type(v)](v) for v in obj]) + "]" + tail)
        else:
            out.append(head + "[")
            inner = pad + "  "
            for i, v in enumerate(obj, 1):
                _lines(v, inner, inner, "," if i < len(obj) else "", out)
            out.append(pad + "]" + tail)
    else:
        out.append(head + RENDER[type(obj)](obj) + tail)


def dumps(obj) -> str:
    out: list[str] = []
    try:
        _lines(obj, "", "", "", out)
    except KeyError as e:  # a scalar type RENDER does not list
        raise TypeError(f"cannot render {e.args[0].__name__}") from None
    return "\n".join(out) + "\n"


def _emit(report: dict, out_path: str | None, rc: int) -> int:
    """Print the report, after writing it to out_path if given, and return rc;
    an unwritable file exits 2, and is the error if the command had none."""
    text = dumps(report)
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            if "error" not in report:
                report["error"], report["message"] = type(e).__name__, str(e)
                text = dumps(report)
            rc = 2
    sys.stdout.write(text)
    return rc


# ---------------------------------------------------------------------------
# File formats.


def _cell_key(cell) -> str:
    return ",".join(map(str, cell))


def _parse_cell(key: str) -> tuple[int, ...]:
    """The cell a canonical key names: increasing decimal vertices with no
    sign, space or leading zero, joined by single commas."""
    cell = sorted({int(p) for p in key.split(",") if p.isdecimal()})
    if not key or _cell_key(cell) != key:
        raise ValueError(f"cell key {key!r} is not canonical, as '1,2,3' is")
    return tuple(cell)


def _parse_pair(pair) -> complex:
    """A JSON number or [re, im] pair, as a finite complex number."""
    parts = pair if isinstance(pair, list) else [pair, 0.0]
    if len(parts) != 2 or any(type(p) not in (int, float) for p in parts):
        raise ValueError(f"component {pair!r} is not a number or an [re, im] pair")
    try:
        z = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise ValueError(f"component {pair!r} is not finite")
    return z


def _parse_int(value, field: str) -> int:
    if type(value) is not int:  # a float, a string or a bool
        raise ValueError(f"{field} {value!r} is not an integer")
    return value


def cochain_to_json(c: Cochain) -> dict:
    return {
        "degree": c.degree,
        "values": {_cell_key(s): complex(v) for s, v in c.values.items()},
    }


def cochain_from_json(d: dict) -> Cochain:
    degree = _parse_int(d["degree"], "degree")
    values = {_parse_cell(k): _parse_pair(v) for k, v in d["values"].items()}
    return Cochain(tuple(sorted({v for cell in values for v in cell})), degree, values)


def weight_matrix_to_json(wm: WeightMatrix) -> dict:
    return {
        "simplex": list(wm.simplex),
        "phi": dict(zip(map(_cell_key, faces(wm.simplex, 2)), face_values(wm.entries).tolist())),
    }


def weight_matrix_from_json(d: dict) -> WeightMatrix:
    simplex = tuple(sorted(_parse_int(v, "simplex entry") for v in d["simplex"]))
    values = {_parse_cell(k): _parse_pair(v) for k, v in d["phi"].items()}
    for cell in values:
        if len(cell) != 3 or not set(cell) <= set(simplex):
            raise ValueError(f"{cell} is not a 2-cell of {simplex}")
    return WeightMatrix.from_phi(simplex, defaultdict(complex, values))  # a face left out is 0


def family_to_json(fam: EdgeOperatorFamily) -> dict:
    # row j is edge j's (beta, gamma) vector, generator i at columns i and 5 + i
    tets = [_cell_key(t) for t in faces(fam.simplex, 3)]
    edges = {}
    for e, row in zip(faces(fam.simplex, 1), fam.matrix):
        terms = {t: {"beta": complex(row[i]), "gamma": complex(row[5 + i])} for i, t in enumerate(tets)}
        edges[_cell_key(e)] = {"terms": terms}
    return {"edges": edges, "normalized": True}


def params_to_json(p: EllipticParams) -> dict:
    return {
        "modulus": complex(p.modulus),
        "coords": {str(v): complex(z) for v, z in p.coords.items()},
    }


def params_from_json(d: dict, modulus: complex | None = None) -> EllipticParams:
    coords = {}
    for key, pair in d["coords"].items():
        cell = _parse_cell(key)
        if len(cell) != 1:
            raise ValueError(f"coords key {key!r} is not one vertex")
        coords[cell[0]] = _parse_pair(pair)
    if modulus is None:
        if "modulus" not in d:
            raise ValueError("coords file has no modulus and none was given")
        modulus = _parse_pair(d["modulus"])
    return EllipticParams(modulus, coords)


def _members(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is an error."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
    return members


def _read(path: str, parse):
    """parse() applied to the JSON object in a file; malformed content is a
    ValueError that names the problem."""
    with open(path, encoding="utf-8") as fh:
        try:
            d = json.load(fh, object_pairs_hook=_members)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    if not isinstance(d, dict):
        raise ValueError(f"top-level JSON value is {type(d).__name__}, not an object")
    try:
        return parse(d)
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed input: {e}") from None


_GAUGE_KEYS = tuple((_cell_key(u), [_cell_key(t) for t in faces(u, 3)]) for u in SIMPLICES)


def _gauges_to_json(gauges: np.ndarray) -> dict:
    return {u: dict(zip(tets, row)) for (u, tets), row in zip(_GAUGE_KEYS, gauges.tolist())}


# ---------------------------------------------------------------------------
# Command inputs.


def _input(args, seed: int, parse, draw):
    """The command's input and its source: the --cocycle file read through
    parse, or else draw applied to the generator seeded with seed."""
    if args.cocycle is not None:
        return _read(args.cocycle, parse), "file"
    return draw(np.random.default_rng(seed)), "random"


def _parse_modulus(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--modulus expects re,im")
    return _parse_pair([float(p) for p in parts])


def _elliptic_params(args, seed: int, *vertices) -> EllipticParams:
    """--coords' parameters, or else a draw on vertices (by default random_elliptic_params')."""
    if args.coords is not None:
        mod = None if args.modulus is None else _parse_modulus(args.modulus)
        return _read(args.coords, lambda d: params_from_json(d, mod))
    if args.modulus is not None:
        raise ValueError("--modulus requires --coords")
    return random_elliptic_params(np.random.default_rng(seed), *vertices)


def _scene_cocycle(args, seed: int) -> tuple[Cochain, str]:
    """A scene's cocycle and its source; the draw flags are refused where
    they would draw nothing."""
    drawn = [f"--{f}" for f in ("elliptic", "coords", "modulus") if getattr(args, f) not in (None, False)]
    if drawn and args.cocycle is not None:
        raise ValueError(f"{drawn[0]} cannot be used with --cocycle")
    if drawn and not args.elliptic:
        raise ValueError(f"{drawn[0]} requires --elliptic")
    if not args.elliptic:
        return _input(args, seed, cochain_from_json, lambda rng: generic_cocycle(rng, SCENE_VERTICES))
    params = _elliptic_params(args, seed, SCENE_VERTICES)
    if params.vertices != SCENE_VERTICES:
        raise ValueError("verify-pachner expects coordinates on vertices 1..6")
    return elliptic_cocycle(params), "elliptic"


# ---------------------------------------------------------------------------
# Commands: each fills in the report it is given and returns the exit code.


def _run(args, seed: int, body) -> tuple[dict, int]:
    """A report started from the command line, filled in by body(args, report),
    and the exit code body returns.  A typed degeneracy or input error
    becomes the report's error and message fields and exit code 2."""
    report: dict = {"command": args.command, "seed": seed}
    if "tolerance" in vars(args):
        report["tolerance"] = args.tolerance
    try:
        return report, body(args, report)
    except (Pachner33Error, ValueError, OSError) as e:
        report["error"] = type(e).__name__
        report["message"] = str(e)
        return report, 2


def _verify_one(args, report: dict) -> int:
    omega, report["source"] = _scene_cocycle(args, report["seed"])
    rec = reconcile(omega)
    rep = verify_33(rec)
    if not (math.isfinite(rep.worst) and cmath.isfinite(rep.const)):  # then name the first such figure
        name = next(k for k, v in vars(rep).items() if not np.isfinite(v).all())
        raise NumericsError(f"{name} is not finite")
    report.update(vars(rep), gauges=_gauges_to_json(rec.gauges))
    passed = all(rep.verdict(args.tolerance))
    report["within_tolerance"] = passed
    return 0 if passed else 1


def cmd_verify_pachner(args, report: dict) -> int:
    if args.batch > 1 and args.cocycle is not None:  # every run would read the same file
        raise ValueError("--batch cannot be used with --cocycle")
    runs = [_run(args, seed, _verify_one) for seed in range(args.seed, args.seed + args.batch)]
    if args.batch == 1:
        report.update(runs[0][0])
        return runs[0][1]
    report["batch"] = args.batch
    report["all_within_tolerance"] = all(rc == 0 for _, rc in runs)
    report["runs"] = [r for r, _ in runs]
    return max(rc for _, rc in runs)  # 2 on any error, else 1 on any excess


def cmd_weight_from_cocycle(args, report: dict) -> int:
    omega, report["source"] = _input(args, args.seed, cochain_from_json, generic_cocycle)
    wm = reconstruct_F(omega)
    resid = roundtrip_residual(omega, extract_w_cocycle(normalize_family(wm)))
    report.update(weight_matrix_to_json(wm))
    report["roundtrip_residual"] = resid
    report["within_tolerance"] = resid <= args.tolerance
    return 0 if resid <= args.tolerance else 1


def cmd_cocycle_from_weight(args, report: dict) -> int:
    wm, report["source"] = _input(args, args.seed, weight_matrix_from_json, random_weight_matrix)
    omega = extract_w_cocycle(normalize_family(wm))
    closed = is_cocycle(omega, rel_tol=args.tolerance)
    report.update(cochain_to_json(omega))
    report["is_cocycle"] = closed
    return 0 if closed else 1


def cmd_edge_operators(args, report: dict) -> int:
    wm, report["source"] = _input(args, args.seed, weight_matrix_from_json, random_weight_matrix)
    report.update(family_to_json(normalize_family(wm)))
    return 0


def cmd_elliptic_f(args, report: dict) -> int:
    params = _elliptic_params(args, args.seed)
    if len(params.vertices) != 5:
        raise ValueError("elliptic-f expects coordinates on five vertices")
    wm = elliptic_F(params)
    report["params"] = params_to_json(params)
    report.update(weight_matrix_to_json(wm))
    return 0


def cmd_selftest(args) -> int:
    from . import acceptance  # the suite loads only where it runs
    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed=seed, tolerance=args.tolerance)
    for r in results:
        sys.stdout.write(r.line + "\n")
    ok = all(r.passed for r in results)
    sys.stdout.write(f"{'all criteria pass' if ok else 'FAILURES present'} (seed {seed})\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing.


def _positive(kind):
    """argparse type: a finite number of the given kind, greater than zero."""

    def parse(text: str):
        x = kind(text)
        try:
            if math.isfinite(x) and x > 0:
                return x
        except OverflowError:  # an int beyond the float range
            pass
        raise argparse.ArgumentTypeError(f"expected a finite value > 0, got {text}")

    parse.__name__ = kind.__name__
    return parse


def _seed(text: str) -> int:
    """argparse type: a PRNG seed, an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return int(text)


_seed.__name__ = "int"  # argparse names the type in "invalid int value"

FLAGS = {
    "--seed": dict(type=_seed, default=1, help="PRNG seed (PCG64)"),
    "--tolerance": dict(type=_positive(float), default=DEFAULT_TOLERANCE, help="residual bound"),
    "--cocycle": dict(metavar="FILE", help="input JSON file"),
    "--out": dict(metavar="FILE", help="write the report here as well"),
    "--elliptic": dict(action="store_true", help="draw elliptic scene data"),
    "--modulus": dict(metavar="RE,IM", help="elliptic modulus"),
    "--coords": dict(metavar="FILE", help="vertex coordinates JSON"),
    "--batch": dict(type=_positive(int), default=1, help="run seeds seed..seed+n-1"),
}

# command -> (help line, body, flags in help order); selftest prints text
# rather than a report, and build_parser adds it on its own
COMMANDS = {
    "verify-pachner": ("reconcile a scene and compare both sides", cmd_verify_pachner, (
        "--seed", "--tolerance", "--cocycle", "--out", "--elliptic", "--modulus", "--coords", "--batch")),
    "weight-from-cocycle": ("rebuild a weight matrix from a cocycle", cmd_weight_from_cocycle, (
        "--seed", "--tolerance", "--cocycle", "--out")),
    "cocycle-from-weight": ("extract the cocycle of a weight matrix", cmd_cocycle_from_weight, (
        "--seed", "--tolerance", "--cocycle", "--out")),
    "edge-operators": ("normalized edge operator family of a weight", cmd_edge_operators, (
        "--seed", "--cocycle", "--out")),
    "elliptic-f": ("weight matrix from elliptic data", cmd_elliptic_f, (
        "--seed", "--modulus", "--coords", "--out")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pachner33",
        description="Gaussian Grassmann weights on the three-for-three trade",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])

    p = sub.add_parser("selftest", help="run the built-in acceptance checks")
    p.add_argument("--seed", type=_seed, help="PRNG seed (PCG64)")  # None: acceptance.DEFAULT_SEED
    p.add_argument(
        "--tolerance", type=_positive(float), default=None, help="override every residual bound"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return cmd_selftest(args)
    report, rc = _run(args, args.seed, COMMANDS[args.command][1])
    return _emit(report, args.out, rc)


if __name__ == "__main__":
    sys.exit(main())
