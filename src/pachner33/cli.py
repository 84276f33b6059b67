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

import numpy as np

from . import acceptance
from .cocycle2weight import reconstruct_F
from .edgeops import EdgeOperatorFamily, extract_w_cocycle, normalize_family
from .elliptic import EllipticParams, elliptic_F, elliptic_cocycle
from .errors import Pachner33Error
from .pachner import VERTICES as SCENE_VERTICES
from .pachner import SIMPLICES, reconcile, verify_33
from .simplicial import Cochain, faces, is_cocycle, roundtrip_residual
from .weights import WeightMatrix

DEFAULT_TOLERANCE = 1e-8


# ---------------------------------------------------------------------------
# JSON rendering: deterministic layout, sorted keys, 17 significant digits.


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite number in report")
    return f"{float(x):.17g}"


def _render(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_fmt(obj.real)}, {_fmt(obj.imag)}]"
    raise TypeError(f"cannot render {type(obj).__name__}")


def _is_scalar(obj) -> bool:
    return not isinstance(obj, (dict, list, tuple))


def _lines(obj, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return ["{}"]
        if len(obj) <= 6 and all(_is_scalar(v) for v in obj.values()):
            body = ", ".join(
                f"{json.dumps(str(k))}: {_render(v)}" for k, v in sorted(obj.items())
            )
            return ["{" + body + "}"]
        out = ["{"]
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        for i, (k, v) in enumerate(items):
            sub = _lines(v, indent + 1)
            comma = "," if i + 1 < len(items) else ""
            out.append(f"{pad}  {json.dumps(str(k))}: {sub[0]}")
            out.extend(sub[1:])
            out[-1] += comma
        out.append(pad + "}")
        return out
    if isinstance(obj, (list, tuple)):
        obj = list(obj)
        if len(obj) <= 8 and all(_is_scalar(v) for v in obj):
            return ["[" + ", ".join(_render(v) for v in obj) + "]"]
        out = ["["]
        for i, v in enumerate(obj):
            sub = _lines(v, indent + 1)
            comma = "," if i + 1 < len(obj) else ""
            out.append(f"{pad}  {sub[0]}")
            out.extend(sub[1:])
            out[-1] += comma
        out.append(pad + "]")
        return out
    return [_render(obj)]


def dumps(obj) -> str:
    return "\n".join(_lines(obj, 0)) + "\n"


def _emit(report: dict, out_path: str | None) -> None:
    text = dumps(report)
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# File formats.


def _cell_key(cell) -> str:
    return ",".join(str(v) for v in cell)


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
    phi = wm.phi()
    return {
        "simplex": list(wm.simplex),
        "phi": {_cell_key(s): complex(phi[s]) for s in phi.cells()},
    }


def weight_matrix_from_json(d: dict) -> WeightMatrix:
    simplex = tuple(_parse_int(v, "simplex entry") for v in d["simplex"])
    phi = Cochain(simplex, 2, {_parse_cell(k): _parse_pair(v) for k, v in d["phi"].items()})
    return WeightMatrix.from_phi(simplex, phi)


def family_to_json(fam: EdgeOperatorFamily) -> dict:
    # row j is edge j's (beta, gamma) vector, generator i at columns i and 5 + i
    tets = [_cell_key(t) for t in faces(fam.simplex, 3)]
    edges = {}
    for e, row in zip(fam.edges, fam.matrix):
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
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def _read(path: str, parse):
    """parse() applied to the JSON object in a file; malformed content is a
    ValueError that names the problem."""
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh, object_pairs_hook=_members)
    if not isinstance(d, dict):
        raise ValueError(f"top-level JSON value is {type(d).__name__}, not an object")
    try:
        return parse(d)
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(f"malformed input: {e}") from None


def _gauges_to_json(gauges: np.ndarray) -> dict:
    return {
        _cell_key(u): {_cell_key(t): complex(lam) for t, lam in zip(faces(u, 3), row)}
        for u, row in zip(SIMPLICES, gauges)
    }


# ---------------------------------------------------------------------------
# Scene sources.


def _parse_modulus(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("--modulus expects re,im")
    return _parse_pair([float(p) for p in parts])


def _elliptic_params_from_args(args, rng, vertices) -> EllipticParams:
    if args.coords:
        mod = _parse_modulus(args.modulus) if args.modulus else None
        return _read(args.coords, lambda d: params_from_json(d, mod))
    if args.modulus:
        raise ValueError("--modulus requires --coords")
    return acceptance.random_elliptic_params(rng, vertices)


def _scene_cocycle(args, seed: int) -> tuple[Cochain, str]:
    if args.cocycle:
        return _read(args.cocycle, cochain_from_json), "file"
    rng = np.random.default_rng(seed)
    if args.elliptic:
        params = _elliptic_params_from_args(args, rng, SCENE_VERTICES)
        return elliptic_cocycle(params), "elliptic"
    return acceptance.generic_cocycle(rng, SCENE_VERTICES), "random"


def _input_weight_matrix(args, seed: int) -> tuple[WeightMatrix, str]:
    if args.cocycle:
        return _read(args.cocycle, weight_matrix_from_json), "file"
    rng = np.random.default_rng(seed)
    return acceptance.random_weight_matrix(rng), "random"


# ---------------------------------------------------------------------------
# Commands.


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


def _reporting(body):
    """A command that emits the one report body(args, report) fills in."""

    @functools.wraps(body)
    def cmd(args) -> int:
        report, rc = _run(args, args.seed, body)
        _emit(report, args.out)
        return rc

    return cmd


def _verify_one(args, report: dict) -> int:
    tol = args.tolerance
    omega, source = _scene_cocycle(args, report["seed"])
    report["source"] = source
    rec = reconcile(omega, tol=tol)
    rep = verify_33(rec)
    report.update(
        {
            "const": rep.const,
            "max_residual": rep.max_residual,
            "agreement": rep.agreement,
            "annihilation_residual": rep.annihilation_residual,
            "isotropy_residual": rep.isotropy_residual,
            "annihilator_dimension": rep.annihilator_dimension,
            "annihilator_angle": rep.annihilator_angle,
            "loop_residuals": list(rep.loop_residuals),
            "gauges": _gauges_to_json(rec.gauges),
        }
    )
    passed = (
        rep.worst <= tol and rep.annihilator_dimension == 9 and abs(rep.const) > 1e-10
    )
    report["within_tolerance"] = passed
    return 0 if passed else 1


@_reporting
def cmd_verify_pachner(args, report: dict) -> int:
    runs = [_run(args, seed, _verify_one) for seed in range(args.seed, args.seed + args.batch)]
    if args.batch == 1:
        report.update(runs[0][0])
        return runs[0][1]
    report["batch"] = args.batch
    report["all_within_tolerance"] = all(rc == 0 for _, rc in runs)
    report["runs"] = [r for r, _ in runs]
    return max(rc for _, rc in runs)  # 2 on any error, else 1 on any excess


@_reporting
def cmd_weight_from_cocycle(args, report: dict) -> int:
    if args.cocycle:
        omega = _read(args.cocycle, cochain_from_json)
        report["source"] = "file"
    else:
        rng = np.random.default_rng(args.seed)
        omega = acceptance.generic_cocycle(rng)
        report["source"] = "random"
    wm = reconstruct_F(omega)
    resid = roundtrip_residual(omega, extract_w_cocycle(normalize_family(wm)))
    report.update(weight_matrix_to_json(wm))
    report["roundtrip_residual"] = resid
    report["within_tolerance"] = resid <= args.tolerance
    return 0 if resid <= args.tolerance else 1


@_reporting
def cmd_cocycle_from_weight(args, report: dict) -> int:
    wm, report["source"] = _input_weight_matrix(args, args.seed)
    omega = extract_w_cocycle(normalize_family(wm))
    closed = is_cocycle(omega, rel_tol=args.tolerance)
    report.update(cochain_to_json(omega))
    report["is_cocycle"] = closed
    return 0 if closed else 1


@_reporting
def cmd_edge_operators(args, report: dict) -> int:
    wm, report["source"] = _input_weight_matrix(args, args.seed)
    report.update(family_to_json(normalize_family(wm)))
    return 0


@_reporting
def cmd_elliptic_f(args, report: dict) -> int:
    rng = np.random.default_rng(args.seed)
    params = _elliptic_params_from_args(args, rng, acceptance.SIMPLEX)
    simplex = params.vertices
    if len(simplex) != 5:
        raise ValueError("elliptic-f expects coordinates on five vertices")
    wm = elliptic_F(params, simplex)
    report["params"] = params_to_json(params)
    report.update(weight_matrix_to_json(wm))
    return 0


def cmd_selftest(args) -> int:
    results = acceptance.run_all(seed=args.seed, tolerance=args.tolerance)
    for r in results:
        sys.stdout.write(r.line + "\n")
    ok = all(r.passed for r in results)
    sys.stdout.write(f"{'all criteria pass' if ok else 'FAILURES present'} (seed {args.seed})\n")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing.


def _positive(kind):
    """argparse type: a finite number of the given kind, greater than zero."""

    def parse(text: str):
        x = kind(text)
        if not (math.isfinite(x) and x > 0):
            raise argparse.ArgumentTypeError(f"expected a finite value > 0, got {text}")
        return x

    parse.__name__ = kind.__name__
    return parse


def _add_common(p: argparse.ArgumentParser, *, tolerance=True, io=True, elliptic=False, batch=False):
    p.add_argument("--seed", type=int, default=1, help="PRNG seed (PCG64)")
    if tolerance:
        p.add_argument(
            "--tolerance", type=_positive(float), default=DEFAULT_TOLERANCE, help="residual bound"
        )
    if io:
        p.add_argument("--cocycle", metavar="FILE", help="input JSON file")
        p.add_argument("--out", metavar="FILE", help="write the report here as well")
    if elliptic:
        p.add_argument("--elliptic", action="store_true", help="draw elliptic scene data")
        p.add_argument("--modulus", metavar="RE,IM", help="elliptic modulus")
        p.add_argument("--coords", metavar="FILE", help="vertex coordinates JSON")
    if batch:
        p.add_argument("--batch", type=_positive(int), default=1, help="run seeds seed..seed+n-1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pachner33",
        description="Gaussian Grassmann weights on the three-for-three trade",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-pachner", help="reconcile a scene and compare both sides")
    _add_common(p, elliptic=True, batch=True)
    p.set_defaults(func=cmd_verify_pachner)

    p = sub.add_parser("weight-from-cocycle", help="rebuild a weight matrix from a cocycle")
    _add_common(p)
    p.set_defaults(func=cmd_weight_from_cocycle)

    p = sub.add_parser("cocycle-from-weight", help="extract the cocycle of a weight matrix")
    _add_common(p)
    p.set_defaults(func=cmd_cocycle_from_weight)

    p = sub.add_parser("edge-operators", help="normalized edge operator family of a weight")
    _add_common(p, tolerance=False)
    p.set_defaults(func=cmd_edge_operators)

    p = sub.add_parser("elliptic-f", help="weight matrix from elliptic data")
    _add_common(p, tolerance=False, io=False, elliptic=True)
    p.add_argument("--out", metavar="FILE", help="write the report here as well")
    p.set_defaults(func=cmd_elliptic_f)

    p = sub.add_parser("selftest", help="run the built-in acceptance checks")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED, help="PRNG seed (PCG64)")
    p.add_argument(
        "--tolerance", type=_positive(float), default=None, help="override every residual bound"
    )
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
