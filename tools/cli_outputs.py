"""Record the CLI's output on a fixed set of runs, or compare two recordings.

    python3 tools/cli_outputs.py OUT.json [--src DIR]
    python3 tools/cli_outputs.py --compare A.json B.json

The first form runs 452 commands in-process and writes
{argv: [exit code, stdout]} as JSON:

- verify-pachner --elliptic --seed 0..149;
- verify-pachner, weight-from-cocycle, cocycle-from-weight, edge-operators
  and elliptic-f with --seed 0..59;
- verify-pachner --seed 3 --batch 5;
- selftest.

--src names the directory that holds the pachner33 package to run (default:
the src/ next to this script), so a second checkout can be recorded with the
same script.

The second form lists every run whose exit code changed, and every field
whose value changed, with the number of runs it changed in and its largest
absolute and relative change.  JSON reports are compared leaf by leaf; a
complex number, which the CLI writes as [re, im], is one leaf, and its
change is measured as a complex number, |y - x| / max(|x|, |y|);
selftest's text is compared number by number on lines whose words agree.
A run whose output changed in no value (spacing, an empty list) is listed
as such.
It exits 0 when the recordings are identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# the reports' lists of real numbers, by field; every other two-number list is a complex [re, im]
REAL_LISTS = (("loop_residuals",), ("simplex",))


def _is_number(v) -> bool:
    return isinstance(v, (int, float, complex)) and not isinstance(v, bool)


def run_set() -> list[list[str]]:
    runs = [["verify-pachner", "--elliptic", "--seed", str(s)] for s in range(150)]
    for cmd in ("verify-pachner", "weight-from-cocycle", "cocycle-from-weight", "edge-operators", "elliptic-f"):
        runs += [[cmd, "--seed", str(s)] for s in range(60)]
    runs.append(["verify-pachner", "--seed", "3", "--batch", "5"])
    runs.append(["selftest"])
    return runs


def record(src: Path) -> dict:
    sys.path.insert(0, str(src))
    from pachner33.cli import main

    out = {}
    for argv in run_set():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        out[" ".join(argv)] = [rc, buf.getvalue()]
    return out


def _leaves(obj, field=(), path=""):
    """(field, path, value) for each leaf.  The field drops list indices and
    keys that name cells, so one field collects every entry of a list or map,
    and a complex [re, im] pair is one complex leaf."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            f = field if re.fullmatch(r"[\d,]+", k) else field + (k,)
            yield from _leaves(v, f, f"{path}.{k}")
    elif isinstance(obj, list) and len(obj) == 2 and all(map(_is_number, obj)) and field[-1:] not in REAL_LISTS:
        yield ".".join(field), path, complex(*obj)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, field, f"{path}[{i}]")
    else:
        yield ".".join(field), path, obj


def _text_leaves(text: str):
    """(field, path, value) for each number in selftest's text; the field is
    the line's criterion and the words just before the number."""
    for n, line in enumerate(text.splitlines()):
        head = line.split(":")[0].replace("PASS ", "").replace("FAIL ", "")
        pos = 0
        for k, m in enumerate(NUMBER.finditer(line)):
            words = re.findall(r"[A-Za-z][\w-]*", line[pos : m.start()])
            pos = m.end()
            yield f"{head}: {' '.join(words[-2:])}", f"line {n} #{k}", float(m.group())


def compare(a: dict, b: dict) -> list[str]:
    lines = []
    fields: dict = {}  # field -> [runs changed, max abs, max rel]
    for argv in sorted(set(a) | set(b)):
        if argv not in a or argv not in b:
            lines.append(f"only in {'B' if argv in b else 'A'}: {argv}")
            continue
        (rca, outa), (rcb, outb) = a[argv], b[argv]
        if rca != rcb:
            lines.append(f"exit code {rca} -> {rcb}: {argv}")
        if outa == outb:
            continue
        try:
            la, lb = list(_leaves(json.loads(outa))), list(_leaves(json.loads(outb)))
        except json.JSONDecodeError:
            if NUMBER.sub("#", outa) != NUMBER.sub("#", outb):
                lines.append(f"text changed beyond its numbers: {argv}")
                continue
            la, lb = list(_text_leaves(outa)), list(_text_leaves(outb))
        if [p for _, p, _ in la] != [p for _, p, _ in lb]:
            lines.append(f"report layout changed: {argv}")
            continue
        touched, listed = set(), len(lines)
        for (f, p, x), (_, _, y) in zip(la, lb):
            if x == y:
                continue
            if not (_is_number(x) and _is_number(y)):
                lines.append(f"{argv}: {p} {x!r} -> {y!r}")
                continue
            d = abs(y - x)
            rel = d / max(abs(x), abs(y))
            entry = fields.setdefault(f, [0, 0.0, 0.0])
            if f not in touched:
                entry[0] += 1
                touched.add(f)
            entry[1], entry[2] = max(entry[1], d), max(entry[2], rel)
        if not touched and len(lines) == listed:
            lines.append(f"output changed but no value did: {argv}")
    for f, (count, d, rel) in sorted(fields.items()):
        lines.append(f"{f}: changed in {count} runs, largest change {d:.3g} absolute, {rel:.3g} relative")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("out", nargs="?", help="write the recording here")
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two recordings")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines = compare(a, b)
        changed = sum(a[k] != b.get(k) for k in a) + len(set(b) - set(a))
        print(f"{len(a)} runs in A, {len(b)} in B, {changed} differ")
        print("\n".join(lines))
        return 1 if changed else 0
    if not args.out:
        ap.error("name an output file, or use --compare")
    Path(args.out).write_text(json.dumps(record(args.src), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
