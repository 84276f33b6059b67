from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pachner33
from pachner33 import cli
from pachner33.edgeops import normalize_family
from pachner33.pachner import VERTICES as SCENE_VERTICES
from pachner33.simplicial import Cochain, generic_cocycle, is_cocycle, roundtrip_residual


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def test_verify_pachner_deterministic(capsys):
    rc1, out1 = run(capsys, "verify-pachner", "--seed", "5")
    rc2, out2 = run(capsys, "verify-pachner", "--seed", "5")
    assert rc1 == rc2 == 0
    assert out1 == out2
    rc3, out3 = run(capsys, "verify-pachner", "--seed", "6")
    assert rc3 == 0
    assert out3 != out1


# one verify-pachner run's report: its header, the Verification33 fields,
# the gauges and the verdict
RUN_KEYS = {
    "command",
    "seed",
    "tolerance",
    "source",
    "const",
    "max_residual",
    "agreement",
    "annihilation_residual",
    "isotropy_residual",
    "annihilator_dimension",
    "annihilator_angle",
    "loop_residuals",
    "gauges",
    "within_tolerance",
}


def test_verify_pachner_report_contents(capsys):
    rc, out = run(capsys, "verify-pachner", "--seed", "1")
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == RUN_KEYS
    assert rep["seed"] == 1
    assert rep["annihilator_dimension"] == 9
    assert len(rep["loop_residuals"]) == 10
    assert rep["max_residual"] <= 1e-8
    assert abs(complex(*rep["const"])) > 1e-10
    assert len(rep["gauges"]) == 6
    # five scales per simplex, one per tetrahedron; SIMPLICES[0] is the
    # lex-smaller owner of all five of its tetrahedra, so they are all one
    assert all(len(per) == 5 for per in rep["gauges"].values())
    assert rep["gauges"]["1,2,3,4,5"] == {
        ",".join(map(str, t)): [1.0, 0.0] for t in itertools.combinations((1, 2, 3, 4, 5), 4)
    }


def test_verify_pachner_bounds_isotropy(capsys, monkeypatch):
    """within_tolerance is rep.worst <= --tolerance: an isotropy residual
    alone above it gives exit 1."""
    real = cli.verify_33
    monkeypatch.setattr(
        cli, "verify_33", lambda rec: dataclasses.replace(real(rec), isotropy_residual=1e-6)
    )
    rc, out = run(capsys, "verify-pachner", "--seed", "1")
    assert rc == 1
    assert json.loads(out)["within_tolerance"] is False


def test_tolerance_below_the_loop_residuals_exits_1(capsys):
    """The loop residuals are judged with the other figures: a tolerance
    below them is a residual excess, exit 1, and the report has every
    figure and no error."""
    rc, out = run(capsys, "verify-pachner", "--seed", "1", "--tolerance", "1e-15")
    assert rc == 1
    rep = json.loads(out)
    assert set(rep) == RUN_KEYS
    assert rep["within_tolerance"] is False
    assert max(rep["loop_residuals"]) > 1e-15


def test_verify_pachner_elliptic(capsys):
    rc, out = run(capsys, "verify-pachner", "--elliptic", "--seed", "2")
    assert rc == 0
    rep = json.loads(out)
    assert rep["source"] == "elliptic"
    assert rep["within_tolerance"] is True


def test_verify_pachner_batch(capsys):
    rc, out = run(capsys, "verify-pachner", "--seed", "7", "--batch", "2")
    assert rc == 0
    rep = json.loads(out)
    assert set(rep) == {"command", "seed", "tolerance", "batch", "all_within_tolerance", "runs"}
    assert rep["batch"] == 2
    assert [r["seed"] for r in rep["runs"]] == [7, 8]
    assert all(set(r) == RUN_KEYS for r in rep["runs"])
    assert rep["all_within_tolerance"] is True


def test_all_ones_cocycle_names_the_degeneracy(capsys, tmp_path):
    vals = {",".join(map(str, c)): [1.0, 0.0] for c in itertools.combinations(range(1, 7), 3)}
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"degree": 2, "values": vals}))
    rc, out = run(capsys, "verify-pachner", "--cocycle", str(path))
    assert rc == 2
    rep = json.loads(out)
    assert rep["error"] == "DegenerateCocycleError"
    assert "lambda_minus" in rep["message"]


@pytest.mark.filterwarnings("error")
def test_zero_face_names_the_face(capsys, tmp_path):
    # face 456 lies in the last three simplices; the first of them to be
    # rebuilt names it
    om = generic_cocycle(np.random.default_rng(2), SCENE_VERTICES)
    vals = {",".join(map(str, c)): [v.real, v.imag] for c, v in om.values.items()}
    vals["4,5,6"] = [0.0, 0.0]
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"degree": 2, "values": vals}))
    rc = cli.main(["verify-pachner", "--cocycle", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == ""
    rep = json.loads(out)
    assert rep["error"] == "DegenerateCocycleError"
    assert rep["message"] == "cocycle vanishes on face (4, 5, 6)"


@pytest.mark.filterwarnings("error")
def test_scene_file_near_the_top_of_the_float_range(capsys, tmp_path):
    om = generic_cocycle(np.random.default_rng(1), SCENE_VERTICES).scaled(1e200)
    path = tmp_path / "big.json"
    path.write_text(cli.dumps(cli.cochain_to_json(om)))
    rc = cli.main(["verify-pachner", "--cocycle", str(path)])
    out, err = capsys.readouterr()
    assert rc == 0
    assert err == ""
    assert json.loads(out)["within_tolerance"] is True


def test_conversion_roundtrip(capsys, tmp_path):
    f_path = tmp_path / "F.json"
    om_path = tmp_path / "om.json"
    f2_path = tmp_path / "F2.json"
    rc, _ = run(capsys, "weight-from-cocycle", "--seed", "3", "--out", str(f_path))
    assert rc == 0
    rc, _ = run(capsys, "cocycle-from-weight", "--cocycle", str(f_path), "--out", str(om_path))
    assert rc == 0
    rc, _ = run(capsys, "weight-from-cocycle", "--cocycle", str(om_path), "--out", str(f2_path))
    assert rc == 0
    # the output is gauge fixed, so the same cocycle gives the same matrix
    phi1 = json.loads(f_path.read_text())["phi"]
    phi2 = json.loads(f2_path.read_text())["phi"]
    assert phi1.keys() == phi2.keys()
    for k in phi1:
        assert abs(complex(*phi1[k]) - complex(*phi2[k])) < 1e-10


def test_cocycle_from_weight_output_closes(capsys):
    # worst defect over these seeds: 9.5e-16 of max|omega|
    for seed in range(60):
        rc, out = run(capsys, "cocycle-from-weight", "--seed", str(seed))
        rep = json.loads(out)
        assert rc == 0 and rep["is_cocycle"] is True
        assert is_cocycle(cli.cochain_from_json(rep))


def test_cocycle_from_weight_of_a_large_weight(capsys, tmp_path):
    f_path, big_path = tmp_path / "F.json", tmp_path / "F_big.json"
    run(capsys, "weight-from-cocycle", "--seed", "3", "--out", str(f_path))
    doc = json.loads(f_path.read_text())
    doc["phi"] = {k: [1e10 * x for x in v] for k, v in doc["phi"].items()}
    big_path.write_text(json.dumps(doc))
    rc, out = run(capsys, "cocycle-from-weight", "--cocycle", str(f_path))
    omega = cli.cochain_from_json(json.loads(out))
    rc, out = run(capsys, "cocycle-from-weight", "--cocycle", str(big_path))
    assert rc == 0
    assert roundtrip_residual(omega, cli.cochain_from_json(json.loads(out))) <= 1e-14


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_weight_from_cocycle_rejects_all_ones(capsys, tmp_path):
    vals = {",".join(map(str, c)): [1.0, 0.0] for c in itertools.combinations(range(1, 6), 3)}
    path = tmp_path / "ones5.json"
    path.write_text(json.dumps({"degree": 2, "values": vals}))
    rc, out = run(capsys, "weight-from-cocycle", "--cocycle", str(path))
    assert rc == 2
    assert "lambda_minus" in json.loads(out)["message"]


def test_weight_from_cocycle_rejects_non_cocycle(capsys, tmp_path):
    om = generic_cocycle(np.random.default_rng(3))
    vals = dict(om.values)
    vals[(1, 2, 3)] += 0.5
    path = tmp_path / "open.json"
    path.write_text(cli.dumps(cli.cochain_to_json(Cochain(om.vertices, 2, vals))))
    rc, out = run(capsys, "weight-from-cocycle", "--cocycle", str(path))
    assert rc == 2
    rep = json.loads(out)
    assert rep["error"] == "ValueError"
    assert rep["message"] == "cochain has no primitive: not a cocycle"


def test_edge_operators_output(capsys, tmp_path):
    f_path = tmp_path / "F.json"
    run(capsys, "weight-from-cocycle", "--seed", "9", "--out", str(f_path))
    rc, out = run(capsys, "edge-operators", "--cocycle", str(f_path))
    assert rc == 0
    rep = json.loads(out)
    assert rep["normalized"] is True
    # edge j's beta and gamma at generator i are columns i and 5 + i of row
    # j of the family, exactly: 17 significant digits read back every bit
    matrix = normalize_family(cli._read(str(f_path), cli.weight_matrix_from_json)).matrix
    keys = lambda k: [",".join(map(str, c)) for c in itertools.combinations(range(1, 6), k)]
    assert sorted(rep["edges"]) == keys(2)
    for e, row in zip(keys(2), matrix):
        terms = rep["edges"][e]["terms"]
        assert sorted(terms) == keys(4)
        for i, t in enumerate(keys(4)):
            assert complex(*terms[t]["beta"]) == row[i]
            assert complex(*terms[t]["gamma"]) == row[5 + i]


def test_degenerate_weight_names_the_entry(capsys, tmp_path):
    # the gauge-fixed matrix solved from this cocycle's ratios has a
    # vanishing entry, which the solve's own ratio check names
    values = {
        "1,2,3": [0, 1], "1,2,4": [2, -2], "1,2,5": [0, -2], "1,3,4": [0, -1], "1,3,5": [0, -1],
        "1,4,5": [-2, -1], "2,3,4": [-2, 2], "2,3,5": [0, 2], "2,4,5": [0, -1], "3,4,5": [-2, -1],
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"degree": 2, "values": values}))
    rc = cli.main(["weight-from-cocycle", "--cocycle", str(path)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == ""
    rep = json.loads(out)
    assert rep["error"] == "DegenerateWeightError"
    assert rep["message"] == "matrix entry at (1, 3) too small for a double ratio"


def test_elliptic_f_accepts_explicit_params(capsys, tmp_path):
    rc, out = run(capsys, "elliptic-f", "--seed", "4")
    assert rc == 0
    rep = json.loads(out)
    params = rep["params"]
    coords_path = tmp_path / "coords.json"
    coords_path.write_text(json.dumps({"coords": params["coords"]}))
    mod = params["modulus"]
    rc2, out2 = run(
        capsys,
        "elliptic-f",
        "--coords",
        str(coords_path),
        f"--modulus={mod[0]!r},{mod[1]!r}",
    )
    assert rc2 == 0
    rep2 = json.loads(out2)
    assert rep["phi"] == rep2["phi"]


def test_selftest_tight_tolerance_fails(capsys):
    rc, out = run(capsys, "selftest", "--tolerance", "1e-15")
    assert rc == 1
    lines = [l for l in out.splitlines() if re.match(r"^(PASS|FAIL) criterion \d+:", l)]
    assert len(lines) == 10
    assert any(l.startswith("FAIL") for l in lines)


FILE_COMMANDS = ("verify-pachner", "weight-from-cocycle", "cocycle-from-weight", "edge-operators")


def _input_doc(command, first):
    """A well-formed input file for the command whose first component is `first`."""
    n = 6 if command == "verify-pachner" else 5
    cells = [",".join(map(str, c)) for c in itertools.combinations(range(1, n + 1), 3)]
    values = {k: ([first, 0.0] if i == 0 else [1.0, 0.5 * i]) for i, k in enumerate(cells)}
    if command in ("verify-pachner", "weight-from-cocycle"):
        return {"degree": 2, "values": values}
    return {"simplex": [1, 2, 3, 4, 5], "phi": values}


@pytest.mark.parametrize("command", FILE_COMMANDS)
@pytest.mark.parametrize(
    "doc, problem",
    [
        ([1, 2], "not an object"),
        ({}, "missing key"),
        (float("nan"), "not finite"),
        (float("inf"), "not finite"),
        ("one", "not a number"),
        # integer fields over a good file; a command reads one of the two
        ({"degree": 2.7, "simplex": [1.9, 2, 3, 4, 5]}, "not an integer"),
        ({"degree": "2", "simplex": ["1", 2, 3, 4, 5]}, "not an integer"),
        ({"degree": True, "simplex": [True, 2, 3, 4, 5]}, "not an integer"),
        # the first cell's key "1,2,3" rewritten; every key must be canonical
        (("key", "01,2,3"), "not canonical"),
        (("key", "1, 2, 3"), "not canonical"),
        (("key", "1,2,3,"), "not canonical"),
        (("key", "+1,2,3"), "not canonical"),
        (("key", "2,1,3"), "not canonical"),
        (("key", "1,1,3"), "not canonical"),
        (("key", "1,2,4"), "repeated key"),  # the second cell's key
    ],
)
def test_malformed_input_file_is_an_input_error(capsys, tmp_path, command, doc, problem):
    fields = doc if isinstance(doc, dict) else {}
    key = doc[1] if isinstance(doc, tuple) else None
    if key or not isinstance(doc, (list, dict)):
        doc = _input_doc(command, 1.0 if key else doc)  # a bad first component in a good file
    elif fields:
        doc = {**_input_doc(command, 1.0), **fields}
    text = json.dumps(doc)
    if key:
        text = text.replace('"1,2,3"', json.dumps(key), 1)
    path = tmp_path / "in.json"
    path.write_text(text)
    rc, out = run(capsys, command, "--cocycle", str(path))
    rep = json.loads(out)
    assert rc == 2
    assert rep["error"] == "ValueError" and problem in rep["message"]
    if problem == "not an integer":
        assert rep["message"].split()[0] in fields  # names the field
    if key:
        assert repr(key) in rep["message"]


COORDS_COMMANDS = (("elliptic-f",), ("verify-pachner", "--elliptic"))


@pytest.mark.parametrize("command", COORDS_COMMANDS)
@pytest.mark.parametrize(
    "key, problem",
    [
        ("01", "not canonical"),
        (" 1", "not canonical"),
        ("+1", "not canonical"),
        ("1,6", "not one vertex"),
        ("2", "repeated key"),
    ],
)
def test_malformed_coords_key_is_an_input_error(capsys, tmp_path, command, key, problem):
    n = 6 if command[0] == "verify-pachner" else 5
    coords = {str(v): [0.1 * v, 0.05 * v] for v in range(1, n + 1)}
    text = json.dumps({"modulus": [0.5, 0.1], "coords": coords}).replace('"1"', json.dumps(key), 1)
    path = tmp_path / "coords.json"
    path.write_text(text)
    rc, out = run(capsys, *command, "--coords", str(path))
    rep = json.loads(out)
    assert rc == 2
    assert rep["error"] == "ValueError" and problem in rep["message"] and repr(key) in rep["message"]


OVERFLOW_COORDS = {"1": [0.6, 0.3], "2": [1.1, 0.5], "3": [1.6, 0.2], "4": [2.0, 0.6], "5": [2.5, 0.4]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", COORDS_COMMANDS)
@pytest.mark.parametrize("modulus, far", (("1e10,0", None), ("0.5,0.1", 1e22)))
def test_overflowing_jacobi_values_are_a_numerics_error(capsys, tmp_path, command, modulus, far):
    # modulus 1e10 overflows the Landen descent's argument; coordinates near
    # 1e22 overflow the argument itself.  The data are sound at 0.5,0.1.
    coords = {**OVERFLOW_COORDS, "6": [2.9, 0.7]} if command[0] == "verify-pachner" else OVERFLOW_COORDS
    path = tmp_path / "coords.json"
    path.write_text(json.dumps({"coords": coords}))
    assert cli.main([*command, "--coords", str(path), "--modulus=0.5,0.1"]) == 0
    if far is not None:
        coords = {**coords, "1": [far, 0.3], "2": [-far, 0.5]}
        path.write_text(json.dumps({"coords": coords}))
    capsys.readouterr()
    rc = cli.main([*command, "--coords", str(path), f"--modulus={modulus}"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == ""
    rep = json.loads(out)
    assert rep["error"] == "NumericsError"
    assert rep["message"] == "sn, cn or dn is not finite at this argument and modulus"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--coords", "{six}"], "--coords requires --elliptic"),
        (["--modulus=0.5,0.1"], "--modulus requires --elliptic"),
        (["--coords", "{six}", "--modulus=0.5,0.1"], "--coords requires --elliptic"),
        (["--cocycle", "{scene}", "--elliptic"], "--elliptic cannot be used with --cocycle"),
        (["--cocycle", "{scene}", "--coords", "{six}"], "--coords cannot be used with --cocycle"),
        (["--cocycle", "{scene}", "--modulus=0.5,0.1"], "--modulus cannot be used with --cocycle"),
        (["--elliptic", "--coords", "{five}"], "verify-pachner expects coordinates on vertices 1..6"),
    ],
)
def test_draw_flag_that_draws_nothing_is_an_input_error(capsys, tmp_path, argv, message):
    files = {
        "six": {"modulus": [0.5, 0.1], "coords": {**OVERFLOW_COORDS, "6": [2.9, 0.7]}},
        "five": {"modulus": [0.5, 0.1], "coords": OVERFLOW_COORDS},
        "scene": cli.cochain_to_json(generic_cocycle(np.random.default_rng(1), SCENE_VERTICES)),
    }
    for name, doc in files.items():
        (tmp_path / f"{name}.json").write_text(cli.dumps(doc))
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in files}) for a in argv]
    rc = cli.main(["verify-pachner", *argv])
    out, err = capsys.readouterr()
    assert (rc, err) == (2, "")
    rep = json.loads(out)
    assert (rep["error"], rep["message"]) == ("ValueError", message)


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (["verify-pachner", "--cocycle="], "FileNotFoundError", None),
        (["verify-pachner", "--coords="], "ValueError", "--coords requires --elliptic"),
        (["verify-pachner", "--modulus="], "ValueError", "--modulus requires --elliptic"),
        (["verify-pachner", "--elliptic", "--coords="], "FileNotFoundError", None),
        (["verify-pachner", "--elliptic", "--modulus="], "ValueError", "--modulus requires --coords"),
        (["cocycle-from-weight", "--cocycle="], "FileNotFoundError", None),
        (["elliptic-f", "--coords="], "FileNotFoundError", None),
        (["elliptic-f", "--coords=", "--modulus="], "ValueError", "--modulus expects re,im"),
        (["weight-from-cocycle", "--out="], "FileNotFoundError", None),
        (["edge-operators", "--out="], "FileNotFoundError", None),
    ],
)
def test_an_empty_path_is_a_path(capsys, argv, error, message):
    """An empty --cocycle, --coords, --modulus or --out is read, parsed or
    written like any other, and fails as such; none is ignored."""
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert (rc, err) == (2, "")
    rep = json.loads(out)
    assert rep["error"] == error
    if message is None:  # the OSError names the empty path
        assert rep["message"].endswith(": ''")
    else:
        assert rep["message"] == message


def test_batch_with_cocycle_is_refused(capsys, tmp_path):
    """--batch N > 1 would verify the one file N times as N seeds."""
    path = tmp_path / "scene.json"
    path.write_text(cli.dumps(cli.cochain_to_json(generic_cocycle(np.random.default_rng(1), SCENE_VERTICES))))
    rc = cli.main(["verify-pachner", "--cocycle", str(path), "--batch", "3"])
    out, err = capsys.readouterr()
    assert (rc, err) == (2, "")
    rep = json.loads(out)
    assert set(rep) == {"command", "seed", "tolerance", "error", "message"}
    assert (rep["error"], rep["message"]) == ("ValueError", "--batch cannot be used with --cocycle")
    rc, out = run(capsys, "verify-pachner", "--cocycle", str(path), "--batch", "1")
    assert rc == 0
    assert json.loads(out)["source"] == "file"


def test_each_command_takes_exactly_its_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    taken = {name: {s for a in p._actions for s in a.option_strings} for name, p in sub.choices.items()}
    common = {"-h", "--help", "--seed"}
    draw = {"--elliptic", "--modulus", "--coords"}
    assert taken == {
        "verify-pachner": common | {"--tolerance", "--cocycle", "--out", "--batch"} | draw,
        "weight-from-cocycle": common | {"--tolerance", "--cocycle", "--out"},
        "cocycle-from-weight": common | {"--tolerance", "--cocycle", "--out"},
        "edge-operators": common | {"--cocycle", "--out"},
        "elliptic-f": common | {"--modulus", "--coords", "--out"},
        "selftest": common | {"--tolerance"},
    }


def test_elliptic_f_refuses_the_elliptic_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["elliptic-f", "--elliptic"])
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].endswith("unrecognized arguments: --elliptic")


def test_every_written_file_reads_back(capsys, tmp_path):
    # each file the CLI writes, read by every command that takes its format
    readers = {
        "weight-from-cocycle": ("cocycle-from-weight", "edge-operators"),
        "cocycle-from-weight": ("weight-from-cocycle",),
        "elliptic-f": ("cocycle-from-weight", "edge-operators"),
    }
    for writer, commands in readers.items():
        path = tmp_path / f"{writer}.json"
        assert run(capsys, writer, "--seed", "3", "--out", str(path))[0] == 0
        for command in commands:
            assert run(capsys, command, "--cocycle", str(path))[0] == 0, (writer, command)
    # elliptic-f's params, modulus and coordinates, as a coords file
    params = json.loads((tmp_path / "elliptic-f.json").read_text())["params"]
    coords = tmp_path / "coords.json"
    coords.write_text(cli.dumps(params))
    assert run(capsys, "elliptic-f", "--coords", str(coords))[0] == 0


OUT_COMMANDS = ("verify-pachner", "weight-from-cocycle", "cocycle-from-weight", "edge-operators", "elliptic-f")


@pytest.mark.parametrize("command", OUT_COMMANDS)
@pytest.mark.parametrize(
    "where, error", (("missing/report.json", "FileNotFoundError"), ("", "IsADirectoryError"))
)
def test_unwritable_out_path_is_an_input_error(capsys, tmp_path, command, where, error):
    path = str(tmp_path / where)
    rc = cli.main([command, "--seed", "1", "--out", path])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == ""
    rep = json.loads(out)  # one report
    assert rep.pop("error") == error and repr(path) in rep.pop("message")
    # the rest is the report the command prints without --out
    assert rep == json.loads(run(capsys, command, "--seed", "1")[1])


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_unwritable_out_path_keeps_the_input_error(capsys, tmp_path, command):
    missing = str(tmp_path / "missing.json")
    flag = "--coords" if command == "elliptic-f" else "--cocycle"
    rc = cli.main([command, flag, missing, "--out", str(tmp_path / "d" / "x.json")])
    out, err = capsys.readouterr()
    assert (rc, err) == (2, "")
    rep = json.loads(out)  # one report, naming the input that stopped the command
    assert rep["error"] == "FileNotFoundError" and repr(missing) in rep["message"]


@pytest.mark.parametrize(
    "argv, stdout",
    (
        (["verify-pachner", "--seed", "1", "--out", "{tmp}/missing/report.json"], "FileNotFoundError"),
        (["selftest", "--seed", "-1"], ""),
    ),
)
def test_bad_out_path_and_seed_exit_2_without_a_traceback(tmp_path, argv, stdout):
    env = {**os.environ, "PYTHONPATH": str(Path(pachner33.__file__).parent.parent)}
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "pachner33.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    if stdout:
        assert json.loads(proc.stdout)["error"] == stdout and proc.stderr == ""
    else:  # argparse's usage line and message only
        assert proc.stdout == "" and proc.stderr.splitlines()[-1].endswith("expected an integer >= 0, got -1")


@pytest.mark.parametrize(
    "argv",
    [[c, f"--tolerance={v}"] for c in ("verify-pachner", "selftest") for v in ("-1", "0", "nan", "inf")]
    + [["verify-pachner", "--batch", "0"]]
    + [[c, "--seed", "-1"] for c in (*OUT_COMMANDS, "selftest")]
    + [["verify-pachner", "--seed=-5"], ["selftest", "--seed", "1.5"]]
    # an integer beyond the float range is out of range, not a traceback
    + [["verify-pachner", "--batch", "1" + "0" * 400]]
    + [[c, "--tolerance", "1" + "0" * 400] for c in ("verify-pachner", "selftest")],
)
def test_out_of_range_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and ": error: argument --" in err.splitlines()[-1]


def test_seed_may_be_zero_or_beyond_the_float_range():
    for seed in (0, 10**400):
        for command in (*OUT_COMMANDS, "selftest"):
            assert cli.build_parser().parse_args([command, "--seed", str(seed)]).seed == seed


def test_only_selftest_loads_the_acceptance_suite(tmp_path):
    """Every other command, file input or drawn, runs without importing
    pachner33.acceptance; selftest imports it."""
    scene = tmp_path / "scene.json"
    scene.write_text(cli.dumps(cli.cochain_to_json(generic_cocycle(np.random.default_rng(1), SCENE_VERTICES))))
    runs = [["verify-pachner", "--cocycle", str(scene)], ["verify-pachner", "--elliptic"]]
    runs += [[c] for c in ("weight-from-cocycle", "cocycle-from-weight", "edge-operators", "elliptic-f")]
    probe = (
        "import contextlib, io, sys\n"
        "from pachner33 import cli\n"
        "loaded = lambda: 'pachner33.acceptance' in sys.modules\n"
        "print(loaded())\n"
        "for argv in %r + [['selftest']]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = cli.main(argv)\n"
        "    print(argv[0], rc, loaded())\n"
    ) % (runs,)
    env = {**os.environ, "PYTHONPATH": str(Path(pachner33.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False"] + [f"{r[0]} 0 False" for r in runs] + ["selftest 0 True"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", (None, "3"))
def test_import_pins_blas_threads_unless_set(preset):
    """The bare package import sets the BLAS variables and loads neither
    numpy nor any of its own modules."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(pachner33.__file__).parent.parent)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, sys, pachner33; print(*(os.environ[k] for k in %r)); "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('pachner33.')))"
    ) % (BLAS_VARS,)
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [f"{preset or 1} 1 1", "[]"]

