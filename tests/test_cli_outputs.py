"""tools/cli_outputs.py --compare: what it lists for each kind of change
between two recordings of {argv: [exit code, stdout]}."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
_spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)

SELFTEST = (
    "PASS criterion 1: anticommuting core identities (worst residual 0.25, bound 1e-12)\n"
    "PASS criterion 2: Gaussian annihilators (worst residual 0.25, worst angle 1.5e-15, dims ok)\n"
    "all criteria pass (seed 20260814)\n"
)


def _report(seed, loops, **extra):
    return json.dumps({"command": "verify-pachner", "loop_residuals": loops, "seed": seed, **extra})


def _recording():
    return {
        "verify-pachner --seed 1": [0, _report(1, [1.0, 3.0])],
        "verify-pachner --seed 2": [0, _report(2, [4.0, 1.0])],
        "verify-pachner --elliptic --seed 7": [
            2,
            json.dumps({"error": "ConsistencyError", "message": "old text", "seed": 7}),
        ],
        "selftest": [0, SELFTEST],
    }


def _compare(tmp_path, a, b, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    rc = cli_outputs.main(["--compare", str(pa), str(pb)])
    head, *lines = capsys.readouterr().out.splitlines()
    return rc, head, [line for line in lines if line]


def test_identical_recordings(tmp_path, capsys):
    a = _recording()
    assert cli_outputs.compare(a, copy.deepcopy(a)) == []
    rc, head, lines = _compare(tmp_path, a, copy.deepcopy(a), capsys)
    assert (rc, head, lines) == (0, "4 runs in A, 4 in B, 0 differ", [])


def test_exit_code_change(tmp_path, capsys):
    a = _recording()
    b = copy.deepcopy(a)
    b["verify-pachner --seed 1"][0] = 1
    rc, head, lines = _compare(tmp_path, a, b, capsys)
    assert (rc, head) == (1, "4 runs in A, 4 in B, 1 differ")
    assert lines == ["exit code 0 -> 1: verify-pachner --seed 1"]


def test_float_change_counts_once_per_run(tmp_path, capsys):
    a = _recording()
    b = copy.deepcopy(a)
    b["verify-pachner --seed 1"][1] = _report(1, [2.0, 3.5])  # two entries of one run
    b["verify-pachner --seed 2"][1] = _report(2, [4.0, 1.25])
    rc, head, lines = _compare(tmp_path, a, b, capsys)
    assert (rc, head) == (1, "4 runs in A, 4 in B, 2 differ")
    # largest absolute change 2.0 - 1.0; largest relative change 1.0 / 2.0
    assert lines == ["loop_residuals: changed in 2 runs, largest change 1 absolute, 0.5 relative"]


def test_string_change_lists_both_values(tmp_path, capsys):
    a = _recording()
    b = copy.deepcopy(a)
    argv = "verify-pachner --elliptic --seed 7"
    b[argv][1] = b[argv][1].replace("old text", "new text")
    rc, _, lines = _compare(tmp_path, a, b, capsys)
    assert rc == 1
    assert lines == [f"{argv}: .message 'old text' -> 'new text'"]


def test_selftest_number_attributed_to_its_criterion(tmp_path, capsys):
    a = _recording()
    b = copy.deepcopy(a)
    lines_b = SELFTEST.splitlines(keepends=True)
    lines_b[1] = lines_b[1].replace("worst residual 0.25", "worst residual 0.75")
    b["selftest"][1] = "".join(lines_b)
    rc, _, lines = _compare(tmp_path, a, b, capsys)
    assert rc == 1
    assert lines == [
        "criterion 2: worst residual: changed in 1 runs, largest change 0.5 absolute, 0.667 relative"
    ]


def test_layout_changes_are_flagged(tmp_path, capsys):
    a = _recording()
    b = copy.deepcopy(a)
    b["verify-pachner --seed 1"][1] = _report(1, [1.0, 3.0], stages=["reconcile"])
    b["selftest"][1] = SELFTEST.replace("dims ok", "dims off")
    del b["verify-pachner --seed 2"]
    rc, head, lines = _compare(tmp_path, a, b, capsys)
    assert (rc, head) == (1, "4 runs in A, 3 in B, 3 differ")
    assert lines == [
        "text changed beyond its numbers: selftest",
        "report layout changed: verify-pachner --seed 1",
        "only in A: verify-pachner --seed 2",
    ]


def test_change_without_a_value_is_listed(tmp_path, capsys):
    a = _recording()
    b = copy.deepcopy(a)
    b["verify-pachner --seed 1"][1] = json.dumps(json.loads(a["verify-pachner --seed 1"][1]), indent=1)
    b["verify-pachner --seed 2"][1] = _report(2, [4.0, 1.0], stages=[])
    rc, head, lines = _compare(tmp_path, a, b, capsys)
    assert (rc, head) == (1, "4 runs in A, 4 in B, 2 differ")
    assert lines == [
        "output changed but no value did: verify-pachner --seed 1",
        "output changed but no value did: verify-pachner --seed 2",
    ]


def test_complex_change_is_measured_as_one_number(tmp_path, capsys):
    """A [re, im] pair is one complex leaf: a change in its near-zero part is
    relative to the whole number, not to that part."""
    a = _recording()
    a["verify-pachner --seed 1"][1] = _report(1, [1.0, 3.0], const=[1.0, 1e-20])
    b = copy.deepcopy(a)
    b["verify-pachner --seed 1"][1] = _report(1, [1.0, 3.0], const=[1.0, 3e-20])
    rc, head, lines = _compare(tmp_path, a, b, capsys)
    assert (rc, head) == (1, "4 runs in A, 4 in B, 1 differ")
    assert lines == ["const: changed in 1 runs, largest change 2e-20 absolute, 2e-20 relative"]
