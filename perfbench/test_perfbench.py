"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from workloads import Scenes  # noqa: E402


def _scene_report(**over) -> str:
    rep = {
        "command": "verify-pachner", "source": "file", "seed": 1, "tolerance": 1e-8,
        "const": [0.5, 0.25], "max_residual": 1e-14, "agreement": 1e-15,
        "annihilation_residual": 1e-15, "isotropy_residual": 1e-15,
        "annihilator_dimension": 9, "annihilator_angle": 1e-14,
        "loop_residuals": [1e-15] * 10, "gauges": {str(k): {} for k in range(6)},
        "within_tolerance": True,
    }
    rep.update(over)
    return json.dumps(rep)


def test_scene_check_recomputes_the_verdict():
    wl = Scenes(0, HERE, elliptic=False)  # check() writes nothing
    good = wl.check([(0, _scene_report())])
    assert good.error is None and good.incorrect is None and good.residual == 1e-14

    # a report that claims success with a residual above tolerance is caught
    lying = wl.check([(0, _scene_report(isotropy_residual=1e-6))])
    assert lying.error == "OutputCheckError" and "within_tolerance" in lying.incorrect

    honest_fail = wl.check([(1, _scene_report(loop_residuals=[1e-6] * 10, within_tolerance=False))])
    assert honest_fail.error == "ResidualExceeded" and honest_fail.incorrect is None

    typed = json.dumps({"command": "verify-pachner", "source": "file", "seed": 1, "tolerance": 1e-8,
                        "error": "ConsistencyError", "message": "transition is neither"})
    assert wl.check([(2, typed)]).error == "ConsistencyError"

    wrong_dim = wl.check([(0, _scene_report(annihilator_dimension=8))])
    assert wrong_dim.incorrect is not None


def test_smoke_mode_prints_every_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr


class _EchoCli:
    @staticmethod
    def main(argv):
        print(argv[0])
        return 0


class _FixedWorkload:
    """Every op succeeds with residual 1e-12; a run cycles over two inputs."""

    inputs = 2
    pace_points = ()
    nominal_cost = 1.0

    def prepare(self, i):
        return [[f"op{i}"]]

    def check(self, outputs):
        from workloads import Outcome

        return Outcome(residual=1e-12)

    def input_seed(self, i):
        return i


def test_only_the_first_pass_over_the_inputs_is_counted():
    from worker import Loop

    loop = Loop(_EchoCli, _FixedWorkload())
    n, _ = loop.timed(seconds=0.0, max_ops=None)
    assert n == 2  # the first pass is done even with no time budget
    assert loop.compared == 0

    loop = Loop(_EchoCli, _FixedWorkload())
    n, _ = loop.timed(seconds=60.0, max_ops=5)
    assert n == 5
    assert loop.attempted == 2 and loop.failed == 0
    assert len(loop.digits) == 2  # inputs 0 and 1 once; their repeats not again
    assert loop.compared == 3 and loop.mismatches == 0
