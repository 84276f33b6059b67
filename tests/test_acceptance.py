"""Runs each built-in acceptance criterion once and prints its summary line."""

from __future__ import annotations

import pytest

from pachner33 import acceptance
from pachner33.pachner import Verification33


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    result = acceptance.ALL_CRITERIA[number - 1]()
    print(result.line)
    assert result.passed, result.line


def _report(**bad) -> Verification33:
    good = dict(
        const=1.0,
        max_residual=0.0,
        agreement=0.0,
        annihilation_residual=0.0,
        isotropy_residual=0.0,
        annihilator_dimension=9,
        annihilator_angle=0.0,
        loop_residuals=(0.0,) * 10,
    )
    return Verification33(**{**good, **bad})


@pytest.mark.parametrize(
    "bad",
    (
        {"max_residual": 1.0},
        {"agreement": 1.0},
        {"annihilation_residual": 1.0},
        {"isotropy_residual": 1.0},
        {"annihilator_angle": 1.0},
        {"loop_residuals": (0.0,) * 9 + (1.0,)},
    ),
    ids=lambda bad: next(iter(bad)),
)
def test_criterion_9_bounds_every_figure(monkeypatch, bad):
    """Criterion 9 judges a trade by the same six figures as the CLI's
    within_tolerance: one bad figure fails it."""
    rep = _report(**bad)
    assert rep.worst == 1.0
    monkeypatch.setattr(acceptance, "reconcile", lambda om, tol: None)
    monkeypatch.setattr(acceptance, "verify_33", lambda rec: rep)
    result = acceptance.criterion_9()
    assert not result.passed
    assert "worst residual 1.00e+00" in result.line
