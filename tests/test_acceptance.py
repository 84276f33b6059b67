"""Runs each built-in acceptance criterion once and prints its summary line."""

from __future__ import annotations

import numpy as np
import pytest

from pachner33 import acceptance, grassmann, operators, pachner, weights
from pachner33.errors import NumericsError
from pachner33.pachner import Verification33

from test_elliptic import oracle_sn_cn_dn


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(number):
    result = acceptance.ALL_CRITERIA[number - 1]()
    print(result.line)
    assert result.passed, result.line


# criterion_k(seed).line for k = 3..8, recorded while each criterion still
# drew and computed one weight, or one Jacobi argument, at a time: drawing
# first and running each stage as one stack must leave every line as it was
PINNED_LINES = {
    (1, 3): "PASS criterion 3: edge operator spaces and reference polynomials (worst reference 7.41e-16, worst coboundary 1.55e-15, bound 1e-10)",
    (1, 4): "PASS criterion 4: extracted cocycle, gauge invariance, component relations (cocycle ok, worst relation 6.02e-14, bound 1e-09)",
    (1, 5): "PASS criterion 5: superisotropic combinations (worst isotropy 3.22e-15, pairing 7.82e-15, pattern 5.35e-14)",
    (1, 6): "PASS criterion 6: closed-form ratio vs direct components (worst 8.27e-14, bound 1e-09, all-ones error ok)",
    (1, 7): "PASS criterion 7: reconstruction roundtrips (ratios 3.65e-14, cocycle 1.35e-13, bound 1e-08)",
    (7, 3): "PASS criterion 3: edge operator spaces and reference polynomials (worst reference 4.84e-16, worst coboundary 1.37e-15, bound 1e-10)",
    (7, 4): "PASS criterion 4: extracted cocycle, gauge invariance, component relations (cocycle ok, worst relation 8.03e-14, bound 1e-09)",
    (7, 5): "PASS criterion 5: superisotropic combinations (worst isotropy 7.40e-15, pairing 1.36e-14, pattern 3.08e-14)",
    (7, 6): "PASS criterion 6: closed-form ratio vs direct components (worst 9.54e-14, bound 1e-09, all-ones error ok)",
    (7, 7): "PASS criterion 7: reconstruction roundtrips (ratios 3.39e-14, cocycle 2.90e-14, bound 1e-08)",
    (1, 8): "PASS criterion 8: elliptic identities and induced weights (identities 2.44e-15, primitive 7.43e-14, proportionality 3.70e-12, ratio formula 8.05e-15)",
    (7, 8): "PASS criterion 8: elliptic identities and induced weights (identities 2.64e-15, primitive 7.63e-14, proportionality 5.12e-12, ratio formula 3.78e-15)",
}


@pytest.mark.parametrize("seed, number", sorted(PINNED_LINES))
def test_single_simplex_criterion_lines_are_pinned(seed, number):
    assert acceptance.ALL_CRITERIA[number - 1](seed).line == PINNED_LINES[seed, number]


@pytest.mark.parametrize(
    "seed, failing",
    [
        # the first three draws, a pair mid-stream, the last of the first batch, one past it
        (8, [0, 1, 2, 57, 58, 9990, 9999, 10003]),
        # no failure; a seed whose worst figure moves if |z|^2 is taken as z*z or abs is numpy's
        (17, []),
    ],
)
def test_criterion_8_replays_failed_draws(monkeypatch, seed, failing):
    """A draw whose Jacobi evaluation fails is skipped and the next draw takes
    its slot.  Failing chosen draws in the batch kernel gives the worst
    identity residual, bit for bit, and the generator state of the per-draw
    loop over the scalar oracle."""
    lo, hi = [-2, -1, -0.95, -0.3], [2, 1, 0.95, 0.3]
    drawn = np.random.default_rng(seed).uniform(lo, hi, size=(10010, 4)).view(complex)[:, 0]
    doomed = drawn[failing]
    real = acceptance.sn_cn_dn

    def kernel(u, k):
        s, c, d, err = real(u, k)
        return s, c, d, np.where(np.isin(u, doomed), 2, err)

    monkeypatch.setattr(acceptance, "sn_cn_dn", kernel)
    rng = np.random.default_rng(seed)
    worst = acceptance._jacobi_identity_residual(rng)

    oracle_rng = np.random.default_rng(seed)
    oracle_worst, done, draws = 0.0, 0, 0
    while done < 10000:
        u = complex(oracle_rng.uniform(-2, 2), oracle_rng.uniform(-1, 1))
        k = complex(oracle_rng.uniform(-0.95, 0.95), oracle_rng.uniform(-0.3, 0.3))
        if done % 10 == 8:
            k = 1e-7 * k
        elif done % 10 == 9:
            k = 1.0 + 1e-7 * k
        draws += 1
        if u in doomed:
            continue
        try:
            s, c, d = oracle_sn_cn_dn(u, k)
        except NumericsError:
            continue
        r1 = abs(s * s + c * c - 1.0) / max(1.0, abs(s) ** 2 + abs(c) ** 2)
        r2 = abs(d * d + k * k * s * s - 1.0) / max(1.0, abs(d) ** 2 + abs(k * k * s * s))
        oracle_worst = max(oracle_worst, r1, r2)
        done += 1
    assert draws == 10000 + len(failing)
    assert float(worst).hex() == float(oracle_worst).hex()
    assert rng.random() == oracle_rng.random()


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


def _boom(*args, **kwargs):
    raise AssertionError("the dict algebra was called")


def test_criteria_1_and_2_check_the_dense_kernels_only(monkeypatch):
    """The dict algebra is the tests' oracle; selftest checks the dense
    kernels that verify-pachner runs."""
    for owner, name in (
        (grassmann.GrassmannElement, "__mul__"),
        (grassmann, "berezin_integral"),
        (grassmann, "exp_even"),
        (weights, "gaussian_weight"),
        (operators.LinearOperator, "apply"),
        (operators, "annihilator_of"),
    ):
        monkeypatch.setattr(owner, name, _boom)
        assert name not in vars(acceptance)  # no copy imported past the patch
    for crit in (acceptance.criterion_1, acceptance.criterion_2):
        result = crit()
        assert result.passed, result.line


@pytest.mark.parametrize("side", ("lhs", "rhs"))
def test_criterion_1_fails_on_a_side_slot_swap(monkeypatch, side):
    """Swap the slots of two inner tetrahedra in side_weight's table: the top
    512 minors then read the negated integral."""
    swap = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9, 11])
    swapped = tuple((i, swap[ix]) for i, ix in pachner._SIDE_SLOTS[side])
    monkeypatch.setitem(pachner._SIDE_SLOTS, side, swapped)
    assert not acceptance.criterion_1().passed


@pytest.mark.parametrize("columns", ("all", "multiplications"))
def test_criterion_1_fails_on_an_action_matrix_sign_flip(monkeypatch, columns):
    """Flip the sign rule (the parity of the generators below i) in every
    column, which the side layout check sees, or in the x_i columns only,
    which the canonical relations see."""
    sources = operators._action_sources

    def flipped(n):
        src = sources(n).copy()  # the original is cached: leave it as it is
        cols = slice(None) if columns == "all" else slice(n, None)
        live = src[:, cols] < 2 << n  # the zero entry has no sign
        src[:, cols] = np.where(live, src[:, cols] ^ 1 << n, src[:, cols])
        return src

    monkeypatch.setattr(operators, "_action_sources", flipped)
    assert not acceptance.criterion_1().passed
