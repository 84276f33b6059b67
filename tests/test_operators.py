"""First-order operators, the pairing, and numeric subspace helpers."""

from __future__ import annotations

import numpy as np
import pytest

from pachner33.errors import SpaceMismatchError
from pachner33.grassmann import GeneratorSpace, GrassmannElement, exp_even, left_derivative
from pachner33.operators import (
    LinearOperator,
    action_matrix,
    annihilator_of,
    column_space,
    matrix_rank,
    nullspace,
    principal_angles,
    svd_rank,
)

SPACE4 = GeneratorSpace(tuple((i,) for i in range(1, 5)))


def random_operator(space, rng):
    return LinearOperator(
        space,
        rng.normal(size=space.n) + 1j * rng.normal(size=space.n),
        rng.normal(size=space.n) + 1j * rng.normal(size=space.n),
    )


def random_element(space, rng):
    coeffs = {
        m: complex(*rng.normal(size=2))
        for m in rng.integers(0, 1 << space.n, size=6)
    }
    return GrassmannElement(space, coeffs)


def scalar_product(d1, d2):
    """Anticommutator pairing: sum of beta1*gamma2 + beta2*gamma1."""
    return complex(d1.beta @ d2.gamma + d2.beta @ d1.gamma)


def random_skew(n, rng):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A - A.T


def isotropic_span_from_F(space, F):
    """Operators d_k = d/dx_k + sum_l F[k, l] x_l; for skew F they pair to zero."""
    eye = np.eye(space.n)
    return [LinearOperator(space, eye[k], F[k]) for k in range(space.n)]


def gaussian(space, F):
    q = GrassmannElement.zero(space)
    labs = space.labels
    for k in range(space.n):
        for l in range(k + 1, space.n):
            q = q + GrassmannElement.monomial(space, [labs[k], labs[l]], -F[k, l])
    return exp_even(q)


def test_apply_derivative_and_multiplication():
    f = GrassmannElement.monomial(SPACE4, [(1,), (2,)])
    d = LinearOperator(SPACE4, [1, 0, 0, 0], [0, 0, 0, 0])
    assert (d.apply(f) - GrassmannElement.generator(SPACE4, (2,))).max_abs() == 0
    x3 = LinearOperator(SPACE4, [0, 0, 0, 0], [0, 0, 1, 0])
    expected = GrassmannElement.monomial(SPACE4, [(1,), (2,), (3,)])
    assert (x3.apply(f) - expected).max_abs() == 0


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("parity", (0, 1))
def test_action_matrix_matches_derivative_and_product(rng, n, parity):
    # column i is d_i f and column n+i is x_i f, computed here the long way
    space = GeneratorSpace(tuple((i,) for i in range(1, n + 1)))
    masks = [m for m in range(1 << n) if m.bit_count() % 2 == parity]
    f = GrassmannElement(space, {m: complex(*rng.normal(size=2)) for m in masks})
    M = action_matrix(f.dense())
    assert M.shape == (1 << n, 2 * n)
    for i, lab in enumerate(space.labels):
        x_f = GrassmannElement.generator(space, lab) * f
        for col, g in ((i, left_derivative(lab, f)), (n + i, x_f)):
            expected = np.zeros(1 << n, dtype=complex)
            for m, c in g.coeffs.items():
                expected[m] = c
            assert np.array_equal(M[:, col], expected)


def test_anticommutator_equals_scalar_product(rng):
    # the pairing is defined so that d1 d2 + d2 d1 acts as the scalar <d1,d2>
    for _ in range(25):
        d1 = random_operator(SPACE4, rng)
        d2 = random_operator(SPACE4, rng)
        f = random_element(SPACE4, rng)
        lhs = d1.apply(d2.apply(f)) + d2.apply(d1.apply(f))
        rhs = scalar_product(d1, d2) * f
        assert (lhs - rhs).max_abs() < 1e-12 * max(f.max_abs(), 1.0)


def test_isotropic_span_pairs_to_zero(rng):
    F = random_skew(4, rng)
    ops = isotropic_span_from_F(SPACE4, F)
    assert len(ops) == 4
    for a in ops:
        for b in ops:
            assert abs(scalar_product(a, b)) < 1e-12


def test_isotropic_span_annihilates_gaussian(rng):
    F = random_skew(4, rng)
    W = gaussian(SPACE4, F)
    for d in isotropic_span_from_F(SPACE4, F):
        assert d.apply(W).max_abs() < 1e-12 * W.max_abs()


def test_annihilator_of_gaussian_is_the_isotropic_span(rng):
    F = random_skew(4, rng)
    W = gaussian(SPACE4, F)
    ann = annihilator_of(W)
    assert ann.shape == (8, 4)
    span = np.array([d.vector for d in isotropic_span_from_F(SPACE4, F)]).T
    assert principal_angles(ann, span).max() <= 1e-8
    for j in range(ann.shape[1]):
        d = LinearOperator(SPACE4, ann[:4, j], ann[4:, j])
        assert d.apply(W).max_abs() < 1e-9 * W.max_abs()


def test_space_mismatch_raises():
    other = GeneratorSpace(tuple((i,) for i in range(1, 4)))
    d = LinearOperator(other, np.ones(3), np.zeros(3))
    f = GrassmannElement.scalar(SPACE4, 1.0)
    with pytest.raises(SpaceMismatchError):
        d.apply(f)


def test_nullspace_rank_and_residual(rng):
    B = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    C = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
    A = B @ C  # rank 3 by construction
    assert matrix_rank(A) == 3
    N = nullspace(A)
    assert N.shape == (8, 5)
    assert np.linalg.norm(A @ N) < 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(N.conj().T @ N - np.eye(5)) < 1e-12


def test_column_space_spans_columns(rng):
    B = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
    Q = column_space(np.hstack([B, B @ rng.normal(size=(2, 3))]))
    assert Q.shape[1] == 2
    resid = B - Q @ (Q.conj().T @ B)
    assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(B)


def test_principal_angles_detect_equality_and_orthogonality(rng):
    A = rng.normal(size=(8, 3))
    mixed = A @ rng.normal(size=(3, 3))  # same span, different basis
    assert matrix_rank(mixed) == 3
    assert principal_angles(A, mixed).max() <= 1e-8
    e12 = np.eye(8)[:, :2]
    e34 = np.eye(8)[:, 2:4]
    angles = principal_angles(e12, e34)
    assert np.allclose(angles, np.pi / 2)


def test_svd_rank_counts_above_the_relative_threshold():
    s = np.array([1.0, 0.5, 2e-10, 1e-11])
    assert svd_rank(s) == 3  # default rtol 1e-10
    assert svd_rank(s, rtol=1e-8) == 2
    assert svd_rank(np.array([1.0, 1e-8]), rtol=1e-8) == 1  # strictly above
    assert svd_rank(np.array([1.0, 1.0001e-8]), rtol=1e-8) == 2
    # a stack is counted row by row, as each row alone
    stack = np.array([s, [1.0, 1e-8, 0.0, 0.0], [3.0, 2.0, 1.0, 0.0]])
    rows = [svd_rank(r, rtol=1e-8) for r in stack]
    assert svd_rank(stack, rtol=1e-8).tolist() == rows == [2, 1, 3]


def test_svd_rank_of_zero_and_empty():
    assert svd_rank(np.zeros(3)) == 0
    assert svd_rank(np.zeros(0)) == 0
    assert svd_rank(np.array([[1.0, 0.0], [0.0, 0.0]])).tolist() == [1, 0]
    assert svd_rank(np.zeros((2, 0))).tolist() == [0, 0]
    assert matrix_rank(np.zeros((4, 3))) == 0
    assert nullspace(np.zeros((2, 3))).shape == (3, 3)
    assert column_space(np.zeros((4, 2))).shape == (4, 0)
    assert matrix_rank(np.zeros((0, 3))) == 0
    assert nullspace(np.zeros((0, 3))).shape == (3, 3)
