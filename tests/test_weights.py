"""Weight matrices, Gaussian weights, gauges, and double ratios."""

from __future__ import annotations

import numpy as np
import pytest

from pachner33.errors import DegenerateWeightError
from pachner33.grassmann import GrassmannElement, gaussian_coefficients, left_derivative
from pachner33.operators import (
    LinearOperator,
    annihilator_of,
    matrix_rank,
    nullspace,
    principal_angles,
)
from pachner33.simplicial import Cochain, faces
from pachner33.weights import (
    CANONICAL_RATIO_PAIRS,
    WeightMatrix,
    canonical_ratios,
    double_ratios,
    gauged_entries,
    gaussian_weight,
    opposite_tetrahedra,
    quadratic_form,
    ratio_positions,
    solve_F_from_ratios,
    tetra_space,
    weight_operators,
)
from draws import random_phi, random_wm

SIMPLEX = (1, 2, 3, 4, 5)


def test_opposite_order():
    assert opposite_tetrahedra(SIMPLEX) == [
        (2, 3, 4, 5),
        (1, 3, 4, 5),
        (1, 2, 4, 5),
        (1, 2, 3, 5),
        (1, 2, 3, 4),
    ]


def test_matrix_layout_matches_reference(rng):
    phi = random_phi(rng)
    wm = WeightMatrix.from_phi(SIMPLEX, phi)
    p = lambda *v: phi[v]
    expected = np.array(
        [
            [0, -p(3, 4, 5), p(2, 4, 5), -p(2, 3, 5), p(2, 3, 4)],
            [p(3, 4, 5), 0, -p(1, 4, 5), p(1, 3, 5), -p(1, 3, 4)],
            [-p(2, 4, 5), p(1, 4, 5), 0, -p(1, 2, 5), p(1, 2, 4)],
            [p(2, 3, 5), -p(1, 3, 5), p(1, 2, 5), 0, -p(1, 2, 3)],
            [-p(2, 3, 4), p(1, 3, 4), -p(1, 2, 4), p(1, 2, 3), 0],
        ],
        dtype=complex,
    )
    assert np.abs(wm.entries - expected).max() < 1e-15


def test_phi_roundtrip(rng):
    phi = random_phi(rng)
    back = WeightMatrix.from_phi(SIMPLEX, phi).phi()
    assert max(abs(back[s] - phi[s]) for s in faces(SIMPLEX, 2)) < 1e-15


def loop_entries(simplex, phi):
    """from_phi as a loop over vertex pairs, the reference for its table."""
    E = np.zeros((5, 5), dtype=complex)
    for k in range(5):
        for l in range(k + 1, 5):
            comp = tuple(v for v in simplex if v not in (simplex[k], simplex[l]))
            E[k, l] = (-1) ** (k + l) * phi[comp]
            E[l, k] = -E[k, l]
    return E


def test_face_table_matches_the_loop(rng):
    # signed zeros included: a face left out of phi is 0, and -0 prints
    phi = random_phi(rng)
    sparse = Cochain(SIMPLEX, 2, {(1, 2, 3): -1j, (2, 4, 5): 0.5})
    for p in (phi, sparse):
        wm = WeightMatrix.from_phi(SIMPLEX, p)
        assert wm.entries.tobytes() == loop_entries(SIMPLEX, p).tobytes()
        back = wm.phi()
        for k in range(5):
            for l in range(k + 1, 5):
                comp = tuple(v for v in SIMPLEX if v not in (SIMPLEX[k], SIMPLEX[l]))
                expected = complex((-1) ** (k + l) * wm.entries[k, l])
                assert np.array(back[comp]).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("simplex", ((1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 4), ()))
def test_from_phi_checks_the_vertices_before_placing_faces(simplex):
    # before, four or six vertices met numpy's broadcast error placing the faces
    phi = {f: 1.0 for f in faces(tuple(sorted(set(simplex))), 2)}
    with pytest.raises(ValueError, match="^weight matrix needs 5 distinct vertices$"):
        WeightMatrix.from_phi(simplex, phi)


def test_quadratic_form_single_face():
    phi = Cochain(SIMPLEX, 2, {(3, 4, 5): 2.0})
    q = quadratic_form(WeightMatrix.from_phi(SIMPLEX, phi))
    # inversion count of (1,3,4,5,2) is odd, so the lone term gets a minus
    assert abs(q.coefficient([(1, 3, 4, 5), (2, 3, 4, 5)]) + 2.0) < 1e-15
    assert len(q.coeffs) == 1


def test_quadratic_form_matches_direct_expansion(rng):
    wm = random_wm(rng)
    space = tetra_space(SIMPLEX)
    tets = opposite_tetrahedra(wm.simplex)
    direct = GrassmannElement.zero(space)
    for k in range(5):
        for l in range(5):
            if l == k:
                continue
            direct = direct + GrassmannElement.monomial(
                space, [tets[k], tets[l]], -0.5 * wm.entries[k, l]
            )
    assert (quadratic_form(wm) - direct).max_abs() < 1e-13


def test_gaussian_weight_annihilated(rng):
    wm = random_wm(rng)
    W = gaussian_weight(wm)
    assert W.constant_term() == 1.0
    rows = weight_operators(wm)
    # row k is d/dx_{t_k} + sum_l F[k, l] x_{t_l}, columns in generator order
    space = tetra_space(SIMPLEX)
    expected = np.zeros((5, 10), dtype=complex)
    tets = opposite_tetrahedra(wm.simplex)
    for k, t in enumerate(tets):
        expected[k, space.index[t]] = 1.0
        for l, u in enumerate(tets):
            expected[k, 5 + space.index[u]] = wm.entries[k, l]
    assert rows.tobytes() == expected.tobytes()
    for row in rows:
        d = LinearOperator(space, row[:5], row[5:])
        assert d.apply(W).max_abs() <= 1e-12 * W.max_abs()


def test_gaussian_weight_is_the_dense_gaussian_of_minus_F(rng):
    # selftest reads each weight as gaussian_coefficients of -F in generator
    # order and its annihilator off action_matrix; the dict algebra is the oracle
    wm = random_wm(rng)
    W = gaussian_weight(wm)
    dense = gaussian_coefficients(-wm.entries[::-1, ::-1])
    assert np.abs(W.dense() - dense).max() <= 1e-14 * np.abs(dense).max()
    ann = annihilator_of(W)
    assert ann.shape == (10, 5)
    assert principal_angles(weight_operators(wm).T, ann).max() <= 1e-8


def test_gaussian_weight_spans_joint_kernel(rng):
    wm = random_wm(rng)
    space = tetra_space(SIMPLEX)
    W = gaussian_weight(wm)
    blocks = []
    for row in weight_operators(wm):
        d = LinearOperator(space, row[:5], row[5:])
        M = np.zeros((32, 32), dtype=complex)
        for mask in range(32):
            out = d.apply(GrassmannElement(space, {mask: 1.0}))
            for m2, c in out.coeffs.items():
                M[m2, mask] = c
        blocks.append(M)
    K = nullspace(np.vstack(blocks))
    assert K.shape[1] == 1
    wvec = np.array([W.coeffs.get(m, 0.0) for m in range(32)])
    # kernel vector proportional to the weight's coefficient vector
    kv = K[:, 0]
    ratio = wvec @ kv.conj() / (kv @ kv.conj())
    assert np.abs(wvec - ratio * kv).max() < 1e-10


def test_skew_rejected():
    E = np.ones((5, 5))
    with pytest.raises(ValueError):
        WeightMatrix(SIMPLEX, E)


def odd_weight(wm, t):
    """Image of the Gaussian weight under d/dx_t - x_t, an odd partner."""
    W = gaussian_weight(wm)
    return left_derivative(t, W) - GrassmannElement.generator(W.space, t) * W


def test_odd_weight_properties(rng):
    wm = random_wm(rng)
    t = (1, 2, 4, 5)
    Wodd = odd_weight(wm, t)
    assert Wodd.is_odd()
    zero = WeightMatrix.from_phi(SIMPLEX, Cochain(SIMPLEX, 2, {}))
    lone = odd_weight(zero, t)
    assert (lone + GrassmannElement.generator(lone.space, t)).max_abs() == 0
    # swapping the roles of derivative and variable at t annihilates the image
    space = tetra_space(SIMPLEX)
    i = space.index[t]
    for row in weight_operators(wm):
        row[[i, 5 + i]] = row[[5 + i, i]]
        swapped = LinearOperator(space, row[:5], row[5:])
        assert swapped.apply(Wodd).max_abs() <= 1e-11 * Wodd.max_abs()


def test_gauge_on_F_and_elements(rng):
    wm = random_wm(rng)
    assert np.abs(gauged_entries([wm], [np.ones(5)])[0] - wm.entries).max() == 0
    # scales run in generator (lex) order: the last is 2345's, matrix row 0
    scaled = gauged_entries([wm], [[1, 1, 1, 1, 2.0]])[0]
    assert np.allclose(scaled[0, 1:], 2.0 * wm.entries[0, 1:])
    assert np.allclose(scaled[1:, 1:], wm.entries[1:, 1:])
    assert scaled[0, 0] == 0

    lam = np.array([complex(*rng.normal(size=2)) for _ in range(5)])
    W_gauged = gaussian_weight(WeightMatrix(wm.simplex, gauged_entries([wm], [lam])[0]))
    W = gaussian_weight(wm)
    # substitute x_i -> lam_i x_i monomial by monomial, generator i at bit i
    W_subst = GrassmannElement(
        W.space,
        {m: c * np.prod([lam[i] for i in range(5) if m >> i & 1]) for m, c in W.coeffs.items()},
    )
    assert (W_gauged - W_subst).max_abs() < 1e-12 * W_subst.max_abs()


def test_gauge_rejects_zero_scale(rng):
    wm = random_wm(rng)
    with pytest.raises(ValueError, match=r"gauge scale for \(2, 3, 4, 5\) must be nonzero"):
        gauged_entries([wm], [[1, 1, 1, 1, 0.0]])
    with pytest.raises(ValueError, match=r"\(1, 2, 3, 4\)"):
        gauged_entries([wm], [[0j, 1, 1, 1, 1]])


def double_ratio(wm, rows, cols):
    return double_ratios(wm, ratio_positions([(rows, cols)]))[0]


def test_double_ratio_explicit(rng):
    phi = random_phi(rng)
    wm = WeightMatrix.from_phi(SIMPLEX, phi)
    dr = double_ratio(wm, (1, 2), (4, 5))
    expected = (phi[(2, 3, 5)] * phi[(1, 3, 4)]) / (phi[(1, 3, 5)] * phi[(2, 3, 4)])
    assert abs(dr - expected) < 1e-12 * abs(expected)


def test_double_ratio_gauge_invariant(rng):
    wm = random_wm(rng)
    lam = np.array([complex(*rng.normal(size=2)) for _ in range(5)])
    gauged = WeightMatrix(wm.simplex, gauged_entries([wm], [lam])[0])
    a = double_ratios(wm, ratio_positions(CANONICAL_RATIO_PAIRS))
    assert a.tobytes() == canonical_ratios(wm).tobytes()
    b = canonical_ratios(gauged)
    assert (np.abs(a - b) <= 1e-11 * np.abs(a)).all()


def test_double_ratios_match_the_scalar_loop(rng):
    # numpy's array loops round complex * and / differently from its scalar
    # path: half the ratios differ, by at most 3.2 eps over 100,000 of them
    for _ in range(20):
        wm = random_wm(rng)
        E = wm.entries
        expected = [
            E[r1 - 1, c1 - 1] * E[r2 - 1, c2 - 1] / (E[r1 - 1, c2 - 1] * E[r2 - 1, c1 - 1])
            for (r1, r2), (c1, c2) in CANONICAL_RATIO_PAIRS
        ]
        got = canonical_ratios(wm)
        assert (np.abs(got - expected) <= 8 * np.finfo(float).eps * np.abs(expected)).all()


def test_double_ratio_all_ones():
    phi = Cochain(SIMPLEX, 2, {s: 1.0 for s in faces(SIMPLEX, 2)})
    wm = WeightMatrix.from_phi(SIMPLEX, phi)
    assert abs(double_ratio(wm, (1, 2), (4, 5)) - 1.0) < 1e-15


def test_double_ratio_degenerate_entry():
    phi = Cochain(SIMPLEX, 2, {s: 1.0 for s in faces(SIMPLEX, 2)})
    phi = Cochain(SIMPLEX, 2, {**phi.values, (2, 3, 5): 0.0})
    wm = WeightMatrix.from_phi(SIMPLEX, phi)
    with pytest.raises(DegenerateWeightError, match=r"matrix entry at \(1, 4\) too small for a double ratio"):
        double_ratio(wm, (1, 2), (4, 5))  # entry (1,4) carries the zero


def test_double_ratio_stack_names_the_first_small_entry():
    # (3, 5) and (1, 4) vanish; each pair holds one of them, and the first
    # pair's is named, not the one first in row order
    dead = {(1, 2, 4): 0.0, (2, 3, 5): 0.0}
    phi = Cochain(SIMPLEX, 2, {**{s: 1.0 for s in faces(SIMPLEX, 2)}, **dead})
    wm = WeightMatrix.from_phi(SIMPLEX, phi)
    first, second = ((3, 4), (1, 5)), ((1, 2), (4, 5))
    for pairs, named in (([first, second], r"\(3, 5\)"), ([second, first], r"\(1, 4\)")):
        with pytest.raises(DegenerateWeightError, match=rf"^matrix entry at {named} too small"):
            double_ratios(wm, ratio_positions(pairs))


def test_solve_F_from_ratios_roundtrip(rng):
    for _ in range(20):
        wm = random_wm(rng)
        target = canonical_ratios(wm)
        rebuilt = solve_F_from_ratios(SIMPLEX, target)
        again = canonical_ratios(rebuilt)
        worst = max(abs(x - y) / abs(y) for x, y in zip(again, target))
        assert worst < 1e-10
        E = rebuilt.entries
        assert np.allclose([E[0, 1], E[1, 2], E[2, 3], E[3, 4]], 1.0)
        assert abs(E[0, 4] + 1.0) < 1e-15


def test_canonical_ratio_jacobian_full_rank(rng):
    # numeric independence of the five canonical ratios w.r.t. the entries
    wm = random_wm(rng)
    pairs = [(k, l) for k in range(5) for l in range(k + 1, 5)]
    h = 1e-7

    def ratios_of(E):
        return np.array(canonical_ratios(WeightMatrix(SIMPLEX, E)))

    J = np.zeros((5, 10), dtype=complex)
    base = ratios_of(wm.entries)
    for j, (k, l) in enumerate(pairs):
        Ep = wm.entries.copy()
        Ep[k, l] += h
        Ep[l, k] -= h
        J[:, j] = (ratios_of(Ep) - base) / h
    s = np.linalg.svd(J, compute_uv=False)
    assert s[4] / s[0] > 1e-4


def interchange_F(wm: WeightMatrix, tetra_subset) -> WeightMatrix:
    """The paper's sibling ("analogue") matrix after swapping d/dx_t with x_t
    on the given 3-faces.

    The annihilating span [I | F] with the two coefficient blocks swapped in
    the chosen columns is a graph over the derivative block again only when
    the modified block is invertible; this requires an even number of swaps
    and generic entries.
    """
    tets = opposite_tetrahedra(wm.simplex)
    subset = {tuple(sorted(t)) for t in tetra_subset}
    assert subset <= set(tets)
    cols = [k for k, t in enumerate(tets) if t in subset]
    A = np.eye(5, dtype=complex)
    B = wm.entries.copy()
    for k in cols:
        A[:, k] = wm.entries[:, k]
        B[:, k] = np.eye(5)[:, k]
    if abs(np.linalg.det(A)) < 1e-12:
        raise DegenerateWeightError(
            "interchange does not stay in the Gaussian family for this subset"
        )
    E = np.linalg.solve(A, B)
    E = 0.5 * (E - E.T)  # exact skewness is guaranteed; drop rounding noise
    return WeightMatrix(wm.simplex, E)


def test_interchange_pair(rng):
    wm = random_wm(rng)
    tets = opposite_tetrahedra(wm.simplex)
    sibling = interchange_F(wm, [tets[1], tets[3]])
    # the sibling's span is the original span with the two coordinate pairs swapped
    M = weight_operators(wm)
    i1, i3 = (tetra_space(SIMPLEX).index[tets[k]] for k in (1, 3))
    for i in (i1, i3):
        M[:, [i, 5 + i]] = M[:, [5 + i, i]]
    sib = weight_operators(sibling)
    assert matrix_rank(M.T) == matrix_rank(sib.T) == 5
    assert principal_angles(M.T, sib.T).max() <= 1e-8
    W_sib = gaussian_weight(sibling)
    for row in M:
        d = LinearOperator(tetra_space(SIMPLEX), row[:5], row[5:])
        assert d.apply(W_sib).max_abs() <= 1e-9 * W_sib.max_abs()


def test_interchange_odd_subset_fails(rng):
    wm = random_wm(rng)
    with pytest.raises(DegenerateWeightError):
        interchange_F(wm, [opposite_tetrahedra(wm.simplex)[0]])
