"""Cochain and coboundary behaviour on the 4-simplex."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from pachner33.cocycle2weight import TETRA_COBOUNDARY
from pachner33.edgeops import SIGNS
from pachner33.simplicial import (
    Cochain,
    coboundary,
    cochain_primitive,
    faces,
    is_cocycle,
    permutation_sign,
    random_cocycle,
    coboundary_matrix,
    coboundary_terms,
    cocycle_defect,
)

SIMPLEX = (1, 2, 3, 4, 5)


def vertex_coboundary_sign(vertex: int, edge) -> int:
    """Oracle: coefficient of an edge in the coboundary of the indicator 0-cochain."""
    a, b = tuple(sorted(edge))
    if vertex == b:
        return 1
    if vertex == a:
        return -1
    return 0


def star_tetrahedra(edge, simplex) -> list[tuple[int, ...]]:
    """The tetrahedra of a 4-simplex containing a given edge (three of them)."""
    edge = tuple(sorted(edge))
    return [t for t in combinations(tuple(simplex), 4) if set(edge) <= set(t)]


def test_faces_counts():
    assert len(faces(SIMPLEX, 0)) == 5
    assert len(faces(SIMPLEX, 1)) == 10
    assert len(faces(SIMPLEX, 2)) == 10
    assert len(faces(SIMPLEX, 3)) == 5


def test_permutation_sign():
    assert permutation_sign((1, 2, 3)) == 1
    assert permutation_sign((2, 1, 3)) == -1
    assert permutation_sign((3, 1, 2)) == 1
    assert permutation_sign((1, 1, 2)) == 0
    # full reversal of 4 elements: 6 inversions
    assert permutation_sign((4, 3, 2, 1)) == 1


def test_star_tetrahedra():
    star = star_tetrahedra((1, 2), SIMPLEX)
    assert star == [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 4, 5)]
    assert all(len(star_tetrahedra(e, SIMPLEX)) == 3 for e in faces(SIMPLEX, 1))


def test_cochain_fills_missing_cells_with_zero():
    c = Cochain(SIMPLEX, 1, {(1, 2): 3.0})
    assert c[(1, 2)] == 3.0
    assert c[(4, 5)] == 0.0
    assert len(c.cells()) == 10


def test_cochain_rejects_foreign_cell():
    with pytest.raises(ValueError):
        Cochain(SIMPLEX, 1, {(1, 6): 1.0})


def test_coboundary_of_vertex_indicator():
    one_at_3 = Cochain(SIMPLEX, 0, {(3,): 1.0})
    d = coboundary(one_at_3)
    for i, j in faces(SIMPLEX, 1):
        expected = vertex_coboundary_sign(3, (i, j))
        assert d[(i, j)] == expected


def test_coboundary_matrix_matches_hand_formulas():
    edges, tris = faces(SIMPLEX, 1), faces(SIMPLEX, 2)
    D0 = coboundary_matrix(SIMPLEX, 0)
    assert D0.tolist() == [[vertex_coboundary_sign(v, e) for v in SIMPLEX] for e in edges]
    # edges of a tetrahedron to its faces, as once typed out by hand
    tetra = [[1, -1, 0, 1, 0, 0], [1, 0, -1, 0, 1, 0], [0, 1, -1, 0, 0, 1], [0, 0, 0, 1, -1, 1]]
    assert coboundary_matrix(range(4), 1).tolist() == tetra
    assert coboundary_matrix((2, 3, 5, 7), 1).tolist() == tetra
    # the four-term sum on each tetrahedron
    D2 = np.zeros((5, 10), dtype=np.int64)
    for r, (i, j, k, l) in enumerate(faces(SIMPLEX, 3)):
        for s, f in zip((1, -1, 1, -1), ((j, k, l), (i, k, l), (i, j, l), (i, j, k))):
            D2[r, tris.index(f)] = s
    assert (coboundary_matrix(SIMPLEX, 2) == D2).all()
    # the module constants, equal to the arrays they replaced, dtype included
    edges5 = faces(range(5), 1)
    old_signs = np.array([[vertex_coboundary_sign(v, e) for e in edges5] for v in range(5)])
    assert SIGNS.dtype == old_signs.dtype == TETRA_COBOUNDARY.dtype == np.int64
    assert (SIGNS == old_signs).all() and (TETRA_COBOUNDARY == np.array(tetra)).all()
    # term k of row f drops vertex k of face f
    T = coboundary_terms(SIMPLEX, 1)
    assert [[edges[c] for c in row] for row in T[:2]] == [
        [(2, 3), (1, 3), (1, 2)],
        [(2, 4), (1, 4), (1, 2)],
    ]
    assert coboundary_terms(SIMPLEX, 4).shape == (0, 6)
    assert not T.flags.writeable and not D0.flags.writeable


def test_coboundary_matches_dict_formulas(rng):
    # the old per-degree formulas, bit for bit
    for _ in range(20):
        f = Cochain(SIMPLEX, 0, {(v,): complex(*rng.normal(size=2)) for v in SIMPLEX})
        df = coboundary(f)
        assert all(df[(i, j)] == f[(j,)] - f[(i,)] for i, j in faces(SIMPLEX, 1))
        nu = Cochain(SIMPLEX, 1, {e: complex(*rng.normal(size=2)) for e in faces(SIMPLEX, 1)})
        dnu = coboundary(nu)
        for i, j, k in faces(SIMPLEX, 2):
            assert dnu[(i, j, k)] == nu[(j, k)] - nu[(i, k)] + nu[(i, j)]
        omega = Cochain(SIMPLEX, 2, {t: complex(*rng.normal(size=2)) for t in faces(SIMPLEX, 2)})
        four_term = [omega[(j, k, l)] - omega[(i, k, l)] + omega[(i, j, l)] - omega[(i, j, k)]
                     for i, j, k, l in faces(SIMPLEX, 3)]
        assert cocycle_defect(omega).tolist() == four_term
        assert coboundary(omega).as_vector().tolist() == four_term


def test_coboundary_of_any_degree():
    rng = np.random.default_rng(11)
    verts = (0, 2, 3, 5, 8, 9)
    for degree in range(4):
        c = Cochain(verts, degree, {f: complex(*rng.normal(size=2)) for f in faces(verts, degree)})
        assert coboundary(coboundary(c)).max_abs() < 1e-14
        assert coboundary(c).as_vector() == pytest.approx(coboundary_matrix(verts, degree) @ c.as_vector())
    assert coboundary(Cochain(SIMPLEX, 4, {SIMPLEX: 1.0})).cells() == []


def test_coboundary_squares_to_zero():
    rng = np.random.default_rng(7)
    f = Cochain(SIMPLEX, 0, {(v,): complex(*rng.normal(size=2)) for v in SIMPLEX})
    dd = coboundary(coboundary(f))
    assert dd.max_abs() < 1e-15


def test_coboundary_of_one_cochain_is_cocycle(rng):
    for _ in range(20):
        omega = random_cocycle(SIMPLEX, rng)
        assert is_cocycle(omega)


def test_non_cocycle_detected():
    c = Cochain(SIMPLEX, 2, {(1, 2, 3): 1.0})
    assert not is_cocycle(c)


def test_primitive_roundtrip(rng):
    for _ in range(10):
        omega = random_cocycle(SIMPLEX, rng)
        nu = cochain_primitive(omega)
        back = coboundary(nu)
        diff = max(abs(back[c] - omega[c]) for c in omega.cells())
        assert diff < 1e-10 * omega.max_abs()


def test_primitive_rejects_non_cocycle():
    c = Cochain(SIMPLEX, 2, {(1, 2, 3): 1.0})
    with pytest.raises(ValueError):
        cochain_primitive(c)


def test_restrict_keeps_values(rng):
    omega = random_cocycle((1, 2, 3, 4, 5, 6), rng)
    sub = omega.restrict(SIMPLEX)
    assert sub.vertices == SIMPLEX
    for c in sub.cells():
        assert sub[c] == omega[c]
    assert is_cocycle(sub)


def test_random_cocycle_components_bounded(rng):
    # primitives live in an annulus, so cocycle entries stay in [0, 6] roughly
    omega = random_cocycle(SIMPLEX, rng)
    assert 0 < omega.max_abs() < 10.0


def test_cochain_cells_are_read_as_sorted_integer_tuples():
    keys = [(3, 1, 2), (np.int64(1), np.int64(2), np.int64(4)), (1.0, 2.0, 5.0), (1, 3, 4)]
    c = Cochain(SIMPLEX, 2, {k: i + 1 for i, k in enumerate(keys)})
    assert list(c.values) == faces(SIMPLEX, 2)
    assert all(type(v) is int for cell in c.values for v in cell)
    assert [c[k] for k in keys] == [1, 2, 3, 4]
    assert all(type(c[k]) is complex for k in keys)
    with pytest.raises(ValueError, match=r"^\(1, 2, 6\) is not a 2-cell of \(1, 2, 3, 4, 5\)$"):
        Cochain(SIMPLEX, 2, {(2, 1, 6): 1.0})
    # a lookup takes the cell as given first, then sorted: unsorted, list
    # and array keys read the same value; a key that is no cell is a KeyError
    assert c[3, 2, 1] == c[[2, 1, 3]] == c[np.array([1, 3, 2])] == c[1, 2, 3] == 1
    with pytest.raises(KeyError):
        c[1, 2, 6]


def test_as_vector_order():
    c = Cochain(SIMPLEX, 1, {e: i for i, e in enumerate(faces(SIMPLEX, 1))})
    v = c.as_vector()
    assert np.allclose(v, np.arange(10))
