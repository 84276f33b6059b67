"""Edge operators of a 4-simplex weight and the cocycle they determine.

Each edge of the simplex carries a distinguished combination of the weight's
annihilating operators, supported on the three tetrahedra around that edge.
Scaling the ten combinations so that every vertex-coboundary sum vanishes
pins the family down to one overall factor; the leftover linear dependence
among the scaled operators is measured by a degree-1 cochain whose
coboundary is the weight's 2-cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConsistencyError, DegenerateCocycleError, DegenerateWeightError
from .operators import RANK_RTOL, LinearOperator, column_space, nullspace, svd_rank
from .simplicial import Cochain, coboundary, faces, vertex_coboundary_sign
from .weights import WeightMatrix, tetra_space

# vertex positions of the ten edges in edge-lex order; position k also names
# the tetrahedron omitting vertex k, so these are each edge's non-star rows
EDGE_POS = np.array(list(combinations(range(5), 2)))
STAR_POS = np.array([[k for k in range(5) if k not in e] for e in EDGE_POS])
# SIGNS[v, j]: coefficient of edge j in the coboundary of vertex v's indicator
SIGNS = np.array([[vertex_coboundary_sign(v, e) for e in EDGE_POS] for v in range(5)])
# orthonormal basis of the vertex coboundaries (any four of the five span them)
COBOUNDARY_BASIS = column_space(SIGNS[:4].T)


@dataclass(frozen=True, eq=False)
class EdgeOperatorFamily:
    """The ten edge operators of one simplex: row j of `matrix` is the
    (beta, gamma) vector of the j-th edge in edge-lex order, its columns in
    generator order."""

    simplex: tuple
    matrix: np.ndarray

    @property
    def edges(self) -> list:
        return faces(self.simplex, 1)

    def components(self, tetra) -> np.ndarray:
        """(beta, gamma) of the ten operators at one tetrahedron, a row per edge."""
        i = faces(self.simplex, 3).index(tuple(tetra))  # generator order is lex order
        return self.matrix[:, [i, 5 + i]]

    def operator(self, edge) -> LinearOperator:
        row = self.matrix[self.edges.index(tuple(sorted(edge)))]
        return LinearOperator.from_vector(tetra_space(self.simplex), row)


def raw_edge_operator(wm: WeightMatrix) -> np.ndarray:
    """The weight-annihilating operators supported on each edge's star, one
    (beta, gamma) row per edge in edge-lex order.

    Within the five-dimensional span of (derivative + F·generator) rows, the
    combinations whose derivative and generator coefficients both vanish at
    the two tetrahedra missing the edge form a line: the kernel of a 2x3
    block, spanned by the cross product of its rows.  Each operator is
    scaled so its largest coefficient equals 1.
    """
    E = wm.entries
    # rows: generator coefficient at each non-star tetrahedron, unknowns being
    # the combination coefficients on the three star rows
    M = E[STAR_POS[:, None, :], EDGE_POS[:, :, None]]
    # a power of two per block keeps the products in range and every bit
    M = M * 2.0 ** -np.frexp(np.abs(M).max(axis=(1, 2)))[1][:, None, None]
    kernel = np.cross(M[:, 0], M[:, 1])  # bilinear: M @ kernel = 0
    # |r1 x r2| = s1 s2 (Cauchy-Binet): dimension 2 for parallel rows or one
    # zero row, 3 for two
    n1, n2 = np.linalg.norm(M, axis=2).T
    dims = 1 + (np.linalg.norm(kernel, axis=1) <= RANK_RTOL * n1 * n2) + (n1 + n2 == 0)
    for edge, dim in zip(faces(wm.simplex, 1), dims):
        if dim != 1:
            raise DegenerateWeightError(
                f"edge {edge}: star intersection has dimension {dim}, expected 1"
            )
    rows = np.arange(10)[:, None]
    C = np.zeros((10, 5), dtype=complex)
    C[rows, STAR_POS] = kernel
    G = (E.T @ C[:, :, None])[:, :, 0]  # one matrix-vector product per edge, as unbatched
    # matrix rows run in omitted-vertex order, operator slots in generator
    # order: the tetrahedron omitting vertex k is generator 4 - k
    raw = np.zeros((10, 10), dtype=complex)
    raw[rows, 4 - STAR_POS] = C[rows, STAR_POS]
    raw[rows, 9 - STAR_POS] = G[rows, STAR_POS]
    return raw / raw[rows, np.argmax(np.abs(raw), axis=1)[:, None]]


def normalize_family(wm: WeightMatrix) -> EdgeOperatorFamily:
    """Scale the raw edge operators so all five vertex coboundaries vanish.

    The scales solve a homogeneous linear system, one block of coefficient
    equations per vertex; a one-dimensional kernel is required.  The kernel
    vector is divided by its largest entry, so the dominant edge scale is 1.
    """
    raw = raw_edge_operator(wm)
    signs = SIGNS[:, None, :]
    # exact +0 where an edge misses the vertex (s * x can give -0): a signed
    # zero can flip an SVD reflector and change the kernel's last bits
    A = np.where(signs != 0, signs * raw.T, 0).reshape(5 * 10, 10)
    K = nullspace(A)
    if K.shape[1] != 1:
        raise DegenerateWeightError(
            f"edge scale system has kernel dimension {K.shape[1]}, expected 1"
        )
    lam = K[:, 0]
    lam = lam / lam[np.argmax(np.abs(lam))]
    return EdgeOperatorFamily(wm.simplex, lam[:, None] * raw)


def extract_w_cocycle(fam: EdgeOperatorFamily) -> Cochain:
    """The degree-2 cocycle measuring the family's one essential dependence.

    The kernel of (scalars per edge) -> (combined operator) is 5-dimensional:
    four dimensions of vertex coboundaries plus one more class.  A
    representative of that class, read as a degree-1 cochain, has coboundary
    independent of the choice; it is returned scaled so its largest component
    is exactly 1.
    """
    K = nullspace(fam.matrix.T)
    if K.shape[1] != 5:
        raise DegenerateWeightError(
            f"edge operators have kernel dimension {K.shape[1]}, expected 5"
        )
    P = K - COBOUNDARY_BASIS @ (COBOUNDARY_BASIS.conj().T @ K)
    u, s, _ = np.linalg.svd(P)
    if svd_rank(s, 1e-8) > 1:
        raise ConsistencyError("coboundary quotient of the kernel is not a line")
    nu = Cochain(fam.simplex, 1, {b: u[bj, 0] for bj, b in enumerate(fam.edges)})
    omega = coboundary(nu)
    top = max(omega.cells(), key=lambda s2: abs(omega[s2]))
    if abs(omega[top]) < 1e-12:
        raise DegenerateCocycleError("extracted cocycle vanishes")
    return omega.scaled(1.0 / omega[top])
