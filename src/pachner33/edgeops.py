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
from .operators import RANK_RTOL, LinearOperator, nullspace, svd_rank
from .simplicial import Cochain, coboundary_matrix, faces
from .weights import WeightMatrix, tetra_space

# vertex positions of the ten edges in edge-lex order; position k also names
# the tetrahedron omitting vertex k, so these are each edge's non-star rows
EDGE_POS = np.array(list(combinations(range(5), 2)))
STAR_POS = np.array([[k for k in range(5) if k not in e] for e in EDGE_POS])
# SIGNS[v, j]: coefficient of edge j in the coboundary of vertex v's indicator
SIGNS = coboundary_matrix(range(5), 0).T


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

    The kernel K of (scalars per edge) -> (combined operator) is 5-dimensional:
    four dimensions of vertex coboundaries, which the coboundary D kills, plus
    one more class.  Off the four, D is sqrt(5) times an isometry (the edge
    Hodge Laplacian of a 4-simplex is 5), so the cocycle is DK's first left
    singular vector, scaled so its largest component is exactly 1.  A power of
    two per column of the family leaves K unchanged and makes it scale-free.
    """
    M = fam.matrix
    K = nullspace((M * 2.0 ** -np.frexp(np.abs(M).max(axis=0))[1]).T)
    if K.shape[1] != 5:
        raise DegenerateWeightError(
            f"edge operators have kernel dimension {K.shape[1]}, expected 5"
        )
    u, s, _ = np.linalg.svd(coboundary_matrix(range(5), 1) @ K)
    if svd_rank(s, 1e-8) > 1:
        raise ConsistencyError("coboundary quotient of the kernel is not a line")
    if s[0] < 1e-12:
        raise DegenerateCocycleError("extracted cocycle vanishes")
    omega = u[:, 0] / u[np.argmax(np.abs(u[:, 0])), 0]
    return Cochain(fam.simplex, 2, dict(zip(faces(fam.simplex, 2), omega)))
