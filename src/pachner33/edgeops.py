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

import numpy as np

from .errors import ConsistencyError, DegenerateCocycleError, DegenerateWeightError
from .grassmann import GeneratorSpace
from .operators import LinearOperator, column_space, nullspace, svd_rank
from .simplicial import Cochain, coboundary, faces, star_tetrahedra, vertex_coboundary_sign
from .weights import WeightMatrix


@dataclass(frozen=True, eq=False)
class EdgeOperatorFamily:
    simplex: tuple
    operators: dict
    normalized: bool

    def __post_init__(self):
        edges = faces(self.simplex, 1)
        if sorted(self.operators) != sorted(edges):
            raise ValueError("family must carry exactly the 10 edges")

    @property
    def edges(self) -> list:
        return faces(self.simplex, 1)

    @property
    def space(self) -> GeneratorSpace:
        return next(iter(self.operators.values())).space

    def max_abs(self) -> float:
        return max(np.abs(d.vector).max() for d in self.operators.values())

    def operator_columns(self) -> np.ndarray:
        """Coefficient vectors of the ten operators, one per column, edge-lex order."""
        return np.column_stack([self.operators[b].vector for b in self.edges])


def raw_edge_operator(wm: WeightMatrix, edge) -> LinearOperator:
    """The weight-annihilating operator supported on the edge's star.

    Within the five-dimensional span of (derivative + F·generator) rows, the
    combinations whose derivative and generator coefficients both vanish at
    the two tetrahedra missing the edge form a line; a basis vector of that
    line is returned, scaled so its largest coefficient equals 1.
    """
    edge = tuple(sorted(edge))
    star = set(star_tetrahedra(edge, wm.simplex))
    tets = wm.tetrahedra
    star_idx = [k for k, t in enumerate(tets) if t in star]
    non_idx = [k for k, t in enumerate(tets) if t not in star]
    # rows: generator coefficient at each non-star tetrahedron, unknowns being
    # the combination coefficients on the three star rows
    M = wm.entries[np.ix_(star_idx, non_idx)].T
    K = nullspace(M)
    if K.shape[1] != 1:
        raise DegenerateWeightError(
            f"edge {edge}: star intersection has dimension {K.shape[1]}, expected 1"
        )
    c = np.zeros(5, dtype=complex)
    c[star_idx] = K[:, 0]
    g_row = wm.entries.T @ c
    # matrix rows run in omitted-vertex order; operator slots in generator order
    space = wm.space()
    beta = np.zeros(5, dtype=complex)
    gamma = np.zeros(5, dtype=complex)
    for k in star_idx:
        beta[space.index[tets[k]]] = c[k]
        gamma[space.index[tets[k]]] = g_row[k]
    vec = np.concatenate([beta, gamma])
    top = np.argmax(np.abs(vec))
    vec = vec / vec[top]
    return LinearOperator.from_vector(space, vec)


def vertex_coboundary_operator(fam: EdgeOperatorFamily, vertex) -> LinearOperator:
    """Sum of the family's operators weighted by the vertex indicator coboundary."""
    acc = None
    for b in fam.edges:
        s = vertex_coboundary_sign(vertex, b)
        if s == 0:
            continue
        term = float(s) * fam.operators[b]
        acc = term if acc is None else acc + term
    return acc


def normalize_family(wm: WeightMatrix) -> EdgeOperatorFamily:
    """Scale the raw edge operators so all five vertex coboundaries vanish.

    The scales solve a homogeneous linear system, one block of coefficient
    equations per vertex; a one-dimensional kernel is required.  The kernel
    vector is divided by its largest entry, so the dominant edge scale is 1.
    """
    edges = faces(wm.simplex, 1)
    raw = {b: raw_edge_operator(wm, b) for b in edges}
    A = np.zeros((5 * 10, 10), dtype=complex)
    for vi, v in enumerate(wm.simplex):
        for bj, b in enumerate(edges):
            s = vertex_coboundary_sign(v, b)
            if s != 0:
                A[vi * 10 : (vi + 1) * 10, bj] = s * raw[b].vector
    K = nullspace(A)
    if K.shape[1] != 1:
        raise DegenerateWeightError(
            f"edge scale system has kernel dimension {K.shape[1]}, expected 1"
        )
    lam = K[:, 0]
    lam = lam / lam[np.argmax(np.abs(lam))]
    ops = {b: complex(lam[bj]) * raw[b] for bj, b in enumerate(edges)}
    return EdgeOperatorFamily(wm.simplex, ops, normalized=True)


def extract_w_cocycle(fam: EdgeOperatorFamily) -> Cochain:
    """The degree-2 cocycle measuring the family's one essential dependence.

    The kernel of (scalars per edge) -> (combined operator) is 5-dimensional:
    four dimensions of vertex coboundaries plus one more class.  A
    representative of that class, read as a degree-1 cochain, has coboundary
    independent of the choice; it is returned scaled so its largest component
    is exactly 1.
    """
    if not fam.normalized:
        raise ValueError("family must be normalized first")
    edges = fam.edges
    D = fam.operator_columns()
    K = nullspace(D)
    if K.shape[1] != 5:
        raise DegenerateWeightError(
            f"edge operators have kernel dimension {K.shape[1]}, expected 5"
        )
    C = np.zeros((10, 4), dtype=complex)
    for vi, v in enumerate(fam.simplex[:4]):
        for bj, b in enumerate(edges):
            C[bj, vi] = vertex_coboundary_sign(v, b)
    Q = column_space(C)
    P = K - Q @ (Q.conj().T @ K)
    u, s, _ = np.linalg.svd(P)
    if svd_rank(s, 1e-8) > 1:
        raise ConsistencyError("coboundary quotient of the kernel is not a line")
    nu = Cochain(fam.simplex, 1, {b: u[bj, 0] for bj, b in enumerate(edges)})
    omega = coboundary(nu)
    top = max(omega.cells(), key=lambda s2: abs(omega[s2]))
    if abs(omega[top]) < 1e-12:
        raise DegenerateCocycleError("extracted cocycle vanishes")
    return omega.scaled(1.0 / omega[top])
