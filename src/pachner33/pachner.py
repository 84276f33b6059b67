"""The six-simplex scene: three 4-simplices around a common 2-face traded
for the three around the opposite one.

Every 4-simplex pair shares exactly one tetrahedron (15 in all: 3 inner per
side and 9 boundary), so reconciling the six independently reconstructed
weights is a matter of 2x2 transition fits on shared components and one
scale per simplex propagated along a spanning tree with ten loop checks.
Every simplex is rebuilt on principal roots, so a 2-face has the same root
in each simplex that contains it and every fit must come out diagonal.

A side's three gauged weights multiply to one Gaussian exp(1/2 x.A.x) on
its twelve tetrahedra, so each coefficient of the product is a Pfaffian
minor of A, and integrating over the three inner tetrahedra only reads off
the minors that contain them, with a sign.  Both sides come out as dense
coefficient vectors on the nine boundary tetrahedra and are compared as
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cocycle2weight import reconstruct_F
from .edgeops import normalize_families
from .errors import ConsistencyError, DegenerateWeightError
from .grassmann import GeneratorSpace, bit_matrix, gaussian_coefficients
from .operators import action_matrix, matrix_rank, principal_angles
from .simplicial import Cochain, faces
from .weights import apply_gauge_to_F, opposite_tetrahedra

VERTICES = (1, 2, 3, 4, 5, 6)
LHS_SIMPLICES = ((1, 2, 3, 4, 5), (1, 2, 3, 4, 6), (1, 2, 3, 5, 6))
RHS_SIMPLICES = ((1, 2, 4, 5, 6), (1, 3, 4, 5, 6), (2, 3, 4, 5, 6))
SIMPLICES = LHS_SIMPLICES + RHS_SIMPLICES

INNER_LHS = ((1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6))
INNER_RHS = ((1, 4, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6))
BOUNDARY_TETRAHEDRA = tuple(
    tuple(sorted(p + q))
    for p in combinations((1, 2, 3), 2)
    for q in combinations((4, 5, 6), 2)
)
INNER_TETRAHEDRA = INNER_LHS + INNER_RHS
SHARED = tuple(faces(VERTICES, 3))  # all 15 tetrahedra, in lex order


def _incidence() -> tuple:
    """The scene's incidence table, a row per tetrahedron of SHARED: its two
    owners as indices into SIMPLICES, lex-smaller first; its generator slot
    in each; its six edges as rows of each owner's family; its edges as
    indices into the scene's 15 edges; -1 if it is inner, +1 if boundary."""
    scene_edges = faces(VERTICES, 1)
    owner, slot, edge_rows = [], [], []
    for t in SHARED:
        us = [tuple(sorted(t + (v,))) for v in VERTICES if v not in t]
        owner.append([SIMPLICES.index(u) for u in us])
        slot.append([faces(u, 3).index(t) for u in us])
        edge_rows.append([[faces(u, 1).index(e) for e in faces(t, 1)] for u in us])
    edges = [[scene_edges.index(e) for e in faces(t, 1)] for t in SHARED]
    sign = [-1 if t in INNER_TETRAHEDRA else 1 for t in SHARED]
    table = tuple(np.array(a) for a in (owner, slot, edge_rows, edges, sign))
    for a in table:
        a.flags.writeable = False
    return table


OWNER, SLOT, EDGE_ROWS, EDGES, SIGN = _incidence()
# SIMPLICES[0]'s five tetrahedra join it to the other five simplices: a
# spanning tree, in the lex order of the simplices it reaches
TREE = OWNER[:, 0] == 0
BOUNDARY = SIGN > 0  # rows of BOUNDARY_TETRAHEDRA, which is in lex order too


def side_simplices(side: str) -> tuple:
    if side == "lhs":
        return LHS_SIMPLICES
    if side == "rhs":
        return RHS_SIMPLICES
    raise ValueError("side must be 'lhs' or 'rhs'")


def _side_inner(side: str) -> tuple:
    return INNER_LHS if side == "lhs" else INNER_RHS


def side_space(side: str) -> GeneratorSpace:
    return GeneratorSpace(_side_inner(side) + BOUNDARY_TETRAHEDRA)


def _components(families: np.ndarray, pick: int, rows=slice(None)) -> np.ndarray:
    """(beta, gamma) of each shared tetrahedron's six edge operators, read
    from its owner `pick` (0 for the left, 1 for the right), as an array
    [tetrahedron, edge, component]; `rows` selects tetrahedra of SHARED."""
    u, slot = OWNER[rows, pick], SLOT[rows, pick]
    cols = slot[:, None, None] + np.array([0, 5])  # beta and gamma columns
    return families[u[:, None, None], EDGE_ROWS[rows, pick][:, :, None], cols]


def _transition(c1: np.ndarray, c2: np.ndarray, tetra):
    """Least-squares 2x2 map sending the first owner's components on the
    shared tetrahedron to the second owner's, over its six edges (a row
    each in c1 and c2)."""
    M = np.linalg.lstsq(c1, c2, rcond=None)[0].T
    scale = max(np.abs(c2).max(), 1e-300)
    resid = np.abs(M @ c1.T - c2.T).max() / scale
    if resid > 1e-8:
        raise ConsistencyError(
            f"components on {tetra} are not related by a 2x2 map (residual {resid:.2e})"
        )
    return M


def _check_diagonal(M: np.ndarray, tetra):
    """Raise unless the map is diagonal, scaling beta by M[0, 0] and gamma by
    M[1, 1]; on principal roots every transition between owners is."""
    on = max(abs(M[0, 0]), abs(M[1, 1]))
    off = max(abs(M[0, 1]), abs(M[1, 0]))
    if not (off <= 1e-8 * max(on, off) and on > 0):
        ratio = off / on if on > 0 else float("inf")
        raise ConsistencyError(
            f"transition on {tetra} is not diagonal: off/on ratio {ratio:.2e} above 1e-08"
        )


@dataclass(frozen=True, eq=False)
class ReconciledWeights:
    """Weights, operator families and scales that agree on shared tetrahedra,
    each indexed like SIMPLICES: six WeightMatrix objects, the families as a
    (6, 10, 10) array, each simplex's gauge as a row of five scales in
    generator (lex) order, and its scale rho."""

    matrices: tuple
    families: np.ndarray
    gauges: np.ndarray
    rho: np.ndarray
    loop_residuals: tuple


def reconcile(omega: Cochain, tol: float = 1e-8) -> ReconciledWeights:
    """Glue the six per-simplex reconstructions into one consistent scene.

    Raises ConsistencyError when a loop check fails, which is the typed
    signal that the six restrictions do not come from one global weight
    system at this tolerance.
    """
    if tuple(omega.vertices) != VERTICES or omega.degree != 2:
        raise ValueError("expected a degree-2 cochain on vertices 1..6")
    matrices = tuple(reconstruct_F(omega.restrict(u)) for u in SIMPLICES)
    families = normalize_families(matrices)

    # fit all 15 maps first: a fit's residual error outranks a diagonal check
    pairs = zip(_components(families, 0), _components(families, 1), SHARED)
    maps = np.array([_transition(c1, c2, t) for c1, c2, t in pairs])
    for M, t in zip(maps, SHARED):
        _check_diagonal(M, t)

    prods = maps[:, 0, 0] * maps[:, 1, 1]
    singular = TREE & (np.abs(prods) < 1e-12)
    if singular.any():
        raise DegenerateWeightError(f"singular transition on {SHARED[np.argmax(singular)]}")
    rho_sq = np.ones(len(SIMPLICES), dtype=complex)
    rho_sq[OWNER[TREE, 1]] = SIGN[TREE] / prods[TREE]
    rho = np.sqrt(rho_sq)

    loop = ~TREE
    a = rho_sq[OWNER[loop, 1]] * maps[loop, 0, 0] * maps[loop, 1, 1]
    b = SIGN[loop] * rho_sq[OWNER[loop, 0]]
    loops = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
    if loops.max() > tol:
        raise ConsistencyError(
            f"loop residuals up to {loops.max():.2e} exceed {tol:.2e}; "
            "the six restrictions are not jointly consistent"
        )

    # the left owner of each tetrahedron keeps gauge one there
    gauges = np.ones((len(SIMPLICES), 5), dtype=complex)
    gauges[OWNER[:, 1], SLOT[:, 1]] = maps[:, 0, 0] * rho[OWNER[:, 1]] / rho[OWNER[:, 0]]
    return ReconciledWeights(matrices, families, gauges, rho, tuple(loops.tolist()))


def _composed(rec: ReconciledWeights, pick: int) -> np.ndarray:
    """The 15 composed operators on the boundary space as (beta, gamma) rows,
    in edge-lex order, each component the scaled, gauge-adjusted one of the
    owner selected by `pick` (0 for the left owner, 1 for the right)."""
    u = OWNER[BOUNDARY, pick]  # a boundary tetrahedron's owners are (left, right)
    lam, r = rec.gauges[u, SLOT[BOUNDARY, pick]], rec.rho[u]
    scaled = _components(rec.families, pick, BOUNDARY) * np.stack([r / lam, r * lam], axis=1)[:, None]
    n = len(BOUNDARY_TETRAHEDRA)
    out = np.zeros((len(faces(VERTICES, 1)), 2 * n), dtype=complex)
    # columns i and n + i: the beta and gamma components at boundary tetrahedron i
    out[EDGES[BOUNDARY][:, :, None], np.arange(n)[:, None, None] + np.array([0, n])] = scaled
    return out


def _side_tables(side: str) -> tuple:
    """Each of a side's simplices, as its index in SIMPLICES and where it puts
    its tetrahedra in the side space, and for each boundary mask S the
    side-space mask and sign that the integral over the inner tetrahedra
    reads S's coefficient from."""
    space = side_space(side)
    slots = tuple(
        (SIMPLICES.index(u), np.array([space.index[t] for t in opposite_tetrahedra(u)]))
        for u in side_simplices(side)
    )
    bound = np.array([space.index[t] for t in BOUNDARY_TETRAHEDRA])
    inner = [space.index[t] for t in _side_inner(side)]
    masks = (bit_matrix(np.arange(1 << bound.size), bound.size) << bound).sum(axis=1)
    masks |= sum(1 << i for i in inner)
    # the integral is a right derivative per inner generator, innermost first,
    # each moving its generator out past the generators above it
    rest, moves = masks, 0
    for i in inner:
        moves = moves + bit_matrix(rest >> (i + 1), space.n).sum(axis=1)
        rest = rest ^ (1 << i)
    return slots, masks, np.where(moves % 2, -1.0, 1.0)


_SIDE_TABLES = {side: _side_tables(side) for side in ("lhs", "rhs")}


def side_weight(rec: ReconciledWeights, side: str) -> np.ndarray:
    """Product of the side's three gauge-adjusted weights, integrated over
    its inner tetrahedra, as dense coefficients on the boundary generators.

    Each weight is exp(-1/2 x.F.x) of its gauged matrix F, so the product
    is the Gaussian of the side's assembled 12x12 form.  Three integrations
    leave an odd element: entries at even masks are 0.
    """
    slots, masks, signs = _SIDE_TABLES[side]
    A = np.zeros((12, 12), dtype=complex)
    for i, ix in slots:
        gauged = apply_gauge_to_F(rec.matrices[i], rec.gauges[i])
        A[ix[:, None], ix] -= gauged.entries
    return signs * gaussian_coefficients(A)[masks]


@dataclass(frozen=True)
class Verification33:
    """Measured outcome of one three-for-three trade."""

    const: complex
    max_residual: float
    agreement: float
    annihilation_residual: float
    isotropy_residual: float
    annihilator_dimension: int
    annihilator_angle: float
    loop_residuals: tuple

    @property
    def worst(self) -> float:
        """The largest of the six residual figures, the one a tolerance bounds."""
        return max(
            self.max_residual,
            self.agreement,
            self.annihilation_residual,
            self.isotropy_residual,
            self.annihilator_angle,
            max(self.loop_residuals),
        )


def verify_33(rec: ReconciledWeights) -> Verification33:
    """Integrate both sides of a reconciled scene and compare them
    coefficient by coefficient."""
    SL = side_weight(rec, "lhs")
    SR = side_weight(rec, "rhs")
    abs_l, abs_r = np.abs(SL), np.abs(SR)
    if abs_r.max() == 0:
        raise DegenerateWeightError("right-hand side integrates to zero")
    if abs_l.max() == 0:
        raise DegenerateWeightError("left-hand side integrates to zero")
    top = np.argmax(abs_r)  # the first largest: the lowest mask among ties
    const = SL[top] / SR[top]
    scale = abs_l.max()
    max_residual = np.abs(SL - const * SR).max() / scale

    # rows are the 15 composed operators' (beta, gamma) vectors, read off
    # the left and the right owner of each boundary tetrahedron
    lhs_mat, rhs_mat = _composed(rec, 0), _composed(rec, 1)
    norms = np.maximum(np.linalg.norm(lhs_mat, axis=1), 1e-300)
    both = np.maximum(norms, np.linalg.norm(rhs_mat, axis=1))
    agreement = (np.abs(lhs_mat - rhs_mat).max(axis=1) / both).max()
    anni = max(
        (np.abs(action_matrix(S) @ lhs_mat.T).max(axis=0) / norms).max() / abs_s.max()
        for S, abs_s in ((SL, abs_l), (SR, abs_r))
    )
    # pairing <d, e> = beta_d . gamma_e + beta_e . gamma_d, for all pairs at once
    n = len(BOUNDARY_TETRAHEDRA)
    cross = lhs_mat[:, :n] @ lhs_mat[:, n:].T
    iso = (np.abs(cross + cross.T) / np.outer(norms, norms)).max()
    dim = matrix_rank(lhs_mat.T)
    angles = principal_angles(lhs_mat.T, rhs_mat.T)
    return Verification33(
        const=complex(const),
        max_residual=float(max_residual),
        agreement=float(agreement),
        annihilation_residual=float(anni),
        isotropy_residual=float(iso),
        annihilator_dimension=int(dim),
        annihilator_angle=float(angles.max()) if angles.size else 0.0,
        loop_residuals=rec.loop_residuals,
    )
