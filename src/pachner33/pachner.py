"""The six-simplex scene: three 4-simplices around a common 2-face traded
for the three around the opposite one.

Every 4-simplex pair shares exactly one tetrahedron (15 in all: 3 inner per
side and 9 boundary), so reconciling the six independently reconstructed
weights is a matter of 2x2 transition fits on shared components and one
scale per simplex propagated along a spanning tree, with ten loop residuals.
Every simplex is rebuilt on principal roots, so a 2-face has the same root
in each simplex that contains it and every fit must come out diagonal.

A side's three gauged weights multiply to one Gaussian exp(1/2 x.A.x) on
its twelve tetrahedra, so each coefficient of the product is a Pfaffian
minor of A.  A lays out the nine boundary tetrahedra on generators 0-8 in
lex order and the three inner ones on 9-11, innermost last, so each right
derivative of the integral removes the last generator of every monomial it
meets: the integral is the top 512 minors, those that hold all three inner
generators, with no sign.  Both sides come out as dense coefficient vectors
on the nine boundary tetrahedra and are compared as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cocycle2weight import reconstruct_F
from .edgeops import normalize_families
from .errors import ConsistencyError, DegenerateWeightError
from .grassmann import gaussian_coefficients
from .operators import action_matrix, basis_angles, column_space
from .simplicial import Cochain, faces
from .weights import gauged_entries, opposite_tetrahedra

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


def _components(families: np.ndarray, pick: int, rows=slice(None)) -> np.ndarray:
    """(beta, gamma) of each shared tetrahedron's six edge operators, read
    from its owner `pick` (0 for the left, 1 for the right), as an array
    [tetrahedron, edge, component]; `rows` selects tetrahedra of SHARED."""
    u, slot = OWNER[rows, pick], SLOT[rows, pick]
    cols = slot[:, None, None] + np.array([0, 5])  # beta and gamma columns
    return families[u[:, None, None], EDGE_ROWS[rows, pick][:, :, None], cols]


def _fit(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """The 2x2 maps M, one per tetrahedron of the stack, that send the first
    owner's components to the second's in least squares over its six edges
    (c1[k] @ M[k] ~ c2[k]): lstsq's cutoff and minimum-norm answer, in one
    solve for the whole stack."""
    return np.linalg.pinv(c1, rcond=6 * np.finfo(float).eps) @ c2


def _check_diagonal(c1: np.ndarray, c2: np.ndarray, maps: np.ndarray):
    """Raise unless every map fits its tetrahedron's components and is
    diagonal, scaling beta by M[0, 0] and gamma by M[1, 1]; on principal
    roots every transition between owners is.  The stack is indexed like
    SHARED, each error names the first tetrahedron that fails it, and a fit
    error outranks any diagonal one."""
    scale = np.maximum(np.abs(c2).max(axis=(1, 2)), 1e-300)
    resid = np.abs(c1 @ maps - c2).max(axis=(1, 2)) / scale
    unfit = resid > 1e-8
    if unfit.any():
        k = np.argmax(unfit)
        raise ConsistencyError(
            f"components on {SHARED[k]} are not related by a 2x2 map (residual {resid[k]:.2e})"
        )
    mag = np.abs(maps)
    on = np.maximum(mag[:, 0, 0], mag[:, 1, 1])
    off = np.maximum(mag[:, 0, 1], mag[:, 1, 0])
    bad = ~((off <= 1e-8 * np.maximum(on, off)) & (on > 0))
    if bad.any():
        k = np.argmax(bad)
        ratio = off[k] / on[k] if on[k] > 0 else float("inf")
        raise ConsistencyError(
            f"transition on {SHARED[k]} is not diagonal: off/on ratio {ratio:.2e} above 1e-08"
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


def reconcile(omega: Cochain) -> ReconciledWeights:
    """Glue the six per-simplex reconstructions into one consistent scene.

    The ten loop residuals are measured, not judged: they are returned
    with the scene, and Verification33.worst bounds them with the other
    figures.
    """
    if tuple(omega.vertices) != VERTICES or omega.degree != 2:
        raise ValueError("expected a degree-2 cochain on vertices 1..6")
    matrices = tuple(reconstruct_F(omega.restrict(u)) for u in SIMPLICES)
    families = normalize_families(matrices)

    c1, c2 = _components(families, 0), _components(families, 1)
    maps = _fit(c1, c2)
    _check_diagonal(c1, c2, maps)

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


def _side_slots(side: str) -> tuple:
    """Each of a side's simplices, as its index in SIMPLICES and the generator
    slots of its five tetrahedra in the side's 12x12 form: the nine boundary
    tetrahedra on 0-8 in lex order, the inner ones on 9-11, innermost (the
    first integrated) last."""
    slot = {t: i for i, t in enumerate(BOUNDARY_TETRAHEDRA + _side_inner(side)[::-1])}
    return tuple(
        (SIMPLICES.index(u), np.array([slot[t] for t in opposite_tetrahedra(u)]))
        for u in side_simplices(side)
    )


_SIDE_SLOTS = {side: _side_slots(side) for side in ("lhs", "rhs")}


def side_weight(rec: ReconciledWeights, side: str) -> np.ndarray:
    """Product of the side's three gauge-adjusted weights, integrated over
    its inner tetrahedra, as dense coefficients on the boundary generators.

    Each weight is exp(-1/2 x.F.x) of its gauged matrix F, so the product
    is the Gaussian of the side's assembled 12x12 form.  Three integrations
    leave an odd element: entries at even masks are 0.
    """
    A = np.zeros((12, 12), dtype=complex)
    for i, ix in _SIDE_SLOTS[side]:
        A[ix[:, None], ix] -= gauged_entries(rec.matrices[i], rec.gauges[i])
    return gaussian_coefficients(A)[-512:]


CONST_FLOOR = 1e-10  # a |const| at or below this reads as a vanishing integral


@dataclass(frozen=True)
class Verification33:
    """Measured outcome of one three-for-three trade, and its verdict."""

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
        """The largest of the six residual figures, the one a tolerance bounds; NaN if any is."""
        figures = (
            self.max_residual,
            self.agreement,
            self.annihilation_residual,
            self.isotropy_residual,
            self.annihilator_angle,
            *self.loop_residuals,
        )
        return math.nan if any(map(math.isnan, figures)) else max(figures)

    def verdict(self, tol: float) -> tuple:
        """The verdict's three parts, all true for a trade that holds: every
        figure within tol, a nonzero constant, a 9-dimensional annihilator."""
        return self.worst <= tol, abs(self.const) > CONST_FLOOR, self.annihilator_dimension == 9


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
    # the annihilator's dimension is the rank the angle step's basis is cut at
    basis = column_space(lhs_mat.T)
    angles = basis_angles(basis, column_space(rhs_mat.T))
    return Verification33(
        const=complex(const),
        max_residual=float(max_residual),
        agreement=float(agreement),
        annihilation_residual=float(anni),
        isotropy_residual=float(iso),
        annihilator_dimension=basis.shape[1],
        annihilator_angle=float(angles.max()) if angles.size else 0.0,
        loop_residuals=rec.loop_residuals,
    )
