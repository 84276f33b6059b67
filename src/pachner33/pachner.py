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
from .edgeops import normalize_family
from .errors import ConsistencyError, DegenerateWeightError
from .grassmann import GeneratorSpace, bit_matrix, gaussian_coefficients
from .operators import action_matrix, matrix_rank, principal_angles
from .simplicial import Cochain, faces
from .weights import GaugeTransform, apply_gauge_to_F, opposite_tetrahedra

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


def owners(tetra) -> tuple:
    """The 4-simplices of the scene containing a tetrahedron (always two)."""
    t = set(tetra)
    return tuple(u for u in SIMPLICES if t <= set(u))


def shared_tetrahedra() -> list:
    return sorted(INNER_TETRAHEDRA + BOUNDARY_TETRAHEDRA)


def is_inner(tetra) -> bool:
    return tuple(sorted(tetra)) in INNER_TETRAHEDRA


def boundary_space() -> GeneratorSpace:
    return GeneratorSpace(BOUNDARY_TETRAHEDRA)


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


def _edge_components(fam, tetra) -> np.ndarray:
    """(beta, gamma) at a tetrahedron of the operators on its six edges, as
    the two rows of a 2x6 array."""
    rows = [j for j, b in enumerate(fam.edges) if set(b) <= set(tetra)]
    return fam.components(tetra)[rows].T


def _transition(families: dict, tetra):
    """Least-squares 2x2 map sending the first owner's components on the
    shared tetrahedron to the second owner's, over its six edges."""
    C1, C2 = (_edge_components(families[u], tetra) for u in owners(tetra))
    M = np.linalg.lstsq(C1.T, C2.T, rcond=None)[0].T
    scale = max(np.abs(C2).max(), 1e-300)
    resid = np.abs(M @ C1 - C2).max() / scale
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
    """Weights, operator families and scales that agree on shared tetrahedra."""

    omega: Cochain
    matrices: dict
    families: dict
    gauges: dict
    rho: dict
    loop_residuals: tuple


def reconcile(omega: Cochain, tol: float = 1e-8) -> ReconciledWeights:
    """Glue the six per-simplex reconstructions into one consistent scene.

    Raises ConsistencyError when a loop check fails, which is the typed
    signal that the six restrictions do not come from one global weight
    system at this tolerance.
    """
    if tuple(omega.vertices) != VERTICES or omega.degree != 2:
        raise ValueError("expected a degree-2 cochain on vertices 1..6")
    matrices = {}
    families = {}
    for u in SIMPLICES:
        matrices[u] = reconstruct_F(omega.restrict(u))
        families[u] = normalize_family(matrices[u])

    # fit all 15 maps first: a fit's residual error outranks a diagonal check
    maps = {t: _transition(families, t) for t in shared_tetrahedra()}
    for t, M in maps.items():
        _check_diagonal(M, t)

    root = SIMPLICES[0]
    rho_sq = {root: 1.0 + 0.0j}
    tree = []
    for u in sorted(SIMPLICES[1:]):
        t = tuple(sorted(set(root) & set(u)))
        tree.append(t)
        prod = maps[t][0, 0] * maps[t][1, 1]
        if abs(prod) < 1e-12:
            raise DegenerateWeightError(f"singular transition on {t}")
        sign = -1.0 if is_inner(t) else 1.0
        rho_sq[u] = sign * rho_sq[root] / prod
    rho = {u: np.sqrt(r) for u, r in rho_sq.items()}

    loops = []
    for t, M in maps.items():
        if t in tree:
            continue
        u1, u2 = owners(t)
        sign = -1.0 if is_inner(t) else 1.0
        a = rho_sq[u2] * M[0, 0] * M[1, 1]
        b = sign * rho_sq[u1]
        loops.append(abs(a - b) / max(abs(a), abs(b)))
    if max(loops) > tol:
        raise ConsistencyError(
            f"loop residuals up to {max(loops):.2e} exceed {tol:.2e}; "
            "the six restrictions are not jointly consistent"
        )

    gauges = {u: {} for u in SIMPLICES}
    for t, M in maps.items():
        u1, u2 = owners(t)
        gauges[u1][t] = 1.0 + 0.0j
        gauges[u2][t] = M[0, 0] * rho[u2] / rho[u1]
    return ReconciledWeights(
        omega=omega,
        matrices=matrices,
        families=families,
        gauges=gauges,
        rho=rho,
        loop_residuals=tuple(loops),
    )


def _composed(rec: ReconciledWeights, pick) -> np.ndarray:
    """The 15 composed operators on the boundary space as (beta, gamma) rows,
    in edge-lex order, each component the scaled, gauge-adjusted one of the
    owner selected by `pick` (0 for the left owner, 1 for the right)."""
    space = boundary_space()
    row = {a: k for k, a in enumerate(faces(VERTICES, 1))}
    out = np.zeros((len(row), 2 * space.n), dtype=complex)
    for i, t in enumerate(space.labels):
        u = owners(t)[pick]  # a boundary tetrahedron's owners are (left, right)
        fam = rec.families[u]
        lam, r = rec.gauges[u][t], rec.rho[u]
        # columns i and n + i: the beta and gamma components at t
        out[[row[a] for a in fam.edges], i :: space.n] = fam.components(t) * (r / lam, r * lam)
    return out


def _side_tables(side: str) -> tuple:
    """Where a side's simplices put their tetrahedra in the side space, and for
    each boundary mask S the side-space mask and sign that the integral over
    the inner tetrahedra reads S's coefficient from."""
    space = side_space(side)
    slots = tuple(
        np.array([space.index[t] for t in opposite_tetrahedra(u)]) for u in side_simplices(side)
    )
    bound = np.array([space.index[t] for t in boundary_space().labels])
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
    for u, ix in zip(side_simplices(side), slots):
        gauged = apply_gauge_to_F(rec.matrices[u], GaugeTransform(u, rec.gauges[u]))
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
    space = boundary_space()
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
    cross = lhs_mat[:, : space.n] @ lhs_mat[:, space.n :].T
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
