"""The six-simplex scene: three 4-simplices around a common 2-face traded
for the three around the opposite one.

Every 4-simplex pair shares exactly one tetrahedron (15 in all: 3 inner per
side and 9 boundary), so reconciling the six independently reconstructed
weights is a matter of 2x2 transition fits on shared components, a GF(2)
interchange assignment, and one scale per simplex propagated along a
spanning tree with ten loop checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cocycle2weight import SqrtChoice, reconstruct_F
from .edgeops import EdgeOperatorFamily, normalize_family
from .errors import (
    BranchInconsistencyError,
    ConsistencyError,
    DegenerateWeightError,
)
from .grassmann import GeneratorSpace, GrassmannElement, berezin_integral
from .operators import (
    LinearOperator,
    matrix_rank,
    operator_matrix,
    principal_angles,
    scalar_product,
)
from .simplicial import Cochain, faces
from .weights import GaugeTransform, WeightMatrix, apply_gauge_to_F, gaussian_weight, interchange_F

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


def _transition(fam1: EdgeOperatorFamily, fam2: EdgeOperatorFamily, tetra):
    """Least-squares 2x2 map sending the first family's components on the
    shared tetrahedron to the second's, over its six edges."""
    edges = faces(tetra, 1)
    C1 = np.array([fam1.operators[a].component(tetra) for a in edges]).T
    C2 = np.array([fam2.operators[a].component(tetra) for a in edges]).T
    M = np.linalg.lstsq(C1.T, C2.T, rcond=None)[0].T
    scale = max(np.abs(C2).max(), 1e-300)
    resid = np.abs(M @ C1 - C2).max() / scale
    if resid > 1e-8:
        raise ConsistencyError(
            f"components on {tetra} are not related by a 2x2 map (residual {resid:.2e})"
        )
    return M


def _classify_transition(M: np.ndarray, tetra) -> bool:
    """True when the map swaps derivative and multiplication roles."""
    on = max(abs(M[0, 0]), abs(M[1, 1]))
    off = max(abs(M[0, 1]), abs(M[1, 0]))
    big = max(on, off, 1e-300)
    if off <= 1e-8 * big and on > 0:
        return False
    if on <= 1e-8 * big and off > 0:
        return True
    raise ConsistencyError(
        f"transition on {tetra} is neither diagonal nor antidiagonal"
    )


def _solve_interchange_sets(parities: dict) -> dict:
    """GF(2) assignment of per-simplex interchange sets.

    Each shared tetrahedron fixes the relative parity of its two owners;
    each simplex needs an even count so its swap stays nonsingular.
    """
    incidences = [(u, t) for u in SIMPLICES for t in faces(u, 3)]
    col = {ut: i for i, ut in enumerate(incidences)}
    rows = []
    rhs = []
    for t, parity in sorted(parities.items()):
        u1, u2 = owners(t)
        rows.append([col[(u1, t)], col[(u2, t)]])
        rhs.append(parity)
    for u in SIMPLICES:
        rows.append([col[(u, t)] for t in faces(u, 3)])
        rhs.append(0)
    A = np.zeros((len(rows), len(incidences) + 1), dtype=np.uint8)
    for i, (cs, b) in enumerate(zip(rows, rhs)):
        A[i, cs] = 1
        A[i, -1] = b
    # plain GF(2) elimination
    pivot_cols = []
    r = 0
    for c in range(len(incidences)):
        hit = np.nonzero(A[r:, c])[0]
        if hit.size == 0:
            continue
        A[[r, r + hit[0]]] = A[[r + hit[0], r]]
        for i in range(A.shape[0]):
            if i != r and A[i, c]:
                A[i] ^= A[r]
        pivot_cols.append(c)
        r += 1
        if r == A.shape[0]:
            break
    if np.any(A[r:, -1]):
        raise BranchInconsistencyError(
            "interchange parities admit no even-per-simplex assignment"
        )
    x = np.zeros(len(incidences), dtype=np.uint8)
    for i, c in enumerate(pivot_cols):
        x[c] = A[i, -1]
    out = {u: frozenset() for u in SIMPLICES}
    for (u, t), i in col.items():
        if x[i]:
            out[u] = out[u] | {t}
    return {u: frozenset(ts) for u, ts in out.items()}


@dataclass(frozen=True, eq=False)
class ReconciledWeights:
    """Weights, operator families and scales that agree on shared tetrahedra."""

    omega: Cochain
    matrices: dict
    families: dict
    interchanges: dict
    gauges: dict
    rho: dict
    loop_residuals: tuple

    def gauged_matrix(self, simplex) -> WeightMatrix:
        g = GaugeTransform(simplex, self.gauges[simplex])
        return apply_gauge_to_F(self.matrices[simplex], g)

    def weight(self, simplex, space: GeneratorSpace | None = None) -> GrassmannElement:
        return gaussian_weight(self.gauged_matrix(simplex), space)

    def adjusted_component(self, simplex, edge, tetra) -> tuple[complex, complex]:
        """(beta, gamma) of the scaled, gauge-adjusted edge operator."""
        b, g = self.families[simplex].operators[tuple(sorted(edge))].component(tetra)
        lam = self.gauges[simplex][tuple(sorted(tetra))]
        r = self.rho[simplex]
        return r * b / lam, r * g * lam


def reconcile(omega: Cochain, tol: float = 1e-8, choices: dict | None = None) -> ReconciledWeights:
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
        om_u = omega.restrict(u)
        choice = None if choices is None else choices.get(u)
        matrices[u] = reconstruct_F(om_u, choice)
        families[u] = normalize_family(matrices[u])

    parities = {}
    for t in shared_tetrahedra():
        u1, u2 = owners(t)
        parities[t] = 1 if _classify_transition(_transition(families[u1], families[u2], t), t) else 0
    interchanges = _solve_interchange_sets(parities)
    for u, subset in interchanges.items():
        if subset:
            matrices[u] = interchange_F(matrices[u], subset)
            families[u] = normalize_family(matrices[u])

    transitions = {}
    for t in shared_tetrahedra():
        u1, u2 = owners(t)
        M = _transition(families[u1], families[u2], t)
        if _classify_transition(M, t):
            raise ConsistencyError(f"interchange did not diagonalize the map on {t}")
        transitions[t] = (u1, u2, M[0, 0], M[1, 1])

    root = SIMPLICES[0]
    rho_sq = {root: 1.0 + 0.0j}
    tree = []
    for u in sorted(SIMPLICES[1:]):
        t = tuple(sorted(set(root) & set(u)))
        tree.append(t)
        _, _, mb, mg = transitions[t]
        prod = mb * mg
        if abs(prod) < 1e-12:
            raise DegenerateWeightError(f"singular transition on {t}")
        sign = -1.0 if is_inner(t) else 1.0
        rho_sq[u] = sign * rho_sq[root] / prod
    rho = {u: np.sqrt(r) for u, r in rho_sq.items()}

    loops = []
    for t in shared_tetrahedra():
        if t in tree:
            continue
        u1, u2, mb, mg = transitions[t]
        sign = -1.0 if is_inner(t) else 1.0
        a = rho_sq[u2] * mb * mg
        b = sign * rho_sq[u1]
        loops.append(abs(a - b) / max(abs(a), abs(b)))
    if max(loops) > tol:
        raise ConsistencyError(
            f"loop residuals up to {max(loops):.2e} exceed {tol:.2e}; "
            "the six restrictions are not jointly consistent"
        )

    gauges = {u: {} for u in SIMPLICES}
    for t, (u1, u2, mb, mg) in transitions.items():
        gauges[u1][t] = 1.0 + 0.0j
        gauges[u2][t] = mb * rho[u2] / rho[u1]
    return ReconciledWeights(
        omega=omega,
        matrices=matrices,
        families=families,
        interchanges=interchanges,
        gauges=gauges,
        rho=rho,
        loop_residuals=tuple(loops),
    )


def _composed_from(rec: ReconciledWeights, edge, pick) -> LinearOperator:
    """Composed operator on the boundary space, components taken from the
    owner selected by `pick` (0 for the left owner, 1 for the right)."""
    edge = tuple(sorted(edge))
    space = boundary_space()
    beta = np.zeros(space.n, dtype=complex)
    gamma = np.zeros(space.n, dtype=complex)
    for i, t in enumerate(space.labels):
        own = owners(t)
        lhs_u = next(v for v in own if v in LHS_SIMPLICES)
        rhs_u = next(v for v in own if v in RHS_SIMPLICES)
        u = (lhs_u, rhs_u)[pick]
        if set(edge) <= set(u):
            beta[i], gamma[i] = rec.adjusted_component(u, edge, t)
    return LinearOperator(space, beta, gamma)


def side_weight(rec: ReconciledWeights, side: str) -> GrassmannElement:
    """Product of the side's three gauge-adjusted weights, integrated over
    its inner tetrahedra and written on the boundary generators.

    Three integrations leave an odd element.
    """
    sims = side_simplices(side)
    space = side_space(side)
    prod = rec.weight(sims[0], space)
    for u in sims[1:]:
        prod = prod * rec.weight(u, space)
    integ = berezin_integral(prod, _side_inner(side))
    return integ.restrict_to(boundary_space())


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


def verify_33(data, tol: float = 1e-8) -> Verification33:
    """Integrate both sides and compare them monomial by monomial.

    Accepts either a cocycle on six vertices or an already reconciled scene.
    """
    rec = reconcile(data, tol=tol) if isinstance(data, Cochain) else data
    SL = side_weight(rec, "lhs")
    SR = side_weight(rec, "rhs")
    if SR.max_abs() == 0:
        raise DegenerateWeightError("right-hand side integrates to zero")
    if SL.max_abs() == 0:
        raise DegenerateWeightError("left-hand side integrates to zero")
    space = boundary_space()
    top = max(SR.coeffs, key=lambda m: (abs(SR.coeffs[m]), -m))
    const = SL.coeffs.get(top, 0.0) / SR.coeffs[top]
    scale = SL.max_abs()
    max_residual = 0.0
    for m in range(1 << space.n):
        lhs = SL.coeffs.get(m, 0.0)
        rhs = SR.coeffs.get(m, 0.0)
        max_residual = max(max_residual, abs(lhs - const * rhs) / scale)

    scene_edges = faces(VERTICES, 1)
    ops = [_composed_from(rec, a, 0) for a in scene_edges]
    rights = [_composed_from(rec, a, 1) for a in scene_edges]
    agreement = 0.0
    for left, right in zip(ops, rights):
        sc = max(left.norm(), right.norm(), 1e-300)
        agreement = max(agreement, np.abs(left.vector - right.vector).max() / sc)
    anni = 0.0
    iso = 0.0
    for i, d in enumerate(ops):
        sc = max(d.norm(), 1e-300)
        anni = max(anni, d.apply(SL).max_abs() / (sc * SL.max_abs()))
        anni = max(anni, d.apply(SR).max_abs() / (sc * SR.max_abs()))
        for e in ops[i:]:
            iso = max(iso, abs(scalar_product(d, e)) / (sc * max(e.norm(), 1e-300)))
    lhs_mat = operator_matrix(ops)
    rhs_mat = operator_matrix(rights)
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
