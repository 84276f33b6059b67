"""From a degree-2 cocycle on a 4-simplex back to a weight matrix.

Square roots of the cocycle's face values combine the edge operators into
operators whose component at each tetrahedron is purely a derivative or
purely a generator.  Ratios between sign-flipped variants of those
combinations recover the weight matrix's double ratios, and a gauge-fixed
representative is solved from five of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edgeops import EdgeOperatorFamily, extract_w_cocycle
from .errors import (
    BranchInconsistencyError,
    ConsistencyError,
    DegenerateCocycleError,
)
from .operators import LinearOperator, svd_rank
from .simplicial import Cochain, cochain_primitive, faces, vertex_coboundary_sign
from .weights import CANONICAL_RATIO_PAIRS, WeightMatrix, solve_F_from_ratios

COMPONENT_TOL = 1e-8


@dataclass(frozen=True)
class SqrtChoice:
    """A fixed branch of the square root of every face value."""

    roots: dict

    def __post_init__(self):
        object.__setattr__(
            self, "roots", {tuple(f): complex(v) for f, v in self.roots.items()}
        )

    @staticmethod
    def principal(omega: Cochain) -> "SqrtChoice":
        return SqrtChoice({s: np.sqrt(complex(omega[s])) for s in omega.cells()})

    def root(self, face) -> complex:
        return self.roots[tuple(sorted(face))]

    def flipped(self, flip_faces) -> "SqrtChoice":
        flips = {tuple(sorted(f)) for f in flip_faces}
        return SqrtChoice(
            {f: (-v if f in flips else v) for f, v in self.roots.items()}
        )


@dataclass(frozen=True, eq=False)
class SuperisotropicOperator:
    f: LinearOperator
    alpha: dict


def _check_roots(omega: Cochain, choice: SqrtChoice):
    for s in omega.cells():
        w = omega[s]
        if abs(w) == 0.0:
            raise DegenerateCocycleError(f"cocycle vanishes on face {s}")
        if abs(choice.root(s) ** 2 - w) > 1e-12 * abs(w):
            raise ConsistencyError(f"root at face {s} does not square to the value")


def alpha_coefficients(omega: Cochain, choice: SqrtChoice) -> dict:
    """Edge coefficients: the product of the four roots at faces that either
    contain the edge or are disjoint from it."""
    _check_roots(omega, choice)
    verts = omega.vertices
    out = {}
    for b in faces(verts, 1):
        rest = tuple(v for v in verts if v not in b)
        val = choice.root(rest)
        for s in faces(verts, 2):
            if set(b) <= set(s):
                val *= choice.root(s)
        out[b] = val
    return out


def _combine(fam: EdgeOperatorFamily, alpha: dict) -> LinearOperator:
    vec = sum(alpha[b] * fam.operators[b].vector for b in fam.edges)
    return LinearOperator.from_vector(fam.space, vec)


def _check_matches_family(fam: EdgeOperatorFamily, omega: Cochain):
    ref = extract_w_cocycle(fam)
    top = max(ref.cells(), key=lambda s: abs(ref[s]))
    scale = omega[top] / ref[top]
    worst = max(abs(omega[s] - scale * ref[s]) for s in ref.cells())
    if worst > 1e-8 * abs(scale):
        raise ConsistencyError("cocycle does not belong to this operator family")


def superisotropic_f(
    fam: EdgeOperatorFamily, omega: Cochain, choice: SqrtChoice | None = None
) -> SuperisotropicOperator:
    """f = sum of alpha_b d_b; every tetrahedron pairs it to zero with itself."""
    if choice is None:
        choice = SqrtChoice.principal(omega)
    _check_matches_family(fam, omega)
    alpha = alpha_coefficients(omega, choice)
    return SuperisotropicOperator(_combine(fam, alpha), alpha)


def component_types(f: LinearOperator) -> frozenset:
    """Tetrahedra where f acts by multiplication; the rest differentiate.

    A component with both parts of comparable size means the branch data is
    inconsistent with the family.
    """
    top = np.abs(f.vector).max()
    gen_type = set()
    for t in f.space.labels:
        beta, gamma = f.component(t)
        small_b, small_g = abs(beta) <= COMPONENT_TOL * top, abs(gamma) <= COMPONENT_TOL * top
        if small_b and small_g:
            raise DegenerateCocycleError(f"operator vanishes at {t}")
        if not small_b and not small_g:
            raise BranchInconsistencyError(f"mixed component at {t}")
        if small_b:
            gen_type.add(t)
    return frozenset(gen_type)


def _vertex_flip_faces(verts, m) -> list:
    """Two faces whose root flips negate precisely the coefficients at the
    four edges through m."""
    others = [v for v in verts if v != m]
    return [tuple(sorted((m,) + tuple(others[:2]))), tuple(sorted((m,) + tuple(others[2:])))]


def calibrate_sqrt_choice(
    fam: EdgeOperatorFamily, omega: Cochain, choice: SqrtChoice | None = None
) -> SqrtChoice:
    """Adjust branch signs until every component of f differentiates."""
    if choice is None:
        choice = SqrtChoice.principal(omega)
    f = superisotropic_f(fam, omega, choice).f
    gen_type = component_types(f)
    flip_vertices = [v for v in fam.simplex if tuple(x for x in fam.simplex if x != v) in gen_type]
    if len(flip_vertices) % 2 != 0:
        raise BranchInconsistencyError("odd component-type pattern")
    for m in flip_vertices:
        choice = choice.flipped(_vertex_flip_faces(fam.simplex, m))
    return choice


def build_f_t(
    fam: EdgeOperatorFamily, omega: Cochain, choice: SqrtChoice, t
) -> SuperisotropicOperator:
    """The variant of f that differentiates only at t.

    Flipping one root pair negates the coefficients at the four edges through
    the vertex opposite t, turning every other component into multiplication.
    """
    t = tuple(sorted(t))
    (m,) = (v for v in fam.simplex if v not in t)
    pair = _vertex_flip_faces(fam.simplex, m)
    flipped = choice.flipped(pair)
    alpha = alpha_coefficients(omega, flipped)
    f = _combine(fam, alpha)
    top = np.abs(f.vector).max()
    for t2 in fam.space.labels:
        beta, gamma = f.component(t2)
        stray = gamma if t2 == t else beta
        if abs(stray) > COMPONENT_TOL * top:
            raise BranchInconsistencyError(
                f"component at {t2} is not of the expected kind; calibrate the branch first"
            )
    return SuperisotropicOperator(f, alpha)


def kappa(omega: Cochain, choice: SqrtChoice | None = None) -> complex:
    """The ratio tying together the two variants that multiply at the last
    tetrahedron, in closed form."""
    if choice is None:
        choice = SqrtChoice.principal(omega)
    _check_roots(omega, choice)
    v1, v2, v3, v4, v5 = omega.vertices
    r = lambda *f: choice.root(f)
    w = lambda *f: omega[tuple(f)]
    terms = [
        w(v1, v2, v4) * r(v1, v2, v5) * r(v3, v4, v5),
        -w(v1, v2, v3) * r(v1, v2, v5) * r(v3, v4, v5),
        -r(v1, v2, v3) * r(v1, v3, v5) * r(v2, v3, v4) * r(v2, v4, v5),
        r(v1, v2, v4) * r(v1, v3, v4) * r(v1, v3, v5) * r(v2, v4, v5),
        r(v1, v2, v4) * r(v1, v4, v5) * r(v2, v3, v4) * r(v2, v3, v5),
        -r(v1, v2, v3) * r(v1, v3, v4) * r(v1, v4, v5) * r(v2, v3, v5),
    ]
    even, odd = sum(terms[:2]), sum(terms[2:])
    lam_plus, lam_minus = even + odd, even - odd
    floor = 1e-12 * max(abs(x) for x in terms)
    if abs(lam_minus) <= floor:
        raise DegenerateCocycleError("lambda_minus = 0, the cocycle is degenerate")
    return lam_plus / lam_minus


def _rank_complement(nu: Cochain, t0) -> np.ndarray:
    """Orthonormal complement of the span of the coboundary rows and the
    primitive's row, restricted to the six edges of t0."""
    edges6 = faces(t0, 1)
    rows = [[float(vertex_coboundary_sign(i, b)) for b in edges6] for i in t0]
    nu_row = np.array([nu[b] for b in edges6])
    rows.append(nu_row / np.abs(nu_row).max())  # as large as the +-1 rows: same span
    B = np.array(rows, dtype=complex).T
    u, s, _ = np.linalg.svd(B)
    rank = svd_rank(s)
    if rank != 4:
        raise DegenerateCocycleError(f"reference span at {t0} has rank {rank}, expected 4")
    return u[:, rank:]


def pair_ratio(alpha: dict, Q: np.ndarray, k1, k2, t0) -> complex:
    """Ratio rho with (flip k1) - rho * (flip k2) lying in the reference span
    at t0, whose orthonormal complement is Q."""
    edges6 = faces(t0, 1)
    u = np.array([(-alpha[b] if k1 in b else alpha[b]) for b in edges6])
    v = np.array([(-alpha[b] if k2 in b else alpha[b]) for b in edges6])
    w1, w2 = Q.conj().T @ u, Q.conj().T @ v
    if np.linalg.norm(w2) <= 1e-10 * np.linalg.norm(v):
        raise DegenerateCocycleError(f"ratio at {t0} is indeterminate")
    rho = (w2.conj() @ w1) / (w2.conj() @ w2)
    resid = np.linalg.norm(w1 - rho * w2)
    if resid > 1e-8 * max(np.linalg.norm(w1), np.linalg.norm(w2)):
        raise BranchInconsistencyError(f"rank condition fails at {t0}")
    return complex(rho)


def reconstruct_F(omega: Cochain, choice: SqrtChoice | None = None) -> WeightMatrix:
    """Gauge-fixed weight matrix whose double ratios match the cocycle's.

    The fixed branch determines which of the finitely many compatible
    matrices is produced; all of them yield this cocycle back.
    """
    if len(omega.vertices) != 5 or omega.degree != 2:
        raise ValueError("expected a degree-2 cochain on five vertices")
    if choice is None:
        choice = SqrtChoice.principal(omega)
    # F depends on ratios only.  Scaling omega by 4^-k and the roots by 2^-k
    # brings max|omega| near 1 exactly, so products of four roots stay in range.
    k = math.frexp(omega.max_abs())[1] // 2
    omega = omega.scaled(2.0**-k).scaled(2.0**-k)
    choice = SqrtChoice({f: r * 2.0**-k for f, r in choice.roots.items()})
    kappa(omega, choice)  # probe the common degeneracies early, by name
    nu = cochain_primitive(omega)
    alpha = alpha_coefficients(omega, choice)
    verts = omega.vertices
    complements = {}  # built on first use: a failing tetrahedron raises in pair order
    ratios = []
    for rows, cols in CANONICAL_RATIO_PAIRS:
        # the double ratio at matrix positions (rows, cols) is a quotient of
        # two pair ratios, at the tetrahedra opposite the two column vertices
        k1, k2 = (verts[r - 1] for r in rows)
        pair = []
        for c in cols:
            t0 = tuple(v for v in verts if v != verts[c - 1])
            if t0 not in complements:
                complements[t0] = _rank_complement(nu, t0)
            pair.append(pair_ratio(alpha, complements[t0], k1, k2, t0))
        ratios.append(pair[0] / pair[1])
    return solve_F_from_ratios(verts, ratios)
