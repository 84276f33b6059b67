"""From a degree-2 cocycle on a 4-simplex back to a weight matrix.

Square roots of the cocycle's face values combine the edge operators into
operators whose component at each tetrahedron is purely a derivative or
purely a generator.  Ratios between sign-flipped variants of those
combinations recover the weight matrix's double ratios, and a gauge-fixed
representative is solved from five of them.  Each step is a closed form:
pair ratios are read off coboundaries, with no SVD or least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .edgeops import EdgeOperatorFamily, extract_w_cocycle
from .errors import (
    BranchInconsistencyError,
    ConsistencyError,
    DegenerateCocycleError,
)
from .operators import LinearOperator
from .simplicial import Cochain, coboundary_matrix, coboundary_terms, faces
from .weights import CANONICAL_RATIO_PAIRS, WeightMatrix, solve_F_from_ratios, tetra_space

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


def _values(omega: Cochain, choice: SqrtChoice | None = None) -> tuple:
    """The face values and their roots as arrays in face (lex) order."""
    w = omega.as_vector()
    if choice is None:
        return w, np.sqrt(w)
    return w, np.array([choice.roots[f] for f in omega.cells()], dtype=complex)


def _check_roots(cells, w: np.ndarray, r: np.ndarray):
    mag = np.abs(w)
    bad = (mag == 0.0) | (np.abs(r * r - w) > 1e-12 * mag)
    if bad.any():
        i = int(np.argmax(bad))  # the first bad face in face order
        if mag[i] == 0.0:
            raise DegenerateCocycleError(f"cocycle vanishes on face {cells[i]}")
        raise ConsistencyError(f"root at face {cells[i]} does not square to the value")


# a simplex's edges and faces as vertex positions, to their lex indices
EDGE_INDEX = {e: i for i, e in enumerate(combinations(range(5), 2))}
FACE_INDEX = {f: i for i, f in enumerate(combinations(range(5), 3))}
# edge j's coefficient multiplies the roots at ALPHA_ROOTS[j]: the face
# disjoint from the edge, then the three that contain it
ALPHA_ROOTS = tuple(
    (FACE_INDEX[tuple(v for v in range(5) if v not in e)],)
    + tuple(i for f, i in FACE_INDEX.items() if set(e) <= set(f))
    for e in EDGE_INDEX
)


def _alpha(r: list) -> list:
    """Edge coefficients in edge order from the roots in face order, each a
    left-to-right product of Python scalars, rounded as a loop rounds it."""
    return [r[a] * r[b] * r[c] * r[d] for a, b, c, d in ALPHA_ROOTS]


def alpha_coefficients(omega: Cochain, choice: SqrtChoice) -> dict:
    """Edge coefficients: the product of the four roots at faces that either
    contain the edge or are disjoint from it."""
    w, r = _values(omega, choice)
    _check_roots(omega.cells(), w, r)
    return dict(zip(faces(omega.vertices, 1), _alpha(r.tolist())))


def _combine(fam: EdgeOperatorFamily, alpha: dict) -> LinearOperator:
    vec = sum(alpha[b] * row for b, row in zip(fam.edges, fam.matrix))
    return LinearOperator.from_vector(tetra_space(fam.simplex), vec)


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


def calibrate_sqrt_choice(fam: EdgeOperatorFamily, omega: Cochain) -> SqrtChoice:
    """Adjust principal branch signs until every component of f differentiates."""
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
    for t2 in f.space.labels:
        beta, gamma = f.component(t2)
        stray = gamma if t2 == t else beta
        if abs(stray) > COMPONENT_TOL * top:
            raise BranchInconsistencyError(
                f"component at {t2} is not of the expected kind; calibrate the branch first"
            )
    return SuperisotropicOperator(f, alpha)


def _kappa(w: list, r: list) -> complex:
    """kappa from face values and roots listed in face order, with vertex
    positions 0..4 standing for v1..v5."""
    i = FACE_INDEX
    terms = [
        w[i[0, 1, 3]] * r[i[0, 1, 4]] * r[i[2, 3, 4]],
        -w[i[0, 1, 2]] * r[i[0, 1, 4]] * r[i[2, 3, 4]],
        -r[i[0, 1, 2]] * r[i[0, 2, 4]] * r[i[1, 2, 3]] * r[i[1, 3, 4]],
        r[i[0, 1, 3]] * r[i[0, 2, 3]] * r[i[0, 2, 4]] * r[i[1, 3, 4]],
        r[i[0, 1, 3]] * r[i[0, 3, 4]] * r[i[1, 2, 3]] * r[i[1, 2, 4]],
        -r[i[0, 1, 2]] * r[i[0, 2, 3]] * r[i[0, 3, 4]] * r[i[1, 2, 4]],
    ]
    even, odd = sum(terms[:2]), sum(terms[2:])
    lam_plus, lam_minus = even + odd, even - odd
    floor = 1e-12 * max(abs(x) for x in terms)
    if abs(lam_minus) <= floor:
        raise DegenerateCocycleError("lambda_minus = 0, the cocycle is degenerate")
    return lam_plus / lam_minus


def kappa(omega: Cochain, choice: SqrtChoice | None = None) -> complex:
    """The ratio tying together the two variants that multiply at the last
    tetrahedron, in closed form."""
    w, r = _values(omega, choice)
    _check_roots(omega.cells(), w, r)
    return _kappa(w.tolist(), r.tolist())


# coboundary from a tetrahedron's six edges to its four faces, both in lex order
TETRA_COBOUNDARY = coboundary_matrix(range(4), 1)
# the defect's four-term sums on a simplex's five tetrahedra, by face index
DEFECT_TERMS = coboundary_terms(tuple(range(5)), 2)


def _ratio_tables() -> tuple:
    """The pair ratios that the canonical double ratios are quotients of.

    The double ratio at matrix positions (rows, cols) is the quotient of two
    pair ratios, flipped at the two row vertices, at the tetrahedra opposite
    the two column vertices.  The ten ratios hold nine distinct ones; each
    is listed once, in order of first use.  Per ratio: its tetrahedron, its
    six edges and four faces as indices, and which edges each of its two
    flips negates; and per double ratio, the two ratios' indices.
    """
    keys = []  # (rows, column) of each distinct pair ratio, 1-based
    for rows, cols in CANONICAL_RATIO_PAIRS:
        keys += [(rows, c) for c in cols if (rows, c) not in keys]
    quotients = tuple(tuple(keys.index((rows, c)) for c in cols) for rows, cols in CANONICAL_RATIO_PAIRS)
    tetra = [tuple(v for v in range(5) if v != c - 1) for _, c in keys]
    edges = [list(combinations(t, 2)) for t in tetra]
    edge_ix = np.array([[EDGE_INDEX[e] for e in es] for es in edges])
    face_ix = np.array([[FACE_INDEX[f] for f in combinations(t, 3)] for t in tetra])
    flips = np.array([[[k - 1 in e for e in es] for k in rows] for (rows, _), es in zip(keys, edges)])
    return tetra, edge_ix, face_ix, flips, quotients


RATIO_TETRA, RATIO_EDGES, RATIO_FACES, RATIO_FLIPS, RATIO_QUOTIENTS = _ratio_tables()


def pair_ratios(flips: np.ndarray, w: np.ndarray, tetrahedra) -> np.ndarray:
    """Ratios rho[n] with flips[n, 0] - rho[n] * flips[n, 1] in the span of
    the exact cochains and a primitive of omega, on the six edges of
    tetrahedra[n], where w[n] holds omega on its four faces (lex order).

    A tetrahedron has no first cohomology, so a cochain lies in that span
    exactly when its coboundary is parallel to omega on the four faces.  On
    its edges the Hodge Laplacian is 4: a coboundary's norm is twice that of
    the cochain's part off the exact ones.  Every product is a stacked
    matmul, whose bits are those of the same product taken alone; the checks
    run in stack order, so the first failing tetrahedron is named.
    """
    # an indeterminate ratio divides by zero here, before its check raises
    with np.errstate(divide="ignore", invalid="ignore"):
        d = flips @ TETRA_COBOUNDARY.T
        wc = w.conj()
        ww = (wc[:, None, :] @ w[:, :, None]).real
        ab = d - (d @ wc[:, :, None]) * w[:, None, :] / ww
        a, b = ab[:, 0], ab[:, 1]
        bc = b.conj()[:, None, :]
        rho = (bc @ a[:, :, None])[:, 0, 0] / (bc @ b[:, :, None])[:, 0, 0]
        resid = a - rho[:, None] * b
    norms = [[math.hypot(*row) for row in np.abs(x).tolist()] for x in (a, b, flips[:, 1], resid)]
    for t, na, nb, nf, nr in zip(tetrahedra, *norms):
        if nb <= 2e-10 * nf:
            raise DegenerateCocycleError(f"ratio at {t} is indeterminate")
        if nr > 1e-8 * max(na, nb):
            raise BranchInconsistencyError(f"rank condition fails at {t}")
    return rho


def reconstruct_F(omega: Cochain, choice: SqrtChoice | None = None) -> WeightMatrix:
    """Gauge-fixed weight matrix whose double ratios match the cocycle's.

    The fixed branch determines which of the finitely many compatible
    matrices is produced; all of them yield this cocycle back.
    """
    if len(omega.vertices) != 5 or omega.degree != 2:
        raise ValueError("expected a degree-2 cochain on five vertices")
    verts, cells = omega.vertices, omega.cells()
    w, r = _values(omega, choice)
    # F depends on ratios only.  Scaling omega by 4^-k and the roots by 2^-k
    # brings max|omega| near 1 exactly, so products of four roots stay in range.
    scale = 2.0 ** -(math.frexp(omega.max_abs())[1] // 2)
    w, r = w * scale * scale, r * scale
    _check_roots(cells, w, r)
    roots = r.tolist()
    _kappa(w.tolist(), roots)  # probe the common degeneracies early, by name
    # a primitive's least-squares residual: the Hodge Laplacian here is 5
    x = w[DEFECT_TERMS]
    delta = x[:, 0] - x[:, 1] + x[:, 2] - x[:, 3]
    if math.hypot(*abs(delta)) / math.sqrt(5) > 1e-9 * math.hypot(*abs(w)):
        raise ValueError("cochain has no primitive: not a cocycle")
    alpha = np.array(_alpha(roots))[RATIO_EDGES][:, None]
    flips = np.where(RATIO_FLIPS, -alpha, alpha)
    tetra = [tuple(verts[v] for v in t) for t in RATIO_TETRA]
    rho = pair_ratios(flips, w[RATIO_FACES], tetra).tolist()
    # Python quotients: numpy's array division rounds some differently
    return solve_F_from_ratios(verts, [rho[i] / rho[j] for i, j in RATIO_QUOTIENTS])
