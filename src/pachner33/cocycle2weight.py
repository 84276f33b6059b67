"""From a degree-2 cocycle on a 4-simplex back to a weight matrix.

Square roots of the cocycle's face values combine the edge operators into
operators whose component at each tetrahedron is purely a derivative or
purely a generator.  Ratios between sign-flipped variants of those
combinations recover the weight matrix's double ratios, and a gauge-fixed
representative is solved from five of them.  Each step is a closed form:
pair ratios are read off coboundaries, with no SVD or least squares.
Each takes a stack of rows (cochains, families, roots) and raises at its
first failing check, in code order, naming that check's first failing row.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

import numpy as np

from .edgeops import extract_w_cocycles
from .errors import BranchInconsistencyError, ConsistencyError, DegenerateCocycleError
from .simplicial import coboundary_matrix, coboundary_terms, faces, roundtrip_residual
from .weights import CANONICAL_RATIO_PAIRS, solve_F_from_ratios

COMPONENT_TOL = 1e-8


def _values(omegas, roots=None) -> tuple:
    """Face values and roots (principal unless given), (B, 10), in face order."""
    w = np.array([[om.values[c] for c in om.cells()] for om in omegas], dtype=complex)
    return w, np.sqrt(w) if roots is None else np.asarray(roots, dtype=complex)


def _check_roots(omegas, w: np.ndarray, r: np.ndarray):
    mag = np.abs(w)
    bad = (mag == 0.0) | (np.abs(r * r - w) > 1e-12 * mag)
    if bad.any():
        k, i = np.argwhere(bad)[0]  # the first bad row's first bad face
        cell = omegas[k].cells()[i]
        if mag[k, i] == 0.0:
            raise DegenerateCocycleError(f"cocycle vanishes on face {cell}")
        raise ConsistencyError(f"root at face {cell} does not square to the value")


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
# a flip at vertex position m negates the roots at the two faces of
# FACE_FLIPS[m], m with the first two other vertices and m with the last two;
# that negates the coefficients at the four edges through m, EDGE_FLIPS[m]
FACE_FLIPS = np.array(
    [[set(f) in ({m, *o[:2]}, {m, *o[2:]}) for f in FACE_INDEX]
     for m, o in enumerate([v for v in range(5) if v != m] for m in range(5))]
)
EDGE_FLIPS = np.array([[m in e for e in EDGE_INDEX] for m in range(5)])


def _alpha(r: list) -> list:
    """Edge coefficients in edge order from the roots in face order, each a
    left-to-right product of Python scalars, rounded as a loop rounds it."""
    return [r[a] * r[b] * r[c] * r[d] for a, b, c, d in ALPHA_ROOTS]


def alpha_stack(omegas, roots=None) -> np.ndarray:
    """Edge coefficients in edge (lex) order, (B, 10): the product of the
    four roots at faces that either contain the edge or are disjoint from it."""
    w, r = _values(omegas, roots)
    _check_roots(omegas, w, r)
    return np.array([_alpha(row) for row in r.tolist()])


def _combine(fams, alpha: np.ndarray) -> np.ndarray:
    """The (beta, gamma) vectors of sum_j alpha[b, ..., j] times family b's
    row j, summed left to right, for alpha (B, 10) or (B, n, 10)."""
    rows = np.array([fam.matrix for fam in fams]).reshape(len(fams), *[1] * (alpha.ndim - 2), 10, 10)
    return sum(alpha[..., j, None] * rows[..., j, :] for j in range(10))


def superisotropic_fs(fams, omegas, roots=None) -> np.ndarray:
    """f = sum of alpha_b d_b per family as (beta, gamma) rows in generator
    order, (B, 10); every tetrahedron pairs it to zero with itself."""
    alpha = alpha_stack(omegas, roots)  # a vanishing face raises here, before the comparison divides by it
    for omega, ref in zip(omegas, extract_w_cocycles(fams)):
        if roundtrip_residual(ref, omega) > 1e-8:  # ref's largest value is 1
            raise ConsistencyError("cocycle does not belong to this operator family")
    return _combine(fams, alpha)


def component_types(f: np.ndarray, simplices) -> np.ndarray:
    """Whether each row of f (B, 10) multiplies at each tetrahedron of its
    simplex, in generator order, rather than differentiates, (B, 5); a mixed
    or vanishing component is an error, the first in row-major order."""
    small = np.abs(f.reshape(-1, 2, 5)) <= COMPONENT_TOL * np.abs(f).max(axis=1)[:, None, None]
    bad = small[:, 0] == small[:, 1]
    if bad.any():
        k, i = np.argwhere(bad)[0]
        t = faces(simplices[k], 3)[i]
        if small[k, 0, i]:
            raise DegenerateCocycleError(f"operator vanishes at {t}")
        raise BranchInconsistencyError(f"mixed component at {t}")
    return small[:, 0]


def calibrate_sqrt_choices(fams, omegas) -> np.ndarray:
    """Principal roots, (B, 10), with their signs flipped so that every
    component of each family's f differentiates."""
    _, roots = _values(omegas)
    f = superisotropic_fs(fams, omegas, roots)
    # generator i is the tetrahedron opposite vertex position 4 - i
    flips = component_types(f, [fam.simplex for fam in fams])[:, ::-1]
    if (flips.sum(axis=1) % 2 != 0).any():
        raise BranchInconsistencyError("odd component-type pattern")
    return np.where(np.logical_xor.reduce(flips[:, :, None] & FACE_FLIPS, axis=1), -roots, roots)


def build_f_ts(fams, omegas, roots) -> np.ndarray:
    """The five variants of each family's f as a (B, 5, 10) array: row i
    differentiates only at generator i.

    Row i flips the roots at the vertex opposite generator i, which negates
    the coefficients at the four edges through it and turns every other
    component into multiplication.
    """
    alpha = alpha_stack(omegas, roots)[:, None]
    f = _combine(fams, np.where(EDGE_FLIPS[::-1], -alpha, alpha))
    # row i's stray parts: gamma at generator i, beta elsewhere
    stray = np.abs(np.where(np.eye(5, dtype=bool), f[..., 5:], f[..., :5]))
    bad = stray > COMPONENT_TOL * np.abs(f).max(axis=2, keepdims=True)
    if bad.any():
        k, _, i = np.argwhere(bad)[0]  # the first in row-major order
        raise BranchInconsistencyError(
            f"component at {faces(fams[k].simplex, 3)[i]} is not of the expected kind; "
            "calibrate the branch first"
        )
    return f


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


def kappas(omegas, roots=None) -> list:
    """The ratio tying together the two variants that multiply at the last
    tetrahedron, in closed form, per cochain."""
    w, r = _values(omegas, roots)
    _check_roots(omegas, w, r)
    return [_kappa(*row) for row in zip(w.tolist(), r.tolist())]


# coboundary from a tetrahedron's six edges to its four faces, both in lex order
TETRA_COBOUNDARY = coboundary_matrix(range(4), 1)
_TETRA_COBOUNDARY_T = TETRA_COBOUNDARY.T.astype(complex)  # as pair_ratios multiplies by it
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
    edge_ix = np.array([[EDGE_INDEX[e] for e in combinations(t, 2)] for t in tetra])
    face_ix = np.array([[FACE_INDEX[f] for f in combinations(t, 3)] for t in tetra])
    flipped = np.array([rows for rows, _ in keys]) - 1  # the two row vertices' positions
    flips = EDGE_FLIPS[flipped[:, :, None], edge_ix[:, None, :]]
    return tetra, edge_ix, face_ix, flips, quotients


RATIO_TETRA, RATIO_EDGES, RATIO_FACES, RATIO_FLIPS, RATIO_QUOTIENTS = _ratio_tables()


@functools.cache
def _ratio_tetrahedra(vertices) -> tuple:
    """RATIO_TETRA on a simplex's own vertices, for the messages."""
    return tuple(tuple(vertices[v] for v in t) for t in RATIO_TETRA)


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
        d = flips @ _TETRA_COBOUNDARY_T
        wc = w.conj()
        ww = (wc[:, None, :] @ w[:, :, None]).real
        ab = d - (d @ wc[:, :, None]) * w[:, None, :] / ww
        a, b = ab[:, 0], ab[:, 1]
        bc = b.conj()[:, None, :]
        rho = (bc @ a[:, :, None])[:, 0, 0] / (bc @ b[:, :, None])[:, 0, 0]
        resid = a - rho[:, None] * b
    # the norms of a, b, the residual and the second flip, per tetrahedron
    parts = np.concatenate((ab.reshape(-1, 8), resid, flips[:, 1]), axis=1)
    na, nb, nr, nf = np.sqrt(np.add.reduceat(np.square(np.abs(parts)), [0, 4, 8, 12], axis=1)).T
    indeterminate = nb <= 2e-10 * nf
    bad = indeterminate | (nr > 1e-8 * np.maximum(na, nb))
    if bad.any():
        k = int(np.argmax(bad))
        if indeterminate[k]:
            raise DegenerateCocycleError(f"ratio at {tetrahedra[k]} is indeterminate")
        raise BranchInconsistencyError(f"rank condition fails at {tetrahedra[k]}")
    return rho


def reconstruct_Fs(omegas, roots=None) -> list:
    """Gauge-fixed weight matrices whose double ratios match the cocycles'.

    The branch, roots in face order, determines which of the finitely many
    compatible matrices is produced; all of them yield the cocycle back.
    The checks run on the stack, stage by stage; products and quotients of
    Python scalars, which fix the bits, run per cochain.
    """
    for omega in omegas:
        if len(omega.vertices) != 5 or omega.degree != 2:
            raise ValueError("expected a degree-2 cochain on five vertices")
    w, r = _values(omegas, roots)
    # F depends on ratios only.  Scaling omega by 4^-k and the roots by 2^-k
    # brings max|omega| (hypot, the scalar abs) near 1 exactly, so products
    # of four roots stay in range.
    scale = 2.0 ** -(np.frexp(np.hypot(w.real, w.imag).max(axis=1, keepdims=True))[1] // 2)
    w, r = w * scale * scale, r * scale
    _check_roots(omegas, w, r)
    ws, rs = w.tolist(), r.tolist()
    for row in zip(ws, rs):
        _kappa(*row)  # probe the common degeneracies early, by name
    # a primitive's least-squares residual: the Hodge Laplacian here is 5
    x = w[:, DEFECT_TERMS]
    delta = x[..., 0] - x[..., 1] + x[..., 2] - x[..., 3]
    for d, v in zip(abs(delta).tolist(), abs(w).tolist()):
        if math.hypot(*d) / math.sqrt(5) > 1e-9 * math.hypot(*v):
            raise ValueError("cochain has no primitive: not a cocycle")
    alpha = np.array([_alpha(row) for row in rs])[:, RATIO_EDGES][:, :, None]
    flips = np.where(RATIO_FLIPS, -alpha, alpha).reshape(-1, 2, 6)
    tetra = [t for om in omegas for t in _ratio_tetrahedra(om.vertices)]
    rho = pair_ratios(flips, w[:, RATIO_FACES].reshape(-1, 4), tetra).reshape(-1, 9).tolist()
    # Python quotients: numpy's array division rounds some differently
    return [
        solve_F_from_ratios(om.vertices, [r[i] / r[j] for i, j in RATIO_QUOTIENTS])
        for om, r in zip(omegas, rho)
    ]


def reconstruct_F(omega, roots=None):
    """One cochain's gauge-fixed weight matrix (see reconstruct_Fs)."""
    return reconstruct_Fs([omega], None if roots is None else [roots])[0]
