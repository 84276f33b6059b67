"""Edge operators of a 4-simplex weight and the cocycle they determine.

Each edge of the simplex carries a distinguished combination of the weight's
annihilating operators, supported on the three tetrahedra around that edge.
Scaling the ten combinations so that every vertex-coboundary sum vanishes
pins the family down to one overall factor; the leftover linear dependence
among the scaled operators is measured by a degree-1 cochain whose
coboundary is the weight's 2-cocycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConsistencyError, DegenerateWeightError, NumericsError
from .operators import RANK_RTOL, svd_rank
from .simplicial import Cochain, coboundary_matrix, faces
from .weights import WeightMatrix

# vertex positions of the ten edges in edge-lex order; position k also names
# the tetrahedron omitting vertex k, so these are each edge's non-star rows
EDGE_POS = np.array(list(combinations(range(5), 2)))
STAR_POS = np.array([[k for k in range(5) if k not in e] for e in EDGE_POS])
# SIGNS[v, j]: coefficient of edge j in the coboundary of vertex v's indicator
SIGNS = coboundary_matrix(range(5), 0).T
# Flat index tables.  BLOCK: each edge's 2x3 star block (rows at its two
# vertices, columns at its star) among a weight's 25 entries.  CROSS: the
# two factors of each product in its rows' cross product, minuends first.
BLOCK = np.arange(25).reshape(5, 5)[STAR_POS[:, None, :], EDGE_POS[:, :, None]].reshape(10, 6)
CROSS = np.array([[1, 2, 0, 2, 0, 1], [5, 3, 4, 4, 5, 3]])
# Sources, 0 an exact zero: of C's and the raw rows' entries in [0, kernel
# (30), G (50)], the raw rows in generator order (see _raw_edge_operators);
# of the scale system's in [0, raw (100)], row 10 v + i, column j SIGNS[v, j] raw[j, i].
_rows, _at = np.arange(10)[:, None], np.arange(1, 31).reshape(10, 3)
C_FROM, RAW_FROM = np.zeros((10, 5), dtype=int), np.zeros((10, 10), dtype=int)
C_FROM[_rows, STAR_POS] = RAW_FROM[_rows, 4 - STAR_POS] = _at
RAW_FROM[_rows, 9 - STAR_POS] = 31 + 5 * _rows + STAR_POS
SYSTEM_FROM = np.where(SIGNS[:, None] != 0, np.arange(1, 101).reshape(10, 10).T, 0).reshape(50, 10)
SYSTEM_SIGN = np.broadcast_to(SIGNS[:, None], (5, 10, 10)).reshape(50, 10)


@dataclass(frozen=True, eq=False)
class EdgeOperatorFamily:
    """The ten edge operators of one simplex: row j of `matrix` is the
    (beta, gamma) vector of the j-th edge in edge-lex order, its columns in
    generator order.  The first extraction keeps the family's cocycle in
    `cocycle` (see extract_w_cocycles)."""

    simplex: tuple
    matrix: np.ndarray
    cocycle: Cochain | None = field(default=None, init=False, repr=False)

    @property
    def edges(self) -> list:
        return faces(self.simplex, 1)


@np.errstate(all="ignore")  # a degenerate star's row, or a weight beyond the float range, is not finite
def _raw_edge_operators(E: np.ndarray) -> tuple:
    """The weight-annihilating operators supported on each edge's star, for
    a stack of weight matrices E (B, 5, 5): a (B, 10, 10) array, one
    (beta, gamma) row per edge in edge-lex order, and each star
    intersection's dimension, (B, 10).

    Within the five-dimensional span of (derivative + F·generator) rows, the
    combinations whose derivative and generator coefficients both vanish at
    the two tetrahedra missing the edge form a line: the kernel of a 2x3
    block, spanned by the cross product of its rows.  Each operator is
    scaled so its largest coefficient equals 1; where the dimension is not
    1 its row is not meaningful.
    """
    # rows: generator coefficient at each non-star tetrahedron, unknowns being
    # the combination coefficients on the three star rows
    M = E.reshape(len(E), 25)[:, BLOCK]
    # a power of two per block keeps the products in range and every bit
    M = M * 2.0 ** -np.frexp(np.abs(M).max(axis=2))[1][..., None]
    # the cross product of the two rows, bilinear: M @ kernel = 0
    P = M[..., CROSS[0]] * M[..., CROSS[1]]
    kernel = P[..., :3] - P[..., 3:]
    # |r1 x r2| = s1 s2 (Cauchy-Binet): dimension 2 for parallel rows or one
    # zero row, 3 for two; the three norms taken as np.linalg.norm takes them
    W = np.concatenate((M, kernel), axis=2).reshape(len(E), 10, 3, 3)
    n1, n2, nk = np.sqrt((W.conj() * W).real.sum(axis=3)).transpose(2, 0, 1)
    dims = 1 + (nk <= RANK_RTOL * n1 * n2) + (n1 + n2 == 0)
    K = np.concatenate((np.zeros((len(E), 1)), kernel.reshape(len(E), 30)), axis=1)
    # one matrix-vector product per edge, as unstacked
    G = E.transpose(0, 2, 1)[:, None] @ K[:, C_FROM, None]
    # operator slots in generator order: the tetrahedron omitting vertex k is generator 4 - k
    raw = np.concatenate((K, G.reshape(len(E), 50)), axis=1)[:, RAW_FROM]
    return raw / _top(raw), dims


def _top(x: np.ndarray) -> np.ndarray:
    """Each row's first entry of largest modulus, along x's last axis kept as 1."""
    at = np.argmax(np.abs(x), axis=-1) + np.arange(0, x.size, x.shape[-1]).reshape(x.shape[:-1])
    return x.reshape(-1)[at, None]


def _check_stars(wms, dims):
    """Raise on the first weight's first edge whose star intersection is not a line."""
    if (dims != 1).any():
        k, j = np.argwhere(dims != 1)[0]
        edge, dim = faces(wms[k].simplex, 1)[j], dims[k, j]
        raise DegenerateWeightError(f"edge {edge}: star intersection has dimension {dim}, expected 1")


def _check_range(wms, bad):
    """Raise on the first weight with a value that bad, (B, ...), marks as beyond the float range."""
    if bad.any():
        raise NumericsError(f"weight on {wms[np.argwhere(bad)[0, 0]].simplex} is beyond the float range")


def raw_edge_operator(wm: WeightMatrix) -> np.ndarray:
    """One weight's raw edge operators (see _raw_edge_operators), (10, 10);
    raises on the first edge whose star intersection is not a line."""
    raw, dims = _raw_edge_operators(wm.entries[None])
    _check_stars([wm], dims)
    return raw[0]


def normalize_families(wms, raw=None) -> np.ndarray:
    """The normalized edge operator families of a sequence of weights, as a
    (B, 10, 10) array; `raw` is the weights' _raw_edge_operators, if built.

    Each weight's raw operators are scaled so all five vertex coboundaries
    vanish.  The scales solve a homogeneous linear system, one block of
    coefficient equations per vertex; a one-dimensional kernel is required.
    The kernel vector is divided by its largest entry, so the dominant edge
    scale is 1.  The systems are solved by one stacked SVD, whose bits are
    those of each SVD taken alone.  Errors come check by check, for the
    first failing weight: star dimensions, the float range, then kernel
    dimensions.
    """
    raw, dims = _raw_edge_operators(np.array([wm.entries for wm in wms])) if raw is None else raw
    _check_stars(wms, dims)
    _check_range(wms, ~np.isfinite(raw))
    # exact +0 where an edge misses the vertex (s * x can give -0): a signed
    # zero can flip an SVD reflector and change the kernel's last bits
    R = np.concatenate((np.zeros((len(raw), 1)), raw.reshape(len(raw), 100)), axis=1)
    _, s, vh = np.linalg.svd(R[:, SYSTEM_FROM] * SYSTEM_SIGN, full_matrices=False)  # the same vh as the full SVD
    k = 10 - svd_rank(s)
    if (k != 1).any():
        raise DegenerateWeightError(f"edge scale system has kernel dimension {k[np.argmax(k != 1)]}, expected 1")
    lam = vh[:, -1].conj()
    return (lam / _top(lam))[:, :, None] * raw


def normalize_family(wm: WeightMatrix) -> EdgeOperatorFamily:
    """One weight's normalized family (see normalize_families)."""
    return EdgeOperatorFamily(wm.simplex, normalize_families([wm])[0])


def extract_w_cocycles(fams) -> list:
    """The degree-2 cocycle measuring each family's one essential dependence,
    one Cochain per family; a family keeps its cocycle once extracted.

    The kernel K of (scalars per edge) -> (combined operator) is 5-dimensional:
    four dimensions of vertex coboundaries, which the coboundary D kills, plus
    one more class.  Off the four, D is sqrt(5) times an isometry (the edge
    Hodge Laplacian of a 4-simplex is 5), so the cocycle is DK's first left
    singular vector, scaled so its largest component is exactly 1; never 0, as
    K meets those six dimensions, where |Dv| = sqrt(5)|v|.  A power of two per
    column of the family leaves K unchanged and makes it scale-free.  Each
    step is one stacked SVD, whose bits are those of each SVD taken alone.
    Errors come check by check, for the first failing family: the float
    range, kernel dimensions, then coboundary quotients.
    """
    todo = [fam for fam in fams if fam.cocycle is None]
    if todo:
        M = np.array([fam.matrix for fam in todo])
        e = np.frexp(np.abs(M).max(axis=1, keepdims=True))[1]
        _check_range(todo, e < -1023)  # where 2.0 ** -e overflows
        M = M * 2.0 ** -e
        _, s, vh = np.linalg.svd(M.transpose(0, 2, 1))
        k = 10 - svd_rank(s)
        if (k != 5).any():
            raise DegenerateWeightError(f"edge operators have kernel dimension {k[np.argmax(k != 5)]}, expected 5")
        K = vh[:, 5:].conj().transpose(0, 2, 1)  # each kernel's basis, as columns
        u, s, _ = np.linalg.svd(coboundary_matrix(range(5), 1) @ K)
        if (svd_rank(s, 1e-8) > 1).any():
            raise ConsistencyError("coboundary quotient of the kernel is not a line")
        omega = u[:, :, 0] / _top(u[:, :, 0])
        for fam, row in zip(todo, omega.tolist()):
            object.__setattr__(fam, "cocycle", Cochain(fam.simplex, 2, dict(zip(faces(fam.simplex, 2), row))))
    return [fam.cocycle for fam in fams]


def extract_w_cocycle(fam: EdgeOperatorFamily) -> Cochain:
    """One family's cocycle (see extract_w_cocycles), extracted once."""
    return extract_w_cocycles([fam])[0]
