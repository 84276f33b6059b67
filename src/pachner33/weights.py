"""Gaussian 4-simplex weights built from a skew matrix over 2-face values.

Each 3-face (tetrahedron) of a 4-simplex carries one Grassmann generator.
Rows and columns of the weight matrix follow the opposite-vertex order: row k
belongs to the tetrahedron obtained by dropping the k-th vertex, so for
simplex 12345 the order is 2345, 1345, 1245, 1235, 1234.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConsistencyError, DegenerateWeightError
from .grassmann import GeneratorSpace, GrassmannElement, exp_even
from .simplicial import SIMPLEX, Cochain, faces, permutation_sign, uniform

SKEW_TOL = 1e-12

# Five row/column index pairs (1-based, opposite-vertex order) whose double
# ratios are multiplicatively independent: with the gauge F12=F23=F34=F45=1,
# F15=-1 they determine the remaining five entries one at a time (see
# solve_F_from_ratios).  Beware that ratio pairs sharing rows or columns can
# satisfy product identities and fail to be independent.
CANONICAL_RATIO_PAIRS = (
    ((1, 3), (2, 5)),
    ((2, 5), (3, 4)),
    ((1, 4), (2, 3)),
    ((1, 3), (2, 4)),
    ((2, 4), (3, 5)),
)


def ratio_positions(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns, 0-based and (N, 4), of the entries in the double
    ratios of N (rows, cols) pairs given 1-based: (r1, c1) and (r2, c2),
    the numerator, then (r1, c2) and (r2, c1), the denominator."""
    p = np.asarray(pairs).reshape(-1, 2, 2) - 1
    return p[:, 0, [0, 1, 0, 1]], p[:, 1, [0, 1, 1, 0]]


CANONICAL_POSITIONS = ratio_positions(CANONICAL_RATIO_PAIRS)
# the 2-face at lex index f misses the vertex positions FACE_POS[f] = (k, l),
# k < l; its value sits at (k, l) of the matrix with sign (-1)^(k+l)
FACE_POS = np.array([[k for k in range(5) if k not in f] for f in combinations(range(5), 3)])
FACE_SIGN = (-1.0) ** FACE_POS.sum(axis=1)


def face_values(E: np.ndarray) -> np.ndarray:
    """The ten 2-face values, in lex order, of a stack of matrices (..., 5, 5)."""
    return FACE_SIGN * E[..., FACE_POS[:, 0], FACE_POS[:, 1]]


def opposite_tetrahedra(simplex) -> list[tuple[int, ...]]:
    """3-faces in opposite-vertex order: k-th entry omits the k-th vertex."""
    verts = tuple(sorted(simplex))
    return [tuple(v for v in verts if v != verts[k]) for k in range(len(verts))]


def tetra_space(simplex) -> GeneratorSpace:
    return GeneratorSpace(tuple(opposite_tetrahedra(simplex)))


def _five(simplex) -> tuple[int, ...]:
    verts = tuple(sorted(int(v) for v in simplex))
    if len(verts) != 5 or len(set(verts)) != 5:
        raise ValueError("weight matrix needs 5 distinct vertices")
    return verts


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Skew 5x5 matrix of 2-face values in opposite-vertex ordering."""

    simplex: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        verts = _five(self.simplex)
        E = np.asarray(self.entries, dtype=complex)
        if E.shape != (5, 5):
            raise ValueError("entries must be 5x5")
        scale = max(float(np.abs(E).max()), 1e-300)
        if float(np.abs(E + E.T).max()) > SKEW_TOL * scale:
            raise ValueError("entries must be skew-symmetric")
        object.__setattr__(self, "simplex", verts)
        object.__setattr__(self, "entries", E)

    @property
    def tetrahedra(self) -> list[tuple[int, ...]]:
        return opposite_tetrahedra(self.simplex)

    @staticmethod
    def from_phi(simplex, phi) -> "WeightMatrix":
        """Place the ten 2-face values of phi, keyed by sorted 2-faces, with alternating signs.

        The entry at (k, l), k < l, is (-1)^(k+l) times the value on the
        2-face complementary to the k-th and l-th vertices (see FACE_POS).
        """
        verts = _five(simplex)
        return WeightMatrix.from_faces(verts, [phi[f] for f in faces(verts, 2)])

    @staticmethod
    def from_faces(simplex, values) -> "WeightMatrix":
        """The matrix of the ten 2-face values listed in lex order (see from_phi)."""
        upper = FACE_SIGN * np.array(values, dtype=complex)
        E = np.zeros((5, 5), dtype=complex)
        E[FACE_POS[:, 0], FACE_POS[:, 1]] = upper
        E[FACE_POS[:, 1], FACE_POS[:, 0]] = -upper
        return WeightMatrix(simplex, E)

    def phi(self) -> Cochain:
        """The ten 2-face values read back from the matrix."""
        return Cochain(self.simplex, 2, dict(zip(faces(self.simplex, 2), face_values(self.entries))))

    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())


def random_disc(rng: np.random.Generator, min_abs: float = 0.05) -> complex:
    """A point of the unit disc, uniform in area, at least min_abs from 0."""
    while True:
        z = np.sqrt(uniform(rng, 0.0, 1.0)) * np.exp(2j * np.pi * uniform(rng, 0.0, 1.0))
        if abs(z) >= min_abs:
            return z


def random_weight_matrix(rng: np.random.Generator) -> WeightMatrix:
    """The weight of ten random_disc draws, the 2-faces' values in lex order."""
    return WeightMatrix.from_faces(SIMPLEX, [random_disc(rng) for _ in range(10)])


def quadratic_form(wm: WeightMatrix) -> GrassmannElement:
    """The quadratic Grassmann form of the weight, -(1/2) x.F.x, built as a
    sum over 2-faces with permutation signs."""
    space = tetra_space(wm.simplex)
    verts = wm.simplex
    phi = wm.phi()
    q = GrassmannElement.zero(space)
    for s in faces(verts, 2):
        l, m = (v for v in verts if v not in s)
        eps = permutation_sign((l, *s, m))
        t_without_m = tuple(sorted(s + (l,)))
        t_without_l = tuple(sorted(s + (m,)))
        q = q + GrassmannElement.monomial(space, [t_without_m, t_without_l], eps * phi[s])
    return q


def gaussian_weight(wm: WeightMatrix) -> GrassmannElement:
    return exp_even(quadratic_form(wm))


def weight_operators(wm: WeightMatrix) -> np.ndarray:
    """Row k, in opposite-vertex order, is d/dx_{t_k} + sum_l F[k,l] x_{t_l}
    as a (beta, gamma) row in generator order, (5, 10): t_k, which omits
    vertex k, is generator 4 - k, so the halves are I and F, columns reversed."""
    return np.hstack([np.eye(5, dtype=complex)[:, ::-1], wm.entries[:, ::-1]])


def gauged_entries(wm: WeightMatrix, scales) -> np.ndarray:
    """Congruence F -> AFA for the rescale x_t -> scale_t * x_t, the five
    scales given in generator (lex) order: A is their diagonal in the
    matrix's opposite-vertex order, which is the reverse."""
    scales = np.asarray(scales, dtype=complex)
    for t, lam in zip(faces(wm.simplex, 3), scales):
        if lam == 0:
            raise ValueError(f"gauge scale for {t} must be nonzero")
    A = np.diag(scales[::-1])
    return A @ wm.entries @ A


def apply_gauge_to_F(wm: WeightMatrix, scales) -> WeightMatrix:
    """The gauged weight (see gauged_entries)."""
    return WeightMatrix(wm.simplex, gauged_entries(wm, scales))


def double_ratios(wm: WeightMatrix, positions) -> np.ndarray:
    """(F[r1,c1] F[r2,c2]) / (F[r1,c2] F[r2,c1]) at each of a stack of
    positions (see ratio_positions), gathered at once.  An entry too small
    to divide by raises, naming the first in pair order."""
    rows, cols = positions
    v = wm.entries[rows, cols]
    small = np.abs(v) <= 1e-12 * max(wm.max_abs(), 1e-300)
    if small.any():
        i = int(np.argmax(small))  # the first in pair order
        at = (int(rows.flat[i]) + 1, int(cols.flat[i]) + 1)
        raise DegenerateWeightError(f"matrix entry at {at} too small for a double ratio")
    return v[:, 0] * v[:, 1] / (v[:, 2] * v[:, 3])


def canonical_ratios(wm: WeightMatrix) -> np.ndarray:
    return double_ratios(wm, CANONICAL_POSITIONS)


def solve_F_from_ratios(simplex, ratios) -> WeightMatrix:
    """The unique gauge-fixed skew matrix with the given canonical ratios.

    Gauge: F12 = F23 = F34 = F45 = 1 and F15 = -1 (1-based row order), an odd
    cycle, so any generic matrix is congruent to exactly one of this form.
    The canonical pairs then yield the free entries in triangular order.
    """
    d1, d2, d3, d4, d5 = (complex(r) for r in ratios)
    if 0 in (d1, d2, d3, d4, d5):
        raise DegenerateWeightError("vanishing double ratio")
    e = d1
    c = 1.0 / (e * d2)
    a = 1.0 / (c * d3)
    b = -1.0 / d4
    d = -1.0 / d5
    E = [
        [0.0, 1.0, a, b, -1.0],
        [-1.0, 0.0, 1.0, c, d],
        [-a, -1.0, 0.0, 1.0, e],
        [-b, -c, -1.0, 0.0, 1.0],
        [1.0, -d, -e, -1.0, 0.0],
    ]
    wm = WeightMatrix(simplex, np.array(E, dtype=complex))
    r = np.array(ratios, dtype=complex)
    worst = max((np.abs(canonical_ratios(wm) - r) / np.maximum(np.abs(r), 1e-300)).tolist())
    if worst > 1e-9:
        raise ConsistencyError("triangular ratio solve failed to reproduce its inputs")
    return wm
