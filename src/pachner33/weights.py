"""Gaussian 4-simplex weights built from a skew matrix over 2-face values.

Each 3-face (tetrahedron) of a 4-simplex carries one Grassmann generator.
Rows and columns of the weight matrix follow the opposite-vertex order: row k
belongs to the tetrahedron obtained by dropping the k-th vertex, so for
simplex 12345 the order is 2345, 1345, 1245, 1235, 1234.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegenerateWeightError
from .grassmann import GeneratorSpace, GrassmannElement, exp_even
from .operators import LinearOperator
from .simplicial import Cochain, faces, permutation_sign

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


def opposite_tetrahedra(simplex) -> list[tuple[int, ...]]:
    """3-faces in opposite-vertex order: k-th entry omits the k-th vertex."""
    verts = tuple(sorted(simplex))
    return [tuple(v for v in verts if v != verts[k]) for k in range(len(verts))]


def tetra_space(simplex) -> GeneratorSpace:
    return GeneratorSpace(tuple(opposite_tetrahedra(simplex)))


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Skew 5x5 matrix of 2-face values in opposite-vertex ordering."""

    simplex: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        verts = tuple(sorted(int(v) for v in self.simplex))
        if len(verts) != 5 or len(set(verts)) != 5:
            raise ValueError("weight matrix needs 5 distinct vertices")
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

    def space(self) -> GeneratorSpace:
        return tetra_space(self.simplex)

    @staticmethod
    def from_phi(simplex, phi: Cochain) -> "WeightMatrix":
        """Place the ten 2-face values with alternating signs.

        The entry at (k, l), k < l, is (-1)^(k+l) times the value on the
        2-face complementary to the k-th and l-th vertices.
        """
        verts = tuple(sorted(simplex))
        E = np.zeros((5, 5), dtype=complex)
        for k in range(5):
            for l in range(k + 1, 5):
                comp = tuple(v for v in verts if v not in (verts[k], verts[l]))
                E[k, l] = (-1) ** (k + l) * phi[comp]
                E[l, k] = -E[k, l]
        return WeightMatrix(verts, E)

    def phi(self) -> Cochain:
        """The ten 2-face values read back from the matrix."""
        verts = self.simplex
        vals = {}
        for k in range(5):
            for l in range(k + 1, 5):
                comp = tuple(v for v in verts if v not in (verts[k], verts[l]))
                vals[comp] = (-1) ** (k + l) * self.entries[k, l]
        return Cochain(verts, 2, vals)

    def max_abs(self) -> float:
        return float(np.abs(self.entries).max())


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


def weight_operators(wm: WeightMatrix) -> list[LinearOperator]:
    """The five annihilating operators, k-th row: d/dx_{t_k} + sum_l F[k,l] x_{t_l}."""
    space = tetra_space(wm.simplex)
    tets = wm.tetrahedra
    ops = []
    for k in range(5):
        beta = np.zeros(space.n, dtype=complex)
        gamma = np.zeros(space.n, dtype=complex)
        beta[space.index[tets[k]]] = 1.0
        for l in range(5):
            gamma[space.index[tets[l]]] += wm.entries[k, l]
        ops.append(LinearOperator(space, beta, gamma))
    return ops


def apply_gauge_to_F(wm: WeightMatrix, scales) -> WeightMatrix:
    """Congruence F -> AFA for the rescale x_t -> scale_t * x_t, the five
    scales given in generator (lex) order: A is their diagonal in the
    matrix's opposite-vertex order, which is the reverse."""
    scales = np.asarray(scales, dtype=complex)
    for t, lam in zip(faces(wm.simplex, 3), scales):
        if lam == 0:
            raise ValueError(f"gauge scale for {t} must be nonzero")
    A = np.diag(scales[::-1])
    return WeightMatrix(wm.simplex, A @ wm.entries @ A)


def double_ratio(wm: WeightMatrix, rows, cols) -> complex:
    """(F[r1,c1] F[r2,c2]) / (F[r1,c2] F[r2,c1]), indices 1-based in row order."""
    r1, r2 = (int(r) - 1 for r in rows)
    c1, c2 = (int(c) - 1 for c in cols)
    vals = {
        (r1, c1): wm.entries[r1, c1],
        (r2, c2): wm.entries[r2, c2],
        (r1, c2): wm.entries[r1, c2],
        (r2, c1): wm.entries[r2, c1],
    }
    floor = 1e-12 * max(wm.max_abs(), 1e-300)
    for pos, v in vals.items():
        if abs(v) <= floor:
            raise DegenerateWeightError(
                f"matrix entry at {(pos[0] + 1, pos[1] + 1)} too small for a double ratio"
            )
    return vals[(r1, c1)] * vals[(r2, c2)] / (vals[(r1, c2)] * vals[(r2, c1)])


def canonical_ratios(wm: WeightMatrix) -> list[complex]:
    return [double_ratio(wm, rows, cols) for rows, cols in CANONICAL_RATIO_PAIRS]


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
    E = np.zeros((5, 5), dtype=complex)
    fixed = {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0, (0, 4): -1.0}
    free = {(0, 2): a, (0, 3): b, (1, 3): c, (1, 4): d, (2, 4): e}
    for (i, j), v in {**fixed, **free}.items():
        E[i, j] = v
        E[j, i] = -v
    wm = WeightMatrix(simplex, E)
    derived = canonical_ratios(wm)
    worst = max(abs(x - y) / max(abs(y), 1e-300) for x, y in zip(derived, ratios))
    if worst > 1e-9:
        raise ConsistencyError("triangular ratio solve failed to reproduce its inputs")
    return wm
