"""Cochains on simplices and the tools the weight machinery needs.

A complex here is just the full k-skeleton of a single simplex, described by
its sorted vertex tuple.  Cochains of degree d assign complex values to the
(d+1)-subsets of the vertices, keyed by sorted tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations
from typing import Mapping

import numpy as np


def faces(vertices, k: int):
    """All sorted (k+1)-subsets of a sorted vertex tuple."""
    return list(combinations(tuple(vertices), k + 1))


def permutation_sign(seq) -> int:
    """Sign of the permutation taking sorted(seq) to seq; 0 on repeats."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
            elif seq[i] == seq[j]:
                return 0
    return sign


@dataclass(frozen=True)
class Cochain:
    """A degree-d cochain on the full simplex with the given vertices."""

    vertices: tuple[int, ...]
    degree: int
    values: Mapping[tuple[int, ...], complex] = field(default_factory=dict)

    def __post_init__(self):
        verts = tuple(sorted(int(v) for v in self.vertices))
        object.__setattr__(self, "vertices", verts)
        cells = faces(verts, self.degree)
        members = dict(zip(cells, cells))
        vals = {}
        for cell, v in self.values.items():
            if cell not in members:  # an unsorted cell, or none
                cell = tuple(sorted(int(i) for i in cell))
                if cell not in members:
                    raise ValueError(f"{cell} is not a {self.degree}-cell of {verts}")
            vals[members[cell]] = complex(v)
        for cell in cells:
            vals.setdefault(cell, 0.0 + 0.0j)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, cell) -> complex:
        try:  # most keys are cells as the table holds them
            return self.values[cell]
        except (KeyError, TypeError):  # unsorted, or a list
            return self.values[tuple(sorted(cell))]

    def cells(self):
        return faces(self.vertices, self.degree)

    def as_vector(self) -> np.ndarray:
        return np.array([self.values[c] for c in self.cells()], dtype=complex)

    def max_abs(self) -> float:
        return max((abs(v) for v in self.values.values()), default=0.0)

    def scaled(self, factor: complex) -> "Cochain":
        return Cochain(self.vertices, self.degree, {c: factor * v for c, v in self.values.items()})

    def restrict(self, sub_vertices) -> "Cochain":
        """Restriction to the full subsimplex on a subset of the vertices."""
        sub = tuple(sorted(int(v) for v in sub_vertices))
        if not set(sub) <= set(self.vertices):
            raise ValueError("restriction target is not a subsimplex")
        vals = {c: self.values[c] for c in faces(sub, self.degree)}
        return Cochain(sub, self.degree, vals)


@cache
def coboundary_terms(vertices, degree: int) -> np.ndarray:
    """Row f, column k: the index of (degree+1)-cell f with its k-th vertex
    dropped, a term of sign (-1)^k; cells in lex order.  Cached, read-only."""
    index = {c: i for i, c in enumerate(faces(vertices, degree))}
    drops = [[f[:k] + f[k + 1 :] for k in range(degree + 2)] for f in faces(vertices, degree + 1)]
    terms = np.array([[index[g] for g in row] for row in drops], dtype=np.int64)
    terms = terms.reshape(-1, degree + 2)  # two axes even with no (degree+1)-cells
    terms.flags.writeable = False
    return terms


@cache
def coboundary_matrix(vertices, degree: int) -> np.ndarray:
    """The coboundary on degree-cochains as a +-1 matrix.  Cached, read-only."""
    terms = coboundary_terms(vertices, degree)
    D = np.zeros((len(terms), len(faces(vertices, degree))), dtype=np.int64)
    D[np.arange(len(terms))[:, None], terms] = (-1) ** np.arange(degree + 2)
    D.flags.writeable = False
    return D


def coboundary(c: Cochain) -> Cochain:
    """Simplicial coboundary of any degree, its terms added left to right."""
    x, terms = c.as_vector(), coboundary_terms(c.vertices, c.degree)
    d = x[terms[:, 0]]
    for k in range(1, c.degree + 2):
        d = d - x[terms[:, k]] if k % 2 else d + x[terms[:, k]]
    return Cochain(c.vertices, c.degree + 1, dict(zip(faces(c.vertices, c.degree + 1), d)))


def cocycle_defect(c: Cochain) -> np.ndarray:
    """The alternating four-term sum on every tetrahedron, in lex order."""
    if c.degree != 2:
        raise ValueError("cocycle test applies to degree-2 cochains")
    return coboundary(c).as_vector()


def is_cocycle(c: Cochain, rel_tol: float = 1e-12) -> bool:
    """Check the alternating four-term sum on every tetrahedron."""
    return not np.any(np.abs(cocycle_defect(c)) > rel_tol * max(c.max_abs(), 1e-300))


def roundtrip_residual(omega: Cochain, back: Cochain) -> float:
    """max|omega - c*back| / max|omega|, with c matching the two at omega's
    largest component."""
    top = max(omega.cells(), key=lambda s: abs(omega[s]))
    scale = omega[top] / back[top]
    return max(abs(omega[s] - scale * back[s]) for s in back.cells()) / omega.max_abs()


def random_annulus(rng: np.random.Generator) -> complex:
    """Point of the annulus 0.5 <= |z| <= 1.5, uniform in area."""
    r = np.sqrt(rng.uniform(0.25, 2.25))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return r * np.exp(1j * theta)


def random_cocycle(vertices, rng: np.random.Generator) -> Cochain:
    """A 2-cocycle built as the coboundary of a random 1-cochain.

    Cohomology of a simplex is trivial, so this reaches every cocycle; the
    annulus keeps components away from zero without growing the dynamic range.
    """
    nu = Cochain(
        vertices, 1, {e: random_annulus(rng) for e in faces(tuple(vertices), 1)}
    )
    return coboundary(nu)


def cochain_primitive(omega: Cochain, rel_tol: float = 1e-9) -> Cochain:
    """Solve delta(nu) = omega for a 1-cochain nu (least squares).

    The residual check rejects a non-cocycle; on a 4-simplex the residual
    is |delta omega| / sqrt(5), which reconstruct_F checks directly.
    """
    if omega.degree != 2:
        raise ValueError("primitive is defined for degree-2 cochains")
    A = coboundary_matrix(omega.vertices, 1)
    b = omega.as_vector()
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = np.linalg.norm(A @ x - b)
    if resid > rel_tol * max(np.linalg.norm(b), 1e-300):
        raise ValueError("cochain has no primitive: not a cocycle")
    return Cochain(omega.vertices, 1, dict(zip(faces(omega.vertices, 1), x)))
