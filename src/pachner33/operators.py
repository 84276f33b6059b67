"""First-order operators b.d + c.x on a Grassmann algebra.

An operator is stored as two coefficient vectors indexed like the space's
generators.  The coefficient vector layout used throughout is (beta, gamma)
stacked into a single vector of length 2n, beta first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError
from .grassmann import GeneratorSpace, GrassmannElement, left_derivative

RANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """beta[i] * d/dx_i summed with gamma[i] * x_i over the space's generators."""

    space: GeneratorSpace
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=complex).reshape(self.space.n)
        g = np.asarray(self.gamma, dtype=complex).reshape(self.space.n)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)

    @staticmethod
    def from_vector(space: GeneratorSpace, vec: np.ndarray) -> "LinearOperator":
        vec = np.asarray(vec, dtype=complex).reshape(2 * space.n)
        return LinearOperator(space, vec[: space.n], vec[space.n :])

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.beta, self.gamma])

    def component(self, label) -> tuple[complex, complex]:
        i = self.space.index[tuple(label)]
        return self.beta[i], self.gamma[i]

    def apply(self, f: GrassmannElement) -> GrassmannElement:
        if f.space != self.space:
            raise SpaceMismatchError("operator and element live on different spaces")
        out = GrassmannElement.zero(self.space)
        for i, lab in enumerate(self.space.labels):
            if self.beta[i] != 0:
                out = out + self.beta[i] * left_derivative(lab, f)
            if self.gamma[i] != 0:
                out = out + self.gamma[i] * (GrassmannElement.generator(self.space, lab) * f)
        return out

    def __add__(self, other: "LinearOperator") -> "LinearOperator":
        if other.space != self.space:
            raise SpaceMismatchError("operators live on different spaces")
        return LinearOperator(self.space, self.beta + other.beta, self.gamma + other.gamma)

    def __sub__(self, other: "LinearOperator") -> "LinearOperator":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "LinearOperator":
        return LinearOperator(self.space, complex(scalar) * self.beta, complex(scalar) * self.gamma)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


def scalar_product(d1: LinearOperator, d2: LinearOperator) -> complex:
    """Anticommutator pairing: sum of beta1*gamma2 + beta2*gamma1."""
    if d1.space != d2.space:
        raise SpaceMismatchError("operators live on different spaces")
    return complex(np.dot(d1.beta, d2.gamma) + np.dot(d2.beta, d1.gamma))


def partial_product(d1: LinearOperator, d2: LinearOperator, label) -> complex:
    """Single-generator term of the pairing, before summing over generators."""
    if d1.space != d2.space:
        raise SpaceMismatchError("operators live on different spaces")
    i = d1.space.index[tuple(label)]
    return complex(d1.beta[i] * d2.gamma[i] + d2.beta[i] * d1.gamma[i])


def svd_rank(s: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Number of singular values above rtol times the largest; 0 when all vanish."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def nullspace(A: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the right null space, as columns."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    _, s, vh = np.linalg.svd(A)
    return vh[svd_rank(s, rtol) :].conj().T


def column_space(A: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column space, as columns."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    u, s, _ = np.linalg.svd(A)
    return u[:, : svd_rank(s, rtol)]


def matrix_rank(A: np.ndarray, rtol: float = RANK_RTOL) -> int:
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return svd_rank(np.linalg.svd(A, compute_uv=False), rtol)


def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans, ascending, in radians.

    Small angles come from the sine of the projection residual; arccos alone
    loses half the working precision near zero.
    """
    qa = column_space(A)
    qb = column_space(B)
    k = min(qa.shape[1], qb.shape[1])
    if k == 0:
        return np.zeros(0)
    coss = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    coss = np.clip(coss, 0.0, 1.0)[:k]  # descending cosine = ascending angle
    resid = qb - qa @ (qa.conj().T @ qb)
    sins = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0))[:k]
    return np.where(coss**2 > 0.5, np.arcsin(sins), np.arccos(coss))


def operator_matrix(ops) -> np.ndarray:
    """Stack operator coefficient vectors as rows."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty operator list")
    return np.array([d.vector for d in ops])


def annihilator_of(f: GrassmannElement, rtol: float = RANK_RTOL) -> np.ndarray:
    """All first-order operators killing f, as orthonormal basis columns in
    the (beta, gamma) layout.

    The action of an operator on f is linear in (beta, gamma); the annihilator
    is the null space of the resulting (2^n x 2n) action matrix.
    """
    space = f.space
    n = space.n
    cols = []
    for lab in space.labels:
        cols.append(left_derivative(lab, f))
    for lab in space.labels:
        cols.append(GrassmannElement.generator(space, lab) * f)
    M = np.zeros((1 << n, 2 * n), dtype=complex)
    for j, g in enumerate(cols):
        for mask, v in g.coeffs.items():
            M[mask, j] = v
    return nullspace(M, rtol)
