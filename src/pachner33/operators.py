"""First-order operators b.d + c.x on a Grassmann algebra.

An operator is one (beta, gamma) row of length 2n, beta first, each half
indexed like the space's generators; a family of operators is a stack of
such rows.  LinearOperator ties one row to its space, to apply it to a
sparse element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import SpaceMismatchError
from .grassmann import GeneratorSpace, GrassmannElement, bit_matrix

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

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.beta, self.gamma])

    def apply(self, f: GrassmannElement) -> GrassmannElement:
        if f.space != self.space:
            raise SpaceMismatchError("operator and element live on different spaces")
        return GrassmannElement(self.space, dict(enumerate(action_matrix(f.dense()) @ self.vector)))


def svd_rank(s: np.ndarray, rtol: float = RANK_RTOL):
    """Number of singular values above rtol times the largest, along the last axis."""
    return (s > rtol * s[..., :1]).sum(axis=-1)


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right null space, as columns."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    _, s, vh = np.linalg.svd(A)
    return vh[svd_rank(s) :].conj().T


def column_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, as columns; of a stack of
    matrices that share one rank, a stack of bases."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    u, s, _ = np.linalg.svd(A)
    ranks = set(np.ravel(svd_rank(s)).tolist())
    if len(ranks) > 1:
        raise ValueError(f"a stack of bases needs one rank, not {sorted(ranks)}")
    return u[..., : max(ranks, default=0)]


def matrix_rank(A: np.ndarray) -> int:
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return int(svd_rank(np.linalg.svd(A, compute_uv=False)))


def principal_angles(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Principal angles between the column spans, ascending, in radians;
    stacks pair slice by slice (see column_space)."""
    return basis_angles(column_space(A), column_space(B))


def basis_angles(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Principal angles between the spans of two orthonormal bases (or
    stacks of them), ascending, in radians.

    Small angles come from the sine of the projection residual; arccos alone
    loses half the working precision near zero.
    """
    k = min(qa.shape[-1], qb.shape[-1])
    if k == 0:
        return np.zeros((*qa.shape[:-2], 0))
    overlap = qa.conj().swapaxes(-1, -2) @ qb
    coss = np.linalg.svd(overlap, compute_uv=False)
    coss = np.clip(coss, 0.0, 1.0)[..., :k]  # descending cosine = ascending angle
    resid = qb - qa @ overlap
    sins = np.sort(np.clip(np.linalg.svd(resid, compute_uv=False), 0.0, 1.0), axis=-1)[..., :k]
    return np.where(coss**2 > 0.5, np.arcsin(sins), np.arccos(coss))


@cache
def _action_sources(n: int) -> np.ndarray:
    """(2^n, 2n) indices into [c, -c, 0] that gather the action matrix of a
    dense coefficient vector c."""
    rows = np.arange(1 << n)
    bits = bit_matrix(rows, n)
    below = np.cumsum(bits, axis=1, dtype=np.uint8) - bits  # generators below i in the row's mask
    src = rows[:, None] ^ (1 << np.arange(n))  # the mask that x_i enters or leaves
    src[below & 1 == 1] += 1 << n  # signed; in place, as at n = 12 each copy is 0.4 MB
    out = np.full((1 << n, 2 * n), 2 << n)  # the zero entry
    # d_i f lands on rows without x_i, x_i f on rows with it
    np.copyto(out[:, :n], src, where=bits == 0)
    np.copyto(out[:, n:], src, where=bits == 1)
    return out


def action_matrix(c: np.ndarray) -> np.ndarray:
    """The (2^n x 2n) matrix taking an operator's (beta, gamma) vector to the
    operator applied to the element with dense coefficients c (see
    GrassmannElement.dense): column i holds d_i f and column n+i holds x_i f.
    A stack of coefficient vectors gives the stack of their matrices.

    On a monomial without x_i, x_i moves in past the generators below it; on
    one with x_i, d_i moves x_i out past the same generators.  Either way the
    sign is the parity of the generators below i.
    """
    c = np.asarray(c, dtype=complex)
    table = np.concatenate([c, -c, np.zeros_like(c[..., :1])], axis=-1)
    return table.take(_action_sources(c.shape[-1].bit_length() - 1), axis=-1)


def annihilator_of(f: GrassmannElement) -> np.ndarray:
    """All first-order operators killing f, as orthonormal basis columns in
    the (beta, gamma) layout: the null space of the action matrix."""
    return nullspace(action_matrix(f.dense()))
