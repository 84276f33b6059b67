"""Finite-dimensional Grassmann algebra over the complex numbers.

Generators anticommute: x_i x_j = -x_j x_i, so x_i^2 = 0.  An element is
stored as a map from bitmasks to complex coefficients; bit i of a mask set
means generator i is present, and the stored coefficient refers to the
monomial with generators written in increasing index order.

Generators are labelled by strictly increasing integer tuples (tetrahedra
as sorted 4-tuples of vertex ids in production; shorter tuples are fine for
small examples).  The generator order is the lexicographic order of the
labels, which makes embeddings into larger spaces order-preserving.

Where whole arrays are wanted, an element's coefficients are a dense (2^n,)
vector indexed by mask (GrassmannElement.dense), and a Gaussian's are
computed directly in that layout as Pfaffian minors (gaussian_coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Iterable, Mapping

import numpy as np

from .errors import SpaceMismatchError
from .simplicial import permutation_sign

MAX_GENERATORS = 12

Label = tuple[int, ...]


def _check_label(label) -> Label:
    lab = tuple(int(v) for v in label)
    if not lab or any(b <= a for a, b in zip(lab, lab[1:])):
        raise ValueError(f"generator label must be strictly increasing, got {label!r}")
    return lab


@dataclass(frozen=True)
class GeneratorSpace:
    """An ordered finite set of anticommuting generators."""

    labels: tuple[Label, ...]
    index: Mapping[Label, int] = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        labs = tuple(sorted(_check_label(l) for l in self.labels))
        if len(set(labs)) != len(labs):
            raise ValueError("duplicate generator labels")
        if len(labs) > MAX_GENERATORS:
            raise ValueError(f"at most {MAX_GENERATORS} generators supported, got {len(labs)}")
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "index", {lab: i for i, lab in enumerate(labs)})

    @property
    def n(self) -> int:
        return len(self.labels)

    def mask_of(self, labels: Iterable) -> int:
        """Bitmask of a set of generator labels."""
        mask = 0
        for lab in labels:
            bit = 1 << self.index[_check_label(lab)]
            if mask & bit:
                raise ValueError(f"repeated generator {lab!r} in monomial")
            mask |= bit
        return mask

    def labels_of(self, mask: int) -> tuple[Label, ...]:
        return tuple(self.labels[i] for i in range(self.n) if mask >> i & 1)

    def contains_space(self, other: "GeneratorSpace") -> bool:
        return all(lab in self.index for lab in other.labels)


def _merge_sign(amask: int, bmask: int) -> int:
    # Parity of the number of transpositions needed to interleave the two
    # increasing monomials: pairs (i in a, j in b) with i > j.
    sign = 0
    b = bmask
    while b:
        j = (b & -b).bit_length() - 1
        sign ^= (amask >> (j + 1)).bit_count() & 1
        b &= b - 1
    return -1 if sign else 1


@dataclass(frozen=True)
class GrassmannElement:
    """An element of the algebra: {bitmask: coefficient}, zeros omitted."""

    space: GeneratorSpace
    coeffs: Mapping[int, complex]

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", {int(m): complex(c) for m, c in self.coeffs.items() if c != 0}
        )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(space: GeneratorSpace) -> "GrassmannElement":
        return GrassmannElement(space, {})

    @staticmethod
    def scalar(space: GeneratorSpace, value: complex) -> "GrassmannElement":
        return GrassmannElement(space, {0: complex(value)})

    @staticmethod
    def monomial(space: GeneratorSpace, labels: Iterable, coeff: complex = 1.0) -> "GrassmannElement":
        """coeff * x_{l1} x_{l2} ... with the labels in the given order."""
        labs = [_check_label(l) for l in labels]
        sign = permutation_sign(labs)
        return GrassmannElement(space, {space.mask_of(labs): sign * complex(coeff)})

    @staticmethod
    def generator(space: GeneratorSpace, label) -> "GrassmannElement":
        return GrassmannElement(space, {space.mask_of([label]): 1.0})

    # -- ring operations ----------------------------------------------------

    def _check_same_space(self, other: "GrassmannElement"):
        if self.space != other.space:
            raise SpaceMismatchError("elements live in different generator spaces")

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        self._check_same_space(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return GrassmannElement(self.space, out)

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "GrassmannElement":
        return GrassmannElement(self.space, {m: scalar * c for m, c in self.coeffs.items()})

    def __mul__(self, other: "GrassmannElement") -> "GrassmannElement":
        if not isinstance(other, GrassmannElement):
            return GrassmannElement(self.space, {m: c * other for m, c in self.coeffs.items()})
        self._check_same_space(other)
        out: dict[int, complex] = {}
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                if ma & mb:
                    continue  # repeated generator squares to zero
                m = ma | mb
                out[m] = out.get(m, 0.0) + _merge_sign(ma, mb) * ca * cb
        return GrassmannElement(self.space, out)

    def __neg__(self) -> "GrassmannElement":
        return (-1.0) * self

    # -- inspection ---------------------------------------------------------

    def coefficient(self, labels: Iterable) -> complex:
        """Coefficient of the canonical (increasing) monomial on these labels."""
        return self.coeffs.get(self.space.mask_of(labels), 0.0)

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def is_even(self) -> bool:
        return all(m.bit_count() % 2 == 0 for m in self.coeffs)

    def is_odd(self) -> bool:
        return all(m.bit_count() % 2 == 1 for m in self.coeffs)

    def constant_term(self) -> complex:
        return self.coeffs.get(0, 0.0)

    def dense(self) -> np.ndarray:
        """The coefficients as a (2^n,) array indexed by mask."""
        out = np.zeros(1 << self.space.n, dtype=complex)
        out[list(self.coeffs)] = list(self.coeffs.values())
        return out

    def embed(self, big: GeneratorSpace) -> "GrassmannElement":
        """Re-key into a larger space.  Lexicographic label order is shared by
        both spaces, so canonical monomials carry over without sign changes."""
        if not big.contains_space(self.space):
            raise SpaceMismatchError("target space does not contain all generators")
        return self._rekey(big)

    def restrict_to(self, small: GeneratorSpace) -> "GrassmannElement":
        """Re-key into a smaller space.  Every monomial must already live on
        the surviving generators; anything else raises."""
        if not self.space.contains_space(small):
            raise SpaceMismatchError("target space is not a subspace")
        return self._rekey(small)

    def _rekey(self, target: GeneratorSpace) -> "GrassmannElement":
        """Map each generator's bit once; both spaces checked their labels."""
        bits = [1 << target.index[lab] if lab in target.index else 0 for lab in self.space.labels]
        out = {}
        for m, c in self.coeffs.items():
            used = [bits[i] for i in range(self.space.n) if m >> i & 1]
            if 0 in used:
                raise SpaceMismatchError(f"monomial {self.space.labels_of(m)!r} uses dropped generators")
            out[sum(used)] = c
        return GrassmannElement(target, out)


def left_derivative(label, f: GrassmannElement) -> GrassmannElement:
    """d/dx acting from the left: kills monomials without x, and on
    x_{m1}..x_{mk} moves x to the front picking up a sign per transposition."""
    space = f.space
    i = space.index[_check_label(label)]
    bit = 1 << i
    out = {}
    for m, c in f.coeffs.items():
        if not m & bit:
            continue
        below = (m & (bit - 1)).bit_count()
        out[m ^ bit] = c * (-1 if below & 1 else 1)
    return GrassmannElement(space, out)


def right_derivative(label, f: GrassmannElement) -> GrassmannElement:
    """Mirror of left_derivative: x is moved to the right end before removal."""
    space = f.space
    i = space.index[_check_label(label)]
    bit = 1 << i
    out = {}
    for m, c in f.coeffs.items():
        if not m & bit:
            continue
        above = (m >> (i + 1)).bit_count()
        out[m ^ bit] = c * (-1 if above & 1 else 1)
    return GrassmannElement(space, out)


def berezin_integral(f: GrassmannElement, labels: Iterable) -> GrassmannElement:
    """Iterated Berezin integral; the first label is the innermost dx.

    A single integral equals the right derivative, so the iteration is just
    successive right derivatives in the listed order.
    """
    out = f
    for lab in labels:
        out = right_derivative(lab, out)
    return out


def exp_even(q: GrassmannElement) -> GrassmannElement:
    """exp of an even element with zero constant term (truncating Taylor sum).

    Such a q is nilpotent: q^k vanishes once 2k exceeds the generator count,
    so the series is finite and exact.
    """
    if not q.is_even():
        raise ValueError("exp_even requires an even element")
    top = q.max_abs()
    if abs(q.constant_term()) > 1e-14 * max(top, 1.0):
        raise ValueError("exp_even requires a zero constant term")
    result = GrassmannElement.scalar(q.space, 1.0)
    power = GrassmannElement.scalar(q.space, 1.0)
    k = 0
    while power.coeffs:
        k += 1
        if 2 * k > q.space.n:
            break
        power = (1.0 / k) * (power * q)
        result = result + power
    return result


def bit_matrix(masks: np.ndarray, n: int) -> np.ndarray:
    """Row r holds the n bits of masks[r] as uint8, lowest generator first
    (masks below 2^16, which the generator cap keeps them)."""
    octets = np.asarray(masks, dtype="<u2").view(np.uint8).reshape(-1, 2)
    return np.unpackbits(octets, axis=1, count=n, bitorder="little")


@cache
def _pfaffian_levels(n: int, top: int = 0) -> tuple:
    """For each even popcount 2, 4, ..., n: its masks; for each mask and each
    generator above its lowest one, the flat index of their entry in an n x n
    matrix and the mask left once both are removed; the alternating signs.
    Only the masks that those containing the top `top` generators expand
    into are kept."""
    masks = np.arange(1 << n)
    bits = bit_matrix(masks, n)
    count = bits.sum(axis=1)
    levels = []
    for k in range(2, n + 1, 2):
        m = masks[count == k]
        gens = np.nonzero(bits[m])[1].reshape(len(m), k)  # row-major: increasing per mask
        low, rest = gens[:, :1], gens[:, 1:]
        sub = m[:, None] ^ (1 << low) ^ (1 << rest)
        levels.append((m, low * n + rest, sub, (-1.0) ** np.arange(k - 1)))
    need = masks >= (1 << n) - (1 << (n - top))  # the masks that contain the top generators
    kept = []
    for m, entry, sub, alt in reversed(levels):
        keep = need[m]
        need[sub[keep]] = True
        kept.append((m[keep], entry[keep], sub[keep], alt))
    return tuple(kept[::-1])


def gaussian_coefficients(A: np.ndarray, top: int = 0) -> np.ndarray:
    """Coefficients of exp(sum_{i<j} A[i, j] x_i x_j) as a (2^n,) array by mask;
    with `top`, only those at masks that contain the top `top` generators,
    the array's last 2^(n - top) entries, from only the minors they need.

    The coefficient at an even mask is the Pfaffian of A's principal minor on
    its generators (Berezin); odd masks are 0.  Minors are filled by popcount,
    each expanded along its lowest generator, so no division is needed and
    each has the same bits whichever others are filled.  Only the upper
    triangle of A is read.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    flat = A.ravel()
    pf = np.zeros(1 << n, dtype=complex)
    pf[0] = 1.0
    for m, entry, sub, alt in _pfaffian_levels(n, top):
        # einsum, not @: on several BLAS threads a product this small costs far more
        pf[m] = np.einsum("ij,j->i", flat.take(entry) * pf.take(sub), alt)
    return pf[(1 << n) - (1 << (n - top)) :]
