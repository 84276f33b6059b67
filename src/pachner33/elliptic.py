"""Jacobi elliptic functions for complex arguments and the data they induce
on simplices: a degree-2 cochain on vertex coordinates, its primitive, and a
weight matrix built from half-argument ratios.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .simplicial import Cochain, faces
from .weights import WeightMatrix

LANDEN_CAP = 64
_MODULUS_FLOOR = 1e-14


def jacobi_sn_cn_dn(u: complex, modulus: complex) -> tuple[complex, complex, complex]:
    """Simultaneous sn, cn, dn at a complex argument.

    The modulus is descended through Landen steps until negligible, the
    trigonometric values are taken there, and the steps are unwound.  The
    principal square root keeps every descended modulus inside the unit disc.
    Values that would not be finite, as from an argument or modulus that
    overflows a step, raise NumericsError.
    """
    scd = _sn_cn_dn(complex(u), complex(modulus))
    if not all(map(cmath.isfinite, scd)):
        raise NumericsError("sn, cn or dn is not finite at this argument and modulus")
    return scd


@np.errstate(all="ignore")  # an overflow shows as a value that is not finite
def _sn_cn_dn(u: complex, k: complex) -> tuple:
    """sn, cn, dn as in jacobi_sn_cn_dn, finite or not."""
    if abs(k) < _MODULUS_FLOOR:
        return np.sin(u), np.cos(u), 1.0 + 0.0j
    if abs(1.0 - k * k) < _MODULUS_FLOOR:
        sech = 1.0 / np.cosh(u)
        return np.tanh(u), sech, sech
    ladder = []
    while abs(k) >= _MODULUS_FLOOR:
        if len(ladder) >= LANDEN_CAP:
            raise NumericsError("modulus descent did not converge")
        kp = np.sqrt(1.0 - k * k)
        k = (1.0 - kp) / (1.0 + kp)
        ladder.append(k)
    z = u
    for k in ladder:
        z = z / (1.0 + k)
    s, c, d = np.sin(z), np.cos(z), 1.0 + 0.0j
    for k in reversed(ladder):
        denom = 1.0 + k * s * s
        if abs(denom) < 1e-14 * (1.0 + abs(k * s * s)):
            raise NumericsError("argument too close to a pole")
        s, c, d = (1.0 + k) * s / denom, c * d / denom, (1.0 - k * s * s) / denom
    return s, c, d


def _half_ratio(u: complex, modulus: complex) -> complex:
    """sn/(cn*dn) at half the given argument."""
    s, c, d = jacobi_sn_cn_dn(u / 2.0, modulus)
    cd = c * d
    if abs(cd) < 1e-6:
        raise NumericsError("half-argument too close to a zero of cn*dn")
    return s / cd


@dataclass(frozen=True)
class EllipticParams:
    """A modulus and one complex coordinate per vertex.

    Construction rejects coordinate pairs whose difference sits too close to
    a pole of sn or, at half-argument, to a zero of cn*dn; downstream
    formulas divide by those quantities.
    """

    modulus: complex
    coords: dict
    sn: dict = field(init=False, repr=False, compare=False)  # (a, b), a < b -> sn(x_a - x_b)
    half_ratios: dict = field(init=False, repr=False, compare=False)  # (a, b), a < b -> _half_ratio

    def __post_init__(self):
        object.__setattr__(self, "modulus", complex(self.modulus))
        object.__setattr__(
            self, "coords", {int(v): complex(x) for v, x in self.coords.items()}
        )
        sn, half_ratios = {}, {}
        vs = self.vertices
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                d = self.coords[a] - self.coords[b]
                sn[a, b], _, _ = jacobi_sn_cn_dn(d, self.modulus)
                if abs(sn[a, b]) > 1e6:
                    raise NumericsError(f"difference {a}-{b} too close to a pole")
                half_ratios[a, b] = _half_ratio(d, self.modulus)
        object.__setattr__(self, "sn", sn)
        object.__setattr__(self, "half_ratios", half_ratios)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(self.coords))


def elliptic_cocycle(params: EllipticParams) -> Cochain:
    """Face values sn(x_i-x_j) sn(x_i-x_k) sn(x_j-x_k) on all 2-faces."""
    sn = params.sn
    vals = {(i, j, k): sn[i, j] * sn[i, k] * sn[j, k] for i, j, k in faces(params.vertices, 2)}
    return Cochain(params.vertices, 2, vals)


def elliptic_primitive(params: EllipticParams) -> Cochain:
    """The 1-cochain sn(x_i-x_j)/(m^2 sn x_i sn x_j) whose coboundary is the
    face cochain above."""
    vertices = params.vertices
    m2 = params.modulus * params.modulus
    if m2 == 0:
        raise ValueError("modulus must be nonzero for the primitive formula")
    sn_at = {}
    for v in vertices:
        s = jacobi_sn_cn_dn(params.coords[v], params.modulus)[0]
        if abs(s) < 1e-9:
            raise ValueError(f"sn vanishes at vertex {v}")
        sn_at[v] = s
    vals = {(i, j): params.sn[i, j] / (m2 * sn_at[i] * sn_at[j]) for i, j in faces(vertices, 1)}
    return Cochain(vertices, 1, vals)


def elliptic_F(params: EllipticParams, simplex) -> WeightMatrix:
    """Weight matrix with sn/(cn*dn) of half coordinate differences.

    The vertex-pair value (i, j) sits at (row omitting i, column omitting j).
    """
    simplex = tuple(sorted(simplex))
    entries = np.zeros((5, 5), dtype=complex)
    for k in range(5):
        for l in range(k + 1, 5):
            val = params.half_ratios[simplex[k], simplex[l]]
            entries[k, l] = val
            entries[l, k] = -val
    return WeightMatrix(simplex, entries)
