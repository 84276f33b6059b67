"""Jacobi elliptic functions for complex arguments and the data they induce
on simplices: a degree-2 cochain on vertex coordinates, its primitive, and a
weight matrix built from half-argument ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, Pachner33Error
from .simplicial import SIMPLEX, Cochain, faces, uniform
from .weights import WeightMatrix

LANDEN_CAP = 64
_MODULUS_FLOOR = 1e-14
# sn_cn_dn's per-element status codes, each the NumericsError message it stands for
_ERRORS = (
    None,
    "modulus descent did not converge",
    "argument too close to a pole",
    "sn, cn or dn is not finite at this argument and modulus",
)
_CAPPED, _POLE, _NOT_FINITE = 1, 2, 3
_CHUNK = 1000  # arguments unwound at once: bounds the temporaries, not the bits
_UPPER = np.triu_indices(5, 1)  # a weight matrix's upper triangle, its vertex pairs in lex order


def _mul(a, b):
    """a * b with the bits of the scalar complex product.  numpy's array
    loop may fuse a multiply and an add, which moves the last bit, so an
    array product is taken on real parts."""
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    out = (ar * br - ai * bi).astype(complex)
    out.imag = ar * bi + ai * br
    return out


def _check(err) -> None:
    if err:
        raise NumericsError(_ERRORS[err])


@np.errstate(all="ignore")  # an overflow shows as a value that is not finite
def sn_cn_dn(u, modulus) -> tuple:
    """sn, cn, dn at arrays of complex arguments and moduli that broadcast
    together, and a per-element status: 0 where the values are good, else the
    index in _ERRORS of what went wrong (a pole, a descent that exceeds
    LANDEN_CAP, values that are not finite).

    Each modulus is descended through Landen steps until negligible, the
    trigonometric values are taken there, and the steps are unwound.  The
    principal square root keeps every descended modulus inside the unit disc.
    A scalar modulus descends once for all arguments; an array of moduli
    descends level by level, each level masked to the moduli that reach it.
    Every element gets the bits a lone evaluation gives it.
    """
    u, k = np.asarray(u, dtype=complex), np.asarray(modulus, dtype=complex)
    if k.ndim:
        shape = np.broadcast_shapes(u.shape, k.shape)
        u, k, ladder = np.broadcast_to(u, shape).reshape(-1), np.broadcast_to(k, shape).reshape(-1), None
    else:
        shape, u, ladder = u.shape, u.reshape(-1), _descend(k[()])
    vals = np.empty((3, u.size), dtype=complex)
    err = np.empty(u.size, dtype=np.int8)
    for i in range(0, u.size, _CHUNK):
        at = slice(i, i + _CHUNK)
        vals[:, at], err[at] = _unwind(u[at], ladder or _descend(k[at]))
    s, c, d = vals.reshape(3, *shape)
    return s, c, d, err.reshape(shape)


def _descend(k) -> tuple:
    """The Landen ladder of a scalar modulus or of an array of moduli: per
    level, the moduli there and the mask of the moduli that reach it (None
    for a scalar); with the masks of the moduli that take the hyperbolic
    limit and of those whose descent exceeds LANDEN_CAP.  A modulus below
    the floor (or NaN) reaches no level and takes the trigonometric limit."""
    on = abs(k) >= _MODULUS_FLOOR
    kk = _mul(k, k)
    hyper = on & (abs(1.0 - kk) < _MODULUS_FLOOR)
    on = on & ~hyper
    levels = []
    while (np.count_nonzero(on) if on.ndim else on) and len(levels) < LANDEN_CAP:
        kp = np.sqrt(1.0 - kk)
        k = (1.0 - kp) / (1.0 + kp)
        levels.append((on if on.ndim else None, k))
        kk = _mul(k, k)
        on = on & (abs(k) >= _MODULUS_FLOOR)
    return levels, hyper, on


def _unwind(u: np.ndarray, ladder) -> tuple:
    """sn, cn, dn (3, n) and the status (n,) at arguments u under a ladder."""
    levels, hyper, capped = ladder
    z = u
    for on, k in levels:
        z = z / (1.0 + k) if on is None else np.where(on, z / (1.0 + k), z)
    scd = np.array([np.sin(z), np.cos(z), np.ones_like(z)])
    factors = np.empty_like(scd)
    ks2s = np.empty((len(levels), len(u)), dtype=complex)
    for ks2, (on, k) in zip(ks2s, reversed(levels)):
        # (1 + k) s, c d and k s as one product; then (k s) s
        factors[0], factors[1], factors[2] = 1.0 + k, scd[1], k
        num = _mul(factors, scd[[0, 2, 0]])
        ks2[:] = _mul(num[2], scd[0])
        num[2] = 1.0 - ks2
        new = num / (1.0 + ks2)  # (1 + k) s, c d, 1 - k s s over 1 + k s s
        scd = new if on is None else np.where(on, new, scd)
    # a pole where a denominator nearly cancels, at any level an argument reaches
    pole = abs(1.0 + ks2s) < 1e-14 * (1.0 + abs(ks2s))
    if levels and levels[0][0] is not None:
        pole &= np.array([on for on, _ in reversed(levels)])
    err = np.zeros(u.shape, dtype=np.int8)
    err[pole.any(axis=0)] = _POLE
    if np.count_nonzero(capped):
        err[np.broadcast_to(capped, u.shape)] = _CAPPED
    if np.count_nonzero(hyper):
        sech = 1.0 / np.cosh(u)
        scd = np.where(hyper, [np.tanh(u), sech, sech], scd)
    err[~np.isfinite(scd).all(axis=0) & (err == 0)] = _NOT_FINITE
    return scd, err


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
    # (a, b), a < b -> sn/(cn*dn) at (x_a - x_b)/2
    half_ratios: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modulus", complex(self.modulus))
        object.__setattr__(
            self, "coords", {int(v): complex(x) for v, x in self.coords.items()}
        )
        pairs = faces(self.vertices, 1)
        diffs = [self.coords[a] - self.coords[b] for a, b in pairs]
        s, c, d, err = sn_cn_dn(diffs + [x / 2.0 for x in diffs], self.modulus)
        n = len(pairs)
        sn, err_half = s[:n], err[n:]
        with np.errstate(all="ignore"):  # cn*dn at a failed argument, never read
            cd = _mul(c[n:], d[n:])
        pole, zero = abs(sn) > 1e6, abs(cd) < 1e-6
        bad = (err[:n] != 0) | pole | (err_half != 0) | zero
        if bad.any():  # the first bad pair's first failure, in the order they are checked
            i = int(np.argmax(bad))
            a, b = pairs[i]
            _check(err[i])
            if pole[i]:
                raise NumericsError(f"difference {a}-{b} too close to a pole")
            _check(err_half[i])
            raise NumericsError("half-argument too close to a zero of cn*dn")
        object.__setattr__(self, "sn", dict(zip(pairs, sn)))
        object.__setattr__(self, "half_ratios", dict(zip(pairs, s[n:] / cd)))

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(self.coords))


def random_elliptic_params(rng: np.random.Generator, vertices=SIMPLEX) -> EllipticParams:
    while True:
        mod = (0.2 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random())
        coords = {v: complex(uniform(rng, 0.3, 1.6), uniform(rng, 0.1, 0.9)) + 0.35 * v for v in vertices}
        try:
            return EllipticParams(mod, coords)
        except Pachner33Error:
            continue


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
    sn_at, _, _, err = sn_cn_dn([params.coords[v] for v in vertices], params.modulus)
    bad = (err != 0) | (abs(sn_at) < 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        _check(err[i])
        raise ValueError(f"sn vanishes at vertex {vertices[i]}")
    sn_at = dict(zip(vertices, sn_at))
    vals = {(i, j): params.sn[i, j] / (m2 * sn_at[i] * sn_at[j]) for i, j in faces(vertices, 1)}
    return Cochain(vertices, 1, vals)


def elliptic_F(params: EllipticParams, simplex) -> WeightMatrix:
    """Weight matrix with sn/(cn*dn) of half coordinate differences.

    The vertex-pair value (i, j) sits at (row omitting i, column omitting j).
    """
    simplex = tuple(sorted(simplex))
    if len(simplex) != 5 or len(set(simplex)) != 5:
        raise ValueError(f"elliptic_F needs 5 distinct vertices, not {simplex}")
    for v in simplex:
        if v not in params.coords:
            raise ValueError(f"vertex {v} has no coordinate")
    entries = np.zeros((5, 5), dtype=complex)
    entries[_UPPER] = [params.half_ratios[pair] for pair in faces(simplex, 1)]
    entries.T[_UPPER] = -entries[_UPPER]
    return WeightMatrix(simplex, entries)
