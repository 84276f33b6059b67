"""Jacobi functions against an independent oracle, and the elliptic data
they induce on the five-vertex simplex."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from pachner33.cocycle2weight import calibrate_sqrt_choice, kappa
from pachner33.edgeops import extract_w_cocycle, normalize_family
from pachner33.elliptic import (
    EllipticParams,
    _half_ratio,
    elliptic_F,
    elliptic_cocycle,
    elliptic_primitive,
    jacobi_sn_cn_dn,
)
from pachner33.errors import NumericsError
from pachner33.simplicial import coboundary, is_cocycle

mpmath.mp.dps = 30

SIMPLEX = (1, 2, 3, 4, 5)


def mp_sn_cn_dn(u: complex, k: complex):
    # mpmath's ellipfun takes the parameter m = k^2, not the modulus.
    m = mpmath.mpc(k) ** 2
    return tuple(
        complex(mpmath.ellipfun(name, mpmath.mpc(u), m=m)) for name in ("sn", "cn", "dn")
    )


def draw_params(rng) -> EllipticParams:
    while True:
        mod = (0.2 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random())
        coords = {
            v: complex(rng.uniform(0.3, 1.6), rng.uniform(0.1, 0.9)) + 0.35 * v
            for v in SIMPLEX
        }
        try:
            return EllipticParams(mod, coords)
        except (NumericsError, ValueError):
            continue


def test_special_arguments():
    s, c, d = jacobi_sn_cn_dn(0.0, 0.37 + 0.1j)
    assert abs(s) < 1e-15 and abs(c - 1) < 1e-15 and abs(d - 1) < 1e-15
    u = 0.7 + 0.2j
    s, c, d = jacobi_sn_cn_dn(u, 0.0)
    assert abs(s - np.sin(u)) < 1e-15
    assert abs(c - np.cos(u)) < 1e-15
    assert abs(d - 1.0) < 1e-15
    s, c, d = jacobi_sn_cn_dn(u, 1.0)
    assert abs(s - np.tanh(u)) < 1e-15
    assert abs(c - 1.0 / np.cosh(u)) < 1e-15
    assert abs(d - c) < 1e-15


def test_matches_mpmath(rng):
    worst = 0.0
    for _ in range(60):
        u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
        k = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.4, 0.4))
        mine = jacobi_sn_cn_dn(u, k)
        ref = mp_sn_cn_dn(u, k)
        scale = max(1.0, *(abs(r) for r in ref))
        worst = max(worst, max(abs(a - b) for a, b in zip(mine, ref)) / scale)
    assert worst < 1e-12


def test_matches_mpmath_near_unit_modulus():
    for k in (0.999999, 1e-7, 0.99 + 0.01j):
        mine = jacobi_sn_cn_dn(0.6 - 0.3j, k)
        ref = mp_sn_cn_dn(0.6 - 0.3j, k)
        assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12


def test_quadratic_identities(rng):
    for _ in range(300):
        u = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        k = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.3, 0.3))
        s, c, d = jacobi_sn_cn_dn(u, k)
        assert abs(s * s + c * c - 1.0) < 1e-11
        assert abs(d * d + k * k * s * s - 1.0) < 1e-11


def test_sn_duplication(rng):
    for _ in range(100):
        u = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        k = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3))
        s, c, d = jacobi_sn_cn_dn(u, k)
        pred = 2.0 * s * c * d / (1.0 - k * k * s**4)
        assert abs(jacobi_sn_cn_dn(2.0 * u, k)[0] - pred) < 1e-10


def test_pole_raises():
    k = 0.5
    kp = float(mpmath.ellipk(1 - mpmath.mpf(k) ** 2))
    with pytest.raises(NumericsError):
        jacobi_sn_cn_dn(1j * kp, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "u, k",
    [
        (-0.5 - 0.2j, 1e10),  # the first descended modulus is near -1: 1 + k is 2e-10
        (2e22 - 0.1j, 0.5 + 0.1j),  # the argument itself
        (1e3j, 0.5),  # sin and cos of the descended argument overflow
        (1e3j, 0.0),  # the trigonometric limit, at once
    ],
)
def test_values_that_are_not_finite_raise(u, k):
    with pytest.raises(NumericsError, match="not finite"):
        jacobi_sn_cn_dn(u, k)


def test_params_reject_pole_pair():
    k = 0.5
    kp = float(mpmath.ellipk(1 - mpmath.mpf(k) ** 2))
    coords = {1: 0.0, 2: 1j * kp, 3: 2.0, 4: 3.0, 5: 4.0}
    with pytest.raises(NumericsError):
        EllipticParams(k, coords)


def test_cocycle_and_primitive(rng):
    p = draw_params(rng)
    om = elliptic_cocycle(p)
    assert is_cocycle(om)
    dnu = coboundary(elliptic_primitive(p))
    err = max(abs(dnu[c] - om[c]) for c in om.cells())
    assert err < 1e-10 * om.max_abs()


def test_primitive_trig_limit():
    # At tiny modulus the primitive degenerates to the sine-ratio formula.
    mod = 1e-8
    coords = {v: 0.2 + 0.31 * v + 0.07j * v for v in SIMPLEX}
    p = EllipticParams(mod, coords)
    nu = elliptic_primitive(p)
    m2 = mod * mod
    for i, j in nu.cells():
        ref = np.sin(coords[i] - coords[j]) / (m2 * np.sin(coords[i]) * np.sin(coords[j]))
        assert abs(nu[(i, j)] - ref) < 1e-9 * abs(ref)


def test_F_skew_and_zero_diagonal(rng):
    p = draw_params(rng)
    wm = elliptic_F(p, SIMPLEX)
    assert np.all(wm.entries == -wm.entries.T)
    assert np.all(np.diag(wm.entries) == 0)


def test_w_cocycle_proportional_to_elliptic(rng):
    for _ in range(5):
        p = draw_params(rng)
        om = elliptic_cocycle(p)
        w = extract_w_cocycle(normalize_family(elliptic_F(p, SIMPLEX)))
        ratios = [w[c] / om[c] for c in om.cells()]
        assert max(abs(r / ratios[0] - 1.0) for r in ratios) < 1e-8


def test_kappa_four_factor_product(rng):
    for _ in range(5):
        p = draw_params(rng)
        om = elliptic_cocycle(p)
        fam = normalize_family(elliptic_F(p, SIMPLEX))
        cal = calibrate_sqrt_choice(fam, om)
        x = p.coords

        def fr(i, j):
            return _half_ratio(x[i] - x[j], p.modulus)

        pred = -fr(1, 3) * fr(1, 4) / (fr(2, 3) * fr(2, 4))
        assert abs(kappa(om, cal) - pred) < 1e-8 * abs(pred)


def test_parameter_jacobian_full_rank(rng):
    # Five cocycle ratios against (modulus, four coordinate differences):
    # vertex 1 is pinned, so the parameterization has five degrees of freedom.
    p = draw_params(rng)
    base_mod = p.modulus
    base = np.array([p.coords[v] for v in SIMPLEX])

    def ratios(mod, coords_vec):
        pp = EllipticParams(mod, dict(zip(SIMPLEX, coords_vec)))
        om = elliptic_cocycle(pp)
        cells = om.cells()
        return np.array([om[c] / om[cells[-1]] for c in cells[:5]])

    h = 1e-6
    cols = []
    for idx in range(5):
        if idx == 0:
            up = ratios(base_mod + h, base)
            dn = ratios(base_mod - h, base)
        else:
            shift = np.zeros(5, dtype=complex)
            shift[idx] = h
            up = ratios(base_mod, base + shift)
            dn = ratios(base_mod, base - shift)
        cols.append((up - dn) / (2 * h))
    jac = np.column_stack(cols)
    s = np.linalg.svd(jac, compute_uv=False)
    assert s[4] > 1e-4 * s[0]


def test_coincident_coordinates_degenerate(rng):
    coords = {v: 0.4 + 0.29 * v + 0.05j * v for v in SIMPLEX}
    coords[2] = coords[1]
    p = EllipticParams(0.5 + 0.1j, coords)
    om = elliptic_cocycle(p)
    dead = [c for c in om.cells() if abs(om[c]) < 1e-14]
    assert len(dead) == 3 and all(1 in c and 2 in c for c in dead)
