"""Jacobi functions against an independent oracle, and the elliptic data
they induce on the five-vertex simplex."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from pachner33 import acceptance, elliptic
from pachner33.cocycle2weight import calibrate_sqrt_choices, kappas
from pachner33.edgeops import EDGE_POS, extract_w_cocycle, normalize_family
from pachner33.elliptic import (
    EllipticParams,
    elliptic_F,
    elliptic_cocycle,
    elliptic_primitive,
    sn_cn_dn,
)
from pachner33.errors import NumericsError
from pachner33.simplicial import coboundary_values, is_cocycle

mpmath.mp.dps = 30

SIMPLEX = (1, 2, 3, 4, 5)


@np.errstate(all="ignore")
def oracle_sn_cn_dn(u: complex, k: complex) -> tuple:
    """Bit oracle for the array kernel: one argument's Landen descent in
    scalar arithmetic.  Raises NumericsError with the kernel's messages."""
    u, k = complex(u), complex(k)
    if abs(k) < 1e-14:
        scd = np.sin(u), np.cos(u), 1.0 + 0.0j
    elif abs(1.0 - k * k) < 1e-14:
        sech = 1.0 / np.cosh(u)
        scd = np.tanh(u), sech, sech
    else:
        ladder = []
        while abs(k) >= 1e-14:
            if len(ladder) >= elliptic.LANDEN_CAP:
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
        scd = s, c, d
    if not all(np.isfinite(scd)):
        raise NumericsError("sn, cn or dn is not finite at this argument and modulus")
    return scd


def oracle_half_ratio(u: complex, k: complex) -> complex:
    """sn/(cn*dn) at half the argument, one scalar at a time."""
    s, c, d = oracle_sn_cn_dn(u / 2.0, k)
    cd = c * d
    if abs(cd) < 1e-6:
        raise NumericsError("half-argument too close to a zero of cn*dn")
    return s / cd


def oracle_params_error(modulus: complex, coords: dict) -> str | None:
    """The message EllipticParams raised when it checked pair after pair."""
    vs = sorted(coords)
    try:
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                d = complex(coords[a]) - complex(coords[b])
                if abs(oracle_sn_cn_dn(d, modulus)[0]) > 1e6:
                    raise NumericsError(f"difference {a}-{b} too close to a pole")
                oracle_half_ratio(d, modulus)
    except NumericsError as e:
        return str(e)
    return None


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


def jacobi(u: complex, k: complex) -> tuple:
    """sn, cn, dn at one point; NumericsError where sn_cn_dn reports a failure."""
    s, c, d, err = sn_cn_dn(complex(u), complex(k))
    if err:
        raise NumericsError(elliptic._ERRORS[err])
    return s[()], c[()], d[()]


def test_special_arguments():
    s, c, d = jacobi(0.0, 0.37 + 0.1j)
    assert abs(s) < 1e-15 and abs(c - 1) < 1e-15 and abs(d - 1) < 1e-15
    u = 0.7 + 0.2j
    s, c, d = jacobi(u, 0.0)
    assert abs(s - np.sin(u)) < 1e-15
    assert abs(c - np.cos(u)) < 1e-15
    assert abs(d - 1.0) < 1e-15
    s, c, d = jacobi(u, 1.0)
    assert abs(s - np.tanh(u)) < 1e-15
    assert abs(c - 1.0 / np.cosh(u)) < 1e-15
    assert abs(d - c) < 1e-15


def test_matches_mpmath(rng):
    worst = 0.0
    for _ in range(60):
        u = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.8, 0.8))
        k = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.4, 0.4))
        mine = jacobi(u, k)
        ref = mp_sn_cn_dn(u, k)
        scale = max(1.0, *(abs(r) for r in ref))
        worst = max(worst, max(abs(a - b) for a, b in zip(mine, ref)) / scale)
    assert worst < 1e-12


def test_matches_mpmath_near_unit_modulus():
    for k in (0.999999, 1e-7, 0.99 + 0.01j):
        mine = jacobi(0.6 - 0.3j, k)
        ref = mp_sn_cn_dn(0.6 - 0.3j, k)
        assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12


def test_quadratic_identities(rng):
    for _ in range(300):
        u = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        k = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.3, 0.3))
        s, c, d = jacobi(u, k)
        assert abs(s * s + c * c - 1.0) < 1e-11
        assert abs(d * d + k * k * s * s - 1.0) < 1e-11


def test_sn_duplication(rng):
    for _ in range(100):
        u = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
        k = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.3, 0.3))
        s, c, d = jacobi(u, k)
        pred = 2.0 * s * c * d / (1.0 - k * k * s**4)
        assert abs(jacobi(2.0 * u, k)[0] - pred) < 1e-10


def test_pole_raises():
    k = 0.5
    kp = float(mpmath.ellipk(1 - mpmath.mpf(k) ** 2))
    with pytest.raises(NumericsError):
        jacobi(1j * kp, k)


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
        jacobi(u, k)


@pytest.mark.filterwarnings("error")
def test_params_reject_values_that_are_not_finite():
    # below the modulus floor sn and cn are sin and cos: at 1600j both
    # overflow, and cn*dn at the half-difference multiplies inf by 0
    with pytest.raises(NumericsError, match="not finite"):
        EllipticParams(1e-15, {1: 0.0, 2: 1600j, 3: 1.0})


def test_params_reject_pole_pair():
    k = 0.5
    kp = float(mpmath.ellipk(1 - mpmath.mpf(k) ** 2))
    coords = {1: 0.0, 2: 1j * kp, 3: 2.0, 4: 3.0, 5: 4.0}
    with pytest.raises(NumericsError):
        EllipticParams(k, coords)


def bits(z) -> tuple:
    return float(z.real).hex(), float(z.imag).hex()


def oracle_outcome(u, k):
    """The oracle's values as bits, or its error message."""
    try:
        return [bits(z) for z in oracle_sn_cn_dn(u, k)]
    except NumericsError as e:
        return str(e)


def kernel_outcomes(u, k) -> list:
    s, c, d, err = sn_cn_dn(u, k)
    return [
        elliptic._ERRORS[e] if e else [bits(s[i]), bits(c[i]), bits(d[i])]
        for i, e in enumerate(err)
    ]


def pair_arguments(p: EllipticParams) -> list:
    diffs = [p.coords[a] - p.coords[b] for a, b in p.sn]
    return diffs + [d / 2.0 for d in diffs]


# the special and failing cases: a zero argument, the trigonometric and
# hyperbolic limits, a pole (at i K'(0.5)), moduli that overflow the descent,
# a real modulus beyond 1, and NaN and infinite input.  At k = 1 and sn(u) =
# i, a descent the modulus does not take would meet 1 + k sn^2 = 0: among
# other moduli, only the level masks keep that from reading as a pole
EDGE_CASES = [
    (0.0, 0.37 + 0.1j),
    (0.7 + 0.2j, 0.0),
    (0.7 + 0.2j, 1.0),
    (1j * np.arcsinh(1.0), 1.0),
    (0.6 - 0.3j, 1e-7),
    (0.6 - 0.3j, 0.999999),
    (0.6 - 0.3j, 0.99 + 0.01j),
    (1j * float(mpmath.ellipk(0.75)), 0.5),
    (-0.5 - 0.2j, 1e10),
    (2e22 - 0.1j, 0.5 + 0.1j),
    (1e3j, 0.5),
    (1e3j, 0.0),
    (0.3, 3.0),
    (0.3, np.inf),
    (0.3, np.nan),
    (np.nan, 0.5),
]


@pytest.mark.parametrize("seed", [20260814, 0, 5])
def test_jacobi_kernel_matches_scalar_oracle_bits(seed, monkeypatch):
    """The array kernel gives every element the bits, or the failure, of the
    scalar descent: on criterion 8's arguments, on those of random
    EllipticParams, and on the special cases, each alone and all at once."""
    seen = []
    real = acceptance.sn_cn_dn
    monkeypatch.setattr(acceptance, "sn_cn_dn", lambda u, k: seen.append((u, k)) or real(u, k))
    acceptance.criterion_8(seed)
    (u, k), = seen  # criterion 8's identity draws, in one call
    assert len(u) == 10000
    assert kernel_outcomes(u, k) == [oracle_outcome(*uk) for uk in zip(u, k)]

    rng = np.random.default_rng(seed)
    for _ in range(50):
        p = draw_params(rng)
        args = pair_arguments(p)
        assert kernel_outcomes(args, p.modulus) == [oracle_outcome(x, p.modulus) for x in args]
        assert [bits(v) for v in p.sn.values()] == [
            bits(oracle_sn_cn_dn(x, p.modulus)[0]) for x in args[:10]
        ]
        assert [bits(v) for v in p.half_ratios.values()] == [
            bits(oracle_half_ratio(x, p.modulus)) for x in args[:10]
        ]

    u, k = zip(*EDGE_CASES)
    outcomes = [oracle_outcome(*uk) for uk in EDGE_CASES]
    assert {o for o in outcomes if isinstance(o, str)} == set(elliptic._ERRORS[2:])
    assert kernel_outcomes(u, k) == outcomes
    assert [kernel_outcomes([x], y)[0] for x, y in EDGE_CASES] == outcomes


def test_jacobi_kernel_reports_a_capped_descent(monkeypatch):
    # no modulus in reach takes 64 steps; 0.9 takes 4, 1e-7 takes 1.  Under
    # a cap of 2, the second argument at 0.9 also meets a pole in the levels
    # it keeps, and the third a value that is not finite
    monkeypatch.setattr(elliptic, "LANDEN_CAP", 2)
    u, k = [0.3, 3.323062480789513j, 1e3j, 0.3, 0.4], [0.9, 0.9, 0.9, 1e-7, 0.9]
    outcomes = [oracle_outcome(*uk) for uk in zip(u, k)]
    assert outcomes[:3] == ["modulus descent did not converge"] * 3
    assert kernel_outcomes(u, k) == outcomes
    assert kernel_outcomes([0.3, 3.323062480789513j, 0.4], 0.9) == [outcomes[i] for i in (0, 1, 4)]
    with pytest.raises(NumericsError, match="did not converge"):
        jacobi(0.3, 0.9)


def test_jacobi_kernel_broadcasts_and_chunks(monkeypatch):
    rng = np.random.default_rng(3)
    u = rng.uniform(-2, 2, (4, 5)) + 1j * rng.uniform(-1, 1, (4, 5))
    k = rng.uniform(-0.9, 0.9, 5) + 1j * rng.uniform(-0.3, 0.3, 5)
    whole = sn_cn_dn(u, k)
    assert all(a.shape == (4, 5) for a in whole)
    monkeypatch.setattr(elliptic, "_CHUNK", 3)
    for a, b in zip(whole, sn_cn_dn(u, k)):
        assert a.tobytes() == b.tobytes()
    assert [x.shape for x in sn_cn_dn([], 0.5)] == [(0,)] * 4


def test_params_keep_each_half_ratio(rng, monkeypatch):
    for _ in range(5):
        p = draw_params(rng)
        pairs = [(a, b) for a in SIMPLEX for b in SIMPLEX if a < b]
        assert list(p.sn) == list(p.half_ratios) == pairs
        for a, b in pairs:
            d = p.coords[a] - p.coords[b]
            assert bits(p.sn[a, b]) == bits(oracle_sn_cn_dn(d, p.modulus)[0])
            assert bits(p.half_ratios[a, b]) == bits(oracle_half_ratio(d, p.modulus))
        wm = elliptic_F(p)
        assert all(wm.entries[k, l] == p.half_ratios[SIMPLEX[k], SIMPLEX[l]] for k, l in EDGE_POS)
    assert "sn=" not in repr(p) and "half_ratios" not in repr(p)
    assert p == EllipticParams(p.modulus, p.coords)

    # construction evaluates two arguments per pair, the difference and half
    # of it, in one call; the cocycle reads the kept sn and evaluates none
    args = []
    real = elliptic.sn_cn_dn
    monkeypatch.setattr(elliptic, "sn_cn_dn", lambda u, k: args.append(np.size(u)) or real(u, k))
    q = EllipticParams(p.modulus, p.coords)
    assert args == [2 * len(pairs)]
    om = elliptic_cocycle(q)
    assert args == [2 * len(pairs)]
    assert all(bits(om[i, j, k]) == bits(q.sn[i, j] * q.sn[i, k] * q.sn[j, k]) for i, j, k in om.cells())


def test_params_raise_the_first_failure_in_pair_order():
    """Construction evaluates every pair at once, and raises what checking
    pair after pair raised first: coordinates at zeros, poles and
    half-argument zeros of cn*dn (k = 0.5) fail on varied pairs and checks."""
    K, Kp = float(mpmath.ellipk(0.25)), float(mpmath.ellipk(0.75))
    spots = [0.0, 2 * K, 1j * Kp, 2j * Kp, 1j * Kp + 1e-9, 0.9 + 0.3j, 1.7 - 0.2j]
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(300):
        coords = {v: spots[rng.integers(len(spots))] for v in SIMPLEX}
        ref = oracle_params_error(0.5, coords)
        try:
            EllipticParams(0.5, coords)
            got = None
        except NumericsError as e:
            got = str(e)
        assert got == ref
        seen.add(ref if ref is None else ref.split()[0])
    assert seen == {None, "argument", "difference", "half-argument"}


def test_primitive_raises_the_first_vertex_failure():
    K, Kp = float(mpmath.ellipk(0.25)), float(mpmath.ellipk(0.75))
    coords = {v: 0.2 + 0.31 * v + 0.07j * v for v in SIMPLEX}
    # sn(4K) = sn(0) = 0, and the pair's half-argument 2K is no zero of cn*dn
    p = EllipticParams(0.5, {**coords, 3: 4 * K, 5: 0.0})
    with pytest.raises(ValueError, match="sn vanishes at vertex 3$"):
        elliptic_primitive(p)
    p = EllipticParams(0.5, {**coords, 2: 1j * Kp})
    with pytest.raises(NumericsError, match="argument too close to a pole"):
        elliptic_primitive(p)


def test_cocycle_and_primitive(rng):
    p = draw_params(rng)
    om = elliptic_cocycle(p)
    assert is_cocycle(om)
    dnu = coboundary_values(elliptic_primitive(p).as_vector(), SIMPLEX, 1)
    err = np.abs(dnu - om.as_vector()).max()
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
    wm = elliptic_F(p)
    assert np.all(wm.entries == -wm.entries.T)
    assert np.all(np.diag(wm.entries) == 0)


@pytest.mark.parametrize("simplex", ((1, 2, 3, 4), (1, 2, 3, 4, 5, 6)))
def test_F_refuses_a_simplex_of_other_than_five_vertices(simplex):
    p = elliptic.random_elliptic_params(np.random.default_rng(3), simplex)
    with pytest.raises(ValueError, match="needs 5 distinct vertices"):
        elliptic_F(p)


def test_w_cocycle_proportional_to_elliptic(rng):
    for _ in range(5):
        p = draw_params(rng)
        om = elliptic_cocycle(p)
        w = extract_w_cocycle(normalize_family(elliptic_F(p)))
        ratios = [w[c] / om[c] for c in om.cells()]
        assert max(abs(r / ratios[0] - 1.0) for r in ratios) < 1e-8


def test_kappa_four_factor_product(rng):
    for _ in range(5):
        p = draw_params(rng)
        om = elliptic_cocycle(p)
        fam = normalize_family(elliptic_F(p))
        cal = calibrate_sqrt_choices([fam], [om])[0]
        x = p.coords

        def fr(i, j):
            return oracle_half_ratio(x[i] - x[j], p.modulus)

        pred = -fr(1, 3) * fr(1, 4) / (fr(2, 3) * fr(2, 4))
        assert abs(kappas([om], [cal])[0] - pred) < 1e-8 * abs(pred)


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
