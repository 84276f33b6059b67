"""Grassmann algebra core: products, derivatives, Berezin integrals, exp.

The reference multiplier below expands products symbolically (lists of
generator indices, bubble-sorted with an explicit transposition count), so
the bitmask implementation is tested against an independent oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pachner33.errors import SpaceMismatchError
from pachner33.grassmann import (
    GeneratorSpace,
    GrassmannElement,
    berezin_integral,
    exp_even,
    gaussian_coefficients,
    left_derivative,
    right_derivative,
)

V = [(i,) for i in range(1, 7)]
SPACE = GeneratorSpace(tuple(V))


def ref_multiply(a: GrassmannElement, b: GrassmannElement) -> GrassmannElement:
    """Slow reference product: concatenate index lists, sort counting swaps."""
    out = {}
    n = a.space.n
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            seq = [i for i in range(n) if ma >> i & 1] + [i for i in range(n) if mb >> i & 1]
            sign = 1
            changed = True
            while changed:
                changed = False
                for i in range(len(seq) - 1):
                    if seq[i] > seq[i + 1]:
                        seq[i], seq[i + 1] = seq[i + 1], seq[i]
                        sign = -sign
                        changed = True
            if any(x == y for x, y in zip(seq, seq[1:])):
                continue
            m = 0
            for i in seq:
                m |= 1 << i
            out[m] = out.get(m, 0.0) + sign * ca * cb
    return GrassmannElement(a.space, out)


def random_element(rng, nmax=6, terms=5, even=None):
    coeffs = {}
    for _ in range(terms):
        mask = int(rng.integers(0, 1 << nmax))
        if even is True and mask.bit_count() % 2:
            mask ^= 1 << int(rng.integers(0, nmax))
        if even is False and mask.bit_count() % 2 == 0:
            mask ^= 1 << int(rng.integers(0, nmax))
        coeffs[mask] = complex(rng.standard_normal(), rng.standard_normal())
    return GrassmannElement(SPACE, coeffs)


def x(i):
    return GrassmannElement.generator(SPACE, (i,))


def approx_equal(a, b, tol=1e-12):
    d = a - b
    scale = max(a.max_abs(), b.max_abs(), 1.0)
    return d.max_abs() <= tol * scale


def test_generators_anticommute():
    assert approx_equal(x(1) * x(2), -1.0 * (x(2) * x(1)))
    assert (x(3) * x(3)).coeffs == {}


def test_monomial_reordering_sign():
    # x2*x1 stored as -x1x2
    e = GrassmannElement.monomial(SPACE, [(2,), (1,)])
    assert e.coefficient([(1,), (2,)]) == -1.0


def test_product_example():
    one = GrassmannElement.scalar(SPACE, 1.0)
    f = one + x(1) * x(2)
    g = one + x(3) * x(4)
    h = f * g
    assert h.coefficient([]) == 1.0
    assert h.coefficient([(1,), (2,)]) == 1.0
    assert h.coefficient([(3,), (4,)]) == 1.0
    assert h.coefficient([(1,), (2,), (3,), (4,)]) == 1.0
    assert len(h.coeffs) == 4


def test_multiply_against_reference(rng):
    for _ in range(200):
        a = random_element(rng)
        b = random_element(rng)
        assert approx_equal(a * b, ref_multiply(a, b))


def test_associativity(rng):
    for _ in range(100):
        a, b, c = (random_element(rng) for _ in range(3))
        assert approx_equal((a * b) * c, a * (b * c))


def test_derivative_rules():
    # d/dx1 acting on x1x2 from the left gives x2, from the right -x2
    m = x(1) * x(2)
    assert approx_equal(left_derivative((1,), m), x(2))
    assert approx_equal(right_derivative((1,), m), -1.0 * x(2))
    # absent generator kills the term
    assert left_derivative((5,), m).coeffs == {}


def test_left_derivative_via_reference(rng):
    # moving x_i to the front with the reference product must agree
    for _ in range(100):
        f = random_element(rng)
        i = int(rng.integers(1, 7))
        df = left_derivative((i,), f)
        # check d(x_i * g) = g - x_i * d(g) style identity instead:
        # for f with no x_i, d(x_i f) = f
        g = GrassmannElement(SPACE, {m: c for m, c in f.coeffs.items() if not m >> (i - 1) & 1})
        assert approx_equal(left_derivative((i,), x(i) * g), g)


def test_leibniz_left_derivative(rng):
    # d(fg) = df g + (-1)^p f dg for f of pure parity p
    for parity in (True, False):
        for _ in range(50):
            f = random_element(rng, even=parity)
            g = random_element(rng)
            i = int(rng.integers(1, 7))
            lhs = left_derivative((i,), f * g)
            eps = 1.0 if parity else -1.0
            rhs = left_derivative((i,), f) * g + eps * (f * left_derivative((i,), g))
            assert approx_equal(lhs, rhs)


def test_derivatives_anticommute(rng):
    for _ in range(50):
        f = random_element(rng)
        a, b = (1,), (4,)
        assert approx_equal(
            left_derivative(a, left_derivative(b, f)),
            -1.0 * left_derivative(b, left_derivative(a, f)),
        )


def test_berezin_basic():
    # integral of x2 x1 dx1 dx2 = 1
    f = x(2) * x(1)
    out = berezin_integral(f, [(1,), (2,)])
    assert out.coefficient([]) == 1.0
    assert len(out.coeffs) == 1
    # integral of 1 over dx1 vanishes
    assert berezin_integral(GrassmannElement.scalar(SPACE, 1.0), [(1,)]).coeffs == {}


def test_berezin_fubini(rng):
    # innermost-first iteration: reversing the variable order only permutes
    # the result by the sign of the permutation of the measure
    for _ in range(50):
        f = random_element(rng)
        ab = berezin_integral(f, [(1,), (2,)])
        ba = berezin_integral(f, [(2,), (1,)])
        assert approx_equal(ab, -1.0 * ba)


def test_berezin_single_integral_is_pinned_down(rng):
    # the integral over x_i takes x_i g to (-1)^|g| g and kills anything free of x_i
    for parity in (True, False):
        for _ in range(25):
            i = int(rng.integers(1, 7))
            f = random_element(rng, even=parity)
            g = GrassmannElement(SPACE, {m: c for m, c in f.coeffs.items() if not m >> (i - 1) & 1})
            eps = 1.0 if parity else -1.0
            assert approx_equal(berezin_integral(x(i) * g, [(i,)]), eps * g)
            assert berezin_integral(g, [(i,)]).coeffs == {}


def test_exp_even_known_expansion():
    # exp(l x1x2 + m x2x3 + n x3x4) = 1 + ... + l*n x1x2x3x4
    lam, mu, nu = 0.7 + 0.1j, -0.3 + 2.0j, 0.25
    q = lam * (x(1) * x(2)) + mu * (x(2) * x(3)) + nu * (x(3) * x(4))
    e = exp_even(q)
    assert abs(e.coefficient([]) - 1.0) < 1e-15
    assert abs(e.coefficient([(1,), (2,)]) - lam) < 1e-15
    assert abs(e.coefficient([(2,), (3,)]) - mu) < 1e-15
    assert abs(e.coefficient([(1,), (2,), (3,), (4,)]) - lam * nu) < 1e-14
    # no x1x2x2x3-type terms survive
    assert len(e.coeffs) == 5


def test_exp_even_multiplicative_on_commuting_parts(rng):
    # q and q' on disjoint generators commute: exp(q+q') = exp(q) exp(q')
    q1 = (0.4 + 0.2j) * (x(1) * x(2))
    q2 = (1.1 - 0.5j) * (x(3) * x(4)) + 0.3 * (x(3) * x(5))
    assert approx_equal(exp_even(q1 + q2), exp_even(q1) * exp_even(q2))


def test_exp_even_inverse(rng):
    # even elements commute, so exp(q) exp(-q) = 1 however q's terms overlap
    one = GrassmannElement.scalar(SPACE, 1.0)
    for _ in range(25):
        q = random_element(rng, terms=8, even=True)
        q = q - q.constant_term() * one
        assert approx_equal(exp_even(q) * exp_even(-1.0 * q), one)


def two_form(space, A):
    """sum_{i<j} A[i, j] x_i x_j as an element, term by term."""
    q = GrassmannElement.zero(space)
    for i, j in zip(*np.triu_indices(space.n, 1)):
        q = q + GrassmannElement.monomial(space, [space.labels[i], space.labels[j]], A[i, j])
    return q


@pytest.mark.parametrize("n", range(13))
def test_gaussian_coefficients_match_exp_even(rng, n):
    space = GeneratorSpace(tuple((i,) for i in range(1, n + 1)))
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sparse = np.where(rng.random((n, n)) < 0.4, 0, A)
    lone = 1 << n // 2 if n else 0  # a generator that no term touches
    sparse[:, n // 2 : n // 2 + 1] = sparse[n // 2 : n // 2 + 1, :] = 0
    odd = [m for m in range(1 << n) if m.bit_count() % 2]
    for form in (A, sparse):
        expected = exp_even(two_form(space, form)).dense()
        got = gaussian_coefficients(form)
        assert got.shape == (1 << n,)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        assert not got[odd].any()
    assert not gaussian_coefficients(sparse)[[m for m in range(1 << n) if m & lone]].any()


def test_gaussian_coefficients_are_pfaffians():
    # the top coefficient of a 4-generator Gaussian is A01 A23 - A02 A13 + A03 A12;
    # the lower triangle is never read
    A = np.triu(np.arange(16.0).reshape(4, 4) + 1j, 1) + np.tril(np.full((4, 4), np.nan), -1)
    pf = gaussian_coefficients(A)
    assert pf[0] == 1 and pf[0b0011] == A[0, 1] and pf[0b1010] == A[1, 3]
    assert pf[0b1111] == A[0, 1] * A[2, 3] - A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2]


def test_dense_layout():
    e = 2.0 * GrassmannElement.scalar(SPACE, 1.0) + (0.5j) * (x(2) * x(4))
    d = e.dense()
    assert d.shape == (64,) and d[0] == 2.0 and d[0b1010] == 0.5j
    assert np.count_nonzero(d) == 2
    assert not GrassmannElement.zero(SPACE).dense().any()


def test_exp_even_rejects_bad_input():
    with pytest.raises(ValueError):
        exp_even(x(1))
    with pytest.raises(ValueError):
        exp_even(GrassmannElement.scalar(SPACE, 1.0) + x(1) * x(2))


def test_space_mismatch():
    other = GeneratorSpace(((1,), (2,)))
    with pytest.raises(SpaceMismatchError):
        _ = x(1) + GrassmannElement.generator(other, (1,))


def test_embed_preserves_products(rng):
    small = GeneratorSpace(((1,), (3,), (5,)))
    big = SPACE
    a = GrassmannElement(small, {0b011: 1.5, 0b100: 2.0 - 1.0j})
    b = GrassmannElement(small, {0b101: -0.5j, 0b001: 1.0})
    assert approx_equal((a * b).embed(big), a.embed(big) * b.embed(big))


def test_restrict_inverts_embed(rng):
    small = GeneratorSpace(((1,), (3,), (5,)))
    a = GrassmannElement(small, {0b011: 1.5, 0b100: 2.0 - 1.0j, 0b111: 0.25j})
    back = a.embed(SPACE).restrict_to(small)
    assert back.coeffs == a.coeffs and list(back.coeffs) == list(a.coeffs)
    stray = GrassmannElement.generator(SPACE, (2,)) * GrassmannElement.generator(SPACE, (3,))
    with pytest.raises(SpaceMismatchError, match=r"monomial \(\(2,\), \(3,\)\) uses dropped"):
        stray.restrict_to(small)
    with pytest.raises(SpaceMismatchError, match="not a subspace"):
        a.restrict_to(GeneratorSpace(((1,), (7,))))
    with pytest.raises(SpaceMismatchError, match="does not contain"):
        a.embed(GeneratorSpace(((1,), (3,))))


def test_max_generators_cap():
    with pytest.raises(ValueError):
        GeneratorSpace(tuple((i,) for i in range(13)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_product_parity_and_bilinearity(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    f = random_element(rng, even=True)
    g = random_element(rng, even=False)
    assert (f * g).is_odd()
    assert (g * g).is_even()
    h = random_element(rng)
    s = complex(rng.standard_normal(), rng.standard_normal())
    assert approx_equal((s * f) * h, s * (f * h))
