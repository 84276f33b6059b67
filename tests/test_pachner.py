"""The six-simplex scene: incidence bookkeeping, reconciliation, and the
integrated identity between the two sides."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pachner33.acceptance import elliptic_scene_cocycle
from pachner33.cli import DEFAULT_TOLERANCE
from pachner33.elliptic import elliptic_cocycle, random_elliptic_params
from pachner33 import pachner
from pachner33.errors import ConsistencyError, DegenerateWeightError, Pachner33Error
from pachner33.grassmann import (
    GeneratorSpace,
    GrassmannElement,
    _pfaffian_levels,
    berezin_integral,
    gaussian_coefficients,
)
from pachner33.operators import LinearOperator, action_matrix, basis_angles, column_space
from pachner33.pachner import (
    BOUNDARY,
    BOUNDARY_TETRAHEDRA,
    EDGE_ROWS,
    EDGES,
    INNER_LHS,
    INNER_RHS,
    LHS_SIMPLICES,
    OWNER,
    RHS_SIMPLICES,
    SHARED,
    SIGN,
    SIMPLICES,
    SLOT,
    TREE,
    VERTICES,
    Verification33,
    _SIDE_SLOTS,
    _check_diagonal,
    _components,
    _composed,
    _fit,
    reconcile,
    side_weight,
    verify_33,
)
from pachner33.simplicial import Cochain, faces, generic_cocycle, permutation_sign, random_cocycle
from pachner33.weights import WeightMatrix, gauged_entries, gaussian_weight, opposite_tetrahedra

BOUNDARY_SPACE = GeneratorSpace(BOUNDARY_TETRAHEDRA)
# each side's simplices and inner tetrahedra, written out rather than read off
# pachner: the inner order is the order of integration, which fixes the
# sign of each side and so of const
SIDES = {
    "lhs": (LHS_SIMPLICES, ((1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6))),
    "rhs": (RHS_SIMPLICES, ((1, 4, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6))),
}


def scanned_owners() -> dict:
    """Oracle for the incidence table: each tetrahedron's owners, found by
    scanning every simplex's faces, in the lex order of the simplices."""
    seen = {}
    for u in SIMPLICES:
        for t in faces(u, 3):
            seen.setdefault(t, []).append(u)
    return seen


def table_owners(t) -> list:
    return [SIMPLICES[i] for i in OWNER[SHARED.index(t)]]


def expanded_side_weight(rec, side) -> np.ndarray:
    """Oracle for side_weight: multiply the three gauged weights out in the
    Grassmann algebra (2^12 terms) on the side's lex space, integrate term
    by term, restrict."""
    us, inner = SIDES[side]
    space = GeneratorSpace(inner + BOUNDARY_TETRAHEDRA)
    prod = GrassmannElement.scalar(space, 1.0)
    for u in us:
        i = SIMPLICES.index(u)
        wm = WeightMatrix(u, oracle_gauged(rec.matrices[i], rec.gauges[i]))
        prod = prod * gaussian_weight(wm).embed(space)
    return berezin_integral(prod, inner).restrict_to(BOUNDARY_SPACE).dense()


def side_element(rec, side) -> GrassmannElement:
    return GrassmannElement(BOUNDARY_SPACE, dict(enumerate(side_weight(rec, side))))


def test_every_tetrahedron_shared_exactly_once():
    seen = scanned_owners()
    assert sorted(seen) == list(SHARED)
    assert len(SHARED) == 15
    for t, us in seen.items():
        assert len(us) == 2
        assert table_owners(t) == us
    # each tetrahedron of each simplex is one (owner, slot) entry of the table
    entries = sorted(zip(OWNER.ravel().tolist(), SLOT.ravel().tolist()))
    assert entries == [(i, s) for i in range(6) for s in range(5)]


def test_incidence_table_matches_scan():
    scene_edges = faces(VERTICES, 1)
    assert OWNER.shape == SLOT.shape == (15, 2)
    assert EDGE_ROWS.shape == (15, 2, 6) and EDGES.shape == (15, 6) and SIGN.shape == (15,)
    for t, us in scanned_owners().items():
        k = SHARED.index(t)
        for j, u in enumerate(us):
            assert SLOT[k, j] == faces(u, 3).index(t)
            rows = [r for r, b in enumerate(faces(u, 1)) if set(b) <= set(t)]
            assert EDGE_ROWS[k, j].tolist() == rows
            assert [faces(u, 1)[r] for r in rows] == [scene_edges[e] for e in EDGES[k]]
        assert SIGN[k] == (-1 if t in INNER_LHS + INNER_RHS else 1)
    # the spanning tree reaches the other five simplices in lex order
    assert OWNER[TREE, 0].tolist() == [0] * 5
    assert [SIMPLICES[i] for i in OWNER[TREE, 1]] == sorted(SIMPLICES[1:])
    with pytest.raises(ValueError):
        OWNER[0, 0] = 1


def test_scene_partition():
    assert len(BOUNDARY_TETRAHEDRA) == 9
    assert [t for t, s in zip(SHARED, SIGN) if s > 0] == list(BOUNDARY_TETRAHEDRA)
    for t in BOUNDARY_TETRAHEDRA:
        lhs_u, rhs_u = table_owners(t)
        assert lhs_u in LHS_SIMPLICES and rhs_u in RHS_SIMPLICES
    for t in INNER_LHS:
        assert all(u in LHS_SIMPLICES for u in table_owners(t))
    for t in INNER_RHS:
        assert all(u in RHS_SIMPLICES for u in table_owners(t))
    # the sides meet exactly in the boundary tetrahedra
    lhs_tets = {t for u in LHS_SIMPLICES for t in faces(u, 3)}
    rhs_tets = {t for u in RHS_SIMPLICES for t in faces(u, 3)}
    assert lhs_tets & rhs_tets == set(BOUNDARY_TETRAHEDRA)


def test_reconcile_basics(rng):
    om = generic_cocycle(rng, VERTICES)
    rec = reconcile(om)
    assert [wm.simplex for wm in rec.matrices] == list(SIMPLICES)
    assert rec.families.shape == (6, 10, 10)
    assert rec.gauges.shape == (6, 5) and rec.rho.shape == (6,)
    assert rec.rho[0] == 1.0
    assert len(rec.loop_residuals) == 10
    assert max(rec.loop_residuals) < 1e-12
    owners = scanned_owners()
    for t in SHARED:
        (u1, u2), s1 = owners[t], faces(owners[t][0], 3).index(t)
        # lex-smaller owner anchors each shared tetrahedron at gauge one
        assert rec.gauges[SIMPLICES.index(u1), s1] == 1.0
        # scaled and gauged, both owners give the same beta on the tetrahedron's
        # six edges, and the same gamma up to the sign of an inner one
        sides = []
        for u in (u1, u2):
            i, s = SIMPLICES.index(u), faces(u, 3).index(t)
            rows = [r for r, b in enumerate(faces(u, 1)) if set(b) <= set(t)]
            lam, r = rec.gauges[i, s], rec.rho[i]
            sides.append((r / lam * rec.families[i][rows, s], r * lam * rec.families[i][rows, 5 + s]))
        (b1, g1), (b2, g2) = sides
        sign = -1 if t in INNER_LHS + INNER_RHS else 1
        assert np.abs(b2 - b1).max() <= 1e-12 * np.abs(b1).max()
        assert np.abs(g2 - sign * g1).max() <= 1e-12 * np.abs(g1).max()


def lstsq_maps(c1, c2) -> np.ndarray:
    """Oracle for the stacked fit: np.linalg.lstsq on each tetrahedron."""
    return np.array([np.linalg.lstsq(a, b, rcond=None)[0] for a, b in zip(c1, c2)])


def _random_components(rng):
    """A (15, 6, 2) stack of first-owner components, one block per tetrahedron."""
    return rng.normal(size=(15, 6, 2)) + 1j * rng.normal(size=(15, 6, 2))


def _assert_maps_match(c1, c2):
    """Each stacked map matches lstsq's to 1e-13 relative or, on a block whose
    kept singular values span more than about 110 (elliptic ones reach 3e5),
    to within the two solvers' forward error, 4 eps per unit of that span;
    the diagonal entries, which the gauges and scales are read from, match
    to 1e-13 in any case."""
    eps = np.finfo(float).eps
    got, want = _fit(c1, c2), lstsq_maps(c1, c2)
    assert got.shape == want.shape == (len(c1), 2, 2)
    for a, g, w in zip(c1, got, want):
        s = np.linalg.svd(a, compute_uv=False)
        kept = s[s > 6 * eps * s[0]]
        span = kept[0] / kept[-1] if kept.size else 1.0
        assert np.abs(g - w).max() <= max(1e-13, 4 * eps * span) * np.abs(w).max()
        assert np.all(np.abs(np.diagonal(g - w)) <= 1e-13 * np.abs(np.diagonal(w)))


@pytest.mark.parametrize("kind", ("generic", "elliptic"))
def test_stacked_fit_matches_lstsq(kind):
    for rec in _scenes(kind, 20):
        comps = _components(rec.families)
        _assert_maps_match(comps[:, 0], comps[:, 1])


def test_stacked_fit_matches_lstsq_on_rank_deficient_blocks(rng):
    c1 = _random_components(rng)
    c2 = c1 @ np.diag([2.0, 0.5 + 1j])
    c1[4, :, 1] = 2 * c1[4, :, 0]  # rank 1, with c2 in its span
    c2[4] = c1[4] @ np.array([[1.0, 3.0], [0.5, -1j]])
    c1[9] = c2[9] = 0
    assert np.linalg.matrix_rank(c1[4]) == 1
    _assert_maps_match(c1, c2)
    assert np.all(_fit(c1, c2)[9] == 0)


def test_check_diagonal(rng):
    maps = np.tile(np.eye(2, dtype=complex), (15, 1, 1))
    maps[0] = [[2.0, 2e-9], [-2e-9, 1.5 - 0.5j]]  # diagonal within 1e-8
    # swapped derivative and multiplication roles are no longer repaired
    maps[3] = [[0.0, 1.0], [2.0, 0.0]]
    maps[10] = [[1.0, 1.6e-7], [0.0, 0.5]]
    maps[11] = 0
    c1 = _random_components(rng)
    with pytest.raises(ConsistencyError, match=r"transition on \(1, 2, 4, 5\) is not diagonal"):
        _check_diagonal(c1, c1 @ maps, maps)
    maps[3] = np.eye(2)
    with pytest.raises(ConsistencyError) as err:
        _check_diagonal(c1, c1 @ maps, maps)
    assert SHARED[10] == (2, 3, 4, 5)
    assert str(err.value) == (
        "transition on (2, 3, 4, 5) is not diagonal: off/on ratio 1.60e-07 above 1e-08"
    )
    maps[10] = np.eye(2)
    with pytest.raises(ConsistencyError, match=r"on \(2, 3, 4, 6\) is not diagonal: off/on ratio inf"):
        _check_diagonal(c1, c1 @ maps, maps)
    maps[11] = np.eye(2)
    _check_diagonal(c1, c1 @ maps, maps)


def test_check_diagonal_ranks_fit_errors_first(rng):
    """A fit error at a later tetrahedron outranks a diagonal error at an
    earlier one, and each kind names the first tetrahedron that fails it."""
    maps = np.tile(np.eye(2, dtype=complex), (15, 1, 1))
    maps[[2, 5]] = [[0.0, 1.0], [1.0, 0.0]]
    c1 = _random_components(rng)
    c2 = c1 @ maps
    c2[[8, 12], 0] *= 1.5
    with pytest.raises(ConsistencyError) as err:
        _check_diagonal(c1, c2, maps)
    assert str(err.value).startswith(f"components on {SHARED[8]} are not related by a 2x2 map (residual ")
    c2[8] = c1[8] @ maps[8]
    with pytest.raises(ConsistencyError, match=f"components on {re.escape(str(SHARED[12]))} "):
        _check_diagonal(c1, c2, maps)
    c2[12] = c1[12] @ maps[12]
    with pytest.raises(ConsistencyError, match=f"transition on {re.escape(str(SHARED[2]))} is not diagonal"):
        _check_diagonal(c1, c2, maps)


def test_reconcile_rejects_wrong_vertex_set(rng):
    om = random_cocycle((1, 2, 3, 4, 5), rng)
    with pytest.raises(ValueError):
        reconcile(om)


def test_reconcile_rejects_non_cocycle(rng):
    om = generic_cocycle(rng, VERTICES)
    vals = dict(om.values)
    vals[(1, 2, 3)] = vals[(1, 2, 3)] + 0.5
    with pytest.raises(ValueError) as err:
        reconcile(Cochain(VERTICES, 2, vals))
    assert str(err.value) == "cochain has no primitive: not a cocycle"


def _reconcile_with(monkeypatch, omega, edit):
    """reconcile with edit(families) applied to its six normalized families."""
    normalize = pachner.normalize_families
    monkeypatch.setattr(pachner, "normalize_families", lambda wms: edit(normalize(wms)))
    return reconcile(omega)


def test_reconcile_names_a_singular_transition(rng, monkeypatch):
    om = generic_cocycle(rng, VERTICES)
    u = 3  # a leaf of the spanning tree, joined to SIMPLICES[0] at (1, 2, 4, 5)
    scale = np.where(np.arange(6) == u, 1e-7, 1.0)[:, None, None]
    with pytest.raises(DegenerateWeightError) as err:
        _reconcile_with(monkeypatch, om, lambda fams: fams * scale)
    assert str(err.value) == "singular transition on (1, 2, 4, 5)"


def test_reconcile_names_a_tetrahedron_without_a_2x2_map(rng, monkeypatch):
    om = generic_cocycle(rng, VERTICES)
    k = 7  # one owner's first edge row at this tetrahedron, both components
    u, slot, row = OWNER[k, 1], SLOT[k, 1], EDGE_ROWS[k, 1, 0]

    def perturb(fams):
        fams = fams.copy()
        fams[u, row, [slot, slot + 5]] *= 1.5
        return fams

    with pytest.raises(ConsistencyError) as err:
        _reconcile_with(monkeypatch, om, perturb)
    assert str(err.value).startswith(f"components on {SHARED[k]} are not related by a 2x2 map (residual ")


def test_reconcile_measures_loop_residuals_without_judging_them(rng, monkeypatch):
    """Scaling both components of one loop tetrahedron's owner keeps its
    transition diagonal and moves the loop through it by 1 - 1/1.5^2; the
    residual comes back in the scene, for the verdict to judge."""
    assert list(inspect.signature(reconcile).parameters) == ["omega"]
    om = generic_cocycle(rng, VERTICES)
    k = int(np.flatnonzero(~TREE)[0])
    u, slot = OWNER[k, 1], SLOT[k, 1]

    def scale(fams):
        fams = fams.copy()
        fams[u, :, [slot, slot + 5]] *= 1.5
        return fams

    loops = _reconcile_with(monkeypatch, om, scale).loop_residuals
    assert max(loops) == pytest.approx(1 - 1 / 1.5**2, rel=1e-9)
    assert sorted(loops)[-2] < 1e-9  # the other nine loops close


def test_side_weights_are_odd(rng):
    rec = reconcile(generic_cocycle(rng, VERTICES))
    even = [m for m in range(512) if m.bit_count() % 2 == 0]
    for side in ("lhs", "rhs"):
        s = side_weight(rec, side)
        assert s.shape == (512,) and s.dtype == complex
        assert np.all(s[even] == 0)
        assert np.abs(s).max() > 0


def _scenes(kind, count):
    """The first `count` scenes that reconcile, drawn as the CLI draws its
    --seed (and --elliptic) scenes; elliptic ones are not filtered.  Fails
    after count + 50 draws, naming the last error, rather than drawing on."""
    last, draws = None, count + 50
    for seed in range(draws):
        rng = np.random.default_rng(seed)
        if kind == "elliptic":
            om = elliptic_cocycle(random_elliptic_params(rng, VERTICES))
        else:
            om = generic_cocycle(rng, VERTICES)
        try:
            rec = reconcile(om)
        except Pachner33Error as err:
            last = err
            continue  # no side to integrate
        count -= 1
        yield rec
        if not count:
            return
    pytest.fail(f"{count} {kind} scenes short after {draws} draws; last error: {last!r}")


def test_scenes_stop_when_nothing_reconciles(monkeypatch):
    def never(om):
        raise ConsistencyError("never")

    monkeypatch.setitem(globals(), "reconcile", never)
    with pytest.raises(pytest.fail.Exception, match="3 generic scenes short after 53 draws; last error"):
        list(_scenes("generic", 3))


def mp_side_weight(rec, side):
    """The side's coefficients as Pfaffian minors at 40 digits, by the
    recursion gaussian_coefficients runs on the form as side_weight lays it
    out, and H: the same recursion in floats on |A| with every sign +1, the
    sum of the minors' absolute terms.  Both are read off the top 512 masks."""
    A = np.zeros((12, 12), dtype=complex)
    for i, ix in zip(*_SIDE_SLOTS[side]):
        A[ix[:, None], ix] -= oracle_gauged(rec.matrices[i], rec.gauges[i])
    flat = A.ravel()
    pf, H = [mpmath.mpc(1)] + [mpmath.mpc(0)] * 4095, np.zeros(4096)
    H[0] = 1.0
    with mpmath.workdps(40):
        for m, entry, sub, alt in _pfaffian_levels(12):
            for mask, es, ss in zip(m, entry, sub):
                terms = (a * mpmath.mpc(flat[e]) * pf[s] for a, e, s in zip(alt, es, ss))
                pf[mask] = mpmath.fsum(terms)
            H[m] = (np.abs(flat)[entry] * H[sub]).sum(axis=1)
        return pf[-512:], H[-512:]


@pytest.mark.parametrize("kind", ("generic", "elliptic"))
def test_side_weight_matches_expansion(kind):
    for rec in _scenes(kind, 20):
        for side in ("lhs", "rhs"):
            expected = expanded_side_weight(rec, side)
            got = side_weight(rec, side)
            if np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max():
                continue
            # the side cancels (elliptic seed 7): no double-precision method
            # meets 1e-13 there, so both must be within rounding of the terms
            exact, H = mp_side_weight(rec, side)
            with mpmath.workdps(40):
                for x in (got, expected):
                    err = [float(abs(mpmath.mpc(xi) - ei)) for xi, ei in zip(x, exact)]
                    assert np.all(np.array(err) <= 4 * np.finfo(float).eps * H)


def test_composed_operators(rng):
    rec = reconcile(generic_cocycle(rng, VERTICES))
    space = BOUNDARY_SPACE
    n = space.n
    lhs, rhs = _composed(rec)
    sl = side_element(rec, "lhs")
    sr = side_element(rec, "rhs")
    agreement = anni = 0.0
    for a, d, other in zip(faces(VERTICES, 1), lhs, rhs):
        # both sides supply the same components on every boundary tetrahedron
        gap = abs(d - other).max() / max(np.linalg.norm(d), np.linalg.norm(other))
        assert gap <= 1e-9
        agreement = max(agreement, gap)
        # support sits on the boundary tetrahedra containing the edge
        for i, t in enumerate(space.labels):
            if not set(a) <= set(t):
                assert d[i] == 0 and d[n + i] == 0
        op = LinearOperator(space, d[:n], d[n:])
        for s in (sl, sr):
            anni = max(anni, op.apply(s).max_abs() / (np.linalg.norm(d) * s.max_abs()))
    assert anni < 1e-11
    iso = max(
        abs(d[:n] @ e[n:] + e[:n] @ d[n:]) / (np.linalg.norm(d) * np.linalg.norm(e))
        for i, d in enumerate(lhs)
        for e in lhs[i:]
    )
    assert iso < 1e-12
    # verify_33 reports the same three figures, computed on whole matrices
    rep = verify_33(rec)
    assert rep.agreement == pytest.approx(agreement, rel=1e-12)
    assert rep.annihilation_residual == pytest.approx(anni, abs=1e-16)
    assert rep.isotropy_residual == pytest.approx(iso, abs=1e-16)


def test_composed_matches_scalar_fill(rng):
    rec = reconcile(generic_cocycle(rng, VERTICES))
    owners = scanned_owners()
    row = {a: k for k, a in enumerate(faces(VERTICES, 1))}
    for pick in (0, 1):
        expected = np.zeros((15, 18), dtype=complex)
        for i, t in enumerate(BOUNDARY_TETRAHEDRA):
            u = owners[t][pick]
            k, s = SIMPLICES.index(u), faces(u, 3).index(t)
            lam, r = rec.gauges[k, s], rec.rho[k]
            for a, b, g in zip(faces(u, 1), rec.families[k][:, s], rec.families[k][:, 5 + s]):
                expected[row[a], i] = r * b / lam
                expected[row[a], 9 + i] = r * g * lam
        got = _composed(rec)[pick]
        assert np.all((got == 0) == (expected == 0))
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


def test_verify_random_scene(rng):
    rep = verify_33(reconcile(generic_cocycle(rng, VERTICES)))
    assert abs(rep.const) > 1e-10
    assert rep.max_residual < 1e-12
    assert rep.agreement < 1e-12
    assert rep.annihilation_residual < 1e-12
    assert rep.isotropy_residual < 1e-12
    assert rep.annihilator_dimension == 9
    assert rep.annihilator_angle < 1e-10
    assert len(rep.loop_residuals) == 10


def test_verify_elliptic_scene(rng):
    rep = verify_33(reconcile(elliptic_scene_cocycle(rng)))
    assert abs(rep.const) > 1e-10
    assert rep.max_residual < 1e-11
    assert rep.annihilator_dimension == 9
    assert rep.annihilator_angle < 1e-10


def test_verify_scaling_covariance(rng):
    om = generic_cocycle(rng, VERTICES)
    rep1 = verify_33(reconcile(om))
    assert rep1.annihilator_dimension == 9
    scales = [3.7 - 1.2j] + [10.0**e for e in (12, 80, 100, 150, 200, 300)]
    for scale in scales + [1 / s for s in scales]:
        rep2 = verify_33(reconcile(om.scaled(scale)))
        assert rep2.max_residual < 1e-12
        assert abs(rep2.const) > 1e-10
        assert rep2.annihilator_dimension == 9



@functools.cache
def _identity_worst(seed: int) -> float:
    return verify_33(reconcile(generic_cocycle(np.random.default_rng(seed), VERTICES))).worst


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 9), st.permutations(VERTICES))
def test_relabelled_scene_verifies(seed, image):
    """A permutation sigma of the labels maps omega to omega'(sigma f) =
    sign(sigma on f) omega(f), again a cocycle on 1-6, whose scene is the 3-3
    move of another partition of the same six simplices: it verifies, its
    worst figure within 100x that of the identity labelling."""
    sigma = dict(zip(VERTICES, image))
    om = generic_cocycle(np.random.default_rng(seed), VERTICES)
    moved = {}
    for f in om.cells():
        g = tuple(sigma[v] for v in f)
        moved[tuple(sorted(g))] = permutation_sign(g) * om[f]
    rep = verify_33(reconcile(Cochain(VERTICES, 2, moved)))
    assert all(rep.verdict(DEFAULT_TOLERANCE)), rep
    assert rep.worst <= 100 * _identity_worst(seed), (rep.worst, _identity_worst(seed))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 59), st.integers(0, 2**32 - 1))
def test_const_follows_the_gauge_law(seed, gauge_seed):
    """Replace each reconstructed F_u by D_u F_u D_u, D_u a complex diagonal:
    every figure holds, and const is multiplied by D at the left owner's slot
    of each LHS inner tetrahedron and divided by it at each RHS inner one,
    up to a sign from the square roots of rho."""
    om = generic_cocycle(np.random.default_rng(seed), VERTICES)
    base = verify_33(reconcile(om)).const
    rng = np.random.default_rng(gauge_seed)
    D = np.exp(rng.uniform(-1, 1, (6, 5)) + 1j * rng.uniform(-np.pi, np.pi, (6, 5)))
    real = pachner.reconstruct_F

    def gauged(cochain):
        wm = real(cochain)
        return WeightMatrix(wm.simplex, gauged_entries([wm], [D[SIMPLICES.index(wm.simplex)]])[0])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pachner, "reconstruct_F", gauged)
        rep = verify_33(reconcile(om))
    k_lhs, k_rhs = ([SHARED.index(t) for t in inner] for inner in (INNER_LHS, INNER_RHS))
    law = np.prod(D[OWNER[k_lhs, 0], SLOT[k_lhs, 0]]) / np.prod(D[OWNER[k_rhs, 0], SLOT[k_rhs, 0]])
    ratio = rep.const / (base * law)
    assert min(abs(ratio - 1), abs(ratio + 1)) < 1e-11, ratio
    assert rep.worst < 1e-11


def _seed_scenes(kind):
    """The scenes of seeds 0-29 that reconcile, drawn as the CLI draws them."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        if kind == "elliptic":
            om = elliptic_cocycle(random_elliptic_params(rng, VERTICES))
        else:
            om = generic_cocycle(rng, VERTICES)
        try:
            yield reconcile(om)
        except Pachner33Error:
            continue


def oracle_gauged(wm, scales) -> np.ndarray:
    """One weight's congruence by the diagonal of its reversed scales."""
    A = np.diag(np.asarray(scales, dtype=complex)[::-1])
    return A @ wm.entries @ A


@pytest.mark.parametrize("kind", ("generic", "elliptic"))
def test_stacked_gauge_has_the_bits_of_its_rows(kind):
    for rec in _seed_scenes(kind):
        stacked = gauged_entries(rec.matrices, rec.gauges)
        rows = [gauged_entries([wm], [lam])[0] for wm, lam in zip(rec.matrices, rec.gauges)]
        alone = [oracle_gauged(wm, lam) for wm, lam in zip(rec.matrices, rec.gauges)]
        assert stacked.tobytes() == np.array(rows).tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize(
    "zeros, k, i",
    (([(4, 2)], 4, 2), ([(5, 0), (2, 3)], 2, 3), ([(1, 4), (1, 1), (0, 2)], 0, 2)),
)
def test_a_zero_gauge_scale_is_named(rng, zeros, k, i):
    """A zero scale raises when the sides are integrated, naming the first
    such tetrahedron of the first simplex that has one: the left side's
    simplices come first, as when each side gauged its own."""
    rec = reconcile(generic_cocycle(rng, VERTICES))
    gauges = rec.gauges.copy()
    for at in zeros:
        gauges[at] = 0
    message = f"gauge scale for {faces(SIMPLICES[k], 3)[i]} must be nonzero"
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_33(dataclasses.replace(rec, gauges=gauges))


def oracle_side_weight(rec, side) -> np.ndarray:
    """A side's coefficients from its form assembled block by block, each
    simplex gauged on its own."""
    us, inner = SIDES[side]
    slot = {t: i for i, t in enumerate(BOUNDARY_TETRAHEDRA + inner[::-1])}
    A = np.zeros((12, 12), dtype=complex)
    for u in us:
        i = SIMPLICES.index(u)
        ix = np.array([slot[t] for t in opposite_tetrahedra(u)])
        A[ix[:, None], ix] -= oracle_gauged(rec.matrices[i], rec.gauges[i])
    return gaussian_coefficients(A)[-512:]


def oracle_composed(rec, pick) -> np.ndarray:
    """The composed operators read off one owner, its components gathered on their own."""
    u, slot = OWNER[BOUNDARY, pick], SLOT[BOUNDARY, pick]
    cols = slot[:, None, None] + np.array([0, 5])
    comps = rec.families[u[:, None, None], EDGE_ROWS[BOUNDARY, pick][:, :, None], cols]
    lam, r = rec.gauges[u, slot], rec.rho[u]
    scaled = comps * np.stack([r / lam, r * lam], axis=1)[:, None]
    out = np.zeros((15, 18), dtype=complex)
    out[EDGES[BOUNDARY][:, :, None], np.arange(9)[:, None, None] + np.array([0, 9])] = scaled
    return out


def oracle_verify_33(rec) -> Verification33:
    """verify_33 side by side and owner by owner."""
    SL, SR = oracle_side_weight(rec, "lhs"), oracle_side_weight(rec, "rhs")
    abs_l, abs_r = np.abs(SL), np.abs(SR)
    top = np.argmax(abs_r)
    const = SL[top] / SR[top]
    max_residual = np.abs(SL - const * SR).max() / abs_l.max()
    lhs_mat, rhs_mat = oracle_composed(rec, 0), oracle_composed(rec, 1)
    norms = np.maximum(np.linalg.norm(lhs_mat, axis=1), 1e-300)
    both = np.maximum(norms, np.linalg.norm(rhs_mat, axis=1))
    agreement = (np.abs(lhs_mat - rhs_mat).max(axis=1) / both).max()
    anni = max(
        (np.abs(action_matrix(S) @ lhs_mat.T).max(axis=0) / norms).max() / abs_s.max()
        for S, abs_s in ((SL, abs_l), (SR, abs_r))
    )
    cross = lhs_mat[:, :9] @ lhs_mat[:, 9:].T
    iso = (np.abs(cross + cross.T) / np.outer(norms, norms)).max()
    basis = column_space(lhs_mat.T)
    angles = basis_angles(basis, column_space(rhs_mat.T))
    return Verification33(
        const=complex(const),
        max_residual=float(max_residual),
        agreement=float(agreement),
        annihilation_residual=float(anni),
        isotropy_residual=float(iso),
        annihilator_dimension=basis.shape[1],
        annihilator_angle=float(angles.max()) if angles.size else 0.0,
        loop_residuals=rec.loop_residuals,
    )


@pytest.mark.parametrize("kind", ("generic", "elliptic"))
def test_verify_33_has_the_bits_of_the_side_by_side_oracle(kind):
    for rec in _seed_scenes(kind):
        assert repr(verify_33(rec)) == repr(oracle_verify_33(rec))
