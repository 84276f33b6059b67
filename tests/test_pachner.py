"""The six-simplex scene: incidence bookkeeping, reconciliation, and the
integrated identity between the two sides."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest

from pachner33.acceptance import elliptic_scene_cocycle, generic_cocycle, random_elliptic_params
from pachner33.elliptic import elliptic_cocycle
from pachner33 import pachner
from pachner33.errors import ConsistencyError, DegenerateWeightError, Pachner33Error
from pachner33.grassmann import GeneratorSpace, GrassmannElement, _pfaffian_levels, berezin_integral
from pachner33.operators import LinearOperator
from pachner33.pachner import (
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
    _SIDE_TABLES,
    _check_diagonal,
    _composed,
    _side_inner,
    reconcile,
    side_simplices,
    side_space,
    side_weight,
    verify_33,
)
from pachner33.simplicial import Cochain, faces, random_cocycle
from pachner33.weights import apply_gauge_to_F, gaussian_weight

BOUNDARY_SPACE = GeneratorSpace(BOUNDARY_TETRAHEDRA)


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
    Grassmann algebra (2^12 terms), integrate term by term, restrict."""
    space = side_space(side)
    prod = GrassmannElement.scalar(space, 1.0)
    for u in side_simplices(side):
        i = SIMPLICES.index(u)
        wm = apply_gauge_to_F(rec.matrices[i], rec.gauges[i])
        prod = prod * gaussian_weight(wm).embed(space)
    return berezin_integral(prod, _side_inner(side)).restrict_to(BOUNDARY_SPACE).dense()


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


def test_check_diagonal():
    _check_diagonal(np.array([[2.0, 2e-9], [-2e-9, 1.5 - 0.5j]]), (1, 2, 3, 4))
    # swapped derivative and multiplication roles are no longer repaired
    with pytest.raises(ConsistencyError):
        _check_diagonal(np.array([[0.0, 1.0], [2.0, 0.0]]), (1, 2, 3, 4))
    with pytest.raises(ConsistencyError) as err:
        _check_diagonal(np.array([[1.0, 1.6e-7], [0.0, 0.5]]), (2, 3, 4, 5))
    assert str(err.value) == (
        "transition on (2, 3, 4, 5) is not diagonal: off/on ratio 1.60e-07 above 1e-08"
    )
    with pytest.raises(ConsistencyError, match="off/on ratio inf"):
        _check_diagonal(np.zeros((2, 2)), (2, 3, 4, 5))


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
    recursion gaussian_coefficients runs, and H: the same recursion in floats
    on |A| with every sign +1, the sum of the minors' absolute terms."""
    slots, masks, signs = _SIDE_TABLES[side]
    A = np.zeros((12, 12), dtype=complex)
    for i, ix in slots:
        gauged = apply_gauge_to_F(rec.matrices[i], rec.gauges[i])
        A[ix[:, None], ix] -= gauged.entries
    flat = A.ravel()
    pf, H = [mpmath.mpc(1)] + [mpmath.mpc(0)] * 4095, np.zeros(4096)
    H[0] = 1.0
    with mpmath.workdps(40):
        for m, entry, sub, alt in _pfaffian_levels(12):
            for mask, es, ss in zip(m, entry, sub):
                terms = (a * mpmath.mpc(flat[e]) * pf[s] for a, e, s in zip(alt, es, ss))
                pf[mask] = mpmath.fsum(terms)
            H[m] = (np.abs(flat)[entry] * H[sub]).sum(axis=1)
        return [sign * pf[mask] for sign, mask in zip(signs, masks)], H[masks]


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
    lhs, rhs = _composed(rec, 0), _composed(rec, 1)
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
        got = _composed(rec, pick)
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

