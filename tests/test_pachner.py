"""The six-simplex scene: incidence bookkeeping, reconciliation, and the
integrated identity between the two sides."""

from __future__ import annotations

import pytest

from pachner33.acceptance import elliptic_scene_cocycle, generic_cocycle
from pachner33.cocycle2weight import SqrtChoice
from pachner33.errors import Pachner33Error
from pachner33.pachner import (
    BOUNDARY_TETRAHEDRA,
    INNER_LHS,
    INNER_RHS,
    LHS_SIMPLICES,
    RHS_SIMPLICES,
    SIMPLICES,
    VERTICES,
    _composed_from,
    boundary_space,
    owners,
    reconcile,
    shared_tetrahedra,
    side_weight,
    verify_33,
)
from pachner33.simplicial import Cochain, faces, random_cocycle


def test_every_tetrahedron_shared_exactly_once():
    seen = {}
    for u in SIMPLICES:
        for t in faces(u, 3):
            seen.setdefault(t, []).append(u)
    shared = shared_tetrahedra()
    assert sorted(seen) == shared
    assert len(shared) == 15
    for t, us in seen.items():
        assert len(us) == 2
        assert tuple(owners(t)) == tuple(us)


def test_scene_partition():
    assert len(BOUNDARY_TETRAHEDRA) == 9
    for t in BOUNDARY_TETRAHEDRA:
        lhs_u, rhs_u = owners(t)
        assert lhs_u in LHS_SIMPLICES and rhs_u in RHS_SIMPLICES
    for t in INNER_LHS:
        assert all(u in LHS_SIMPLICES for u in owners(t))
    for t in INNER_RHS:
        assert all(u in RHS_SIMPLICES for u in owners(t))
    # the sides meet exactly in the boundary tetrahedra
    lhs_tets = {t for u in LHS_SIMPLICES for t in faces(u, 3)}
    rhs_tets = {t for u in RHS_SIMPLICES for t in faces(u, 3)}
    assert lhs_tets & rhs_tets == set(BOUNDARY_TETRAHEDRA)


def test_reconcile_basics(rng):
    om = generic_cocycle(rng, VERTICES)
    rec = reconcile(om)
    assert rec.rho[SIMPLICES[0]] == 1.0
    assert len(rec.loop_residuals) == 10
    assert max(rec.loop_residuals) < 1e-12
    for u in SIMPLICES:
        assert rec.interchanges[u] == frozenset()  # principal branches need no swap
        assert set(rec.gauges[u]) == set(faces(u, 3))
    # lex-smaller owner anchors each shared tetrahedron at gauge one
    for t in shared_tetrahedra():
        u1, _ = owners(t)
        assert rec.gauges[u1][t] == 1.0


def test_reconcile_rejects_wrong_vertex_set(rng):
    om = random_cocycle((1, 2, 3, 4, 5), rng)
    with pytest.raises(ValueError):
        reconcile(om)


def test_reconcile_rejects_non_cocycle(rng):
    om = generic_cocycle(rng, VERTICES)
    vals = dict(om.values)
    vals[(1, 2, 3)] = vals[(1, 2, 3)] + 0.5
    with pytest.raises((ValueError, Pachner33Error)):
        reconcile(Cochain(VERTICES, 2, vals))


def test_side_weights_are_odd(rng):
    rec = reconcile(generic_cocycle(rng, VERTICES))
    for side in ("lhs", "rhs"):
        s = side_weight(rec, side)
        assert s.space == boundary_space()
        assert s.is_odd()
        assert s.max_abs() > 0


def test_composed_operators(rng):
    rec = reconcile(generic_cocycle(rng, VERTICES))
    ops = {a: _composed_from(rec, a, 0) for a in faces(VERTICES, 1)}
    sl = side_weight(rec, "lhs")
    sr = side_weight(rec, "rhs")
    agreement = anni = 0.0
    for a, d in ops.items():
        # both sides supply the same components on every boundary tetrahedron
        other = _composed_from(rec, a, 1)
        gap = abs(d.vector - other.vector).max() / max(d.norm(), other.norm())
        assert gap <= 1e-9
        agreement = max(agreement, gap)
        # support sits on the boundary tetrahedra containing the edge
        for i, t in enumerate(d.space.labels):
            if not set(a) <= set(t):
                assert d.beta[i] == 0 and d.gamma[i] == 0
        for s in (sl, sr):
            anni = max(anni, d.apply(s).max_abs() / (d.norm() * s.max_abs()))
    assert anni < 1e-11
    pairs = list(ops.values())
    iso = max(
        abs(d.beta @ e.gamma + e.beta @ d.gamma) / (d.norm() * e.norm())
        for i, d in enumerate(pairs)
        for e in pairs[i:]
    )
    assert iso < 1e-12
    # verify_33 reports the same three figures, computed on whole matrices
    rep = verify_33(rec)
    assert rep.agreement == pytest.approx(agreement, rel=1e-12)
    assert rep.annihilation_residual == pytest.approx(anni, abs=1e-16)
    assert rep.isotropy_residual == pytest.approx(iso, abs=1e-16)


def test_verify_random_scene(rng):
    rep = verify_33(generic_cocycle(rng, VERTICES))
    assert abs(rep.const) > 1e-10
    assert rep.max_residual < 1e-12
    assert rep.agreement < 1e-12
    assert rep.annihilation_residual < 1e-12
    assert rep.isotropy_residual < 1e-12
    assert rep.annihilator_dimension == 9
    assert rep.annihilator_angle < 1e-10
    assert len(rep.loop_residuals) == 10


def test_verify_elliptic_scene(rng):
    rep = verify_33(elliptic_scene_cocycle(rng))
    assert abs(rep.const) > 1e-10
    assert rep.max_residual < 1e-11
    assert rep.annihilator_dimension == 9
    assert rep.annihilator_angle < 1e-10


def test_verify_scaling_covariance(rng):
    om = generic_cocycle(rng, VERTICES)
    rep1 = verify_33(om)
    assert rep1.annihilator_dimension == 9
    scales = [3.7 - 1.2j] + [10.0**e for e in (12, 80, 100, 150, 200, 300)]
    for scale in scales + [1 / s for s in scales]:
        rep2 = verify_33(om.scaled(scale))
        assert rep2.max_residual < 1e-12
        assert abs(rep2.const) > 1e-10
        assert rep2.annihilator_dimension == 9


def test_flipped_branch_forces_interchanges(rng):
    om = generic_cocycle(rng, VERTICES)
    u = SIMPLICES[0]
    om_u = om.restrict(u)
    choice = SqrtChoice.principal(om_u).flipped([faces(u, 2)[0]])
    rec = reconcile(om, choices={u: choice})
    flipped = {v for v, s in rec.interchanges.items() if s}
    assert flipped
    for v in flipped:
        assert len(rec.interchanges[v]) % 2 == 0
    rep = verify_33(rec)
    assert rep.max_residual < 1e-12
    assert rep.agreement < 1e-12  # the swapped transitions glue the owners' operators
    assert rep.annihilator_angle < 1e-10
    assert abs(rep.const) > 1e-10
