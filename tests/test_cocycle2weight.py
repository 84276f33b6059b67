"""Cocycle-to-weight direction: branch choices, superisotropy, reconstruction."""

from __future__ import annotations

import numpy as np
import pytest

from pachner33 import acceptance
from pachner33.acceptance import random_elliptic_params
from pachner33.cocycle2weight import (
    SqrtChoice,
    alpha_coefficients,
    build_f_t,
    calibrate_sqrt_choice,
    component_types,
    kappa,
    pair_ratio,
    reconstruct_F,
    superisotropic_f,
)
from pachner33.edgeops import extract_w_cocycle, normalize_family
from pachner33.errors import (
    BranchInconsistencyError,
    ConsistencyError,
    DegenerateCocycleError,
)
from pachner33.elliptic import elliptic_cocycle
from pachner33.operators import partial_product, svd_rank
from pachner33.pachner import SIMPLICES, VERTICES
from pachner33.simplicial import (
    Cochain,
    coboundary,
    cochain_primitive,
    cocycle_defect,
    faces,
    random_cocycle,
)
from test_simplicial import vertex_coboundary_sign
from pachner33.weights import CANONICAL_RATIO_PAIRS, WeightMatrix, canonical_ratios, double_ratio

SIMPLEX = (1, 2, 3, 4, 5)

# root flips with no effect on any edge coefficient / negating all of them
TRIVIAL_FLIP = ((1, 2, 3), (1, 2, 5), (2, 3, 4), (2, 4, 5))
GLOBAL_FLIP = ((1, 2, 3), (1, 2, 4), (1, 2, 5))


def random_phi(rng, min_abs=0.05):
    vals = {}
    for s in faces(SIMPLEX, 2):
        z = 0.0
        while abs(z) < min_abs:
            z = complex(*rng.uniform(-1, 1, size=2))
        vals[s] = z
    return Cochain(SIMPLEX, 2, vals)


def generic_cocycle(rng, min_abs=0.05):
    while True:
        w = random_cocycle(SIMPLEX, rng)
        if min(abs(w[s]) for s in w.cells()) > min_abs:
            return w


def forward(rng):
    wm = WeightMatrix.from_phi(SIMPLEX, random_phi(rng))
    fam = normalize_family(wm)
    omega = extract_w_cocycle(fam)
    return wm, fam, omega


def test_alpha_factorizations(rng):
    omega = generic_cocycle(rng)
    s = SqrtChoice.principal(omega)
    alpha = alpha_coefficients(omega, s)
    assert len(alpha) == 10
    r = lambda *f: s.root(f)
    a12 = r(1, 2, 3) * r(1, 2, 4) * r(1, 2, 5) * r(3, 4, 5)
    a45 = r(1, 4, 5) * r(2, 4, 5) * r(3, 4, 5) * r(1, 2, 3)
    assert abs(alpha[(1, 2)] - a12) < 1e-14 * abs(a12)
    assert abs(alpha[(4, 5)] - a45) < 1e-14 * abs(a45)


def test_alpha_rejects_zero_face(rng):
    vals = {s: 1.0 for s in faces(SIMPLEX, 2)}
    vals[(1, 2, 3)] = 0.0
    omega = Cochain(SIMPLEX, 2, vals)
    with pytest.raises(DegenerateCocycleError):
        alpha_coefficients(omega, SqrtChoice({s: np.sqrt(v) for s, v in vals.items()}))


def test_superisotropy(rng):
    _, fam, omega = forward(rng)
    f = superisotropic_f(fam, omega).f
    n2 = np.linalg.norm(f.vector) ** 2
    for t in f.space.labels:
        assert abs(partial_product(f, f, t)) <= 1e-10 * n2


def test_paired_components_proportional(rng):
    _, fam, omega = forward(rng)
    alpha = superisotropic_f(fam, omega).alpha
    t = (1, 2, 3, 4)
    pairs = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
    comps = []
    for a, b in pairs:
        op = alpha[a] * fam.operator(a) + alpha[b] * fam.operator(b)
        comps.append(np.array(op.component(t)))
    for i in range(3):
        j = (i + 1) % 3
        cross = comps[i][0] * comps[j][1] - comps[i][1] * comps[j][0]
        scale = max(np.abs(comps[i]).max(), np.abs(comps[j]).max()) ** 2
        assert abs(cross) <= 1e-10 * scale


def test_superisotropic_f_rejects_foreign_cocycle(rng):
    _, fam, _ = forward(rng)
    with pytest.raises(ConsistencyError):
        superisotropic_f(fam, generic_cocycle(rng))


def test_calibrated_branch_differentiates_everywhere(rng):
    _, fam, omega = forward(rng)
    cal = calibrate_sqrt_choice(fam, omega)
    f = superisotropic_f(fam, omega, cal).f
    assert component_types(f) == frozenset()
    top = np.abs(f.vector).max()
    assert np.abs(f.gamma).max() <= 1e-9 * top


def test_build_f_t_component_pattern(rng):
    _, fam, omega = forward(rng)
    cal = calibrate_sqrt_choice(fam, omega)
    for t in ((2, 3, 4, 5), (1, 2, 3, 4)):
        ft = build_f_t(fam, omega, cal, t)
        top = np.abs(ft.f.vector).max()
        for t2 in ft.f.space.labels:
            beta, gamma = ft.f.component(t2)
            if t2 == t:
                assert abs(gamma) <= 1e-9 * top
            else:
                assert abs(beta) <= 1e-9 * top
        n2 = np.linalg.norm(ft.f.vector) ** 2
        for t2 in ft.f.space.labels:
            assert abs(partial_product(ft.f, ft.f, t2)) <= 1e-10 * n2


def test_root_pair_choices_agree(rng):
    omega = generic_cocycle(rng)
    s = SqrtChoice.principal(omega)
    patterns = []
    for pair in (((1, 2, 3), (1, 4, 5)), ((1, 2, 4), (1, 3, 5)), ((1, 2, 5), (1, 3, 4))):
        alpha = alpha_coefficients(omega, s.flipped(pair))
        patterns.append(np.array([alpha[b] for b in faces(SIMPLEX, 1)]))
    base = alpha_coefficients(omega, s)
    base = np.array([base[b] for b in faces(SIMPLEX, 1)])
    for p in patterns:
        assert np.abs(p - patterns[0]).max() <= 1e-13 * np.abs(base).max()
    # and the common pattern negates exactly the four edges through vertex 1
    for j, b in enumerate(faces(SIMPLEX, 1)):
        expect = -base[j] if 1 in b else base[j]
        assert abs(patterns[0][j] - expect) <= 1e-13 * abs(base[j])


def ratio_opposite(omega, choice, k1, k2, l):
    """pair_ratio at the tetrahedron opposite vertex l, from scratch."""
    t0 = tuple(v for v in omega.vertices if v != l)
    return pair_ratio(alpha_coefficients(omega, choice), omega, k1, k2, t0)


def rank_complement(nu, t0):
    """Oracle for pair_ratio, first half: orthonormal complement of the span
    of the coboundary rows and the primitive's row on the six edges of t0."""
    edges6 = faces(t0, 1)
    rows = [[float(vertex_coboundary_sign(i, b)) for b in edges6] for i in t0]
    nu_row = np.array([nu[b] for b in edges6])
    rows.append(nu_row / np.abs(nu_row).max())  # as large as the +-1 rows: same span
    u, s, _ = np.linalg.svd(np.array(rows, dtype=complex).T)
    assert svd_rank(s) == 4
    return u[:, 4:]


def projected_pair_ratio(alpha, Q, k1, k2, t0):
    """Oracle for pair_ratio, second half: the ratio between the two flip
    vectors' projections onto the complement Q."""
    edges6 = faces(t0, 1)
    u = np.array([(-alpha[b] if k1 in b else alpha[b]) for b in edges6])
    v = np.array([(-alpha[b] if k2 in b else alpha[b]) for b in edges6])
    w1, w2 = Q.conj().T @ u, Q.conj().T @ v
    return complex((w2.conj() @ w1) / (w2.conj() @ w2))


def scene_cocycle(kind, seed):
    """The cocycle the CLI's verify-pachner draws for --seed (and --elliptic)."""
    rng = np.random.default_rng(seed)
    if kind == "elliptic":
        return elliptic_cocycle(random_elliptic_params(rng, VERTICES))
    return acceptance.generic_cocycle(rng, VERTICES)


def pair_ratio_errors(om):
    """Relative gap between pair_ratio and the projection oracle, for every
    pair ratio that reconstruct_F takes on each simplex of a scene."""
    errors = []
    for u in SIMPLICES:
        omega = om.restrict(u)
        alpha = alpha_coefficients(omega, SqrtChoice.principal(omega))
        nu = cochain_primitive(omega)
        verts = omega.vertices
        for rows, cols in CANONICAL_RATIO_PAIRS:
            k1, k2 = (verts[r - 1] for r in rows)
            for c in cols:
                t0 = tuple(v for v in verts if v != verts[c - 1])
                expected = projected_pair_ratio(alpha, rank_complement(nu, t0), k1, k2, t0)
                got = pair_ratio(alpha, omega, k1, k2, t0)
                errors.append(abs(got - expected) / abs(expected))
    return errors


@pytest.mark.parametrize("kind, bound", (("generic", 2e-12), ("elliptic", 1e-10)))
def test_pair_ratios_match_projection_oracle(kind, bound):
    # worst over seeds 0-999: 1.9e-13 (generic, seed 653), 8.1e-12 (elliptic, seed 439)
    for seed in range(20):
        assert max(pair_ratio_errors(scene_cocycle(kind, seed))) <= bound


def test_pair_ratio_indeterminate(rng):
    omega = generic_cocycle(rng)
    t0 = (1, 2, 3, 4)
    # flipped at vertex 2, these coefficients are the coboundary of f: exact on t0
    f = dict(zip(t0, rng.normal(size=4)))
    alpha = {b: (-1.0 if 2 in b else 1.0) * (f[b[1]] - f[b[0]]) for b in faces(t0, 1)}
    with pytest.raises(DegenerateCocycleError) as err:
        pair_ratio(alpha, omega, 1, 2, t0)
    assert str(err.value) == "ratio at (1, 2, 3, 4) is indeterminate"


def test_pair_ratio_rank_condition(rng):
    omega = generic_cocycle(rng)
    t0 = (1, 2, 3, 5)
    # coefficients unrelated to omega: the two flips' coboundaries are not parallel
    alpha = {b: complex(*rng.normal(size=2)) for b in faces(t0, 1)}
    with pytest.raises(BranchInconsistencyError) as err:
        pair_ratio(alpha, omega, 1, 2, t0)
    assert str(err.value) == "rank condition fails at (1, 2, 3, 5)"


def test_cocycle_defect_is_primitive_residual(rng):
    # reconstruct_F rejects a non-cocycle by |delta omega| / sqrt(5): on a
    # 4-simplex that is the least-squares residual of a primitive
    for _ in range(20):
        phi = random_phi(rng)
        nu = cochain_primitive(phi, rel_tol=np.inf)
        resid = np.linalg.norm(coboundary(nu).as_vector() - phi.as_vector())
        defect = np.linalg.norm(cocycle_defect(phi)) / np.sqrt(5)
        assert defect == pytest.approx(resid, rel=1e-12)


def test_kappa_matches_component_ratio(rng):
    _, fam, omega = forward(rng)
    cal = calibrate_sqrt_choice(fam, omega)
    f1345 = build_f_t(fam, omega, cal, (1, 3, 4, 5)).f
    f2345 = build_f_t(fam, omega, cal, (2, 3, 4, 5)).f
    t = (1, 2, 3, 4)
    direct = f1345.component(t)[1] / f2345.component(t)[1]
    k = kappa(omega, cal)
    assert abs(k - direct) <= 1e-9 * abs(direct)
    assert abs(ratio_opposite(omega, cal, 2, 1, 5) - direct) <= 1e-9 * abs(direct)


def test_kappa_branch_stability(rng):
    omega = generic_cocycle(rng)
    s = SqrtChoice.principal(omega)
    k0 = kappa(omega, s)
    assert abs(kappa(omega, s.flipped(TRIVIAL_FLIP)) - k0) <= 1e-12 * abs(k0)
    assert abs(kappa(omega, s.flipped(GLOBAL_FLIP)) - k0) <= 1e-12 * abs(k0)


def test_kappa_all_ones_degenerate():
    omega = Cochain(SIMPLEX, 2, {s: 1.0 for s in faces(SIMPLEX, 2)})
    with pytest.raises(DegenerateCocycleError, match="lambda_minus"):
        kappa(omega)


def test_component_ratio_recovers_double_ratio(rng):
    wm, fam, omega = forward(rng)
    cal = calibrate_sqrt_choice(fam, omega)
    # the spelled-out case: rows (1,2), columns (4,5), as matrix positions
    expected = double_ratio(wm, (1, 2), (4, 5))
    got = ratio_opposite(omega, cal, 1, 2, 4) / ratio_opposite(omega, cal, 1, 2, 5)
    assert abs(got - expected) <= 1e-8 * abs(expected)
    f1345 = build_f_t(fam, omega, cal, (1, 3, 4, 5)).f
    f2345 = build_f_t(fam, omega, cal, (2, 3, 4, 5)).f
    g = lambda f, t: f.component(t)[1]
    t4, t5 = (1, 2, 3, 5), (1, 2, 3, 4)
    by_components = (g(f2345, t4) * g(f1345, t5)) / (g(f1345, t4) * g(f2345, t5))
    assert abs(by_components - expected) <= 1e-8 * abs(expected)


def test_reconstruct_preserves_double_ratios(rng):
    wm, fam, omega = forward(rng)
    cal = calibrate_sqrt_choice(fam, omega)
    rebuilt = reconstruct_F(omega, cal)
    target = canonical_ratios(wm)
    got = canonical_ratios(rebuilt)
    worst = max(abs(x - y) / abs(y) for x, y in zip(got, target))
    assert worst <= 1e-8


def test_reconstruct_self_consistent(rng):
    omega = generic_cocycle(rng)
    rebuilt = reconstruct_F(omega)
    back = extract_w_cocycle(normalize_family(rebuilt))
    top = max(omega.cells(), key=lambda s: abs(omega[s]))
    scale = omega[top] / back[top]
    worst = max(abs(omega[s] - scale * back[s]) for s in back.cells())
    assert worst <= 1e-8 * omega.max_abs()


def test_reconstruct_branch_kernel_invariance(rng):
    omega = generic_cocycle(rng)
    s = SqrtChoice.principal(omega)
    base = canonical_ratios(reconstruct_F(omega, s))
    for flip in (TRIVIAL_FLIP, GLOBAL_FLIP):
        other = canonical_ratios(reconstruct_F(omega, s.flipped(flip)))
        worst = max(abs(x - y) / abs(y) for x, y in zip(other, base))
        assert worst <= 1e-9


def test_reconstruct_all_ones_degenerate():
    omega = Cochain(SIMPLEX, 2, {s: 1.0 for s in faces(SIMPLEX, 2)})
    with pytest.raises(DegenerateCocycleError, match="lambda_minus"):
        reconstruct_F(omega)


def test_reconstruct_requires_five_vertices():
    omega = Cochain((1, 2, 3, 4), 2, {(1, 2, 3): 1.0})
    with pytest.raises(ValueError):
        reconstruct_F(omega)
