"""Cocycle-to-weight direction: branch choices, superisotropy, reconstruction."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from pachner33.cocycle2weight import (
    EDGE_FLIPS,
    FACE_FLIPS,
    RATIO_FLIPS,
    TETRA_COBOUNDARY,
    alpha_stack,
    build_f_ts,
    calibrate_sqrt_choices,
    component_types,
    kappas,
    pair_ratios,
    reconstruct_F,
    reconstruct_Fs,
    superisotropic_fs,
)
from pachner33.edgeops import EdgeOperatorFamily, extract_w_cocycle, extract_w_cocycles, normalize_family
from pachner33.errors import (
    BranchInconsistencyError,
    ConsistencyError,
    DegenerateCocycleError,
    Pachner33Error,
)
from pachner33.elliptic import elliptic_F, elliptic_cocycle, random_elliptic_params
from pachner33.operators import svd_rank
from pachner33 import simplicial
from pachner33.pachner import SIMPLICES, VERTICES
from pachner33.simplicial import (
    Cochain,
    coboundary,
    cochain_primitive,
    cocycle_defect,
    faces,
    random_cocycle,
)
from pachner33.weights import (
    CANONICAL_RATIO_PAIRS,
    WeightMatrix,
    canonical_ratios,
    double_ratios,
    ratio_positions,
    solve_F_from_ratios,
)
from draws import random_phi
from test_simplicial import vertex_coboundary_sign

SIMPLEX = (1, 2, 3, 4, 5)

# root flips with no effect on any edge coefficient / negating all of them
TRIVIAL_FLIP = ((1, 2, 3), (1, 2, 5), (2, 3, 4), (2, 4, 5))
GLOBAL_FLIP = ((1, 2, 3), (1, 2, 4), (1, 2, 5))


def generic_cocycle(rng, min_abs=0.05):
    while True:
        w = random_cocycle(SIMPLEX, rng)
        if min(abs(w[s]) for s in w.cells()) > min_abs:
            return w


def flipped(omega, roots, flip_faces):
    """Roots in face order, negated at the given faces."""
    return np.where([f in flip_faces for f in omega.cells()], -roots, roots)


def forward(rng):
    wm = WeightMatrix.from_phi(SIMPLEX, random_phi(rng))
    fam = normalize_family(wm)
    omega = extract_w_cocycle(fam)
    return wm, fam, omega


def test_alpha_factorizations(rng):
    omega = generic_cocycle(rng)
    alpha = alpha_stack([omega])[0]
    assert alpha.shape == (10,)
    r = lambda *f: np.sqrt(omega[f])
    a12 = r(1, 2, 3) * r(1, 2, 4) * r(1, 2, 5) * r(3, 4, 5)
    a45 = r(1, 4, 5) * r(2, 4, 5) * r(3, 4, 5) * r(1, 2, 3)
    edges = faces(SIMPLEX, 1)
    assert abs(alpha[edges.index((1, 2))] - a12) < 1e-14 * abs(a12)
    assert abs(alpha[edges.index((4, 5))] - a45) < 1e-14 * abs(a45)


def test_vertex_flip_negates_alpha_on_its_edges(rng):
    # negating a root is exact, so the flipped coefficients keep every bit
    omega = generic_cocycle(rng)
    r = np.sqrt(omega.as_vector())
    sign = lambda flips: np.where(flips, -1.0, 1.0)
    for m in range(5):
        got = alpha_stack([omega], [r * sign(FACE_FLIPS[m])])[0]
        expected = alpha_stack([omega], [r])[0] * sign(EDGE_FLIPS[m])
        assert got.tobytes() == expected.tobytes()
    assert FACE_FLIPS.sum(axis=1).tolist() == [2] * 5
    assert EDGE_FLIPS.sum(axis=1).tolist() == [4] * 5


def test_ratio_flips_are_cut_from_edge_flips():
    # the table as built before: per distinct pair ratio, in order of first
    # use, whether each of its two row vertices lies on each of its edges
    keys = []
    for rows, cols in CANONICAL_RATIO_PAIRS:
        keys += [(rows, c) for c in cols if (rows, c) not in keys]
    tetra = [tuple(v for v in range(5) if v != c - 1) for _, c in keys]
    expected = [[[k - 1 in e for e in combinations(t, 2)] for k in rows] for (rows, _), t in zip(keys, tetra)]
    assert RATIO_FLIPS.dtype == bool and RATIO_FLIPS.tolist() == expected


def test_alpha_rejects_zero_face(rng):
    vals = {s: 1.0 for s in faces(SIMPLEX, 2)}
    vals[(1, 2, 3)] = 0.0
    omega = Cochain(SIMPLEX, 2, vals)
    with pytest.raises(DegenerateCocycleError):
        alpha_stack([omega], [np.sqrt(omega.as_vector())])


def test_superisotropy(rng):
    _, fam, omega = forward(rng)
    f = superisotropic_fs([fam], [omega])[0]
    # f paired with itself at each tetrahedron
    assert np.abs(2 * f[:5] * f[5:]).max() <= 1e-10 * np.linalg.norm(f) ** 2


def test_paired_components_proportional(rng):
    _, fam, omega = forward(rng)
    alpha = alpha_stack([omega])[0]
    pairs = (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)))
    comps = []
    for a, b in pairs:
        i, j = fam.edges.index(a), fam.edges.index(b)
        op = alpha[i] * fam.matrix[i] + alpha[j] * fam.matrix[j]
        comps.append(op[[0, 5]])  # beta and gamma at (1, 2, 3, 4), generator 0
    for i in range(3):
        j = (i + 1) % 3
        cross = comps[i][0] * comps[j][1] - comps[i][1] * comps[j][0]
        scale = max(np.abs(comps[i]).max(), np.abs(comps[j]).max()) ** 2
        assert abs(cross) <= 1e-10 * scale


def crafted(fam, i, how):
    """fam with its columns at generator i edited: the (beta, gamma) pair
    zeroed, mixed by an invertible 2x2 map, or swapped.  Each leaves the
    span of the rows' dependencies, and so the cocycle, as it was."""
    m = fam.matrix.copy()
    cols = [i, 5 + i]
    if how == "zero":
        m[:, cols] = 0.0
    elif how == "mix":
        m[:, cols] = m[:, cols] @ np.array([[1.0, 1.0], [1.0, 2.0]])
    else:
        m[:, cols] = m[:, cols[::-1]]
    return EdgeOperatorFamily(fam.simplex, m)


def test_a_family_cocycle_is_extracted_once(rng, monkeypatch):
    """The family keeps its cocycle: calibrating or checking against it takes
    no second extraction, and a stacked extraction fills the same cache."""
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    fam = normalize_family(WeightMatrix.from_phi(SIMPLEX, random_phi(rng)))
    shapes.clear()
    omega = extract_w_cocycle(fam)
    assert shapes == [(1, 10, 10), (1, 10, 5)]  # the kernel, then the coboundary quotient
    assert extract_w_cocycle(fam) is omega
    calibrate_sqrt_choices([fam], [omega])
    superisotropic_fs([fam], [omega])
    assert len(shapes) == 2
    fams = [normalize_family(WeightMatrix.from_phi(SIMPLEX, random_phi(rng))) for _ in range(3)]
    shapes.clear()
    omegas = extract_w_cocycles([fam, *fams])
    assert shapes == [(3, 10, 10), (3, 10, 5)]  # fam's cocycle is not extracted again
    assert all(extract_w_cocycle(f) is w for f, w in zip([fam, *fams], omegas))
    assert len(shapes) == 2


def test_superisotropic_f_rejects_foreign_cocycle(rng):
    _, fam, _ = forward(rng)
    _, _, omega = forward(rng)  # another weight's cocycle
    for call in (superisotropic_fs, calibrate_sqrt_choices):
        with pytest.raises(ConsistencyError) as err:
            call([fam], [omega])
        assert str(err.value) == "cocycle does not belong to this operator family"


def test_a_vanishing_face_is_degenerate_where_the_family_peaks(rng):
    """The comparison with the family's cocycle divides by the value at that
    cocycle's largest face, so a 0 there is a degenerate cocycle, never a
    division by zero."""
    _, fam, omega = forward(rng)
    top = max(omega.cells(), key=lambda s: abs(omega[s]))
    zero = Cochain(SIMPLEX, 2, {**omega.values, top: 0.0})
    for call in (superisotropic_fs, calibrate_sqrt_choices):
        with pytest.raises(DegenerateCocycleError) as err:
            call([fam], [zero])
        assert str(err.value) == f"cocycle vanishes on face {top}"


@pytest.mark.parametrize(
    "how, error, message",
    [
        ("zero", DegenerateCocycleError, "operator vanishes at (1, 2, 4, 5)"),
        ("mix", BranchInconsistencyError, "mixed component at (1, 2, 4, 5)"),
        ("swap", BranchInconsistencyError, "odd component-type pattern"),
    ],
)
def test_calibration_errors_are_named(rng, how, error, message):
    _, fam, omega = forward(rng)
    calibrate_sqrt_choices([fam], [omega])
    with pytest.raises(error) as err:
        calibrate_sqrt_choices([crafted(fam, 2, how)], [omega])
    assert str(err.value) == message


def test_uncalibrated_variant_is_named(rng):
    _, fam, omega = forward(rng)
    cal = calibrate_sqrt_choices([fam], [omega])[0]
    with pytest.raises(BranchInconsistencyError) as err:
        build_f_ts([crafted(fam, 2, "swap")], [omega], [cal])
    assert str(err.value) == (
        "component at (1, 2, 4, 5) is not of the expected kind; calibrate the branch first"
    )


def test_calibrated_branch_differentiates_everywhere(rng):
    _, fam, omega = forward(rng)
    cal = calibrate_sqrt_choices([fam], [omega])[0]
    f = superisotropic_fs([fam], [omega], [cal])[0]
    assert not component_types(f[None], [fam.simplex]).any()
    assert np.abs(f[5:]).max() <= 1e-9 * np.abs(f).max()


def test_build_f_t_component_pattern(rng):
    _, fam, omega = forward(rng)
    cal = calibrate_sqrt_choices([fam], [omega])[0]
    variants = build_f_ts([fam], [omega], [cal])[0]
    assert variants.shape == (5, 10)
    for i, ft in enumerate(variants):
        top = np.abs(ft).max()
        for j in range(5):
            beta, gamma = ft[j], ft[5 + j]
            if j == i:
                assert abs(gamma) <= 1e-9 * top
            else:
                assert abs(beta) <= 1e-9 * top
        assert np.abs(2 * ft[:5] * ft[5:]).max() <= 1e-10 * np.linalg.norm(ft) ** 2


def test_root_pair_choices_agree(rng):
    omega = generic_cocycle(rng)
    s = np.sqrt(omega.as_vector())
    patterns = []
    for pair in (((1, 2, 3), (1, 4, 5)), ((1, 2, 4), (1, 3, 5)), ((1, 2, 5), (1, 3, 4))):
        patterns.append(alpha_stack([omega], [flipped(omega, s, pair)])[0])
    base = alpha_stack([omega], [s])[0]
    for p in patterns:
        assert np.abs(p - patterns[0]).max() <= 1e-13 * np.abs(base).max()
    # and the common pattern negates exactly the four edges through vertex 1
    for j, b in enumerate(faces(SIMPLEX, 1)):
        expect = -base[j] if 1 in b else base[j]
        assert abs(patterns[0][j] - expect) <= 1e-13 * abs(base[j])


def alpha_by_edge(omega, roots=None):
    return dict(zip(faces(omega.vertices, 1), alpha_stack([omega], None if roots is None else [roots])[0]))


def flip_stack(alpha, omega, k1, k2, t0):
    """pair_ratios' inputs for one ratio: the coefficients on t0's edges
    flipped at k1 and at k2, and omega on its faces."""
    flips = [[(-alpha[e] if k in e else alpha[e]) for e in faces(t0, 1)] for k in (k1, k2)]
    return np.array(flips), np.array([omega[f] for f in faces(t0, 2)])


def pair_ratio(alpha, omega, k1, k2, t0):
    """One ratio from pair_ratios, as a stack of one."""
    flips, w = flip_stack(alpha, omega, k1, k2, t0)
    return complex(pair_ratios(flips[None], w[None], [t0])[0])


def ratio_opposite(omega, roots, k1, k2, l):
    """pair_ratio at the tetrahedron opposite vertex l, from scratch."""
    t0 = tuple(v for v in omega.vertices if v != l)
    return pair_ratio(alpha_by_edge(omega, roots), omega, k1, k2, t0)


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
    return simplicial.generic_cocycle(rng, VERTICES)


def pair_ratio_errors(om):
    """Relative gap between pair_ratio and the projection oracle, for every
    pair ratio that reconstruct_F takes on each simplex of a scene."""
    errors = []
    for u in SIMPLICES:
        omega = om.restrict(u)
        alpha = alpha_by_edge(omega)
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


def good_and_bad(rng, bad_alpha, t_bad, t_good):
    """A stack of two ratios flipped at vertices 1 and 2: a well-posed one
    at t_good from a cocycle's own coefficients, then one at t_bad from
    the given coefficients."""
    omega = generic_cocycle(rng)
    alpha = alpha_by_edge(omega)
    stacks = [flip_stack(a, omega, 1, 2, t) for a, t in ((alpha, t_good), (bad_alpha, t_bad))]
    flips, w = (np.array(x) for x in zip(*stacks))
    return flips, w, [t_good, t_bad]


@pytest.mark.filterwarnings("error")
def test_pair_ratio_indeterminate(rng):
    t0 = (1, 2, 3, 4)
    # flipped at vertex 2, these coefficients are the coboundary of f: exact on t0
    f = dict(zip(t0, rng.normal(size=4)))
    alpha = {b: (-1.0 if 2 in b else 1.0) * (f[b[1]] - f[b[0]]) for b in faces(t0, 1)}
    flips, w, tetra = good_and_bad(rng, alpha, t0, (1, 2, 3, 5))
    pair_ratios(flips[:1], w[:1], tetra[:1])  # the first alone is well posed
    with pytest.raises(DegenerateCocycleError) as err:
        pair_ratios(flips, w, tetra)
    assert str(err.value) == "ratio at (1, 2, 3, 4) is indeterminate"


@pytest.mark.filterwarnings("error")
def test_pair_ratio_rank_condition(rng):
    t0 = (1, 2, 3, 5)
    # coefficients unrelated to omega: the two flips' coboundaries are not parallel
    alpha = {b: complex(*rng.normal(size=2)) for b in faces(t0, 1)}
    flips, w, tetra = good_and_bad(rng, alpha, t0, (1, 2, 3, 4))
    pair_ratios(flips[:1], w[:1], tetra[:1])
    with pytest.raises(BranchInconsistencyError) as err:
        pair_ratios(flips, w, tetra)
    assert str(err.value) == "rank condition fails at (1, 2, 3, 5)"


# The dict-based reconstruction that the array code replaced, kept as the
# oracle for its exact bits: every product, quotient and reduction below is
# rounded as reconstruct_F rounds it.  Its branch is a dict from each face
# to the face's root, as Python complex numbers.


def principal_roots(omega):
    return {s: complex(np.sqrt(complex(omega[s]))) for s in omega.cells()}


def root_array(omega, roots):
    """A root dict as reconstruct_F takes it: an array in face order."""
    return np.array([roots[s] for s in omega.cells()])


def oracle_check_roots(omega, roots):
    for s in omega.cells():
        w = omega[s]
        if abs(w) == 0.0:
            raise DegenerateCocycleError(f"cocycle vanishes on face {s}")
        if abs(roots[s] ** 2 - w) > 1e-12 * abs(w):
            raise ConsistencyError(f"root at face {s} does not square to the value")


def oracle_alpha(omega, roots):
    verts = omega.vertices
    out = {}
    for b in faces(verts, 1):
        val = roots[tuple(v for v in verts if v not in b)]
        for s in faces(verts, 2):
            if set(b) <= set(s):
                val *= roots[s]
        out[b] = val
    return out


def oracle_kappa_probe(omega, roots):
    v1, v2, v3, v4, v5 = omega.vertices
    r = lambda *f: roots[f]
    w = lambda *f: omega[tuple(f)]
    terms = [
        w(v1, v2, v4) * r(v1, v2, v5) * r(v3, v4, v5),
        -w(v1, v2, v3) * r(v1, v2, v5) * r(v3, v4, v5),
        -r(v1, v2, v3) * r(v1, v3, v5) * r(v2, v3, v4) * r(v2, v4, v5),
        r(v1, v2, v4) * r(v1, v3, v4) * r(v1, v3, v5) * r(v2, v4, v5),
        r(v1, v2, v4) * r(v1, v4, v5) * r(v2, v3, v4) * r(v2, v3, v5),
        -r(v1, v2, v3) * r(v1, v3, v4) * r(v1, v4, v5) * r(v2, v3, v5),
    ]
    lam_minus = sum(terms[:2]) - sum(terms[2:])
    if abs(lam_minus) <= 1e-12 * max(abs(x) for x in terms):
        raise DegenerateCocycleError("lambda_minus = 0, the cocycle is degenerate")


def oracle_pair_ratio(alpha, omega, k1, k2, t0):
    tc = TETRA_COBOUNDARY.T
    flips = np.array([[(-alpha[e] if k in e else alpha[e]) for e in faces(t0, 1)] for k in (k1, k2)])
    w = np.array([omega[f] for f in faces(t0, 2)])
    d = flips @ tc
    a, b = d - np.outer(d @ w.conj(), w) / np.vdot(w, w).real
    if math.hypot(*abs(b)) <= 2e-10 * math.hypot(*abs(flips[1])):
        raise DegenerateCocycleError(f"ratio at {t0} is indeterminate")
    rho = np.vdot(b, a) / np.vdot(b, b)
    if math.hypot(*abs(a - rho * b)) > 1e-8 * max(math.hypot(*abs(a)), math.hypot(*abs(b))):
        raise BranchInconsistencyError(f"rank condition fails at {t0}")
    return complex(rho)


def oracle_reconstruct_F(omega, roots=None):
    if roots is None:
        roots = principal_roots(omega)
    k = math.frexp(omega.max_abs())[1] // 2
    omega = omega.scaled(2.0**-k).scaled(2.0**-k)
    roots = {f: r * 2.0**-k for f, r in roots.items()}
    oracle_check_roots(omega, roots)
    oracle_kappa_probe(omega, roots)
    delta = cocycle_defect(omega)
    if math.hypot(*abs(delta)) / math.sqrt(5) > 1e-9 * math.hypot(*abs(omega.as_vector())):
        raise ValueError("cochain has no primitive: not a cocycle")
    alpha = oracle_alpha(omega, roots)
    verts = omega.vertices
    ratios = []
    for rows, cols in CANONICAL_RATIO_PAIRS:
        k1, k2 = (verts[r - 1] for r in rows)
        t4, t5 = (tuple(v for v in verts if v != verts[c - 1]) for c in cols)
        ratios.append(
            oracle_pair_ratio(alpha, omega, k1, k2, t4) / oracle_pair_ratio(alpha, omega, k1, k2, t5)
        )
    return solve_F_from_ratios(verts, ratios)


def outcome(fn, *args):
    """A weight matrix's entries, or the error raised instead."""
    try:
        return fn(*args).entries
    except (ValueError, Pachner33Error) as err:
        return type(err), str(err)


def same_outcome(x, y):
    if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
        return np.array_equal(x, y) and x.tobytes() == y.tobytes()
    return x == y


def stack_outcome(omegas, roots=None):
    """reconstruct_Fs' matrices' entries, or the error it raises instead."""
    try:
        return [wm.entries for wm in reconstruct_Fs(omegas, roots)]
    except (ValueError, Pachner33Error) as err:
        return type(err), str(err)


def same_stack_outcome(got, rows):
    """got, a stack's outcome, against the rows' own: their entries, or the
    first failing row's error."""
    errors = [row for row in rows if isinstance(row, tuple)]
    if errors:
        return got == errors[0]
    return isinstance(got, list) and len(got) == len(rows) and all(map(same_outcome, got, rows))


@pytest.mark.parametrize("kind", ("generic", "elliptic"))
def test_reconstruct_matches_dict_oracle_bits(kind):
    # on every simplex of seeds 0-99, one at a time and as the scene's stack
    # of six, and on branch-flipped roots for a few
    for seed in range(100):
        om = scene_cocycle(kind, seed)
        omegas = [om.restrict(u) for u in SIMPLICES]
        expected = [outcome(oracle_reconstruct_F, omega) for omega in omegas]
        for omega, row in zip(omegas, expected):
            assert same_outcome(outcome(reconstruct_F, omega), row)
        assert same_stack_outcome(stack_outcome(omegas), expected)
        if seed < 10:
            branches = []
            for u, omega in zip(SIMPLICES, omegas):
                flips = faces(u, 2)[seed::3]
                branches.append({f: (-r if f in flips else r) for f, r in principal_roots(omega).items()})
            expected = [outcome(oracle_reconstruct_F, omega, b) for omega, b in zip(omegas, branches)]
            roots = [root_array(omega, b) for omega, b in zip(omegas, branches)]
            for omega, r, row in zip(omegas, roots, expected):
                assert same_outcome(outcome(reconstruct_F, omega, r), row)
            assert same_stack_outcome(stack_outcome(omegas, np.array(roots)), expected)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "change, error",
    [
        ({(1, 3, 4): 0.0}, (DegenerateCocycleError, "cocycle vanishes on face (1, 3, 4)")),
        ({(2, 4, 5): 0.5}, (ValueError, "cochain has no primitive: not a cocycle")),
        ({(3, 4, 5): 0.0, (1, 2, 4): 0.0}, (DegenerateCocycleError, "cocycle vanishes on face (1, 2, 4)")),
    ],
    ids=("zero-face", "open", "first-zero"),
)
def test_reconstruct_errors_match_dict_oracle(rng, change, error):
    omega = generic_cocycle(rng)
    vals = dict(omega.values)
    for f, v in change.items():
        vals[f] = v * vals[f]
    omega = Cochain(SIMPLEX, 2, vals)
    assert outcome(reconstruct_F, omega) == outcome(oracle_reconstruct_F, omega) == error
    # in the middle of a stack, the row raises what it raises alone
    good = generic_cocycle(rng)
    assert stack_outcome([good, omega, good]) == error
    bad_root = {**principal_roots(omega), (1, 2, 5): 2.0}
    if error[0] is ValueError:  # every value is nonzero: the root check speaks
        expected = (ConsistencyError, "root at face (1, 2, 5) does not square to the value")
        assert outcome(reconstruct_F, omega, root_array(omega, bad_root)) == expected
        assert outcome(oracle_reconstruct_F, omega, bad_root) == expected
        roots = [root_array(om, r) for om, r in ((good, principal_roots(good)), (omega, bad_root))]
        assert stack_outcome([good, omega, good], np.array([roots[0], roots[1], roots[0]])) == expected


@pytest.mark.filterwarnings("error")
def test_a_stack_raises_its_first_failing_checks_error(rng):
    """Checks fail in code order, each naming its first failing row: a
    vanishing face fails the root check, which runs before an open
    cochain's defect check, wherever the two rows stand in the stack."""
    good = generic_cocycle(rng)
    vals = dict(good.values)
    open_ = Cochain(SIMPLEX, 2, {**vals, (2, 4, 5): 0.5 * vals[(2, 4, 5)]})
    zero = Cochain(SIMPLEX, 2, {**vals, (1, 3, 4): 0.0})
    vanishes = (DegenerateCocycleError, "cocycle vanishes on face (1, 3, 4)")
    assert stack_outcome([good, open_, zero]) == vanishes
    assert stack_outcome([good, zero, open_]) == vanishes
    other = Cochain(SIMPLEX, 2, {**vals, (2, 3, 5): 0.0})
    assert stack_outcome([open_, other, zero]) == (DegenerateCocycleError, "cocycle vanishes on face (2, 3, 5)")


def elliptic_forward(seed, count):
    """Families and cocycles of count elliptic weights that normalize."""
    rng = np.random.default_rng(seed)
    fams, omegas = [], []
    while len(fams) < count:
        p = random_elliptic_params(rng)
        try:
            fam = normalize_family(elliptic_F(p, SIMPLEX))
        except Pachner33Error:
            continue
        fams.append(fam)
        omegas.append(elliptic_cocycle(p))
    return fams, omegas


@pytest.mark.parametrize("kind, count", (("generic", 100), ("elliptic", 20)))
def test_stacks_match_their_single_rows_bits(kind, count):
    """Each stacked closed form gives, row by row, the bits of its B = 1 call."""
    if kind == "generic":
        fams, omegas = (list(x) for x in zip(*(forward(np.random.default_rng(s))[1:] for s in range(count))))
    else:
        fams, omegas = elliptic_forward(7, count)
    roots = calibrate_sqrt_choices(fams, omegas)
    single = np.array([calibrate_sqrt_choices([fam], [om])[0] for fam, om in zip(fams, omegas)])
    assert roots.tobytes() == single.tobytes()
    variants = build_f_ts(fams, omegas, roots)
    single = np.array([build_f_ts([fam], [om], [r])[0] for fam, om, r in zip(fams, omegas, roots)])
    assert variants.shape == (count, 5, 10) and variants.tobytes() == single.tobytes()
    f = superisotropic_fs(fams, omegas, roots)
    single = np.array([superisotropic_fs([fam], [om], [r])[0] for fam, om, r in zip(fams, omegas, roots)])
    assert f.tobytes() == single.tobytes()
    assert kappas(omegas, roots) == [kappas([om], [r])[0] for om, r in zip(omegas, roots)]


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
    cal = calibrate_sqrt_choices([fam], [omega])[0]
    f = build_f_ts([fam], [omega], [cal])[0]
    # gamma at (1, 2, 3, 4) of the variants differentiating at (1, 3, 4, 5) and (2, 3, 4, 5)
    direct = f[3, 5] / f[4, 5]
    k = kappas([omega], [cal])[0]
    assert abs(k - direct) <= 1e-9 * abs(direct)
    assert abs(ratio_opposite(omega, cal, 2, 1, 5) - direct) <= 1e-9 * abs(direct)


def test_kappa_branch_stability(rng):
    omega = generic_cocycle(rng)
    s = np.sqrt(omega.as_vector())
    k0 = kappas([omega], [s])[0]
    assert abs(kappas([omega], [flipped(omega, s, TRIVIAL_FLIP)])[0] - k0) <= 1e-12 * abs(k0)
    assert abs(kappas([omega], [flipped(omega, s, GLOBAL_FLIP)])[0] - k0) <= 1e-12 * abs(k0)


def test_kappa_all_ones_degenerate():
    omega = Cochain(SIMPLEX, 2, {s: 1.0 for s in faces(SIMPLEX, 2)})
    with pytest.raises(DegenerateCocycleError, match="lambda_minus"):
        kappas([omega])


def test_component_ratio_recovers_double_ratio(rng):
    wm, fam, omega = forward(rng)
    cal = calibrate_sqrt_choices([fam], [omega])[0]
    # the spelled-out case: rows (1,2), columns (4,5), as matrix positions
    expected = double_ratios(wm, ratio_positions([((1, 2), (4, 5))]))[0]
    got = ratio_opposite(omega, cal, 1, 2, 4) / ratio_opposite(omega, cal, 1, 2, 5)
    assert abs(got - expected) <= 1e-8 * abs(expected)
    f = build_f_ts([fam], [omega], [cal])[0]
    # gamma at t4 = (1, 2, 3, 5) and t5 = (1, 2, 3, 4), generators 1 and 0, of
    # the variants differentiating at (1, 3, 4, 5) and (2, 3, 4, 5), rows 3 and 4
    by_components = (f[4, 6] * f[3, 5]) / (f[3, 6] * f[4, 5])
    assert abs(by_components - expected) <= 1e-8 * abs(expected)


def test_reconstruct_preserves_double_ratios(rng):
    wm, fam, omega = forward(rng)
    cal = calibrate_sqrt_choices([fam], [omega])[0]
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
    s = np.sqrt(omega.as_vector())
    base = canonical_ratios(reconstruct_F(omega, s))
    for flip in (TRIVIAL_FLIP, GLOBAL_FLIP):
        other = canonical_ratios(reconstruct_F(omega, flipped(omega, s, flip)))
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
