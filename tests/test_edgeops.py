"""Edge operator families: support, normalization, and the extracted cocycle."""

from __future__ import annotations

import numpy as np
import pytest

from pachner33.edgeops import (
    EDGE_POS,
    SIGNS,
    STAR_POS,
    EdgeOperatorFamily,
    _raw_edge_operators,
    extract_w_cocycle,
    extract_w_cocycles,
    normalize_families,
    normalize_family,
    raw_edge_operator,
)
from pachner33.cocycle2weight import reconstruct_F
from pachner33.elliptic import elliptic_F, random_elliptic_params
from pachner33.errors import ConsistencyError, DegenerateWeightError, NumericsError, Pachner33Error
from pachner33.operators import (
    RANK_RTOL,
    LinearOperator,
    column_space,
    matrix_rank,
    nullspace,
    svd_rank,
)
from pachner33.simplicial import (
    Cochain,
    coboundary_matrix,
    coboundary_values,
    faces,
    is_cocycle,
    roundtrip_residual,
)
from pachner33.pachner import SIMPLICES
from pachner33.weights import WeightMatrix, gauged_entries, gaussian_weight, random_weight_matrix, tetra_space
from draws import random_phi, random_wm
from test_cocycle2weight import scene_cocycle
from test_simplicial import star_tetrahedra, vertex_coboundary_sign

SIMPLEX = (1, 2, 3, 4, 5)
# generator i of an operator row is the i-th tetrahedron in lex order: beta
# in column i, gamma in column 5 + i
TETRAHEDRA = faces(SIMPLEX, 3)


def pairing_at(a, b, i):
    """The anticommutator pairing's term at generator i of two rows."""
    return a[i] * b[5 + i] + b[i] * a[5 + i]


def svd_edge_operator(wm):
    """Oracle for raw_edge_operator: each star block's kernel as the last
    right singular vector of one batched SVD."""
    E = wm.entries
    _, s, vh = np.linalg.svd(E[STAR_POS[:, None, :], EDGE_POS[:, :, None]])
    assert all(svd_rank(se) == 2 for se in s)
    rows = np.arange(10)[:, None]
    C = np.zeros((10, 5), dtype=complex)
    C[rows, STAR_POS] = vh[:, 2].conj()
    G = (E.T @ C[:, :, None])[:, :, 0]
    raw = np.zeros((10, 10), dtype=complex)
    raw[rows, 4 - STAR_POS] = C[rows, STAR_POS]
    raw[rows, 9 - STAR_POS] = G[rows, STAR_POS]
    return raw / raw[rows, np.argmax(np.abs(raw), axis=1)[:, None]]


def oracle_weight(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "elliptic":
        return elliptic_F(random_elliptic_params(rng, SIMPLEX))
    return random_weight_matrix(rng)


def test_raw_support_exact(rng):
    wm = random_wm(rng)
    for b, d in zip(faces(SIMPLEX, 1), raw_edge_operator(wm)):
        assert np.abs(d).max() == pytest.approx(1.0, abs=1e-15)
        star = set(star_tetrahedra(b, SIMPLEX))
        for i, t in enumerate(TETRAHEDRA):
            if t not in star:
                assert d[i] == 0 and d[5 + i] == 0


@pytest.mark.parametrize("kind, bound", (("random", 2e-14), ("elliptic", 1e-12)))
def test_raw_edge_operator_matches_svd_oracle(kind, bound):
    # worst over seeds 0-999: 1.7e-15 (random, seed 339), 7.2e-14 (elliptic, seed 633)
    for seed in range(50):
        wm = oracle_weight(kind, seed)
        assert np.abs(raw_edge_operator(wm) - svd_edge_operator(wm)).max() <= bound


@pytest.mark.parametrize("scale", (1e-200, 1e-100, 1e100))
def test_raw_edge_operator_scale_free(rng, scale):
    # each star block is rescaled by a power of two before its cross
    # product, which would otherwise underflow or overflow
    wm = WeightMatrix(SIMPLEX, random_wm(rng).entries * scale)
    assert np.abs(raw_edge_operator(wm) - svd_edge_operator(wm)).max() <= 2e-14


def cross_edge_operators(E):
    """Oracle for _raw_edge_operators: the same steps, the kernel of each
    star block taken by np.cross."""
    M = E[:, STAR_POS[:, None, :], EDGE_POS[:, :, None]]
    M = M * 2.0 ** -np.frexp(np.abs(M).max(axis=(2, 3)))[1][..., None, None]
    kernel = np.cross(M[:, :, 0], M[:, :, 1])
    n1, n2 = np.moveaxis(np.linalg.norm(M, axis=3), 2, 0)
    dims = 1 + (np.linalg.norm(kernel, axis=2) <= RANK_RTOL * n1 * n2) + (n1 + n2 == 0)
    rows = np.arange(10)[:, None]
    C = np.zeros((len(E), 10, 5), dtype=complex)
    C[:, rows, STAR_POS] = kernel
    G = (E.transpose(0, 2, 1)[:, None] @ C[..., None])[..., 0]
    raw = np.zeros((len(E), 10, 10), dtype=complex)
    raw[:, rows, 4 - STAR_POS] = C[:, rows, STAR_POS]
    raw[:, rows, 9 - STAR_POS] = G[:, rows, STAR_POS]
    top = np.take_along_axis(raw, np.argmax(np.abs(raw), axis=2)[..., None], axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return raw / top, dims


@pytest.mark.parametrize("batch", (1, 6, 40))
def test_raw_edge_operators_match_np_cross_bits(rng, batch):
    # entries over 60 decades, a tenth of them zero: degenerate stars too
    E = (rng.standard_normal((batch, 5, 5)) + 1j * rng.standard_normal((batch, 5, 5)))
    E *= 10.0 ** rng.integers(-30, 30, size=E.shape) * (rng.random(E.shape) > 0.1)
    E -= E.transpose(0, 2, 1)
    for mine, ref in zip(_raw_edge_operators(E), cross_edge_operators(E)):
        assert mine.dtype == ref.dtype and mine.tobytes() == ref.tobytes()


def test_raw_edge12_reference_polynomials(rng):
    phi = random_phi(rng)
    wm = WeightMatrix.from_phi(SIMPLEX, phi)
    d = raw_edge_operator(wm)[0]  # edge (1, 2)
    p = lambda *v: phi[v]
    expected = {
        (1, 2, 4, 5): (
            p(1, 3, 4) * p(2, 3, 5) - p(1, 3, 5) * p(2, 3, 4),
            -(
                p(1, 2, 4) * p(1, 3, 5) * p(2, 4, 5)
                - p(1, 2, 5) * p(1, 3, 4) * p(2, 4, 5)
                - p(1, 2, 4) * p(1, 4, 5) * p(2, 3, 5)
                + p(1, 2, 5) * p(1, 4, 5) * p(2, 3, 4)
            ),
        ),
        (1, 2, 3, 5): (
            p(1, 3, 4) * p(2, 4, 5) - p(1, 4, 5) * p(2, 3, 4),
            (
                p(1, 2, 3) * p(1, 3, 5) * p(2, 4, 5)
                - p(1, 2, 3) * p(1, 4, 5) * p(2, 3, 5)
                - p(1, 2, 5) * p(1, 3, 4) * p(2, 3, 5)
                + p(1, 2, 5) * p(1, 3, 5) * p(2, 3, 4)
            ),
        ),
        (1, 2, 3, 4): (
            p(1, 3, 5) * p(2, 4, 5) - p(1, 4, 5) * p(2, 3, 5),
            -(
                p(1, 2, 3) * p(1, 3, 4) * p(2, 4, 5)
                - p(1, 2, 4) * p(1, 3, 4) * p(2, 3, 5)
                - p(1, 2, 3) * p(1, 4, 5) * p(2, 3, 4)
                + p(1, 2, 4) * p(1, 3, 5) * p(2, 3, 4)
            ),
        ),
    }
    mine, ref = [], []
    for t, (eb, eg) in expected.items():
        i = TETRAHEDRA.index(t)
        mine += [d[i], d[5 + i]]
        ref += [eb, eg]
    mine, ref = np.array(mine), np.array(ref)
    j = np.argmax(np.abs(ref))
    scale = ref[j] / mine[j]
    assert np.abs(ref - scale * mine).max() <= 1e-10 * np.abs(ref).max()


def test_raw_annihilates_weight(rng):
    wm = random_wm(rng)
    W = gaussian_weight(wm)
    for row in raw_edge_operator(wm):
        d = LinearOperator(tetra_space(SIMPLEX), row[:5], row[5:])
        assert d.apply(W).max_abs() <= 1e-11 * W.max_abs()


def star_dimension_two_weight():
    vals = {s: 1.0 for s in faces(SIMPLEX, 2)}
    for dead in ((3, 4, 5), (2, 4, 5), (2, 3, 5), (2, 3, 4)):
        vals[dead] = 0.0  # wipes the column of tetrahedron 2345
    return WeightMatrix.from_phi(SIMPLEX, Cochain(SIMPLEX, 2, vals))


def star_dimension_three_weight():
    # both rows of edge (1, 2)'s star block vanish
    vals = {s: (0.0 if {1, 2} & set(s) else 1.0) for s in faces(SIMPLEX, 2)}
    return WeightMatrix.from_phi(SIMPLEX, Cochain(SIMPLEX, 2, vals))


def test_raw_degenerate_star_dimension():
    with pytest.raises(DegenerateWeightError, match=r"^edge \(1, 2\): star intersection"):
        raw_edge_operator(star_dimension_two_weight())


def test_raw_degenerate_star_dimension_three():
    with pytest.raises(DegenerateWeightError) as err:
        raw_edge_operator(star_dimension_three_weight())
    assert str(err.value) == "edge (1, 2): star intersection has dimension 3, expected 1"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("batch", (1, 100))
def test_raw_edge_operators_match_np_cross_bits_on_degenerate_stars(rng, batch):
    # the dimension-2 and dimension-3 stars above, alone and among generic
    # weights: rows, the NaN rows of degenerate stars, and dims, by bits
    dead = [star_dimension_two_weight().entries, star_dimension_three_weight().entries]
    cases = [([0], dead[:1]), ([0], dead[1:])] if batch == 1 else [([0, 1], dead), ([57, 3], dead), ([99, 0], dead)]
    for at, weights in cases:
        E = np.array([random_wm(rng).entries for _ in range(batch)])
        E[at] = weights
        mine, ref = _raw_edge_operators(E), cross_edge_operators(E)
        for x, y in zip(mine, ref):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        dims = mine[1][at]
        assert {2, 3} & set(dims.ravel().tolist()) and np.isnan(mine[0][at]).any()
        assert (np.delete(mine[1], at, axis=0) == 1).all()


STAR_DIM_2 = "star intersection has dimension 2, expected 1"


@pytest.mark.parametrize(
    "dead, message",
    [
        (((1, 2, 3), (1, 2, 4), (1, 3, 4)), f"edge (1, 5): {STAR_DIM_2}"),
        (((1, 2, 4), (1, 3, 4), (2, 3, 4)), f"edge (4, 5): {STAR_DIM_2}"),
        (((1, 3, 4), (1, 3, 5), (1, 4, 5)), f"edge (1, 2): {STAR_DIM_2}"),
        (((1, 2, 3), (1, 2, 4), (1, 2, 5)), "edge scale system has kernel dimension 3, expected 1"),
    ],
    ids=("edge15", "edge45", "edge12", "scales"),
)
def test_degenerate_weight_names_edge(rng, dead, message):
    # the first degenerate edge in edge order is the one named
    vals = dict(random_phi(rng).values)
    for s in dead:
        vals[s] = 0.0
    wm = WeightMatrix.from_phi(SIMPLEX, Cochain(SIMPLEX, 2, vals))
    with pytest.raises(DegenerateWeightError) as err:
        normalize_family(wm)
    assert str(err.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("first", ("scales", "star"))
def test_stacked_family_errors_in_check_order(rng, first):
    # every weight's star dimensions, then every weight's range, then every
    # kernel, wherever the failing weights stand in the stack
    dead = {
        "scales": ((1, 2, 3), (1, 2, 4), (1, 2, 5)),
        "star": ((1, 2, 3), (1, 2, 4), (1, 3, 4)),
    }
    weights = {"range": WeightMatrix(SIMPLEX, random_wm(rng).entries * 1e-310)}
    for name, faces_ in dead.items():
        vals = dict(random_phi(rng).values)
        for s in faces_:
            vals[s] = 0.0
        weights[name] = WeightMatrix.from_phi(SIMPLEX, Cochain(SIMPLEX, 2, vals))
    order = ["scales", "range", "star"] if first == "scales" else ["star", "range", "scales"]
    stack = [random_wm(rng)] + [weights[name] for name in order]
    with pytest.raises(DegenerateWeightError) as err:
        normalize_families(stack)
    assert str(err.value) == f"edge (1, 5): {STAR_DIM_2}"
    with pytest.raises(NumericsError) as err:
        normalize_families([wm for wm in stack if wm is not weights["star"]])
    assert str(err.value) == "weight on (1, 2, 3, 4, 5) is beyond the float range"


# The per-weight code that the stacked families replaced, kept as the
# oracle for their exact bits.


def oracle_raw_edge_operator(wm):
    E = wm.entries
    M = E[STAR_POS[:, None, :], EDGE_POS[:, :, None]]
    M = M * 2.0 ** -np.frexp(np.abs(M).max(axis=(1, 2)))[1][:, None, None]
    kernel = np.cross(M[:, 0], M[:, 1])
    n1, n2 = np.linalg.norm(M, axis=2).T
    dims = 1 + (np.linalg.norm(kernel, axis=1) <= 1e-10 * n1 * n2) + (n1 + n2 == 0)
    for edge, dim in zip(faces(wm.simplex, 1), dims):
        if dim != 1:
            raise DegenerateWeightError(
                f"edge {edge}: star intersection has dimension {dim}, expected 1"
            )
    rows = np.arange(10)[:, None]
    C = np.zeros((10, 5), dtype=complex)
    C[rows, STAR_POS] = kernel
    G = (E.T @ C[:, :, None])[:, :, 0]
    raw = np.zeros((10, 10), dtype=complex)
    raw[rows, 4 - STAR_POS] = C[rows, STAR_POS]
    raw[rows, 9 - STAR_POS] = G[rows, STAR_POS]
    return raw / raw[rows, np.argmax(np.abs(raw), axis=1)[:, None]]


def oracle_family(wm):
    raw = oracle_raw_edge_operator(wm)
    signs = SIGNS[:, None, :]
    K = nullspace(np.where(signs != 0, signs * raw.T, 0).reshape(5 * 10, 10))
    if K.shape[1] != 1:
        raise DegenerateWeightError(
            f"edge scale system has kernel dimension {K.shape[1]}, expected 1"
        )
    lam = K[:, 0]
    return (lam / lam[np.argmax(np.abs(lam))])[:, None] * raw


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("kind", ("generic", "elliptic"))
def test_stacked_families_match_per_weight_oracle_bits(kind):
    # the six reconstructed weights of seeds 0-99, stacked as reconcile
    # stacks them, and single random or elliptic weights as a stack of one
    for seed in range(100):
        om = scene_cocycle(kind, seed)
        try:
            wms = [reconstruct_F(om.restrict(u)) for u in SIMPLICES]
        except Pachner33Error:
            continue
        for wm, fam in zip(wms, normalize_families(wms)):
            assert same_bits(fam, oracle_family(wm))
            assert same_bits(raw_edge_operator(wm), oracle_raw_edge_operator(wm))
        wm = oracle_weight("random" if kind == "generic" else kind, seed)
        assert same_bits(normalize_family(wm).matrix, oracle_family(wm))


def test_a_hundred_weight_stack_matches_per_weight_oracle_bits():
    # selftest's criteria normalize 100 random weights in one call; the
    # stacked SVD must give each system its own s and vh there too
    rng = np.random.default_rng(2)
    wms = [random_weight_matrix(rng) for _ in range(100)]
    for wm, fam in zip(wms, normalize_families(wms)):
        assert same_bits(fam, oracle_family(wm))


def test_scale_system_is_positive_zero_off_each_star(rng, monkeypatch):
    # where edge j misses vertex v the system holds an exact +0, not a
    # signed product with raw[0, 0]: a -0 can flip an SVD reflector
    wm = random_wm(rng)
    while _raw_edge_operators(wm.entries[None])[0][0, 0, 0].real >= 0:
        wm = random_wm(rng)
    systems, svd = [], np.linalg.svd

    def spy(a, *args, **kwargs):
        systems.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    normalize_families([wm])
    off = np.repeat(SIGNS == 0, 10, axis=0)  # row 10 v + i, column j
    zeros = systems[0][0][off]
    assert (zeros == 0).all()
    assert not np.signbit(zeros.real).any() and not np.signbit(zeros.imag).any()


def oracle_w_cocycle(fam):
    """extract_w_cocycle taken alone, as before it was stacked: the kernel by
    nullspace, then the coboundary quotient's first left singular vector."""
    M = fam.matrix
    K = nullspace((M * 2.0 ** -np.frexp(np.abs(M).max(axis=0))[1]).T)
    if K.shape[1] != 5:
        raise DegenerateWeightError(f"edge operators have kernel dimension {K.shape[1]}, expected 5")
    u, s, _ = np.linalg.svd(coboundary_matrix(range(5), 1) @ K)
    if svd_rank(s, 1e-8) > 1:
        raise ConsistencyError("coboundary quotient of the kernel is not a line")
    return u[:, 0] / u[np.argmax(np.abs(u[:, 0])), 0]


@pytest.mark.parametrize("kind", ("generic", "elliptic"))
def test_stacked_cocycles_match_per_family_oracle_bits(kind):
    # the six families of seeds 0-99, stacked as normalize_families stacks
    # them, and single random or elliptic weights' families alone
    for seed in range(100):
        om = scene_cocycle(kind, seed)
        try:
            wms = [reconstruct_F(om.restrict(u)) for u in SIMPLICES]
        except Pachner33Error:
            continue
        fams = [EdgeOperatorFamily(wm.simplex, m) for wm, m in zip(wms, normalize_families(wms))]
        for fam, omega in zip(fams, extract_w_cocycles(fams)):
            assert same_bits(omega.as_vector(), oracle_w_cocycle(fam))
        fam = normalize_family(oracle_weight("random" if kind == "generic" else kind, seed))
        assert same_bits(extract_w_cocycle(fam).as_vector(), oracle_w_cocycle(fam))


def test_stacked_cocycle_errors_come_check_by_check(rng):
    good = normalize_family(random_wm(rng))
    z = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # rank 5 with a random kernel: five dimensions, but no line modulo coboundaries
    plane = EdgeOperatorFamily(SIMPLEX, np.linalg.qr(z(10, 10))[0][:, :5] @ z(5, 10))
    full = EdgeOperatorFamily(SIMPLEX, z(10, 10))  # kernel dimension 0
    for fam, error in ((plane, ConsistencyError), (full, DegenerateWeightError)):
        with pytest.raises(error) as alone:
            oracle_w_cocycle(fam)
        with pytest.raises(error) as stacked:
            extract_w_cocycles([good, fam])
        assert str(stacked.value) == str(alone.value)
    # every family's kernel is checked before any coboundary quotient
    for stack in ([good, plane, full], [good, full, plane]):
        with pytest.raises(DegenerateWeightError, match="kernel dimension 0, expected 5"):
            extract_w_cocycles(stack)
    # a stack that raises keeps nothing; good's cocycle is extracted once after
    assert good.cocycle is None
    assert extract_w_cocycles([good])[0] is extract_w_cocycle(good)


def test_normalized_vertex_coboundaries_vanish(rng):
    fam = normalize_family(random_wm(rng))
    signs = np.array([[vertex_coboundary_sign(v, b) for b in faces(fam.simplex, 1)] for v in SIMPLEX])
    resid = signs @ fam.matrix  # row v: the operator sum of v's coboundary
    assert np.abs(resid).max() <= 1e-10 * np.abs(fam.matrix).max()


def test_family_layout(rng):
    fam = normalize_family(random_wm(rng))
    assert fam.matrix.shape == (10, 10)
    assert faces(fam.simplex, 1) == faces(SIMPLEX, 1)
    assert tetra_space(SIMPLEX).labels == tuple(TETRAHEDRA)
    # row j is edge j; both halves vanish exactly off the edge's star
    for b, row in zip(faces(fam.simplex, 1), fam.matrix):
        off = [i for i, t in enumerate(TETRAHEDRA) if not set(b) <= set(t)]
        assert len(off) == 2
        assert not row[off].any() and not row[[5 + i for i in off]].any()


def test_family_spans_five_dimensions(rng):
    fam = normalize_family(random_wm(rng))
    assert matrix_rank(fam.matrix.T) == 5


def test_opposite_edges_partial_product(rng):
    fam = normalize_family(random_wm(rng))
    row = lambda e: fam.matrix[faces(fam.simplex, 1).index(e)]
    for i, t in enumerate(TETRAHEDRA):
        w, x, y, z = t
        for a, b in (((w, x), (y, z)), ((w, y), (x, z)), ((w, z), (x, y))):
            da, db = row(a), row(b)
            val = pairing_at(da, db, i)
            assert abs(val) <= 1e-11 * max(np.linalg.norm(da) * np.linalg.norm(db), 1.0)


def test_w_cocycle_basics(rng):
    fam = normalize_family(random_wm(rng))
    omega = extract_w_cocycle(fam)
    assert omega.degree == 2
    assert is_cocycle(omega, rel_tol=1e-9)
    assert abs(omega.max_abs() - 1.0) < 1e-12
    # any kernel representative gives the same normalized coboundary
    K = nullspace(fam.matrix.T)
    mu = K @ (rng.normal(size=5) + 1j * rng.normal(size=5))
    w2 = Cochain(SIMPLEX, 2, dict(zip(faces(SIMPLEX, 2), coboundary_values(mu, SIMPLEX, 1))))
    top = max(w2.cells(), key=lambda s: abs(w2[s]))
    w2 = w2.scaled(1.0 / w2[top])
    diff = max(abs(w2[s] - omega[s]) for s in omega.cells())
    assert diff <= 1e-10


def projected_w_cocycle(fam):
    """Oracle for extract_w_cocycle: project the kernel off the vertex
    coboundaries, then take the coboundary of the leading direction."""
    basis = column_space(SIGNS[:4].T)
    K = nullspace(fam.matrix.T)
    u, _, _ = np.linalg.svd(K - basis @ (basis.conj().T @ K))
    omega = Cochain(fam.simplex, 2, dict(zip(faces(fam.simplex, 2), coboundary_values(u[:, 0], fam.simplex, 1))))
    top = max(omega.cells(), key=lambda s: abs(omega[s]))
    return omega.scaled(1.0 / omega[top])


@pytest.mark.parametrize("kind, bound", (("random", 2e-14), ("elliptic", 5e-11)))
def test_w_cocycle_matches_projection_oracle(kind, bound):
    # worst over seeds 0-999: 2.0e-15 (random, seed 45), 3.8e-12 (elliptic, seed 452)
    for seed in range(50):
        fam = normalize_family(oracle_weight(kind, seed))
        omega, expected = extract_w_cocycle(fam), projected_w_cocycle(fam)
        assert max(abs(omega[s] - expected[s]) for s in omega.cells()) <= bound


@pytest.mark.parametrize("kind", ("random", "elliptic"))
def test_w_cocycle_never_vanishes(kind):
    # K has five orthonormal columns in ten dimensions, so it meets the six
    # co-exact ones, where D is sqrt(5) times an isometry: DK's largest
    # singular value is sqrt(5), and extract_w_cocycle needs no zero check
    D = coboundary_matrix(range(5), 1)
    for seed in range(100):
        M = normalize_family(oracle_weight(kind, seed)).matrix
        K = nullspace((M * 2.0 ** -np.frexp(np.abs(M).max(axis=0))[1]).T)
        s = np.linalg.svd(D @ K, compute_uv=False)
        assert np.sqrt(5) * (1 - 1e-12) <= s[0] <= np.sqrt(5) * (1 + 1e-12)


@pytest.mark.parametrize("e", (-280, -200, -100, -10, 8, 10, 100, 200, 280))
def test_w_cocycle_scale_free(e):
    # the derivative part of each operator is O(1), the multiplication part
    # O(F); without the per-column rescale, e = 8 lost digits and e >= 10
    # failed the kernel dimension check
    for seed in (1, 2, 3):
        wm = random_weight_matrix(np.random.default_rng(seed))
        omega = extract_w_cocycle(normalize_family(wm))
        scaled = extract_w_cocycle(normalize_family(WeightMatrix(SIMPLEX, wm.entries * 10.0**e)))
        assert roundtrip_residual(omega, scaled) <= 1e-14


@pytest.mark.parametrize("scale", (1.0, 1e300, 1e-300, 1e200, 1e308, 1e-310, 1e-320))
def test_column_scale_is_the_two_factor_product(monkeypatch, scale):
    """extract_w_cocycles scales each column by 2 ** -e, e the exponent of
    its largest modulus, in one exact step: the bits of 2 ** h * 2 ** (-e - h),
    h = -e // 2 where 2 ** -e would overflow and 0 elsewhere, taken on the
    real and imaginary parts.  A complex product differs from it only where
    it turns a zero part's sign: a real part of -0 beside a negative
    imaginary one, as the first family is given here."""
    rng = np.random.default_rng(0)
    F = np.array([normalize_family(random_wm(rng)).matrix for _ in range(50)])
    F[0, 3, 2] = complex(-0.0, -abs(F[0, 3, 2]))
    M = (F.view(float) * scale).view(complex)  # scaled part by part, each zero keeping its sign
    seen, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(a) or svd(a, *args, **kw))
    try:
        extract_w_cocycles([EdgeOperatorFamily(SIMPLEX, m) for m in M])
    except Pachner33Error:  # too few bits left for a five-dimensional kernel
        pass
    got = seen[0].transpose(0, 2, 1)  # the first SVD's input is the scaled stack, transposed
    e = np.frexp(np.abs(M).max(axis=1, keepdims=True))[1]
    h = np.where(e < -1023, -e // 2, 0)
    parts = M.view(float) * np.repeat(2.0**h, 2, axis=2) * np.repeat(2.0 ** (-e - h), 2, axis=2)
    assert same_bits(got, parts.view(complex))
    assert (got == M * 2.0**h * 2.0 ** (-e - h)).all()


def test_component_relations_at_1234(rng):
    fam = normalize_family(random_wm(rng))
    omega = extract_w_cocycle(fam)
    comp = lambda e: fam.matrix[faces(fam.simplex, 1).index(e)][[0, 5]]  # at (1, 2, 3, 4), generator 0
    denom = omega[(1, 3, 4)] - omega[(2, 3, 4)]
    lhs13 = comp((1, 3))
    rhs13 = -(omega[(1, 2, 4)] * comp((1, 2)) + omega[(2, 3, 4)] * comp((3, 4))) / denom
    lhs24 = comp((2, 4))
    rhs24 = -(omega[(1, 2, 3)] * comp((1, 2)) + omega[(1, 3, 4)] * comp((3, 4))) / denom
    scale = max(np.abs(np.concatenate([lhs13, rhs13, lhs24, rhs24])))
    assert np.abs(lhs13 - rhs13).max() <= 1e-9 * scale
    assert np.abs(lhs24 - rhs24).max() <= 1e-9 * scale


def test_norm_relation_at_1234(rng):
    fam = normalize_family(random_wm(rng))
    omega = extract_w_cocycle(fam)
    d12, d34 = fam.matrix[faces(fam.simplex, 1).index((1, 2))], fam.matrix[faces(fam.simplex, 1).index((3, 4))]
    # at (1, 2, 3, 4), generator 0
    t1 = omega[(1, 2, 3)] * omega[(1, 2, 4)] * pairing_at(d12, d12, 0)
    t2 = omega[(1, 3, 4)] * omega[(2, 3, 4)] * pairing_at(d34, d34, 0)
    assert abs(t1 + t2) <= 1e-9 * max(abs(t1), abs(t2), 1e-30)


def test_omega_gauge_invariant(rng):
    wm = random_wm(rng)
    omega = extract_w_cocycle(normalize_family(wm))
    lam = np.array([complex(*rng.normal(size=2)) for _ in range(5)])
    gauged = WeightMatrix(wm.simplex, gauged_entries([wm], [lam])[0])
    omega2 = extract_w_cocycle(normalize_family(gauged))
    diff = max(abs(omega[s] - omega2[s]) for s in omega.cells())
    assert diff <= 1e-9
