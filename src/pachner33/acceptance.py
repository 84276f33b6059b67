"""Ten end-to-end checks over the whole package, runnable from the test
suite or from the command line.

Each criterion draws its own data from a seeded generator and returns its
verdict and a detail string; run() gives it its title and its line, a
crash included, so a caller can print one line per criterion.  The
optional tolerance override replaces every residual bound in a criterion;
dimension and error-type checks stay fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cocycle2weight import (
    alpha_stack,
    build_f_ts,
    calibrate_sqrt_choice,
    calibrate_sqrt_choices,
    kappa,
    kappas,
    reconstruct_Fs,
    superisotropic_fs,
)
from .edgeops import (
    SIGNS,
    EdgeOperatorFamily,
    _raw_edge_operators,
    extract_w_cocycle,
    extract_w_cocycles,
    normalize_families,
    normalize_family,
)
from .elliptic import (
    EllipticParams,
    elliptic_F,
    elliptic_cocycle,
    elliptic_primitive,
    random_elliptic_params,
    sn_cn_dn,
)
from .errors import DegenerateCocycleError, Pachner33Error
from .grassmann import bit_matrix, gaussian_coefficients
from .operators import action_matrix, principal_angles, svd_rank
from .simplicial import SIMPLEX, Cochain, coboundary, coboundary_values, faces, generic_cocycle
from .simplicial import roundtrip_residual
from .weights import WeightMatrix, apply_gauge_to_F, canonical_ratios, face_values, opposite_tetrahedra
from .weights import random_disc, random_weight_matrix, weight_operators
from . import pachner
from .pachner import BOUNDARY_TETRAHEDRA, INNER_LHS, INNER_RHS, SIMPLICES, reconcile, verify_33
from .pachner import VERTICES as SCENE_VERTICES

DEFAULT_SEED = 20260814


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return f"{word} criterion {self.number}: {self.name} ({self.detail})"


def elliptic_scene_cocycle(rng: np.random.Generator) -> Cochain:
    while True:
        om = elliptic_cocycle(random_elliptic_params(rng, SCENE_VERTICES))
        if min(abs(v) for v in om.values.values()) >= 0.05:
            return om


def _side_layout_residuals(rng):
    """Each side's integral of the Gaussian of a random 12x12 form in the lex
    side space, innermost tetrahedron first, against the top 512 minors of
    the same form laid out by side_weight's slot table."""
    for side, inner in (("lhs", INNER_LHS), ("rhs", INNER_RHS)):
        labels = sorted(inner + BOUNDARY_TETRAHEDRA)
        slot = np.empty(len(labels), dtype=int)
        for i, ix in pachner._SIDE_SLOTS[side]:
            slot[[labels.index(t) for t in opposite_tetrahedra(SIMPLICES[i])]] = ix
        B = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        L = B - B.T
        A = np.empty_like(L)
        A[slot[:, None], slot] = L
        g = gaussian_coefficients(L)
        sign = np.where(bit_matrix(np.arange(g.size), len(labels)).sum(axis=1) % 2, -1.0, 1.0)
        for t in inner:  # right derivative: d_t's column times (-1)^(deg - 1), the row's degree
            g = sign * action_matrix(g)[:, labels.index(t)]
        bits = [1 << labels.index(t) for t in BOUNDARY_TETRAHEDRA]
        at = [sum(b for j, b in enumerate(bits) if k >> j & 1) for k in range(1 << len(bits))]
        yield np.abs(g[at] - gaussian_coefficients(A)[-512:]).max() / np.abs(g).max()


def _gaussian_residuals(rng):
    """exp(sum_{i<j} A_ij x_i x_j) is killed by d_i - sum_j A_ij x_j; 9 and 12
    generators are the scene's boundary and side spaces."""
    for n in (3, 6, 9, 12):
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        A = B - B.T
        G = gaussian_coefficients(A)
        M = action_matrix(G)
        for op in np.hstack([np.eye(n), -A]):
            yield np.abs(M @ op).max() / (np.linalg.norm(op) * np.abs(G).max())


def _canonical_residuals():
    """d_1..d_n, x_1..x_n as 2^n x 2^n matrices for n up to 6, column m the
    action on mask m: {d_i, x_j} = delta_ij, and other pairs anticommute.
    The entries are 0 and +-1, so real products are exact; generator k's
    anticommutators with all 2n are two stacked products."""
    for n in range(1, 7):
        ops = action_matrix(np.eye(1 << n)).real.transpose(2, 1, 0).copy()
        for k in range(2 * n):
            anti = ops[k] @ ops
            anti += ops @ ops[k]  # in place: a third such stack adds 0.5 MB to peak RSS
            anti[(k + n) % (2 * n)] -= np.eye(1 << n)  # generator k's pair, d_i with x_i
            yield np.abs(anti).max()


def criterion_1(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-12 if tolerance is None else tolerance
    rng = np.random.default_rng(seed)
    # generators, so each check's arrays (some 2^12 x 24) are freed before the next
    worst = max(chain(_side_layout_residuals(rng), _gaussian_residuals(rng), _canonical_residuals()))
    return worst <= tol, f"worst residual {worst:.2e}, bound {tol:.0e}"


def criterion_2(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-12 if tolerance is None else tolerance
    tol_angle = 1e-8 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 2)
    wms = [random_weight_matrix(rng) for _ in range(100)]
    # exp(-1/2 x.F.x), F's rows reversed from opposite-vertex into generator order
    W = np.array([gaussian_coefficients(-wm.entries[::-1, ::-1]) for wm in wms])
    M = action_matrix(W)
    ops = np.array([weight_operators(wm) for wm in wms])
    resid = np.abs(M @ ops.swapaxes(1, 2)).max(axis=1) / np.linalg.norm(ops, axis=2)
    worst = (resid.max(axis=1) / np.abs(W).max(axis=1)).max()
    # M is tall, so the reduced SVD's vh is nullspace's, bit for bit; its
    # left factor, as large as M, is dropped at once
    s, vh = np.linalg.svd(M, full_matrices=False)[1:]
    dims = 10 - svd_rank(s)
    worst_angle = 0.0
    # one stack per null space dimension, 5 except on a degenerate draw; a set,
    # as np.unique's integer sort loads code that adds 1 MB to peak RSS
    for k in set(dims.tolist()):
        at = dims == k
        ann = vh[at, 10 - k :].conj().swapaxes(1, 2)
        angles = principal_angles(ops[at].swapaxes(1, 2), ann)
        worst_angle = max(worst_angle, float(angles.max()))
    dims_ok = bool((dims == 5).all())
    ok = worst <= tol and worst_angle <= tol_angle and dims_ok
    return (
        ok,
        f"worst residual {worst:.2e}, worst angle {worst_angle:.2e}, "
        f"dims {'ok' if dims_ok else 'BAD'}",
    )


EDGE = {e: i for i, e in enumerate(faces(SIMPLEX, 1))}  # SIMPLEX's edges and faces, to lex indices
FACE = {f: i for i, f in enumerate(faces(SIMPLEX, 2))}


def _families(wms) -> tuple:
    """The weights' normalized families and their cocycles, each stage one
    stacked call over the whole list."""
    fams = [EdgeOperatorFamily(wm.simplex, m) for wm, m in zip(wms, normalize_families(wms))]
    return fams, extract_w_cocycles(fams)


def _edge12_reference(phi: np.ndarray) -> np.ndarray:
    """Edge (1, 2)'s beta and gamma at (1, 2, 4, 5), (1, 2, 3, 5) and
    (1, 2, 3, 4), generators 2, 1 and 0, from a (B, 10) stack of face values."""
    p = lambda *v: phi[:, FACE[v]]
    return np.stack([
        p(1, 3, 4) * p(2, 3, 5) - p(1, 3, 5) * p(2, 3, 4),
        -(
            p(1, 2, 4) * p(1, 3, 5) * p(2, 4, 5)
            - p(1, 2, 5) * p(1, 3, 4) * p(2, 4, 5)
            - p(1, 2, 4) * p(1, 4, 5) * p(2, 3, 5)
            + p(1, 2, 5) * p(1, 4, 5) * p(2, 3, 4)
        ),
        p(1, 3, 4) * p(2, 4, 5) - p(1, 4, 5) * p(2, 3, 4),
        (
            p(1, 2, 3) * p(1, 3, 5) * p(2, 4, 5)
            - p(1, 2, 3) * p(1, 4, 5) * p(2, 3, 5)
            - p(1, 2, 5) * p(1, 3, 4) * p(2, 3, 5)
            + p(1, 2, 5) * p(1, 3, 5) * p(2, 3, 4)
        ),
        p(1, 3, 5) * p(2, 4, 5) - p(1, 4, 5) * p(2, 3, 5),
        -(
            p(1, 2, 3) * p(1, 3, 4) * p(2, 4, 5)
            - p(1, 2, 4) * p(1, 3, 4) * p(2, 3, 5)
            - p(1, 2, 3) * p(1, 4, 5) * p(2, 3, 4)
            + p(1, 2, 4) * p(1, 3, 5) * p(2, 3, 4)
        ),
    ], axis=1)


def criterion_3(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-10 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 3)
    wms = [random_weight_matrix(rng) for _ in range(100)]
    E = np.array([wm.entries for wm in wms])
    raw = _raw_edge_operators(E)
    families = normalize_families(wms, raw)  # raises unless each star and kernel is 1-dimensional
    ref = _edge12_reference(face_values(E))
    mine = raw[0][:, 0, [2, 7, 1, 6, 0, 5]]  # (1, 2)'s beta and gamma at generators 2, 1 and 0
    j = np.abs(ref).argmax(axis=1)[:, None]
    scale = np.take_along_axis(ref, j, 1) / np.take_along_axis(mine, j, 1)
    worst_ref = (np.abs(ref - scale * mine).max(axis=1) / np.abs(ref).max(axis=1)).max()
    cob = SIGNS @ families  # each vertex's coboundary: its signed rows, in edge order
    worst_cob = (np.abs(cob).max(axis=2) / np.abs(families).max(axis=(1, 2))[:, None]).max()
    ok = worst_ref <= tol and worst_cob <= tol
    return ok, f"worst reference {worst_ref:.2e}, worst coboundary {worst_cob:.2e}, bound {tol:.0e}"


def criterion_4(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol_coc = 1e-12 if tolerance is None else tolerance
    tol = 1e-9 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 4)
    wms, gauged = [], []
    for _ in range(100):
        wm = random_weight_matrix(rng)
        # drawn in opposite-vertex order, the reverse of generator order
        scales = np.array([random_disc(rng, 0.2) for _ in range(5)])[::-1]
        wms.append(wm)
        gauged.append(apply_gauge_to_F(wm, scales))
    fams, omegas = _families(wms)
    _, omegas2 = _families(gauged)
    w = np.array([om.as_vector() for om in omegas])
    bound = tol_coc * np.maximum(np.abs(w).max(axis=1), 1e-300)  # as is_cocycle bounds its sums
    cocycle_ok = not (np.abs(coboundary_values(w, SIMPLEX, 2)) > bound[:, None]).any()
    worst = max(roundtrip_residual(a, b) for a, b in zip(omegas, omegas2))

    F = np.array([fam.matrix for fam in fams])
    comp = lambda e: F[:, EDGE[e], [0, 5]].T  # an edge's beta and gamma at (1, 2, 3, 4), generator 0
    om = lambda *f: w[:, FACE[f]]
    denom = om(1, 3, 4) - om(2, 3, 4)
    pred13 = -(om(1, 2, 4) * comp((1, 2)) + om(2, 3, 4) * comp((3, 4))) / denom
    pred24 = -(om(1, 2, 3) * comp((1, 2)) + om(1, 3, 4) * comp((3, 4))) / denom
    scale = np.abs(np.concatenate([pred13, pred24, comp((1, 3)), comp((2, 4))])).max(axis=0)
    worst = max(worst, (np.abs(comp((1, 3)) - pred13).max(axis=0) / scale).max())
    worst = max(worst, (np.abs(comp((2, 4)) - pred24).max(axis=0) / scale).max())

    # each paired with itself there: beta gamma + gamma beta
    (b12, g12), (b34, g34) = comp((1, 2)), comp((3, 4))
    t1 = om(1, 2, 3) * om(1, 2, 4) * 2 * b12 * g12
    t2 = om(1, 3, 4) * om(2, 3, 4) * 2 * b34 * g34
    worst = max(worst, (np.abs(t1 + t2) / np.maximum(np.maximum(np.abs(t1), np.abs(t2)), 1e-30)).max())
    ok = cocycle_ok and worst <= tol
    return ok, f"cocycle {'ok' if cocycle_ok else 'BAD'}, worst relation {worst:.2e}, bound {tol:.0e}"


def criterion_5(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol_iso = 1e-10 if tolerance is None else tolerance
    tol = 1e-9 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 5)
    fams, omegas = _families([random_weight_matrix(rng) for _ in range(100)])
    fs, alphas = superisotropic_fs(fams, omegas), alpha_stack(omegas)
    ft = build_f_ts(fams, omegas, calibrate_sqrt_choices(fams, omegas))
    bg = fs[:, :5] * fs[:, 5:]  # f paired with itself, per tetrahedron
    worst_iso = (np.abs(bg + bg) / np.linalg.norm(fs, axis=1)[:, None] ** 2).max()

    F = np.array([fam.matrix for fam in fams])
    # the opposite edge pairs' combined operators at (1, 2, 3, 4), generator 0
    i, j = [EDGE[e] for e in ((1, 2), (1, 3), (1, 4))], [EDGE[e] for e in ((3, 4), (2, 4), (2, 3))]
    comps = (alphas[:, i, None] * F[:, i] + alphas[:, j, None] * F[:, j])[..., [0, 5]]
    nxt = np.roll(comps, -1, axis=1)  # each pair with the next, cyclically
    cross = comps[..., 0] * nxt[..., 1] - comps[..., 1] * nxt[..., 0]
    scale = np.maximum(np.abs(comps).max(axis=2), np.abs(nxt).max(axis=2)) ** 2
    worst_pair = (np.abs(cross) / scale).max()
    stray = np.abs(np.where(np.eye(5, dtype=bool), ft[..., 5:], ft[..., :5])).max(axis=2)
    worst_pattern = max(0.0, (stray / np.abs(ft).max(axis=2)).max())
    ok = worst_iso <= tol_iso and worst_pair <= tol and worst_pattern <= tol
    return ok, f"worst isotropy {worst_iso:.2e}, pairing {worst_pair:.2e}, pattern {worst_pattern:.2e}"


def criterion_6(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-9 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 6)
    fams, omegas = _families([random_weight_matrix(rng) for _ in range(100)])
    roots = calibrate_sqrt_choices(fams, omegas)
    ft = build_f_ts(fams, omegas, roots)
    # gamma at (1, 2, 3, 4) of the variants differentiating at (1, 3, 4, 5) and (2, 3, 4, 5)
    direct = ft[:, 3, 5] / ft[:, 4, 5]
    worst = (np.abs(np.array(kappas(omegas, roots)) - direct) / np.abs(direct)).max()
    ones = Cochain(SIMPLEX, 2, {s: 1.0 for s in faces(SIMPLEX, 2)})
    try:
        kappa(ones)
        degenerate_ok = False
    except DegenerateCocycleError as e:
        degenerate_ok = "lambda_minus" in str(e)
    ok = worst <= tol and degenerate_ok
    return ok, f"worst {worst:.2e}, bound {tol:.0e}, all-ones error {'ok' if degenerate_ok else 'BAD'}"


def criterion_7(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-8 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 7)
    wms, cocycles = [], []
    for _ in range(100):
        wms.append(random_weight_matrix(rng))
        cocycles.append(generic_cocycle(rng))
    fams, omegas = _families(wms)
    _, backs = _families(reconstruct_Fs(cocycles))
    rebuilt = reconstruct_Fs(omegas, calibrate_sqrt_choices(fams, omegas))
    target = np.array([canonical_ratios(wm) for wm in wms])
    got = np.array([canonical_ratios(wm) for wm in rebuilt])
    worst_fwd = (np.abs(got - target) / np.abs(target)).max()
    worst_rev = max(roundtrip_residual(cocycle, back) for cocycle, back in zip(cocycles, backs))
    ok = worst_fwd <= tol and worst_rev <= tol
    return ok, f"ratios {worst_fwd:.2e}, cocycle {worst_rev:.2e}, bound {tol:.0e}"


def _jacobi_identity_residual(rng, count: int = 10000) -> float:
    """The worst residual of sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1 over
    count draws of (u, k), the k of every tenth draw scaled near 0 and of
    the next near 1.  A draw whose evaluation fails is left out."""
    u, k = rng.uniform([-2, -1, -0.95, -0.3], [2, 1, 0.95, 0.3], size=(count, 4)).view(complex).T
    slot = np.arange(count) % 10
    k = np.where(slot == 8, 1e-7 * k, np.where(slot == 9, 1.0 + 1e-7 * k, k))
    s, c, d, err = sn_cn_dn(u, k)
    good = err == 0
    s, c, d, k = s[good], c[good], d[good], k[good]
    ks2 = k * k * s * s
    r1 = np.abs(s * s + c * c - 1.0) / np.maximum(1.0, np.abs(s) ** 2 + np.abs(c) ** 2)
    r2 = np.abs(d * d + ks2 - 1.0) / np.maximum(1.0, np.abs(d) ** 2 + np.abs(ks2))
    return max(r1.max(), r2.max())  # raises if every probe failed


def criterion_8(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol_id = 1e-11 if tolerance is None else tolerance
    tol_prim = 1e-10 if tolerance is None else tolerance
    tol = 1e-8 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 8)
    worst_id = _jacobi_identity_residual(rng)

    worst_prim = 0.0
    worst_prop = 0.0
    worst_kappa = 0.0
    done = 0
    # per draw, unlike criteria 3-7: a draw whose computation raises is
    # skipped and replaced, so which draws count is known only after each runs
    while done < 20:
        try:
            p = random_elliptic_params(rng)
            om = elliptic_cocycle(p)
            dnu = coboundary(elliptic_primitive(p))
            fam = normalize_family(elliptic_F(p, SIMPLEX))
        except (Pachner33Error, ValueError):
            continue
        top = max(map(abs, om.values.values()))
        worst_prim = max(worst_prim, max(abs(dnu[s] - om[s]) for s in om.cells()) / top)
        w = extract_w_cocycle(fam)
        ratios = [w[s] / om[s] for s in om.cells()]
        worst_prop = max(worst_prop, max(abs(r / ratios[0] - 1.0) for r in ratios))
        roots = calibrate_sqrt_choice(fam, om)
        fr = p.half_ratios
        pred = -fr[1, 3] * fr[1, 4] / (fr[2, 3] * fr[2, 4])
        worst_kappa = max(worst_kappa, abs(kappa(om, roots) - pred) / abs(pred))
        done += 1
    ok = worst_id <= tol_id and worst_prim <= tol_prim and worst_prop <= tol and worst_kappa <= tol
    return (
        ok,
        f"identities {worst_id:.2e}, primitive {worst_prim:.2e}, "
        f"proportionality {worst_prop:.2e}, ratio formula {worst_kappa:.2e}",
    )


def criterion_9(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-8 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 9)
    reps = []
    for i in range(60):
        if i < 50:
            om = generic_cocycle(rng, SCENE_VERTICES)
        else:
            om = elliptic_scene_cocycle(rng)
        reps.append(verify_33(reconcile(om)))
    verdicts = [rep.verdict(tol) for rep in reps]
    worst = max(0.0, *(rep.worst for rep in reps))
    _, const_ok, dims_ok = (all(parts) for parts in zip(*verdicts))
    return (
        all(map(all, verdicts)),
        f"worst residual {worst:.2e}, bound {tol:.0e}, const {'ok' if const_ok else 'BAD'}, "
        f"dims {'ok' if dims_ok else 'BAD'}",
    )


def _rank_ratio(f, x: np.ndarray) -> float:
    """s[4] / s[0] of f's central-difference Jacobian at x: column i steps
    entry i of x alone by +-h."""
    h = 1e-7
    cols = []
    for i in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        cols.append((f(up) - f(dn)) / (2 * h))
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return s[4] / s[0]


def criterion_10(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    floor = 1e-4
    rng = np.random.default_rng(seed + 10)
    phi = face_values(random_weight_matrix(rng).entries)
    p = random_elliptic_params(rng)

    def weight_ratios(x):  # x: the ten 2-face values, in lex order
        return canonical_ratios(WeightMatrix.from_faces(SIMPLEX, x))

    def elliptic_ratios(x):  # x: the modulus, then the coordinates of vertices 2-5
        om = elliptic_cocycle(EllipticParams(x[0], dict(zip(SIMPLEX, [p.coords[SIMPLEX[0]], *x[1:]]))))
        last = om.cells()[-1]
        return np.array([om[c] / om[last] for c in om.cells()[:5]])

    ratio10 = _rank_ratio(weight_ratios, phi)
    ratio5 = _rank_ratio(elliptic_ratios, np.array([p.modulus, *(p.coords[v] for v in SIMPLEX[1:])]))
    ok = ratio10 >= floor and ratio5 >= floor
    return ok, f"10-entry ratio {ratio10:.2e}, elliptic ratio {ratio5:.2e}, floor {floor:.0e}"


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)

TITLES = (
    "anticommuting core identities",
    "Gaussian annihilators and their span",
    "edge operator spaces and reference polynomials",
    "extracted cocycle, gauge invariance, component relations",
    "superisotropic combinations",
    "closed-form ratio vs direct components",
    "reconstruction roundtrips",
    "elliptic identities and induced weights",
    "three-for-three trade end to end",
    "parameterization rank probes",
)


def run(number: int, seed: int = DEFAULT_SEED, tolerance: float | None = None) -> CriterionResult:
    """Criterion `number`'s verdict and detail as its line; a crash is a
    failure, not an excuse.  ALL_CRITERIA is read at each call, so a
    function rebound there is the one that runs."""
    try:
        passed, detail = ALL_CRITERIA[number - 1](seed=seed, tolerance=tolerance)
    except Exception as e:
        passed, detail = False, f"{type(e).__name__}: {e}"
    return CriterionResult(number, TITLES[number - 1], passed, detail)


def run_all(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> list[CriterionResult]:
    return [run(k, seed, tolerance) for k in range(1, len(ALL_CRITERIA) + 1)]
