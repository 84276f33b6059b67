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
    _abs,
    _mul,
    elliptic_F,
    elliptic_cocycle,
    elliptic_primitive,
    random_elliptic_params,
    sn_cn_dn,
)
from .errors import DegenerateCocycleError, Pachner33Error
from .grassmann import bit_matrix, gaussian_coefficients
from .operators import action_matrix, principal_angles, svd_rank
from .simplicial import SIMPLEX, Cochain, coboundary, faces, generic_cocycle, is_cocycle, roundtrip_residual
from .weights import WeightMatrix, apply_gauge_to_F, canonical_ratios, opposite_tetrahedra, weight_operators
from .weights import random_disc, random_phi, random_weight_matrix
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
    worst = 0.0
    for m, op, w in zip(M, ops, W):
        resid = np.abs(m @ op.T).max(axis=0) / np.linalg.norm(op, axis=1)
        worst = max(worst, resid.max() / np.abs(w).max())
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


def _families(wms) -> tuple:
    """The weights' normalized families and their cocycles, each stage one
    stacked call over the whole list."""
    fams = [EdgeOperatorFamily(wm.simplex, m) for wm, m in zip(wms, normalize_families(wms))]
    return fams, extract_w_cocycles(fams)


def _edge12_reference(phi: Cochain) -> dict:
    p = lambda *v: phi[v]
    return {
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


def criterion_3(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-10 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 3)
    phis = [random_phi(rng) for _ in range(100)]
    wms = [WeightMatrix.from_phi(SIMPLEX, phi) for phi in phis]
    raw = _raw_edge_operators(np.array([wm.entries for wm in wms]))
    families = normalize_families(wms, raw)  # raises unless each star and kernel is 1-dimensional
    worst_ref = 0.0
    worst_cob = 0.0
    for phi, ops, fam in zip(phis, raw[0], families):
        d12 = ops[0]
        mine, ref = [], []
        for t, (eb, eg) in _edge12_reference(phi).items():
            i = faces(SIMPLEX, 3).index(t)  # beta at generator i, gamma at 5 + i
            mine += [d12[i], d12[5 + i]]
            ref += [eb, eg]
        mine, ref = np.array(mine), np.array(ref)
        j = int(np.argmax(np.abs(ref)))
        scale = ref[j] / mine[j]
        worst_ref = max(worst_ref, np.abs(ref - scale * mine).max() / np.abs(ref).max())
        top = np.abs(fam).max()
        for signs in SIGNS:  # each vertex's coboundary: its signed rows, in edge order
            resid = sum(float(s) * row for s, row in zip(signs, fam) if s != 0)
            worst_cob = max(worst_cob, np.abs(resid).max() / top)
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
        scales = np.array([random_disc(rng, 0.2) for _ in wm.tetrahedra])[::-1]
        wms.append(wm)
        gauged.append(apply_gauge_to_F(wm, scales))
    fams, omegas = _families(wms)
    _, omegas2 = _families(gauged)
    cocycle_ok = True
    worst = 0.0
    for fam, omega, omega2 in zip(fams, omegas, omegas2):
        cocycle_ok = cocycle_ok and is_cocycle(omega, rel_tol=tol_coc)
        worst = max(worst, roundtrip_residual(omega, omega2))

        # beta and gamma of an edge's row at (1, 2, 3, 4), generator 0
        comp = lambda e: fam.matrix[fam.edges.index(e)][[0, 5]]
        denom = omega[(1, 3, 4)] - omega[(2, 3, 4)]
        pred13 = -(omega[(1, 2, 4)] * comp((1, 2)) + omega[(2, 3, 4)] * comp((3, 4))) / denom
        pred24 = -(omega[(1, 2, 3)] * comp((1, 2)) + omega[(1, 3, 4)] * comp((3, 4))) / denom
        scale = max(np.abs(np.concatenate([pred13, pred24, comp((1, 3)), comp((2, 4))])))
        worst = max(worst, np.abs(comp((1, 3)) - pred13).max() / scale)
        worst = max(worst, np.abs(comp((2, 4)) - pred24).max() / scale)

        # each paired with itself there: beta gamma + gamma beta
        (b12, g12), (b34, g34) = comp((1, 2)), comp((3, 4))
        t1 = omega[(1, 2, 3)] * omega[(1, 2, 4)] * (2 * b12 * g12)
        t2 = omega[(1, 3, 4)] * omega[(2, 3, 4)] * (2 * b34 * g34)
        worst = max(worst, abs(t1 + t2) / max(abs(t1), abs(t2), 1e-30))
    ok = cocycle_ok and worst <= tol
    return ok, f"cocycle {'ok' if cocycle_ok else 'BAD'}, worst relation {worst:.2e}, bound {tol:.0e}"


def criterion_5(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol_iso = 1e-10 if tolerance is None else tolerance
    tol = 1e-9 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 5)
    fams, omegas = _families([random_weight_matrix(rng) for _ in range(100)])
    fs, alphas = superisotropic_fs(fams, omegas), alpha_stack(omegas)
    ft = build_f_ts(fams, omegas, calibrate_sqrt_choices(fams, omegas))
    worst_iso = 0.0
    worst_pair = 0.0
    for fam, f, alpha in zip(fams, fs, alphas):
        n2 = np.linalg.norm(f) ** 2
        for beta, gamma in zip(f[:5], f[5:]):  # f paired with itself, per tetrahedron
            worst_iso = max(worst_iso, abs(complex(beta * gamma + beta * gamma)) / n2)

        comps = []
        for a, b in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))):
            i, j = fam.edges.index(a), fam.edges.index(b)
            op = alpha[i] * fam.matrix[i] + alpha[j] * fam.matrix[j]
            comps.append(op[[0, 5]])  # at (1, 2, 3, 4), generator 0
        for i in range(3):
            j = (i + 1) % 3
            cross = comps[i][0] * comps[j][1] - comps[i][1] * comps[j][0]
            scale = max(np.abs(comps[i]).max(), np.abs(comps[j]).max()) ** 2
            worst_pair = max(worst_pair, abs(cross) / scale)
    stray = np.abs(np.where(np.eye(5, dtype=bool), ft[..., 5:], ft[..., :5])).max(axis=2)
    worst_pattern = max(0.0, (stray / np.abs(ft).max(axis=2)).max())
    ok = worst_iso <= tol_iso and worst_pair <= tol and worst_pattern <= tol
    return ok, f"worst isotropy {worst_iso:.2e}, pairing {worst_pair:.2e}, pattern {worst_pattern:.2e}"


def criterion_6(seed: int = DEFAULT_SEED, tolerance: float | None = None) -> tuple[bool, str]:
    tol = 1e-9 if tolerance is None else tolerance
    rng = np.random.default_rng(seed + 6)
    fams, omegas = _families([random_weight_matrix(rng) for _ in range(100)])
    roots = calibrate_sqrt_choices(fams, omegas)
    worst = 0.0
    for f, k in zip(build_f_ts(fams, omegas, roots), kappas(omegas, roots)):
        # gamma at (1, 2, 3, 4) of the variants differentiating at (1, 3, 4, 5) and (2, 3, 4, 5)
        direct = f[3, 5] / f[4, 5]
        worst = max(worst, abs(k - direct) / abs(direct))
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
    worst_fwd = 0.0
    worst_rev = 0.0
    for wm, again, cocycle, back in zip(wms, rebuilt, cocycles, backs):
        target = canonical_ratios(wm)
        got = canonical_ratios(again)
        worst_fwd = max(worst_fwd, max(abs(x - y) / abs(y) for x, y in zip(got, target)))
        worst_rev = max(worst_rev, roundtrip_residual(cocycle, back))
    ok = worst_fwd <= tol and worst_rev <= tol
    return ok, f"ratios {worst_fwd:.2e}, cocycle {worst_rev:.2e}, bound {tol:.0e}"


def _jacobi_identity_residual(rng, count: int = 10000) -> float:
    """The worst residual of sn^2 + cn^2 = 1 and dn^2 + k^2 sn^2 = 1 over
    count draws of (u, k), the k of every tenth draw scaled near 0 and of
    the next near 1.  A draw whose evaluation fails is skipped, and the next
    takes its slot, as when each is drawn and evaluated in turn."""
    worst = 0.0
    done = 0
    rows = np.empty((0, 2), dtype=complex)
    while done < count:
        if not len(rows):  # as many (u, k) rows as are still wanted, in per-draw order
            rows = rng.uniform([-2, -1, -0.95, -0.3], [2, 1, 0.95, 0.3], size=(count - done, 4))
            rows = rows.view(complex)
        u, k = rows.T
        slot = (done + np.arange(len(rows))) % 10  # a draw's slot is the count done before it
        k = np.where(slot == 8, 1e-7 * k, np.where(slot == 9, 1.0 + 1e-7 * k, k))
        s, c, d, err = sn_cn_dn(u, k)
        # rows up to the first failure count; the rows after it take the
        # next slots and are evaluated again
        n = int(np.argmax(err != 0)) if err.any() else len(rows)
        s, c, d, k = s[:n], c[:n], d[:n], k[:n]
        # the bits of the scalar figures: |z|^2 as float_power, the scalar's
        # pow, where an array's ** 2 squares
        ks2 = _mul(_mul(_mul(k, k), s), s)
        r1 = _abs(_mul(s, s) + _mul(c, c) - 1.0) / np.maximum(1.0, _sq_abs(s) + _sq_abs(c))
        r2 = _abs(_mul(d, d) + ks2 - 1.0) / np.maximum(1.0, _sq_abs(d) + _abs(ks2))
        worst = max(worst, r1.max(initial=0.0), r2.max(initial=0.0))
        done += n
        rows = rows[n + 1 :]
    return worst


def _sq_abs(z: np.ndarray) -> np.ndarray:
    return np.float_power(_abs(z), 2)


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
        worst_prim = max(
            worst_prim, max(abs(dnu[s] - om[s]) for s in om.cells()) / om.max_abs()
        )
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
    cells = faces(SIMPLEX, 2)
    phi = random_weight_matrix(rng).phi()
    p = random_elliptic_params(rng)

    def weight_ratios(x):  # x: the ten 2-face values, in lex order
        wm = WeightMatrix.from_phi(SIMPLEX, Cochain(SIMPLEX, 2, dict(zip(cells, x))))
        return np.array(canonical_ratios(wm))

    def elliptic_ratios(x):  # x: the modulus, then the coordinates of vertices 2-5
        om = elliptic_cocycle(EllipticParams(x[0], dict(zip(SIMPLEX, [p.coords[SIMPLEX[0]], *x[1:]]))))
        last = om.cells()[-1]
        return np.array([om[c] / om[last] for c in om.cells()[:5]])

    ratio10 = _rank_ratio(weight_ratios, np.array([phi[c] for c in cells]))
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
