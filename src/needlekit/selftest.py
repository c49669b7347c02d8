"""Acceptance battery: one callable per criterion, shared by CLI and tests.

Each criterion function returns a CriterionResult with a pass flag and a
human-readable detail string. Constructions that several criteria share
(the sphere polar-cap decompositions, the 2D grid) are cached per
process.
"""

from __future__ import annotations

import dataclasses
import functools
import time

import numpy as np

from . import curvature as cv
from . import disint as di
from . import isoperim as iso
from . import mmspace as ms
from . import monge1d as mg
from . import rays as ry
from . import w1solve as w1

GAMMA_TIGHT = 1e-10


@dataclasses.dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name} ({self.seconds:.1f}s): {self.detail}"


def _random_cloud(n, rng):
    pts = rng.random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    return ms.build_space(list(range(n)), {"type": "matrix", "data": D})


def _random_marginals(n, rng):
    a = rng.random(n) + 1e-3
    b = rng.random(n) + 1e-3
    return a / a.sum(), b / b.sum()


@functools.lru_cache(maxsize=None)
def _cloud_instances(count=50, seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(20, 61))
        sp = _random_cloud(n, rng)
        mu0, mu1 = _random_marginals(n, rng)
        out.append((sp, mu0, mu1, w1.solve_w1(sp, mu0, mu1)))
    return out


def criterion_duality() -> CriterionResult:
    t0 = time.time()
    worst_gap = worst_lip = 0.0
    for sp, mu0, mu1, sol in _cloud_instances():
        worst_gap = max(worst_gap, sol.duality_gap / (1 + sol.primal_value))
        worst_lip = max(worst_lip, sol.lipschitz_residual / max(sp.max_distance, 1e-300))
    dt = time.time() - t0
    ok = worst_gap <= 1e-9 and worst_lip <= 1e-9 and dt <= 10.0
    return CriterionResult(
        "duality", ok,
        f"50 random spaces: rel gap<={worst_gap:.2e}, rel lip<={worst_lip:.2e}, {dt:.2f}s<=10s",
        dt)


def criterion_cyclic() -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for sp, mu0, mu1, sol in _cloud_instances():
        g = w1.gamma_set(sp, sol, tol=w1.gamma_tol(sp, sol, rel=GAMMA_TIGHT))
        for k in (2, 3, 4, 5, 6):
            rep = w1.check_cyclic_monotonicity(sp, g, k=k, trials=2000, rng=rng)
            worst = max(worst, rep["worst_violation"])
    ok = worst <= 1e-9
    return CriterionResult(
        "cyclic-monotonicity", ok,
        f"1e4 random k-cycles per instance (k<=6): worst violation {worst:.2e} <= 1e-9",
        time.time() - t0)


def _interval_monge_instance(seed):
    rng = np.random.default_rng(seed)
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 1000)
    mu0, mu1 = _random_marginals(space.n, rng)
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol, tol=w1.gamma_tol(space, sol, rel=GAMMA_TIGHT))
    st = ry.build_transport_structure(space, g)
    dec = ry.partition_rays(space, st, sol)
    cond = mg.condition_target_via_plan(dec, sol, space.n)
    coupling = mg.assemble_monge_map(space, dec, None, cond)
    return sol, coupling


def criterion_monge() -> CriterionResult:
    t0 = time.time()
    worst = 0.0
    split_seen = False
    exact_ok = True
    for seed in range(20):
        sol, coupling = _interval_monge_instance(1000 + seed)
        rel = abs(coupling.cost - sol.primal_value) / (1 + sol.primal_value)
        worst = max(worst, rel)
        if not coupling.is_map:
            split_seen = True
            m0 = np.zeros(len(sol.mu0))
            m1 = np.zeros(len(sol.mu1))
            np.add.at(m0, coupling.pairs[:, 0], coupling.masses)
            np.add.at(m1, coupling.pairs[:, 1], coupling.masses)
            exact_ok &= (np.abs(m0 - sol.mu0).max() < 1e-10
                         and np.abs(m1 - sol.mu1).max() < 1e-10
                         and rel <= 1e-9)
    ok = worst <= 1e-6 and split_seen and exact_ok
    return CriterionResult(
        "monge-optimality", ok,
        f"20 interval instances (n=1000): |assembled-W1| rel <= {worst:.2e} <= 1e-6; "
        f"atom-split marginals exact: {exact_ok}",
        time.time() - t0)


@functools.lru_cache(maxsize=None)
def _grid_construction(rows=20, cols=50, cut_frac=0.4):
    xs = np.arange(cols) * 0.02
    ys = np.arange(rows) * 0.02
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    n = len(pts)
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    sp = ms.build_space(list(range(n)), {"type": "matrix", "data": D})
    ncut = int(round(cut_frac * cols))
    v = ncut / cols
    left = pts[:, 0] < xs[ncut] - 1e-12
    f = left.astype(float) - v
    mu0 = np.where(f > 0, sp.weights, 0.0)
    mu0 /= mu0.sum()
    mu1 = np.where(f < 0, sp.weights, 0.0)
    mu1 /= mu1.sum()
    pairs, masses = [], []
    for r in range(rows):
        row_idx = np.where(np.abs(pts[:, 1] - ys[r]) < 1e-12)[0]
        order = np.argsort(pts[row_idx, 0], kind="stable")
        mono = mg.monotone_rearrangement(
            list(zip(pts[row_idx, 0], mu0[row_idx])),
            list(zip(pts[row_idx, 0], mu1[row_idx])))
        for i, j, m in mono.assignment:
            pairs.append((row_idx[order[i]], row_idx[order[j]]))
            masses.append(m / mg.ATOM_SCALE)
    sol = w1.from_certificate(sp, mu0, mu1, pairs, masses, -pts[:, 0])
    g = w1.gamma_set(sp, sol, tol=1e-12 * (1 + sp.max_distance))
    st = ry.build_transport_structure(sp, g)
    dec = ry.partition_rays(sp, st, sol)
    return sp, sol, f, st, dec


@functools.lru_cache(maxsize=None)
def _sphere_cap_pipeline(n, frac=0.25, seed=0):
    """Polar-cap transport on the sphere sample: top-cap mass to bottom cap."""
    sp = ms.generate_sphere_sample(2, n, seed)
    z = sp.coords[:, 2]
    k = max(50, int(frac * n))
    top = np.argsort(-z)[:k]
    bot = np.argsort(z)[:k]
    f = np.zeros(sp.n)
    f[top] = 1.0
    f[bot] = -1.0
    mu0 = np.where(f > 0, sp.weights, 0.0)
    mu0 /= mu0.sum()
    mu1 = np.where(f < 0, sp.weights, 0.0)
    mu1 /= mu1.sum()
    sol = w1.solve_w1(sp, mu0, mu1)
    g = w1.gamma_set(sp, sol, tol=w1.gamma_tol(sp, sol, rel=GAMMA_TIGHT))
    st = ry.build_transport_structure(sp, g)
    dec = ry.partition_rays(sp, st, sol)
    return sp, sol, f, st, dec


def criterion_disintegration() -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(11)
    sp, sol, f, st, dec = _grid_construction()
    d_ref = di.disintegrate(sp, dec, sp.weights)
    cons = di.check_consistency(d_ref, 100, rng)
    bal = di.check_balance(sp, dec, f)
    grid_ok = cons["consistency_max_err"] <= 1e-12 and bal["max_abs"] <= 1e-12
    sphere_max = []
    ray_counts = []
    for n in (500, 1000, 2000):
        spn, soln, fn, stn, decn = _sphere_cap_pipeline(n)
        cons_n = di.check_consistency(di.disintegrate(spn, decn, spn.weights), 100, rng)
        grid_ok &= cons_n["consistency_max_err"] <= 1e-12
        baln = di.check_balance(spn, decn, fn)
        sphere_max.append(baln["max_abs"])
        ray_counts.append(baln["n_rays"])
    noninc = all(sphere_max[i + 1] <= sphere_max[i] + 1e-15 for i in range(2))
    ok = grid_ok and noninc and min(ray_counts) > 0
    return CriterionResult(
        "disintegration", ok,
        f"consistency<=1e-12; grid balance {bal['max_abs']:.1e}<=1e-12 over "
        f"{bal['n_rays']} rays; sphere balance {['%.2e' % m for m in sphere_max]} over "
        f"{ray_counts} rays, nonincreasing={noninc}",
        time.time() - t0)


def criterion_curvature_coeffs() -> CriterionResult:
    t0 = time.time()
    rng = np.random.default_rng(3)
    ts = rng.random(1000)
    ths = rng.random(1000) * 5
    ns = rng.random(1000) * 9 + 1
    exact = all(cv.sigma(0.0, N, t, th) == t for N, t, th in zip(ns, ts, ths))

    # sigma solves f'' + theta^2 K/N f = 0: residual drops ~4x per halving
    K, N, th = 1.7, 3.0, 1.2
    residual = {}
    for ds in (1e-2, 5e-3, 2.5e-3):
        s = np.arange(ds, 1.0 - ds / 2, ds)
        f = np.array([cv.sigma(K, N, si, th) for si in s])
        second = (f[2:] - 2 * f[1:-1] + f[:-2]) / ds**2
        residual[ds] = np.abs(second + th**2 * K / N * f[1:-1]).max()
    r1 = residual[1e-2] / residual[5e-3]
    r2 = residual[5e-3] / residual[2.5e-3]
    ode_ok = r1 >= 3.5 and r2 >= 3.5

    cd_ok = True
    margins = []
    for N in (2, 3, 5):
        # odd node count: symmetric extreme triples land their midpoint on a node
        grid = np.linspace(0.01, np.pi - 0.01, 1201)
        dens = ms.Density1D(grid, np.sin(grid) ** (N - 1))
        tri = cv.sample_triples(grid, 3000, np.random.default_rng(N))
        rep = cv.cd_density_check(dens, float(N - 1), float(N), tri)
        margins.append(rep.margin)
        cd_ok &= rep.verdict and rep.margin >= -1e-7
    flat = ms.Density1D(np.linspace(0.0, 3.0, 301), np.ones(301))
    tri = cv.sample_triples(flat.grid, 800, np.random.default_rng(9))
    rep_flat = cv.cd_density_check(flat, 1.0, 2.0, tri)
    flat_ok = (not rep_flat.verdict) and rep_flat.worst_triple == (0.0, 3.0, 0.5)
    dt = time.time() - t0
    ok = exact and ode_ok and cd_ok and flat_ok and dt <= 5.0
    return CriterionResult(
        "curvature-coefficients", ok,
        f"sigma(K=0)=t exact: {exact}; ODE residual ratios {r1:.1f},{r2:.1f}>=3.5; "
        f"sin^(N-1) margins {['%.1e' % m for m in margins]}>=-1e-7; "
        f"flat fail at {rep_flat.worst_triple}; {dt:.2f}s<=5s",
        dt)


def criterion_levy_gromov() -> CriterionResult:
    t0 = time.time()
    mval = iso.model_profile(iso.ModelProfileSpec(1.0, 2.0, np.pi), 0.5)
    model_ok = abs(mval - 0.5) <= 1e-4

    # the interval model saturates the bound: empirical within 5% of model,
    # two-sided
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 1000)
    rep = iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, np.pi),
                                [0.25, 0.5, 0.75], rng=np.random.default_rng(5))
    interval_ok = all(abs(r["empirical"] - r["model"]) <= 0.05 * r["model"] + 1e-12
                      for r in rep["rows"])

    sphere = ms.generate_sphere_sample(2, 2000, 0)
    ep = iso.empirical_profile(sphere, 0.5, candidate_budget=24,
                               rng=np.random.default_rng(6), include_potential=False)
    smodel = iso.model_profile(iso.ModelProfileSpec(1.0, 2.0, sphere.max_distance), ep.v)
    sphere_ok = ep.content >= smodel * (1 - 0.10)
    dt = time.time() - t0
    ok = model_ok and interval_ok and sphere_ok and dt <= 60.0
    return CriterionResult(
        "levy-gromov", ok,
        f"model(1,2,pi,1/2)={mval:.6f} (|err|<=1e-4: {model_ok}); interval slacks within 5%: "
        f"{interval_ok}; sphere cap {ep.content:.4f} >= {smodel:.4f}-10%: {sphere_ok}; "
        f"{dt:.1f}s<=60s",
        dt)


def criterion_mollifier() -> CriterionResult:
    t0 = time.time()
    grid = np.linspace(0.0, np.pi, 1501)
    dens = ms.Density1D(grid, np.sin(grid) ** 2)
    l1 = []
    support_ok = True
    for eps in (0.1, 0.05, 0.025):
        he = cv.mollify_density(dens, 3.0, eps)
        a, b = dens.domain
        support_ok &= he.grid[0] >= a - eps - 1e-12 and he.grid[-1] <= b + eps + 1e-12
        nz = he.grid[he.values > 0]
        support_ok &= nz.min() >= a - eps - 1e-12 and nz.max() <= b + eps + 1e-12
        ref = np.where((he.grid >= a) & (he.grid <= b),
                       np.interp(he.grid, dens.grid, dens.values), 0.0)
        l1.append(float(np.trapezoid(np.abs(he.values - ref), he.grid)))
    dec_ok = l1[0] > l1[1] > l1[2]

    # preservation is guaranteed on triples whose kernel window stays inside
    # the original domain, i.e. t0, t1 in [eps, D]
    eps = 0.05
    he = cv.mollify_density(dens, 3.0, eps)
    rng = np.random.default_rng(13)
    idx0 = np.searchsorted(he.grid, eps)
    idx1 = np.searchsorted(he.grid, np.pi)
    tri = cv.sample_triples(he.grid[idx0:idx1], 1000, rng, include_extremes=False)
    rep = cv.cd_density_check(he, 2.0, 3.0, tri)
    ok = support_ok and dec_ok and rep.verdict
    return CriterionResult(
        "mollifier", ok,
        f"support in [-eps, D+eps]: {support_ok}; L1 errors {['%.4f' % e for e in l1]} strictly "
        f"decreasing: {dec_ok}; CD preserved on 1e3 triples (margin {rep.margin:.1e}): {rep.verdict}",
        time.time() - t0)


def criterion_mcp() -> CriterionResult:
    t0 = time.time()
    grid = np.linspace(0.005, np.pi - 0.005, 2000)
    dens = ms.Density1D(grid, np.sin(grid))
    quads = cv.sample_quadruples(grid, 12000, np.random.default_rng(17))
    rep = cv.mcp_density_check(dens, 1.0, 2.0, quads)
    model_ok = rep.verdict and rep.margin >= -1e-7 and rep.n_checked >= 10_000
    spiked = dens.values.copy()
    spiked[len(spiked) // 2] *= 10
    rep2 = cv.mcp_density_check(ms.Density1D(grid, spiked), 1.0, 2.0, quads)
    ok = model_ok and not rep2.verdict
    return CriterionResult(
        "mcp-bounds", ok,
        f"model margin {rep.margin:.1e}>=-1e-7 on {rep.n_checked} quadruples: {model_ok}; "
        f"spiked density fails: {not rep2.verdict}",
        time.time() - t0)


def criterion_branching() -> CriterionResult:
    t0 = time.time()
    tp = ms.build_space([0, 1, 2, 3],
                        {"type": "graph", "edges": [[0, 3, 1.0], [1, 3, 1.0], [2, 3, 1.0]]})
    mu0 = np.array([1.0, 0.0, 0.0, 0.0])
    mu1 = np.array([0.0, 0.5, 0.5, 0.0])
    sol = w1.solve_w1(tp, mu0, mu1)
    g = w1.gamma_set(tp, sol, tol=w1.gamma_tol(tp, sol, rel=GAMMA_TIGHT))
    st = ry.build_transport_structure(tp, g)
    hub_ok = 3 in st.branching_fwd

    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 1000)
    t = space.line_coord
    mu0 = np.where(t < np.pi / 2, space.weights, 0.0)
    mu0 /= mu0.sum()
    mu1 = np.where(t >= np.pi / 2, space.weights, 0.0)
    mu1 /= mu1.sum()
    isol = w1.solve_w1(space, mu0, mu1)
    ig = w1.gamma_set(space, isol, tol=w1.gamma_tol(space, isol, rel=GAMMA_TIGHT))
    ist = ry.build_transport_structure(space, ig)
    interval_frac = ist.branching_mass(space.weights)["fraction"]

    fracs = []
    for n in (500, 1000, 2000):
        spn, soln, fn, stn, decn = _sphere_cap_pipeline(n)
        fracs.append(stn.branching_mass(spn.weights)["fraction"])
    noninc = all(fracs[i + 1] <= fracs[i] + 1e-12 for i in range(2))
    ok = hub_ok and interval_frac <= 0.05 and max(fracs[1:]) <= 0.05 and noninc
    return CriterionResult(
        "branching-diagnostics", ok,
        f"tripod hub in A+: {hub_ok}; interval fraction {interval_frac:.3f}<=0.05; sphere "
        f"fractions {['%.4f' % f for f in fracs]} <=0.05 at n>=1000, nonincreasing={noninc}",
        time.time() - t0)


ALL_CRITERIA = [
    ("1-duality", criterion_duality),
    ("2-cyclic-monotonicity", criterion_cyclic),
    ("3-monge-optimality", criterion_monge),
    ("4-disintegration", criterion_disintegration),
    ("5-curvature-coefficients", criterion_curvature_coeffs),
    ("6-levy-gromov", criterion_levy_gromov),
    ("7-mollifier", criterion_mollifier),
    ("8-mcp-bounds", criterion_mcp),
    ("9-branching-diagnostics", criterion_branching),
]


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for name, fn in ALL_CRITERIA:
        res = fn()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results
