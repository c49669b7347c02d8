import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from needlekit import mmspace as ms
from needlekit import w1solve as w1
from needlekit.errors import BadParameter, SolverFailure, TolTooSmall, UnbalancedMarginals
from ssp_oracle import ssp_cost


def _cloud(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    return ms.build_space(list(range(n)), {"type": "matrix", "data": D})


def _marginals(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.random(n) + 1e-3
    b = rng.random(n) + 1e-3
    return a / a.sum(), b / b.sum()


def _full_lp(D, a, b, **options):
    """The full transportation LP over all S x T variables, by HiGHS at its
    tightest feasibility tolerances, 1e-10 (with linprog `options` over them)."""
    options = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10,
               **options}
    S, T = D.shape
    from scipy import sparse
    cols = np.arange(S * T)
    ri = np.repeat(np.arange(S), T)
    ci = np.tile(np.arange(T), S)
    A = sparse.coo_matrix((np.ones(2 * S * T),
                           (np.concatenate([ri, S + ci]), np.concatenate([cols, cols]))),
                          shape=(S + T, S * T))
    res = linprog(D.ravel(), A_eq=A.tocsc(), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs", options=options)
    assert res.status == 0
    return res


def _brute_force_w1(D, mu0, mu1):
    """Independent oracle: the full transportation LP over all n^2 variables."""
    return _full_lp(D, mu0, mu1).fun


def test_dirac_pair():
    sp = _cloud(10, 0)
    mu0 = np.zeros(10); mu0[2] = 1.0
    mu1 = np.zeros(10); mu1[7] = 1.0
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.primal_value == pytest.approx(sp.D[2, 7], abs=1e-12)
    # phi(z) = d(z, y) is a valid dual certificate
    cert = w1.from_certificate(sp, mu0, mu1, [(2, 7)], [1.0], sp.D[:, 7])
    assert cert.primal_value == pytest.approx(sol.primal_value, abs=1e-12)


def test_identity_coupling():
    sp = _cloud(8, 1)
    mu = _marginals(8, 1)[0]
    sol = w1.solve_w1(sp, mu, mu)
    assert sol.primal_value == 0.0
    assert np.allclose(sol.potential, 0.0)


def test_two_point_exhaustive():
    # oracle: exhaustive search over the single free plan parameter
    sp = ms.build_space([0, 1], {"type": "matrix", "data": [[0, 1], [1, 0]]})
    mu0 = np.array([0.7, 0.3])
    mu1 = np.array([0.2, 0.8])
    ts = np.linspace(0.0, 0.2, 2001)   # mass kept at point 1 from mu0's 0.3
    best = np.inf
    for t in ts:
        # plan: (0->0: 0.2+t-... ) parametrized by m01, the mass moved 0 -> 1
        m01 = 0.8 - (0.3 - t)
        if 0 <= m01 <= 0.7:
            cost = m01 * 1.0 + t * 1.0
            best = min(best, cost)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.primal_value == pytest.approx(0.5, abs=1e-12)
    assert sol.primal_value <= best + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_engines_agree_with_lp_oracle(seed):
    n = 12
    sp = _cloud(n, seed)
    mu0, mu1 = _marginals(n, seed + 100)
    ref = _brute_force_w1(sp.D, mu0, mu1)
    s_auto = w1.solve_w1(sp, mu0, mu1)
    assert s_auto.engine == "highs-colgen"
    assert s_auto.primal_value == pytest.approx(ref, abs=1e-9)
    assert ssp_cost(sp.D, mu0, mu1) == pytest.approx(ref, abs=1e-9)


def test_line_engine_agrees_with_ssp():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 80)
    for seed in range(5):
        mu0, mu1 = _marginals(space.n, seed)
        s_line = w1.solve_w1(space, mu0, mu1)
        assert s_line.engine == "line"
        assert s_line.primal_value == pytest.approx(ssp_cost(space.D, mu0, mu1), abs=1e-9)


def test_reversal_symmetry():
    sp = _cloud(25, 3)
    mu0, mu1 = _marginals(25, 3)
    a = w1.solve_w1(sp, mu0, mu1)
    b = w1.solve_w1(sp, mu1, mu0)
    assert a.primal_value == pytest.approx(b.primal_value, abs=1e-10)


def test_plan_support_in_gamma():
    # complementary slackness, pair by pair, on 20 random instances
    for seed in range(20):
        sp = _cloud(30, seed)
        mu0, mu1 = _marginals(30, seed + 7)
        sol = w1.solve_w1(sp, mu0, mu1)
        tol = 1e-8 * sp.max_distance
        phi = sol.potential
        for (i, j), m in zip(sol.pairs, sol.masses):
            if m > 0 and i != j:
                assert phi[i] - phi[j] >= sp.D[i, j] - tol


def test_gamma_halfline_example():
    # phi(x) = -x on [0,1]: Gamma = {(x, y): y >= x}
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 32)
    n = space.n
    mu0 = np.zeros(n); mu0[0] = 1.0
    mu1 = np.zeros(n); mu1[-1] = 1.0
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol, tol=1e-12)
    t = space.line_coord
    expected = t[:, None] <= t[None, :]
    assert np.array_equal(g.mask, expected)


def test_gamma_mask_matches_dense_formula():
    # n = 1100 fills the mask in five row blocks; each entry must be bit-identical
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 1100)
    sol = w1.solve_w1(space, *_marginals(space.n, 3))
    g = w1.gamma_set(space, sol)
    phi = sol.potential
    assert np.array_equal(g.mask, (phi[:, None] - phi[None, :]) >= (space.D - g.tol))


def _line_with_duplicates(n, seed, as_matrix):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.random(n) + 0.1)
    dup = rng.choice(np.arange(1, n), size=6, replace=False)
    t[dup] = t[dup - 1]
    if as_matrix:
        return ms.build_space(list(range(n)), {"type": "matrix", "data": np.abs(t[:, None] - t)})
    return ms.MMSpace(list(range(n)), None, np.full(n, 1.0 / n), kind="interval", line_coord=t)


@pytest.mark.parametrize("case", ["cap", "cloud", "graph", "interval-duplicates", "line-matrix"])
def test_gamma_bwd_is_the_transpose_of_fwd(case):
    # Gamma^-1 is packed from the rows of Gamma's own pass, which is exact
    # only while every space's distances are symmetric bit for bit
    if case == "cap":
        space = ms.generate_sphere_sample(2, 200, seed=0)
        order = np.argsort(-space.coords[:, 2], kind="stable")
        mu0, mu1 = np.zeros(space.n), np.zeros(space.n)
        mu0[order[:50]] = mu1[order[-50:]] = 1.0 / 50
    else:
        space = {"cloud": lambda: _cloud(90, 9), "graph": lambda: _uniform_grid_graph(9),
                 "interval-duplicates": lambda: _line_with_duplicates(150, 2, False),
                 "line-matrix": lambda: _line_with_duplicates(150, 3, True)}[case]()
        mu0, mu1 = _marginals(space.n, 4)
    assert (space.line_coord is not None) == (case in ("interval-duplicates", "line-matrix"))
    g = w1.gamma_set(space, w1.solve_w1(space, mu0, mu1))
    mask = g.mask
    assert mask.sum() > space.n
    if g.runs is None:
        assert np.array_equal(w1._unpacked(g.bwd, space.n), mask.T)
        assert np.array_equal(g.bwd, w1._packed(mask.T))     # padding bits too
    else:   # Gamma^-1's runs, and no bit rows
        assert g.fwd is None and g.bwd is None
        assert np.array_equal(w1._run_rows(g.runs[2], g.runs[3]), mask.T)
    assert (g.runs is not None) == (case == "interval-duplicates")


def test_gamma_tol_too_small():
    import dataclasses
    sp = _cloud(10, 4)
    mu0, mu1 = _marginals(10, 4)
    sol = w1.solve_w1(sp, mu0, mu1)
    # loose potential: precondition on the lipschitz residual
    loose = dataclasses.replace(sol, lipschitz_residual=1e-6)
    with pytest.raises(TolTooSmall):
        w1.gamma_set(sp, loose, tol=1e-8)
    # potential that no longer saturates the plan support
    broken = dataclasses.replace(sol, potential=np.zeros(sp.n))
    with pytest.raises(TolTooSmall):
        w1.gamma_set(sp, broken, tol=1e-8)


def test_unbalanced_marginals():
    sp = _cloud(5, 5)
    with pytest.raises(UnbalancedMarginals):
        w1.solve_w1(sp, np.array([0.5, 0.5, 0, 0, 0.1]), np.full(5, 0.2))


@pytest.mark.parametrize("mu0, match", [
    (np.full(4, 0.25), "shape"),                              # one entry short
    (np.array([0.5, 0.5, 0.5, -0.5, 0.0]), "nonnegative"),
    (np.array([0.5, 0.5, np.nan, 0.0, 0.0]), "nonnegative"),
    (np.array([0.2, 0.2, 0.2, 0.2, 0.2 + 5e-9]), "different total mass"),
])
def test_marginals_are_checked_before_solving(mu0, match):
    # 1 + 5e-9 passes the 1e-8 sum check but not the 1e-10 balance check
    with pytest.raises(UnbalancedMarginals, match=match):
        w1.solve_w1(_cloud(5, 5), mu0, np.full(5, 0.2))


def test_cyclic_monotonicity_valid_and_adversarial():
    sp = _cloud(30, 6)
    mu0, mu1 = _marginals(30, 6)
    sol = w1.solve_w1(sp, mu0, mu1)
    g = w1.gamma_set(sp, sol, tol=1e-10 * (1 + sp.max_distance))
    rng = np.random.default_rng(0)
    for k in (2, 3, 4, 5):
        rep = w1.check_cyclic_monotonicity(sp, g, k=k, trials=4000, rng=rng)
        assert rep["worst_violation"] <= 1e-9
    # inject an adversarial pair violating saturation by > 0.1
    phi = sol.potential
    slack = sp.D - (phi[:, None] - phi[None, :])
    bad = np.unravel_index(np.argmax(slack), slack.shape)
    assert slack[bad] > 0.1
    mask = g.mask
    mask[bad] = True
    g = w1.GammaSet(w1._packed(mask), g.tol, w1._packed(mask.T))
    worst = 0.0
    for k in (2, 3, 4):
        rep = w1.check_cyclic_monotonicity(sp, g, k=k, trials=20000, rng=rng)
        worst = max(worst, rep["worst_violation"])
    assert worst > 0


def test_cyclic_monotonicity_empty_gamma():
    sp = _cloud(6, 8)
    mu = np.full(6, 1 / 6)
    sol = w1.solve_w1(sp, mu, mu)
    g = w1.gamma_set(sp, sol, tol=1e-14)
    rep = w1.check_cyclic_monotonicity(sp, g, k=3, trials=100)
    assert rep["vacuous"] and rep["worst_violation"] == 0.0


def _cyclic_monotonicity_oracle(space, gamma, k, trials, rng):
    """The dense route: off-diagonal pairs from np.argwhere of the unpacked mask."""
    pairs = np.argwhere(gamma.mask)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if len(pairs) == 0:
        return {"worst_violation": 0.0, "trials": 0, "k": k, "vacuous": True}
    idx = rng.integers(0, len(pairs), size=(trials, k))
    x, y = pairs[idx, 0], pairs[idx, 1]
    matched = space.dist(x, y).sum(axis=1)
    shifted = space.dist(x, np.roll(y, -1, axis=1)).sum(axis=1)
    return {"worst_violation": float((matched - shifted).max()), "trials": trials, "k": k,
            "vacuous": False}


def _transport_instance(case, seed):
    if case == "cloud":
        return _cloud(70, seed), *_marginals(70, seed)
    if case == "cap":
        sp = ms.generate_sphere_sample(2, 300, seed=seed)
        order = np.argsort(-sp.coords[:, 2], kind="stable")
        mu0, mu1 = np.zeros(sp.n), np.zeros(sp.n)
        mu0[order[:75]] = mu1[order[-75:]] = 1.0 / 75
        return sp, mu0, mu1
    sp = ms.generate_interval_model(0.0, 2.0, 1.0, 500)[0]
    return sp, *_marginals(sp.n, seed)


@pytest.mark.parametrize("case, seed", [("cloud", 3), ("cloud", 11), ("cloud", 17),
                                        ("cap", 0), ("interval", 5)])
def test_cyclic_monotonicity_matches_the_dense_route(case, seed):
    # Gamma's pairs are read from its bit rows in the row-major order of
    # np.argwhere, so the same rng draws give the same report
    sp, mu0, mu1 = _transport_instance(case, seed)
    g = w1.gamma_set(sp, w1.solve_w1(sp, mu0, mu1))
    assert g.count > sp.n
    for k in (2, 3, 5):
        got = w1.check_cyclic_monotonicity(sp, g, k=k, trials=3000,
                                           rng=np.random.default_rng(seed + k))
        assert got == _cyclic_monotonicity_oracle(sp, g, k, 3000,
                                                  np.random.default_rng(seed + k))


def _snapped_chain(space, i, j):
    """Approximate chain through sample points near the true geodesic.

    On sphere samples: interpolates the great circle and snaps to nearest
    sample points. Not metrically straight; the deviation is mesh-scale.
    On a line, the sample points between i and j in order; elsewhere [i, j].
    """
    if space.line_coord is not None:
        t = space.line_coord
        inner = np.flatnonzero((t > min(t[i], t[j])) & (t < max(t[i], t[j])))
        return [i, *inner[np.argsort(np.sign(t[j] - t[i]) * t[inner])].tolist(), j]
    if space.kind != "sphere2" or space.coords is None:
        return [i, j]
    if i == j:
        return [i]
    a, b = space.coords[i], space.coords[j]
    ang = space.D[i, j]
    hops = max(2, int(np.ceil(ang / max(space.mesh, 1e-12))))
    ts = np.linspace(0.0, 1.0, hops + 1)
    sin_ang = np.sin(ang)
    if sin_ang < 1e-12:
        return [i, j]
    pts = (np.sin((1 - ts)[:, None] * ang) * a + np.sin(ts[:, None] * ang) * b) / sin_ang
    idx = np.argmax(pts @ space.coords.T, axis=1)
    out = [i]
    for k in idx:
        if k != out[-1] and int(k) != j:
            out.append(int(k))
    out.append(j)
    return out


def _geodesic_stability(space, gamma, samples=200, rng=None):
    """Fraction of chain sub-pairs of sampled Gamma pairs that leave Gamma.

    Chains come from `_snapped_chain`. Each chain of more than two points
    gives 20 random sub-pairs.
    """
    rng = rng or np.random.default_rng(0)
    pairs = np.argwhere(gamma.mask)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if len(pairs) == 0:
        return {"failure_fraction": 0.0, "tested": 0, "vacuous": True}
    take = rng.integers(0, len(pairs), size=min(samples, len(pairs)))
    tested = failed = 0
    for x, y in pairs[take]:
        chain = _snapped_chain(space, int(x), int(y))
        if len(chain) <= 2:
            continue
        c = np.array(chain)
        iu = rng.integers(0, len(c) - 1, size=20)
        iv = rng.integers(0, len(c) - 1, size=20)
        lo = np.minimum(iu, iv)
        hi = np.maximum(iu, iv) + 1
        tested += len(lo)
        failed += int((~gamma.mask[c[lo], c[hi]]).sum())
    frac = failed / tested if tested else 0.0
    return {"failure_fraction": frac, "tested": tested, "vacuous": tested == 0}


def test_geodesic_stability_interval():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 300)
    t = space.line_coord
    mu0 = np.where(t < np.pi / 2, space.weights, 0); mu0 /= mu0.sum()
    mu1 = np.where(t >= np.pi / 2, space.weights, 0); mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol)
    rep = _geodesic_stability(space, g, samples=100)
    assert rep["failure_fraction"] == 0.0


def test_geodesic_stability_sphere_mesh_tol():
    sp = ms.generate_sphere_sample(2, 500, seed=0)
    z = sp.coords[:, 2]
    k = 120
    top = np.argsort(-z)[:k]
    bot = np.argsort(z)[:k]
    mu0 = np.zeros(sp.n); mu0[top] = 1.0 / k
    mu1 = np.zeros(sp.n); mu1[bot] = 1.0 / k
    sol = w1.solve_w1(sp, mu0, mu1)
    g = w1.gamma_set(sp, sol, tol=2 * sp.mesh)
    rep = _geodesic_stability(sp, g, samples=150, rng=np.random.default_rng(1))
    assert rep["failure_fraction"] <= 0.01


def test_duality_certificate_fields():
    sp = _cloud(40, 9)
    mu0, mu1 = _marginals(40, 9)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert 0 <= sol.duality_gap <= 1e-9 * (1 + sol.primal_value)
    assert sol.lipschitz_residual <= 1e-9 * sp.max_distance
    assert sol.potential.min() == 0.0
    data = sol.to_json()
    assert set(data) >= {"plan", "potential", "primal_value", "residuals", "tightening"}


def test_bad_certificate_rejected():
    sp = _cloud(6, 10)
    mu0 = np.zeros(6); mu0[0] = 1.0
    mu1 = np.zeros(6); mu1[3] = 1.0
    with pytest.raises(SolverFailure):
        w1.from_certificate(sp, mu0, mu1, [(0, 3)], [1.0], np.zeros(6))


@pytest.mark.parametrize("bad", ["mass", "potential"])
def test_certificate_with_nan_is_rejected(bad):
    # a NaN opens no comparison, so the duality gap test must fail on a NaN
    # potential; a NaN mass is named before the certificate is read
    sp = _cloud(8, 12)
    mu0, mu1 = _marginals(8, 12)
    sol = w1.solve_w1(sp, mu0, mu1)
    masses, phi = sol.masses.copy(), sol.potential.copy()
    (masses if bad == "mass" else phi)[0] = np.nan
    err, match = ((BadParameter, "^masses must be finite, got nan at pair 0") if bad == "mass"
                  else (SolverFailure, "duality gap nan"))
    with pytest.raises(err, match=match):
        w1.from_certificate(sp, mu0, mu1, sol.pairs, masses, phi)


def test_nan_marginal_error_fails_the_marginal_check():
    # err > tol is False for a NaN error
    pairs, masses = np.array([[0, 1], [1, 0]]), np.array([0.5, np.nan])
    with pytest.raises(SolverFailure, match="plan marginal error nan"):
        w1._check_marginals(pairs, masses, np.array([0.5, 0.5]), np.array([0.5, 0.5]))


def test_certificate_marginal_error_named():
    # a plan mass off by 5e-8 also opens the duality gap; the marginals are
    # checked first, so the error names them
    sp = _cloud(20, 11)
    mu0, mu1 = _marginals(20, 11)
    sol = w1.solve_w1(sp, mu0, mu1)
    masses = sol.masses.copy()
    masses[np.argmax(sp.D[sol.pairs[:, 0], sol.pairs[:, 1]])] += 5e-8
    with pytest.raises(SolverFailure, match="marginal"):
        w1.from_certificate(sp, mu0, mu1, sol.pairs, masses, sol.potential)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
def test_quantize_masses_exact_total(masses):
    arr = np.asarray(masses)
    total = int(round(arr.sum() * w1.MASS_SCALE))
    units = w1.quantize_masses(arr * w1.MASS_SCALE, total)
    assert units.sum() == total
    assert np.all(units >= 0)
    assert np.abs(units / w1.MASS_SCALE - arr).max() <= 1.5 / w1.MASS_SCALE


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
       st.floats(min_value=0.5, max_value=2.0))
def test_to_units_one_total(m0, m1, ratio):
    # both lists land on the first one's total, whatever the second one's
    m0, m1 = np.asarray(m0), ratio * np.asarray(m1)
    assume(m0.sum() > 0 and m1.sum() > 0)
    total = int(round(m0.sum() * w1.MASS_SCALE))
    for m, units in zip((m0, m1), w1._to_units(m0, m1)):
        assert units.sum() == total
        assert np.all(units >= 0)
        assert np.abs(units - m / m.sum() * total).max() <= 1.5


def _north_west_corner(a, b):
    """Arcs of the north-west corner rule on float masses, as a loop: the
    reference for arc generation's first arcs."""
    arcs, i, j = [], 0, 0
    ra, rb = a.copy(), b.copy()
    while i < len(a) and j < len(b):
        arcs.append((i, j))
        m = min(ra[i], rb[j])
        ra[i] -= m
        rb[j] -= m
        if ra[i] <= rb[j]:
            i += 1
        else:
            j += 1
    return arcs


def test_quantile_start_is_the_north_west_corner():
    # away from exact ties, the unit sweep takes the float loop's arcs
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a, b = (rng.random(rng.integers(1, 60)) + 1e-3 for _ in range(2))
        a, b = a / a.sum(), b / b.sum()
        rows = w1._quantile_pairs(*w1._to_units(a, b))
        assert list(map(tuple, rows[:, :2].tolist())) == _north_west_corner(a, b)


def test_arc_generation_start_at_exact_ties():
    # dyadic masses: source and sink partial sums meet exactly at cuts, where
    # the quantile start coupling has no arc from one block to the next
    tied = 0
    for seed in range(40):
        sp = _cloud(24, seed)
        rng = np.random.default_rng(100 + seed)
        mu0, mu1 = (rng.multinomial(64, np.full(24, 1 / 24)) / 64 for _ in range(2))
        b = mu0 - mu1
        a, d = b[b > 0], -b[b < 0]
        tied += len(np.intersect1d(np.cumsum(a)[:-1], np.cumsum(d)[:-1])) > 0
        sol = w1.solve_w1(sp, mu0, mu1)
        assert sol.engine == "highs-colgen"
        full = _full_lp(sp.D[np.ix_(b > 0, b < 0)], a, d).fun
        assert sol.primal_value == pytest.approx(full, abs=1e-12)
    assert tied == 40       # every draw has such a tie


def test_arc_generation_engine_large_instance():
    # 720k arcs with unequal masses, priced by arc generation; the returned
    # certificate (exact dual, tiny gap) proves optimality
    rng = np.random.default_rng(12)
    n = 1200
    pts = rng.random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    sp = ms.build_space(list(range(n)), {"type": "matrix", "data": D})
    f = rng.normal(size=n)
    mu0 = np.clip(f, 0, None); mu0 /= mu0.sum()
    mu1 = np.clip(-f, 0, None); mu1 /= mu1.sum()
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "highs-colgen"
    assert sol.duality_gap <= 1e-9 * (1 + sol.primal_value)
    assert sol.lipschitz_residual <= 1e-9 * sp.max_distance


def test_assignment_engine_matches_colgen():
    from needlekit.w1solve import _engine_highs_generated
    rng = np.random.default_rng(13)
    n = 400
    pts = rng.random((n, 2))
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    sp = ms.build_space(list(range(n)), {"type": "matrix", "data": D})
    half = n // 2
    mu0 = np.zeros(n); mu0[:half] = 1.0 / half
    mu1 = np.zeros(n); mu1[half:] = 1.0 / half
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "assignment"
    a = np.full(half, 1.0 / half)
    pairs, masses, seed, record = _engine_highs_generated(
        np.ascontiguousarray(D[:half, half:]), a, a)
    colgen_cost = float((masses * D[pairs[:, 0], half + pairs[:, 1]]).sum())
    assert sol.primal_value == pytest.approx(colgen_cost, abs=1e-9)


def _perturbed(mu, rel, rng):
    mu = mu * (1 + rel * rng.uniform(-1, 1, len(mu)))
    return mu / mu.sum()


@pytest.mark.parametrize("seed, rel", [pytest.param(s, 1e-6, id=str(s)) for s in range(4)]
                         + [pytest.param(s, 1e-9, id=f"{s}-1e-09") for s in range(4)])
def test_perturbed_uniform_caps_certify(seed, rel):
    # uniform polar caps with both marginals perturbed by a relative 1e-6 or
    # 1e-9: near-degenerate masses, priced by arc generation, must certify
    # (seed 2 at 1e-9 missed the 1e-10 marginal tolerance before the LP
    # masses were scaled)
    sp = ms.generate_sphere_sample(2, 200, seed=seed)
    n, k = sp.n, sp.n // 4
    order = np.argsort(-sp.coords[:, 2], kind="stable")
    mu0 = np.zeros(n); mu0[order[:k]] = 1.0 / k
    mu1 = np.zeros(n); mu1[order[-k:]] = 1.0 / k
    rng = np.random.default_rng(seed)
    mu0 = _perturbed(mu0, rel, rng)
    mu1 = _perturbed(mu1, rel, rng)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "highs-colgen"
    assert sol.duality_gap <= 1e-9 * (1 + sol.primal_value)
    assert sol.lipschitz_residual <= 1e-9 * sp.max_distance


@pytest.mark.parametrize("n, seed, rel", [(300, 0, 1e-8), (100, 1, 1e-12)])
def test_exact_basis_masses_are_all_kept(n, seed, rel):
    # the exact basis of these near-uniform caps holds masses between 1e-14
    # and 1e-12; cutting them left the plan marginals off by up to 8.3e-13
    sp = ms.generate_sphere_sample(2, n, seed=seed)
    k = n // 4
    order = np.argsort(-sp.coords[:, 2], kind="stable")
    mu0 = np.zeros(n); mu0[order[:k]] = 1.0 / k
    mu1 = np.zeros(n); mu1[order[-k:]] = 1.0 / k
    rng = np.random.default_rng(seed)
    mu0, mu1 = _perturbed(mu0, rel, rng), _perturbed(mu1, rel, rng)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "highs-colgen" and np.all(sol.masses > 0)
    m0, m1 = np.zeros(n), np.zeros(n)
    np.add.at(m0, sol.pairs[:, 0], sol.masses)
    np.add.at(m1, sol.pairs[:, 1], sol.masses)
    assert max(np.abs(m0 - mu0).max(), np.abs(m1 - mu1).max()) <= 1e-15


def _uniform_grid_graph(k):
    edges = [[v, v + 1, 1.0] for v in range(k * k) if (v + 1) % k]
    edges += [[v, v + k, 1.0] for v in range(k * k - k)]
    return ms.build_space(list(range(k * k)), {"type": "graph", "edges": edges})


_CAP_200 = ms.generate_sphere_sample(2, 200, seed=0)
_GRID_12 = _uniform_grid_graph(12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["cap", "grid"]), k=st.integers(6, 12),
       seed=st.integers(0, 2**32 - 1))
@example(kind="cap", k=9, seed=2)
@example(kind="grid", k=8, seed=2)
@example(kind="grid", k=9, seed=0)
def test_near_uniform_masses_certify(kind, k, seed):
    # uniform count-balanced masses perturbed by a relative 10^-k: auto
    # dispatch sends them to arc generation, which must certify (the
    # explicit examples missed the 1e-10 marginal tolerance before the LP
    # masses were scaled)
    if kind == "cap":
        sp = _CAP_200
        order = np.argsort(-sp.coords[:, 2], kind="stable")
    else:
        sp = _GRID_12
        order = np.arange(sp.n)
    n, m = sp.n, sp.n // 4
    mu0 = np.zeros(n); mu0[order[:m]] = 1.0 / m
    mu1 = np.zeros(n); mu1[order[-m:]] = 1.0 / m
    rng = np.random.default_rng(seed)
    sol = w1.solve_w1(sp, _perturbed(mu0, 10.0**-k, rng), _perturbed(mu1, 10.0**-k, rng))
    assert sol.engine == "highs-colgen"
    assert sol.duality_gap <= 1e-9 * (1 + sol.primal_value)
    assert sol.lipschitz_residual <= 1e-9 * max(sp.max_distance, 1.0)


def test_colgen_record():
    sp = _cloud(40, 14)
    mu0, mu1 = _marginals(40, 14)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "highs-colgen"
    assert set(sol.colgen) == {"rounds", "arcs", "simplex_iterations", "at_bound"}
    # the re-solve after the column bounds come off is a round of its own
    assert sol.colgen["rounds"] >= 2 and sol.colgen["arcs"] >= len(sol.pairs) - sp.n
    assert isinstance(sol.colgen["at_bound"], int) and sol.colgen["at_bound"] >= 0
    iterations = sol.colgen["simplex_iterations"]
    assert len(iterations) == sol.colgen["rounds"]
    assert all(isinstance(k, int) and k >= 0 for k in iterations)
    assert sol.to_json()["colgen"] == sol.colgen
    # the line, identity and assignment routes run no LP
    line, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 20)
    uniform = np.zeros(40); uniform[:20] = 1 / 20
    for space, a, b, engine in ((line, *_marginals(20, 15), "line"),
                                (sp, mu0, mu0, "identity"),
                                (sp, uniform, uniform[::-1], "assignment")):
        other = w1.solve_w1(space, a, b)
        assert other.engine == engine and other.colgen == {}


def _transport_lp(D, a, b):
    """A HiGHS model of the transportation LP on costs D with supplies a
    and demands b but no arcs yet, and a function that adds arcs."""
    from scipy.optimize._highspy._core import _Highs
    S = len(a)
    lp = _Highs()
    lp.setOptionValue("output_flag", False)
    for name, value in w1._HIGHS_OPTIONS.items():
        lp.setOptionValue(name, value)
    rhs = np.concatenate([a, b])
    lp.addRows(len(rhs), rhs, rhs, 0, np.zeros(len(rhs), np.int32), np.zeros(0, np.int32),
               np.zeros(0))

    def add(src, dst, upper=None):
        k = len(src)
        rows = np.stack([src, S + np.asarray(dst)], axis=1).astype(np.int32).ravel()
        upper = np.full(k, np.inf) if upper is None else upper
        lp.addCols(k, D[src, dst], np.zeros(k), upper, 2 * k,
                   np.arange(0, 2 * k, 2, dtype=np.int32), rows, np.ones(2 * k))

    return lp, add


def test_highs_binding_pinned():
    # arc generation drives scipy's private HiGHS binding; a scipy release
    # that moves or changes it fails here, not deep inside solve_w1
    from scipy.optimize._highspy._core import HighsBasisStatus, HighsModelStatus
    D = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 2.0], [3.0, 2.0, 1.0]])
    a, b = np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])
    lp, add = _transport_lp(D, a, b)

    def solve(src, dst, cost):
        lp.run()
        assert lp.getModelStatus() == HighsModelStatus.kOptimal
        sol = lp.getSolution()
        x, y = np.asarray(sol.col_value), np.asarray(sol.row_dual)
        assert x.shape == (len(src),) and y.shape == (6,)
        assert x.min() >= -1e-12
        for side, total in ((src, a), (dst, b)):
            assert np.allclose(np.bincount(side, weights=x, minlength=3), total, atol=1e-12)
        assert float(x @ D[src, dst]) == pytest.approx(cost, abs=1e-12)
        reduced = D[src, dst] - y[src] - y[3 + dst]
        assert reduced.min() >= -1e-12 and np.abs(reduced[x > 1e-12]).max() <= 1e-12
        assert float(y @ np.concatenate([a, b])) == pytest.approx(cost, abs=1e-12)
        basic = lp.getBasicVariables()[1]
        assert basic.shape == (6,) and isinstance(lp.getInfo().simplex_iteration_count, int)

    src, dst = np.nonzero(np.ones((3, 3), dtype=bool))
    src, dst = src[:-1], dst[:-1]                 # every arc but 2 -> 2
    add(src, dst)
    solve(src, dst, 2.0)
    add(np.array([2]), np.array([2]))             # one more column, then re-solve
    solve(np.append(src, 2), np.append(dst, 2), 1.6)
    # arc 0 -> 0 bounded below its optimal mass 0.2 ends nonbasic at the
    # bound; with every bound taken off, the re-solve reaches 1.6 again
    lp, add = _transport_lp(D, a, b)
    src, dst = np.nonzero(np.ones((3, 3), dtype=bool))
    add(src, dst, np.where((src == 0) & (dst == 0), 0.1, np.inf))
    lp.run()
    assert lp.getModelStatus() == HighsModelStatus.kOptimal and lp.getNumCol() == 9
    status = lp.getBasis().col_status
    assert len(status) == 9 and status[0] == HighsBasisStatus.kUpper
    assert lp.getSolution().col_value[0] == pytest.approx(0.1, abs=1e-12)
    assert lp.getSolution().col_dual[0] < -1e-12
    assert lp.getObjectiveValue() == pytest.approx(1.8, abs=1e-12)
    lp.changeColsBounds(9, np.arange(9, dtype=np.int32), np.zeros(9), np.full(9, np.inf))
    solve(src, dst, 1.6)


def _full_basis(D, a, b):
    """An optimal basis of the full transportation LP, from HiGHS: basic
    arcs, basic row slacks and the node potentials (u, -v)."""
    S, T = D.shape
    src, dst = np.repeat(np.arange(S), T), np.tile(np.arange(T), S)
    lp, add = _transport_lp(D, a, b)
    add(src, dst)
    lp.run()
    y = np.asarray(lp.getSolution().row_dual)
    basic = lp.getBasicVariables()[1]
    arcs = basic[basic >= 0]
    return src[arcs], dst[arcs], -1 - basic[basic < 0], np.concatenate([y[:S], -y[S:]])


@pytest.mark.parametrize("seed, offset", [(s, 0.0) for s in range(4)] + [(s, 10.0) for s in range(4)]
                         + [(6, 1.0), (11, 1.0), (37, 1.0), (39, 1.0)])
def test_basis_plan_pivots_to_the_optimum(seed, offset):
    # an optimal basis for one pair of marginals stays dual feasible for
    # another, where some of its basic masses go negative. On two clusters
    # `offset` apart, each balanced alone, the basis is two trees, which
    # the new pair puts out of balance; at offset 1 the arc that enters
    # after a cut can join the rootless part to the other tree. The dual
    # pivots of _basis_plan must reach the optimum of the full LP.
    rng = np.random.default_rng(seed)
    S, T = 8, 10
    ps, pt = rng.random((S, 2)), rng.random((T, 2))
    a, b = rng.random(S) + 0.1, rng.random(T) + 0.1
    if offset:
        ps[S // 2:] += offset
        pt[T // 2:] += offset
        for m, h in ((a, S // 2), (b, T // 2)):
            m[:h] /= 2 * m[:h].sum()
            m[h:] /= 2 * m[h:].sum()
    else:
        a, b = a / a.sum(), b / b.sum()
    D = np.sqrt(((ps[:, None] - pt[None, :]) ** 2).sum(-1))
    src, dst, roots, pi = _full_basis(D, a, b)
    assert len(roots) == (2 if offset else 1)
    a2, b2 = a * rng.uniform(0.5, 1.5, S), b * rng.uniform(0.5, 1.5, T)
    a2, b2 = a2 / a2.sum(), b2 / b2.sum()
    ends = np.stack([src, S + dst], axis=1)
    x0, rest = w1._basis_masses(S, ends, np.concatenate([a2, b2]), roots)
    assert min(x0.min(), -np.abs(rest).max()) < -1e-3        # the old basis is infeasible
    pairs, x, pi2 = w1._basis_plan(D, a2, b2, src, dst, roots, pi)
    assert x.min() >= -1e-15
    assert np.abs(np.bincount(pairs[:, 0], weights=x, minlength=S) - a2).max() <= 1e-15
    assert np.abs(np.bincount(pairs[:, 1], weights=x, minlength=T) - b2).max() <= 1e-15
    assert (D - pi2[:S, None] + pi2[None, S:]).min() >= -1e-12
    assert float(x @ D[pairs[:, 0], pairs[:, 1]]) == pytest.approx(_full_lp(D, a2, b2).fun,
                                                                   abs=1e-12)


def test_negative_basic_mass_is_pivoted_out(monkeypatch):
    # HiGHS ends this near-uniform cap on a basis with a basic mass of
    # about -8.5e-12, inside its 1e-10 feasibility tolerance; cutting it at
    # zero put the plan marginals off by as much. A dual pivot takes it out.
    least = []                      # least basic mass of each basis solved
    basis_masses = w1._basis_masses

    def spy(*args):
        out = basis_masses(*args)
        least.append(out[0].min())
        return out

    monkeypatch.setattr(w1, "_basis_masses", spy)
    sp = ms.generate_sphere_sample(2, 100, seed=17)
    n, k = sp.n, sp.n // 4
    order = np.argsort(-sp.coords[:, 2], kind="stable")
    mu0 = np.zeros(n); mu0[order[:k]] = 1.0 / k
    mu1 = np.zeros(n); mu1[order[-k:]] = 1.0 / k
    rng = np.random.default_rng(17)
    mu0, mu1 = _perturbed(mu0, 1e-8, rng), _perturbed(mu1, 1e-8, rng)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine == "highs-colgen"
    assert least[0] < -1e-12 and len(least) >= 2
    m0 = np.bincount(sol.pairs[:, 0], weights=sol.masses, minlength=n)
    m1 = np.bincount(sol.pairs[:, 1], weights=sol.masses, minlength=n)
    assert max(np.abs(m0 - mu0).max(), np.abs(m1 - mu1).max()) <= 1e-14
    assert sol.duality_gap <= 1e-14 * (1 + sol.primal_value)


def _net_lp(D, mu0, mu1):
    """Costs, supplies and demands of the transportation LP between the
    points where mu0 - mu1 is positive and where it is negative."""
    b = mu0 - mu1
    src, snk = np.flatnonzero(b > 0), np.flatnonzero(b < 0)
    return np.ascontiguousarray(D[np.ix_(src, snk)]), b[src], -b[snk]


def _boxed_case(kind, seed, size, rel):
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        pts = rng.random((size, 2))
        D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        return _net_lp(D, *_marginals(size, seed))
    if kind == "grid":
        edges = [[v, v + 1, float(rng.uniform(0.5, 1.5))] for v in range(size**2) if (v + 1) % size]
        edges += [[v, v + size, float(rng.uniform(0.5, 1.5))] for v in range(size**2 - size)]
        sp = ms.build_space(list(range(size**2)), {"type": "graph", "edges": edges})
        return _net_lp(sp.rows(np.arange(sp.n), np.arange(sp.n)), *_marginals(sp.n, seed))
    sp = ms.generate_sphere_sample(2, size, seed=seed)
    n, m = sp.n, sp.n // 4
    order = np.argsort(-sp.coords[:, 2], kind="stable")
    mu0 = np.zeros(n); mu0[order[:m]] = 1.0 / m
    mu1 = np.zeros(n); mu1[order[-m:]] = 1.0 / m
    return _net_lp(sp.rows(np.arange(n), np.arange(n)),
                   _perturbed(mu0, rel, rng), _perturbed(mu1, rel, rng))


@pytest.mark.parametrize("kind, seed, size, rel", [
    ("cloud", 0, 60, 0), ("cloud", 1, 200, 0), ("grid", 0, 8, 0), ("grid", 1, 12, 0),
    ("cap", 0, 200, 1e-6), ("cap", 1, 200, 1e-8), ("cap", 2, 200, 1e-10), ("cap", 3, 200, 1e-12)])
def test_boxed_engine_is_optimal_over_all_arcs(kind, seed, size, rel):
    # arc columns enter bounded by min(a_i, b_j), which every feasible plan
    # obeys; once no arc outside prices negative the bounds come off and
    # the LP is re-solved once. The plan must be optimal over all S x T
    # arcs: the full LP's cost, no arc, in the set or out, priced below
    # the tightening's tolerance -_RTOL scale, exact marginals
    D, a, b = _boxed_case(kind, seed, size, rel)
    S = len(a)
    pairs, x, pi, record = w1._engine_highs_generated(D, a, b)
    full = _full_lp(D, a, b).fun
    cost = float(x @ D[pairs[:, 0], pairs[:, 1]])
    assert cost == pytest.approx(full, rel=0, abs=1e-12 * (1 + full))
    assert (D - pi[:S, None] + pi[None, S:]).min() >= -w1._RTOL * max(D.max(), 1.0)
    assert np.abs(np.bincount(pairs[:, 0], weights=x, minlength=S) - a).max() <= 1e-14
    assert np.abs(np.bincount(pairs[:, 1], weights=x, minlength=len(b)) - b).max() <= 1e-14
    assert len(record["simplex_iterations"]) == record["rounds"] >= 2
    # some columns sat at their bound, so the re-solve without them had work
    assert record["at_bound"] > 0


def test_near_line_metric_not_line_dispatched():
    # a slightly bent curve is a valid metric but not 1D-embeddable; it must
    # take the bipartite path, whose certificates do not assume line geometry
    t = np.linspace(0, 1, 30)
    pts = np.stack([t, 1e-4 * t**2], axis=1)
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    sp = ms.build_space(list(range(30)), {"type": "matrix", "data": D})
    assert sp.line_coord is None
    mu0, mu1 = _marginals(30, 31)
    sol = w1.solve_w1(sp, mu0, mu1)
    assert sol.engine != "line"
    assert sol.duality_gap <= 1e-9 * (1 + sol.primal_value)


def _bellman_max(W, seed, max_passes, atol):
    """Dense oracle: pointwise-maximal solution of c_i - c_j <= W[j, i]
    below `seed` by parallel relaxation over all m^2 constraints; None
    when improvements above `atol` persist past `max_passes`."""
    c = seed.copy()
    for _ in range(max_passes):
        c2 = np.minimum(c, (c[:, None] + W).min(axis=0))
        if (c - c2).max() <= atol:
            return c2
        c = c2
    return None


def _dense_constraints(Dm, pairs, t):
    """c_i - c_j <= W[j, i]: Dm less t off the diagonal and the support
    pairs (both ways), with equality on each support pair x -> y."""
    x, y = pairs[:, 0], pairs[:, 1]
    exempt = np.eye(len(Dm), dtype=bool)
    exempt[x, y] = exempt[y, x] = True
    W = np.where(exempt, Dm, Dm - t)
    np.minimum.at(W, (x, y), -Dm[x, y])
    return W


def _space(Dm):
    """Dm as the distances of a matrix space (not validated: any Dm)."""
    m = len(Dm)
    return ms.MMSpace(list(range(m)), Dm, np.full(m, 1.0 / m))


@pytest.mark.parametrize("seed", range(8))
def test_active_set_relaxation_matches_dense_oracle(seed):
    # an empty plan leaves one component per point (K = m) and no offsets,
    # so the active set relaxes the distances as they stand. Manhattan
    # distances between lattice points: many exact ties, hence exact-zero
    # cycles, and 2-cycles of weight 2 (1 - t) that deflations past t = 1
    # break; the asymmetric case relaxes the lattice's distances offset by
    # a random potential, as the contracted weights are
    rng = np.random.default_rng(seed)
    Dm, _ = _lattice(seed)
    atol = 1e-13 * (1 + Dm.max())
    shift = rng.normal(size=len(Dm))
    no_pairs, outcomes = np.zeros((0, 2), int), set()
    for W in (Dm, Dm + shift[:, None] - shift[None, :]):
        start = rng.normal(size=len(Dm))
        merged = w1._Contracted(_space(W), np.arange(len(W)), no_pairs)
        assert len(merged.Mc) == len(W)
        for t in (0.0, 1e-3, 0.5, 1.0, 1.5, 3.0):
            want = _bellman_max(_dense_constraints(W, no_pairs, t), start, len(W) + 2, atol)
            got, record = merged.solve(t, start, atol)
            assert (got is None) == (want is None), t
            assert record["outcome"] == ("negative-cycle" if want is None else "feasible")
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=10 * atol)
            outcomes.add(record["outcome"])
    assert outcomes == {"feasible", "negative-cycle"}


def test_planted_negative_cycle_is_proven():
    # a ring 0 -> 1 -> ... -> L-1 -> 0 plus back edges, relaxed as one
    # edge list sorted by target; its weight decides the outcome
    L = 40
    ring = np.arange(L)
    src = np.concatenate([ring, ring, (ring + 1) % L])
    dst = np.concatenate([ring, (ring + 1) % L, ring])
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.searchsorted(dst, ring)
    atol = 1e-13

    def relax(forward):
        w = np.where(src == dst, 0.0, 10.0)
        fwd = dst == (src + 1) % L
        w[fwd] = forward
        return w1._relax(np.zeros(L), src, dst, w, starts, atol)

    # every point drops in every pass: the cycle of lowering edges is found
    c, passes, proof = relax(np.full(L, -1e-3))
    assert c is None and passes == w1._CYCLE_CHECK and proof["proof"] == "cycle"
    # one negative edge: a drop runs round the ring, one point per pass,
    # until the m + 1 pass bound proves the cycle
    c, passes, proof = relax(np.r_[-1e-9 - 0.1 * (L - 1), np.full(L - 1, 0.1)])
    assert c is None and passes == L + 1 and proof == {"proof": "pass-bound"}
    # exact zero weight, up to rounding: feasible
    c, passes, proof = relax(np.r_[-0.1 * (L - 1), np.full(L - 1, 0.1)])
    assert c is not None and passes <= L + 1 and proof == {}

    # 2x2 tie: both assignments cost 2, so every deflation margin t closes
    # the cycle x1 -> y1 -> x2 -> y2 -> x1 of weight -2t
    pts = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    sp = ms.build_space(list(range(4)), {"type": "matrix", "data": D})
    sol = w1.solve_w1(sp, [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5])
    rungs = sol.tightening["rungs"]
    assert sol.slack_floor == 0.0
    assert rungs[-1]["margin"] == 0.0 and rungs[-1]["outcome"] == "feasible"
    assert [r["margin"] > 0 for r in rungs[:-1]] == [True] * len(w1.SLACK_LADDER)
    assert all(r["outcome"] == "negative-cycle" and r["passes"] <= 5 for r in rungs[:-1])

    # a suboptimal plan is a negative cycle at exact saturation
    Dm = np.array([[0, 5, 1, 3], [5, 0, 3, 1], [1, 3, 0, 5], [3, 1, 5, 0]], dtype=float)
    with pytest.raises(SolverFailure, match="negative cycle"):
        w1._tighten_potential(_space(Dm), np.arange(4), np.array([[0, 3], [1, 2]]), None)


def test_slack_floor_does_not_depend_on_the_seed():
    # uniform polar caps on S^2, n = 1000: the assignment plan re-derived
    # from HiGHS duals or from zeros proves the same ladder outcomes
    from scipy.optimize import linear_sum_assignment
    sp = ms.generate_sphere_sample(2, 1000, seed=0)
    order = np.argsort(-sp.coords[:, 2], kind="stable")
    src, snk = order[:250], order[-250:]
    D_sub = np.ascontiguousarray(sp.D[np.ix_(src, snk)])
    a = np.full(250, 1 / 250)
    res = _full_lp(D_sub, a, a)
    duals = np.concatenate([res.eqlin.marginals[:250], -res.eqlin.marginals[250:]])
    rows, cols = linear_sum_assignment(D_sub)
    pairs = np.stack([rows, 250 + cols], axis=1)
    moved = np.concatenate([src, snk])
    _, floor_zero, zero = w1._tighten_potential(sp, moved, pairs, None)
    _, floor_duals, from_duals = w1._tighten_potential(sp, moved, pairs, duals)
    assert floor_zero > 0
    assert floor_duals == floor_zero
    assert from_duals["cycle_bound"] == zero["cycle_bound"] >= floor_zero
    assert [r["outcome"] for r in from_duals["rungs"]] == [r["outcome"] for r in zero["rungs"]]


def test_cycle_is_proven_one_check_after_a_lap():
    # a 40-point ring of weight -1e-9 among m = 400 points that have only
    # self-loops: a drop runs round the ring in 40 passes, after which
    # every ring point is tight on its ring in-edge, so the check at pass
    # 48 proves the cycle (pointers on lowered points alone need m + 1)
    L, m = 40, 400
    ring = np.arange(L)
    src = np.concatenate([np.arange(m), ring])
    dst = np.concatenate([np.arange(m), (ring + 1) % L])
    w = np.concatenate([np.zeros(m), [-1e-9 - 0.1 * (L - 1)], np.full(L - 1, 0.1)])
    order = np.argsort(dst, kind="stable")
    starts = np.searchsorted(dst[order], np.arange(m))
    c, passes, proof = w1._relax(np.zeros(m), src[order], dst[order], w[order], starts, 1e-13)
    assert c is None and passes == 48
    assert proof["proof"] == "cycle" and proof["cycle_length"] == L
    assert proof["cycle_weight"] == pytest.approx(-1e-9, rel=1e-4)


def _edge_system(m, src, dst, w):
    """The edges src -> dst of weight w on m points, each point's self-loop
    added, sorted by target as `_relax` takes them: (src, dst, w, starts),
    and the dense W of the same constraints c_i - c_j <= W[j, i]."""
    src, dst = np.r_[np.arange(m), src], np.r_[np.arange(m), dst]
    w = np.r_[np.zeros(m), w]
    W = np.full((m, m), np.inf)
    np.minimum.at(W, (src, dst), w)
    o = np.argsort(dst, kind="stable")
    return src[o], dst[o], w[o], np.searchsorted(dst[o], np.arange(m)), W


def _random_system(kind, seed, m=60):
    """Random difference constraints of one `kind`: "ties" (integer
    potential differences plus slack in {0, 1/2, 1}, so exact-zero cycles
    abound), "rounding" (real potential differences, cycles zero up to
    rounding), "negative" (ties plus a cycle of weight -1/2) and "chain"
    (a potential falling along a path through every point, whose edges
    are tight, plus edges with slack at least 1/2: shortest walks follow
    the path, up to m - 1 edges deep)."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, m, (2, 4 * m))
    src, dst = src[src != dst], dst[src != dst]
    k = len(src)
    p = rng.normal(size=m) if kind == "rounding" else rng.integers(0, 6, m).astype(float)
    if kind == "chain":
        path = rng.permutation(m)
        p[path] = -np.cumsum(1 + rng.random(m))
        src, dst = np.r_[src, path[:-1]], np.r_[dst, path[1:]]
    w = p[dst] - p[src]
    if kind != "rounding":
        w[:k] += rng.integers(kind == "chain", 3, k) / 2
    if kind == "negative":
        ring = rng.choice(m, size=int(rng.integers(3, 12)), replace=False)
        nxt = np.roll(ring, -1)
        src, dst = np.r_[src, ring], np.r_[dst, nxt]
        w = np.r_[w, p[nxt] - p[ring] - 0.5 / len(ring)]
    return _edge_system(m, src, dst, w)


@pytest.mark.parametrize("kind", ["ties", "rounding", "negative", "chain"])
@pytest.mark.parametrize("seed", range(6))
def test_forest_walk_relaxation_matches_dense_oracle(kind, seed):
    # walking each pass's pointer forest changes neither the outcome nor
    # the maximal solution below the start
    src, dst, w, starts, W = _random_system(kind, seed)
    m = len(W)
    atol = 1e-13 * (1 + np.abs(w).max())
    start = np.random.default_rng(seed).normal(size=m)
    want = _bellman_max(W, start, m + 2, atol)
    got, passes, proof = w1._relax(start, src, dst, w, starts, atol)
    assert (got is None) == (want is None) == (kind == "negative")
    if want is not None:
        assert proof == {} and passes <= m + 1
        np.testing.assert_allclose(got, want, rtol=0, atol=10 * atol)
    else:
        assert proof["proof"] in ("cycle", "pass-bound")


def test_forest_walk_converges_a_deep_chain_in_few_passes(monkeypatch):
    # a 1000-point path whose every edge lowers the next point: plain
    # Jacobi moves the drop one point per pass, the walk down the first
    # pass's pointer chain reaches its end at once
    m = 1000
    lower = -1 - np.random.default_rng(0).random(m - 1)
    src, dst, w, starts, _ = _edge_system(m, np.arange(m - 1), np.arange(1, m), lower)
    atol = 1e-13 * m
    c, passes, _ = w1._relax(np.zeros(m), src, dst, w, starts, atol)
    assert passes <= 3
    monkeypatch.setattr(w1, "_walk_forest", lambda c, *forest: c)     # plain Jacobi
    plain, plain_passes, _ = w1._relax(np.zeros(m), src, dst, w, starts, atol)
    assert plain_passes == m
    np.testing.assert_allclose(c, plain, rtol=0, atol=10 * atol)
    np.testing.assert_allclose(c, np.r_[0.0, np.cumsum(lower)], rtol=0, atol=10 * atol)


class _Unscreened(w1._Contracted):
    """`_Contracted` screening 1-cycles alone: relaxation proves every
    other negative cycle."""

    def __init__(self, *args):
        super().__init__(*args)
        self.short = self.short[:1]


@pytest.mark.parametrize("case", [f"lattice-{seed}" for seed in range(8)] + ["cap-n1000"])
def test_screened_ladder_matches_unscreened(case, monkeypatch):
    # rejecting rungs by their broken 2-cycles accepts the same margin, with
    # the same potential, as proving every cycle by relaxation
    if case == "cap-n1000":
        space = ms.generate_sphere_sample(2, 1000, seed=0)
        order = np.argsort(-space.coords[:, 2], kind="stable")
        mu0, mu1 = np.zeros(1000), np.zeros(1000)
        mu0[order[:250]] = mu1[order[-250:]] = 1 / 250
    else:
        Dm, _ = _lattice(int(case.split("-")[1]))
        space = _space(Dm)
        mu0, mu1 = np.r_[np.full(10, 0.1), np.zeros(10)], np.r_[np.zeros(10), np.full(10, 0.1)]
    screened = w1.solve_w1(space, mu0, mu1)
    monkeypatch.setattr(w1, "_Contracted", _Unscreened)
    unscreened = w1.solve_w1(space, mu0, mu1)
    rungs, want = screened.tightening["rungs"], unscreened.tightening["rungs"]
    assert any(r.get("proof") == "screen" and r["cycle_length"] == 2 for r in rungs)
    assert not any(r.get("proof") == "screen" and r["cycle_length"] == 2 for r in want)
    assert [(r["margin"], r["outcome"]) for r in rungs] == [(r["margin"], r["outcome"]) for r in want]
    assert screened.slack_floor == unscreened.slack_floor <= screened.tightening["cycle_bound"]
    np.testing.assert_array_equal(screened.pairs, unscreened.pairs)
    np.testing.assert_allclose(screened.potential, unscreened.potential, rtol=0,
                               atol=1e-14 * (1 + space.max_distance))


@pytest.mark.parametrize("seed", range(4))
def test_short_cycle_screen_is_exact(seed):
    # the screened 1- and 2-cycle weights are the least of the dense
    # contracted system, whose constraints are read here point by point
    Dm, pairs, _ = _cloud_plan(seed)
    merged = w1._Contracted(_space(Dm), np.arange(len(Dm)), pairs)
    label, off, K = merged.label, merged.off, merged.label.max() + 1
    E = Dm + off[:, None] - off[None, :]        # E[j, i]: c_i - c_j <= E[j, i]
    np.fill_diagonal(E, np.inf)
    E[pairs[:, 0], pairs[:, 1]] = E[pairs[:, 1], pairs[:, 0]] = np.inf
    Mc = np.full((K, K), np.inf)
    np.minimum.at(Mc, (label[:, None], label[None, :]), E)
    two = (Mc + Mc.T + np.diag(np.full(K, np.inf))).min()
    assert merged.short == ((Mc.diagonal().min(), 1), (two, 2))
    assert merged.cycle_bound == min(Mc.diagonal().min(), two / 2)
    # on the 3x3 cyclic tie each swap of two pairs costs 1 more: a margin
    # is screened exactly when it breaks that 2-cycle by more than atol
    tie = w1._Contracted(_space(_cyclic_tie(3)), np.arange(6), np.array([[0, 3], [1, 4], [2, 5]]))
    atol = 3e-13
    assert tie.short == ((np.inf, 1), (1.0, 2)) and tie.cycle_bound == 0.5
    for t, screened in ((0.5 + 2 * atol, True), (0.5 + atol / 4, False), (0.5, False)):
        _, record = tie.solve(t, np.zeros(6), atol)
        assert record["outcome"] == "negative-cycle"    # the tie's 3-cycle, at any t > 0
        assert (record["proof"] == "screen") == screened
        if screened:
            assert (record["cycle_length"], record["passes"]) == (2, 0)


def _undeflated_first(Dm, scale, pairs_local, seed):
    """Oracle: the tightening ladder in its earlier order, by dense
    relaxation of the uncontracted system. The undeflated system first
    (None when it is a negative cycle), then the deflated rungs. Returns
    (values, margin)."""
    seed = np.zeros(len(Dm)) if seed is None else seed

    def attempt(t):
        return _bellman_max(_dense_constraints(Dm, pairs_local, t), seed, len(Dm) + 2,
                            1e-13 * scale)

    c0 = attempt(0.0)
    if c0 is None:
        return None, None
    for rel in w1.SLACK_LADDER:
        c = attempt(rel * scale)
        if c is not None:
            return c, rel * scale
    return c0, 0.0


def _lattice(seed, S=10):
    """The Manhattan lattice instance of `test_active_set_relaxation_matches_dense_oracle`
    with its optimal plan."""
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(seed)
    cells = rng.choice(49, size=2 * S, replace=False)
    pts = np.stack([cells // 7, cells % 7], axis=1)
    Dm = np.abs(pts[:, None] - pts[None, :]).sum(-1).astype(float)
    rows, cols = linear_sum_assignment(Dm[:S, S:])
    return Dm, np.stack([rows, S + cols], axis=1)


def _uniform_cap(n=1000):
    """The n-point S^2 sample, its moved points and the assignment plan of
    the uniform polar caps (top quarter to bottom quarter)."""
    from scipy.optimize import linear_sum_assignment
    sp = ms.generate_sphere_sample(2, n, seed=0)
    order = np.argsort(-sp.coords[:, 2], kind="stable")
    k = n // 4
    moved = np.concatenate([order[:k], order[-k:]])
    rows, cols = linear_sum_assignment(sp.rows(moved[:k], moved[k:]))
    return sp, moved, np.stack([rows, k + cols], axis=1)


@pytest.mark.parametrize("case", [f"lattice-{seed}" for seed in range(8)] + ["cap-n1000"])
def test_ladder_order_matches_undeflated_first_oracle(case):
    # a deflated rung feasible at exact saturation makes the undeflated
    # system feasible too, so trying the rungs first accepts what the
    # earlier order accepted, with the same maximal values
    if case == "cap-n1000":
        space, moved, pairs = _uniform_cap()
    else:
        Dm, pairs = _lattice(int(case.split("-")[1]))
        space, moved = _space(Dm), np.arange(len(Dm))
    scale = 1 + space.max_distance
    want, want_margin = _undeflated_first(space.rows(moved, moved), scale, pairs, None)
    got, margin, record = w1._tighten_potential(space, moved, pairs, None)
    rungs = record["rungs"]
    assert margin == want_margin <= record["cycle_bound"]
    assert (rungs[-1]["margin"], rungs[-1]["outcome"]) == (margin, "feasible")
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
    if case == "cap-n1000":     # the 1e-8 rung certifies, and no undeflated attempt runs
        assert margin > 0 and all(r["margin"] > 0 for r in rungs)


def _colgen_plan(D, b):
    """Moved-point distances, support pairs (local, sources then sinks) and
    duals of the arc generation plan for net supply b on the metric D."""
    src, snk = np.flatnonzero(b > 0), np.flatnonzero(b < 0)
    pairs, _, pi, _ = w1._engine_highs_generated(
        np.ascontiguousarray(D[np.ix_(src, snk)]), b[src], -b[snk])
    moved = np.concatenate([src, snk])
    return D[np.ix_(moved, moved)], np.stack([pairs[:, 0], len(src) + pairs[:, 1]], axis=1), pi


def _cloud_plan(seed, n=40):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    mu0, mu1 = rng.random(n), rng.random(n)
    return _colgen_plan(np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1)),
                        mu0 / mu0.sum() - mu1 / mu1.sum())


@pytest.mark.parametrize("case", [f"lattice-{seed}" for seed in range(8)]
                         + [f"cloud-{seed}" for seed in range(4)])
def test_contracted_solve_matches_dense_oracle(case):
    # every eq = 0 attempt relaxes one value per support component: the same
    # feasibility and the same maximal values as dense relaxation of the
    # uncontracted system, on optimal and arbitrary matchings, and on arc
    # generation forests with multi-point components
    kind, seed = case.split("-")
    rng = np.random.default_rng(int(seed))
    if kind == "lattice":
        Dm, optimal = _lattice(int(seed))
        S = len(optimal)
        arbitrary = np.stack([np.arange(S), S + rng.permutation(S)], axis=1)
        plans = [(optimal, rng.normal(size=2 * S)), (arbitrary, rng.normal(size=2 * S))]
        margins = (0.0, 1e-3, 0.5, 1.0)
    else:
        Dm, pairs, pi = _cloud_plan(int(seed))
        plans = [(pairs, pi), (pairs, np.zeros(len(Dm)))]
        margins = (0.0, 1e-9, 1e-6, 1e-3, 0.5, 1.0)
    atol = 1e-13 * (1 + Dm.max())
    outcomes = set()
    for pairs, start in plans:
        merged = w1._Contracted(_space(Dm), np.arange(len(Dm)), pairs)
        if kind == "cloud":
            assert np.bincount(merged.label).max() > 2
        for t in margins:
            want = _bellman_max(_dense_constraints(Dm, pairs, t), start, len(Dm) + 2, atol)
            got, record = merged.solve(t, start, atol)
            assert (got is None) == (want is None), t
            assert record["outcome"] == ("negative-cycle" if want is None else "feasible")
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=10 * atol)
            outcomes.add(record["outcome"])
    assert outcomes == {"feasible", "negative-cycle"}


@pytest.mark.parametrize("n", [60, 200, 800])
def test_jittered_lattice_saturates_exactly(n):
    # a near-degenerate L1 lattice (integer points plus 1e-9 jitter): with
    # HiGHS's dual tolerance scaled below the pricing tolerance, arc
    # generation ends with no arc below -_RTOL scale, so exact saturation
    # of the plan is feasible; the support pairs saturate up to rounding
    rng = np.random.default_rng(0)
    pts = rng.integers(0, 8, (n, 2)) + 1e-9 * rng.random((n, 2))
    D = np.abs(pts[:, None] - pts[None, :]).sum(-1)
    mu0, mu1 = rng.random(n) + 1e-3, rng.random(n) + 1e-3
    sol = w1.solve_w1(_space(D), mu0 / mu0.sum(), mu1 / mu1.sum())
    assert sol.engine == "highs-colgen"
    assert set(sol.tightening) == {"rungs", "components", "cycle_bound"}
    assert sol.tightening["rungs"][-1]["outcome"] == "feasible"
    assert sol.support_residual <= w1._RTOL * (1 + D.max())


def test_tightening_records_its_components():
    # an assignment plan is a matching, one component per pair; one source
    # sending to every sink is a star, one component
    pts = np.array([[0, 0], [1, 1], [1, 0], [0, 1], [2, 2]], dtype=float)
    space = ms.build_space(list(range(5)), {"type": "matrix",
                                            "data": np.abs(pts[:, None] - pts[None, :]).sum(-1)})
    tie = w1.solve_w1(space, [0.5, 0.5, 0, 0, 0], [0, 0, 0.5, 0.5, 0])
    star = w1.solve_w1(space, [1, 0, 0, 0, 0], [0, 0.25, 0.25, 0.25, 0.25])
    assert (tie.engine, star.engine) == ("assignment", "highs-colgen")
    assert tie.tightening["components"] == 2 and star.tightening["components"] == 1
    assert star.to_json()["tightening"]["components"] == 1


def _cyclic_tie(k):
    """Distances between k sources and k sinks: d(x_i, y_i) = d(x_i, y_i+1 mod k)
    = 1 and every other distance 2. The identity and the cyclic shift both
    cost k, so every deflation margin t closes a k-cycle of components of
    weight -k t, while each swap of two pairs costs at least 1 more."""
    D = np.full((2 * k, 2 * k), 2.0)
    np.fill_diagonal(D, 0.0)
    for i in range(k):
        for j in (i, (i + 1) % k):
            D[i, k + j] = D[k + j, i] = 1.0
    return D


def test_negative_cycle_rungs_say_how_they_were_proven():
    # the 3x3 cyclic tie's deflated rungs end at the K + 1 pass bound of
    # its K = 3 components, the 16x16 tie's close its pointer cycle at the
    # first check, and a lattice's deflated rungs break an exact-tie
    # 2-cycle, which the screen proves before any pass
    Dm, _ = _lattice(0)
    mu0, mu1 = np.zeros(20), np.zeros(20)
    mu0[:10] = mu1[10:] = 0.1
    lattice = w1.solve_w1(ms.build_space(list(range(20)), {"type": "matrix", "data": Dm}),
                          mu0, mu1)
    base = {"margin", "outcome", "passes", "rounds", "active_edges"}
    proofs = []
    ties = []
    for k in (3, 16):
        space = ms.build_space(list(range(2 * k)), {"type": "matrix", "data": _cyclic_tie(k)})
        ties.append(w1.solve_w1(space, np.r_[np.full(k, 1 / k), np.zeros(k)],
                                np.r_[np.zeros(k), np.full(k, 1 / k)]))
    for sol in (*ties, lattice):
        rungs = sol.to_json()["tightening"]["rungs"]
        assert rungs == sol.tightening["rungs"]
        for r in rungs:
            if r["outcome"] == "feasible":
                assert set(r) == base
            elif r["proof"] == "pass-bound":
                assert set(r) == base | {"proof"}
                assert r["passes"] == sol.tightening["components"] + 1
            else:
                assert set(r) == base | {"proof", "cycle_length", "cycle_weight"}
                assert r["proof"] in ("cycle", "screen") and type(r["cycle_length"]) is int
                assert r["cycle_weight"] < 0
                if r["proof"] == "cycle":
                    assert r["cycle_length"] >= 3 and r["passes"] > 0
                else:
                    assert r["cycle_length"] in (1, 2) and r["passes"] == r["rounds"] == 0
        proofs.append({r.get("proof") for r in rungs} - {None})
    assert proofs == [{"pass-bound"}, {"cycle"}, {"screen"}]


def _walked_cycle(edge, src, w):
    """Oracle: the least-weight pointer cycle (weight, length) found by
    walking from every point, or (0.0, 0) when there is none."""
    best = (np.inf, 0)
    for start in range(len(edge)):
        path, x = [], start
        while edge[x] >= 0 and x not in path:
            path.append(x)
            x = src[edge[x]]
        if edge[x] >= 0 and x in path:
            cycle = path[path.index(x):]
            weight = sum(w[edge[y]] for y in cycle)
            if weight < best[0]:
                best = (weight, len(cycle))
    return best if best[1] else (0.0, 0)


@pytest.mark.parametrize("seed", range(20))
def test_parent_cycle_weight_matches_walk(seed):
    # random pointer graphs (one pointer per point, some none) over a
    # random edge list: strong components find the cycles the walk finds
    rng = np.random.default_rng(seed)
    m, k = 30, 90
    src, w = rng.integers(0, m, size=k), rng.normal(size=k)
    edge = np.full(m, -1)
    for x in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False):
        into = np.flatnonzero(src != x)
        edge[x] = rng.choice(into)
    weight, length = w1._parent_cycle_weight(edge, src, w)
    want_weight, want_length = _walked_cycle(edge, src, w)
    assert length == want_length
    assert weight == pytest.approx(want_weight, rel=0, abs=1e-12)


def test_gamma_tol_nan_is_bad_parameter():
    # unchecked, NaN excluded every pair and raised TolTooSmall for a plan pair
    space = ms.generate_interval_model(1.0, 2.0, np.pi, 200)[0]
    sol = w1.solve_w1(space, *_marginals(space.n, 2))
    with pytest.raises(BadParameter):
        w1.gamma_set(space, sol, tol=np.nan)


def _spy_assignment(monkeypatch):
    """Record each matrix the assignment engine hands to linear_sum_assignment."""
    from scipy.optimize import linear_sum_assignment
    seen = []

    def spy(C):
        seen.append(C.copy())
        return linear_sum_assignment(C)

    monkeypatch.setattr(w1, "linear_sum_assignment", spy)
    return seen


def _uniform_instance(case, seed):
    """A space whose first S points carry mu0 and next S points mu1, uniformly:
    integer L1 lattice points (many tied costs), S^2 polar caps, or a planar
    cloud with its coordinates, or its distances, offset by 1e6."""
    rng = np.random.default_rng(seed)
    if case == "lattice":
        cells = rng.choice(81, size=40, replace=False)
        pts = np.stack([cells // 9, cells % 9], axis=1)
        D = np.abs(pts[:, None] - pts[None, :]).sum(-1).astype(float)
    elif case == "cap":
        sp = ms.generate_sphere_sample(2, 400, seed=seed)
        order = np.argsort(-sp.coords[:, 2], kind="stable")
        keep = np.concatenate([order[:100], order[-100:]])
        D = sp.D[np.ix_(keep, keep)]
    else:
        pts = rng.random((200, 2)) + (1e6 if case == "cloud-shifted" else 0.0)
        D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        if case == "cloud-offset":
            D += 1e6 * (1 - np.eye(len(D)))
    n, S = len(D), len(D) // 2
    mu0, mu1 = np.zeros(n), np.zeros(n)
    mu0[:S], mu1[S:] = 1 / S, 1 / S
    return ms.build_space(list(range(n)), {"type": "matrix", "data": D}), mu0, mu1, S


def test_assignment_runs_on_reduced_costs(monkeypatch):
    seen = _spy_assignment(monkeypatch)
    for case, seed in (("cap", 0), ("cloud-offset", 1), ("lattice", 2)):
        sp, mu0, mu1, _ = _uniform_instance(case, seed)
        assert w1.solve_w1(sp, mu0, mu1).engine == "assignment"
    assert len(seen) == 3
    for C in seen:
        assert (C.min(axis=1) == 0).all() and (C.min(axis=0) == 0).all()


@pytest.mark.parametrize("case, seed", [("lattice", s) for s in range(4)]
                         + [("cap", s) for s in range(2)]
                         + [(c, s) for c in ("cloud-shifted", "cloud-offset") for s in range(2)])
def test_reduced_assignment_is_optimal_for_the_raw_costs(monkeypatch, case, seed):
    # row and column reduction keeps the optimal permutations; on ties the
    # engine may take another co-optimal one, and the solve still certifies
    from scipy.optimize import linear_sum_assignment
    seen = _spy_assignment(monkeypatch)
    sp, mu0, mu1, S = _uniform_instance(case, seed)
    sol = w1.solve_w1(sp, mu0, mu1)
    C, = seen
    assert sol.engine == "assignment" and C.min() == 0
    D_sub = sp.D[:S, S:]
    rows, cols = linear_sum_assignment(D_sub)
    raw = D_sub[rows, cols].sum() / S
    got = sp.D[sol.pairs[:, 0], sol.pairs[:, 1]].sum() / S
    assert abs(got - raw) <= 1e-14 * (1 + raw)
    assert sol.duality_gap <= 1e-9 * (1 + sol.primal_value)
    assert sol.lipschitz_residual <= 1e-9 * max(1.0, sp.max_distance)
