import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from needlekit import mmspace as ms
from needlekit import w1solve as w1
from needlekit.errors import SolverFailure, TolTooSmall, UnbalancedMarginals
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


def _full_lp(D, a, b):
    """The full transportation LP over all S x T variables, by HiGHS."""
    S, T = D.shape
    from scipy import sparse
    cols = np.arange(S * T)
    ri = np.repeat(np.arange(S), T)
    ci = np.tile(np.arange(T), S)
    A = sparse.coo_matrix((np.ones(2 * S * T),
                           (np.concatenate([ri, S + ci]), np.concatenate([cols, cols]))),
                          shape=(S + T, S * T))
    res = linprog(D.ravel(), A_eq=A.tocsc(), b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
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
    g.mask[bad] = True
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


def test_geodesic_stability_interval():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 300)
    t = space.line_coord
    mu0 = np.where(t < np.pi / 2, space.weights, 0); mu0 /= mu0.sum()
    mu1 = np.where(t >= np.pi / 2, space.weights, 0); mu1 /= mu1.sum()
    sol = w1.solve_w1(space, mu0, mu1)
    g = w1.gamma_set(space, sol)
    rep = w1.check_geodesic_stability(space, g, samples=100)
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
    rep = w1.check_geodesic_stability(sp, g, samples=150, rng=np.random.default_rng(1))
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
    assert set(sol.colgen) == {"rounds", "arcs"}
    assert sol.colgen["rounds"] >= 1 and sol.colgen["arcs"] >= len(sol.pairs) - sp.n
    assert sol.to_json()["colgen"] == sol.colgen
    # the line, identity and assignment routes run no LP
    line, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 20)
    uniform = np.zeros(40); uniform[:20] = 1 / 20
    for space, a, b, engine in ((line, *_marginals(20, 15), "line"),
                                (sp, mu0, mu0, "identity"),
                                (sp, uniform, uniform[::-1], "assignment")):
        other = w1.solve_w1(space, a, b)
        assert other.engine == engine and other.colgen == {}


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


def _dense_constraints(Dm, pairs, t, eq):
    x, y = pairs[:, 0], pairs[:, 1]
    exempt = np.eye(len(Dm), dtype=bool)
    exempt[x, y] = exempt[y, x] = True
    W = np.where(exempt, Dm, Dm - t)
    np.minimum.at(W, (x, y), -Dm[x, y] + eq)
    return W


@pytest.mark.parametrize("seed", range(8))
def test_active_set_relaxation_matches_dense_oracle(seed):
    # Manhattan distances between lattice points: many exact ties, hence
    # co-optimal plans, exact-zero cycles and infeasible deflations
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(seed)
    S = 10
    cells = rng.choice(49, size=2 * S, replace=False)
    pts = np.stack([cells // 7, cells % 7], axis=1)
    Dm = np.abs(pts[:, None] - pts[None, :]).sum(-1).astype(float)
    rows, cols = linear_sum_assignment(Dm[:S, S:])
    optimal = np.stack([rows, S + cols], axis=1)
    arbitrary = np.stack([np.arange(S), S + rng.permutation(S)], axis=1)
    atol = 1e-13 * (1 + Dm.max())
    start = rng.normal(size=2 * S)
    outcomes = set()
    for pairs in (optimal, arbitrary):
        active = w1._ActiveSet(Dm, pairs)
        for t, eq in ((0.0, 0.0), (1e-3, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 1.0), (0.5, 2.0)):
            want = _bellman_max(_dense_constraints(Dm, pairs, t, eq), start, 2 * S + 2, atol)
            got, record = active.solve(t, eq, start, atol)
            assert (got is None) == (want is None), (t, eq)
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
    c, passes = relax(np.full(L, -1e-3))
    assert c is None and passes == w1._CYCLE_CHECK
    # one negative edge: a drop runs round the ring, one point per pass,
    # until the m + 1 pass bound proves the cycle
    c, passes = relax(np.r_[-1e-9 - 0.1 * (L - 1), np.full(L - 1, 0.1)])
    assert c is None and passes == L + 1
    # exact zero weight, up to rounding: feasible
    c, passes = relax(np.r_[-0.1 * (L - 1), np.full(L - 1, 0.1)])
    assert c is not None and passes <= L + 1

    # 2x2 tie: both assignments cost 2, so every deflation margin t closes
    # the cycle x1 -> y1 -> x2 -> y2 -> x1 of weight -2t
    pts = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    D = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    sp = ms.build_space(list(range(4)), {"type": "matrix", "data": D})
    sol = w1.solve_w1(sp, [0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5])
    rungs = sol.tightening["rungs"]
    assert sol.slack_floor == 0.0 and sol.tightening["eq"] == 0.0
    assert rungs[0]["margin"] == 0.0 and rungs[0]["outcome"] == "feasible"
    assert [r["margin"] > 0 for r in rungs[1:]] == [True] * len(w1.SLACK_LADDER)
    assert all(r["outcome"] == "negative-cycle" and r["passes"] <= 5 for r in rungs[1:])

    # a suboptimal plan is a negative cycle at every equality slack
    Dm = np.array([[0, 5, 1, 3], [5, 0, 3, 1], [1, 3, 0, 5], [3, 1, 5, 0]], dtype=float)
    with pytest.raises(SolverFailure, match="negative cycle"):
        w1._tighten_potential(Dm, np.arange(4), np.array([[0, 3], [1, 2]]), None)


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
    _, floor_zero, _, rungs_zero = w1._tighten_potential(sp.D, moved, pairs, None)
    _, floor_duals, _, rungs_duals = w1._tighten_potential(sp.D, moved, pairs, duals)
    assert floor_zero > 0
    assert floor_duals == floor_zero
    assert [r["outcome"] for r in rungs_duals] == [r["outcome"] for r in rungs_zero]
