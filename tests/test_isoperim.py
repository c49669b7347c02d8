import ast
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from needlekit import cli
from needlekit import curvature as cv
from needlekit import isoperim as iso
from needlekit import mmspace as ms
from needlekit.errors import BadDimension, BadParameter, BadVolume, MeshTooCoarse


def test_model_profile_trivial_volumes():
    spec = iso.ModelProfileSpec(1.0, 2.0, np.pi)
    assert iso.model_profile(spec, 0.0) == 0.0
    assert iso.model_profile(spec, 1.0) == 0.0
    with pytest.raises(BadVolume):
        iso.model_profile(spec, 1.5)


@pytest.mark.parametrize("K, N, error", [(np.nan, 2.0, BadParameter), (np.inf, 2.0, BadParameter),
                                         (1.0, np.nan, BadDimension), (1.0, np.inf, BadDimension)])
def test_model_profile_spec_rejects_nonfinite_K_or_N(K, N, error):
    # unchecked, a NaN K falls into the K = 0 family and a Levy-Gromov check passes
    with pytest.raises(error):
        iso.ModelProfileSpec(K, N, 1.0)


def test_model_profile_spherical_half():
    # closed-form oracle: density sin(t)/2 on [0, pi], cap at pi/2, content 1/2
    val = iso.model_profile(iso.ModelProfileSpec(1.0, 2.0, np.pi), 0.5)
    assert val == pytest.approx(0.5, abs=1e-4)


def test_model_profile_spherical_quarter():
    # cap of mass 1/4: (1 - cos r)/2 = 1/4 -> r = pi/3, content sin(pi/3)/2
    val = iso.model_profile(iso.ModelProfileSpec(1.0, 2.0, np.pi), 0.25)
    assert val == pytest.approx(np.sin(np.pi / 3) / 2, abs=1e-4)


def test_model_profile_flat_brute_force():
    # brute-force oracle over 1e4 affine-family shifts
    spec = iso.ModelProfileSpec(0.0, 2.0, 1.0)
    val = iso.model_profile(spec, 0.5)
    grid = np.linspace(0.0, 1.0, 2049)
    best = np.inf
    for a in np.linspace(-np.pi / 2 + 1e-6, np.pi - 1e-6, 10000):
        J = np.cos(a) + np.sin(a) * grid
        h = np.clip(J, 0, None)
        cell = 0.5 * np.diff(grid) * (h[:-1] + h[1:])
        mass = cell.sum()
        if mass <= 0:
            continue
        cdf = np.concatenate([[0], np.cumsum(cell)]) / mass
        for target in (0.5,):
            k = np.searchsorted(cdf, target)
            if 0 < k < len(grid):
                lam = (target - cdf[k - 1]) / max(cdf[k] - cdf[k - 1], 1e-300)
                best = min(best, ((1 - lam) * h[k - 1] + lam * h[k]) / mass)
    assert val >= 1.0 - 1e-6          # uniform candidate gives exactly 1
    assert val == pytest.approx(best, abs=2e-3)


def test_model_profile_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(5):
        K = rng.uniform(-1, 1.5)
        N = rng.uniform(1.5, 5)
        D = rng.uniform(0.5, 2.5)
        if K > 0:
            D = min(D, np.pi * np.sqrt((N - 1) / K) * 0.95)
        v = rng.uniform(0.1, 0.9)
        spec = iso.ModelProfileSpec(K, N, D)
        assert iso.model_profile(spec, v) == pytest.approx(
            iso.model_profile(spec, 1 - v), rel=1e-4, abs=1e-6)


def test_model_profile_monotone_in_D():
    for v in (0.3, 0.5):
        vals = [iso.model_profile(iso.ModelProfileSpec(0.0, 3.0, D), v)
                for D in (0.5, 1.0, 2.0)]
        assert vals[0] >= vals[1] - 1e-9 and vals[1] >= vals[2] - 1e-9


def test_model_profile_unbounded():
    assert iso.model_profile(iso.ModelProfileSpec(-1.0, 2.0, np.inf), 0.5) == 0.0
    assert iso.model_profile(iso.ModelProfileSpec(0.0, 2.0, np.inf), 0.3) == 0.0


def test_model_profile_constant_n1():
    assert iso.model_profile(iso.ModelProfileSpec(0.0, 1.0, 2.0), 0.4) == pytest.approx(0.5)


def _direct_candidate_content(J, grid, N, v):
    # oracle: best half-line cut content of [max(J,0)]^{N-1}, from fresh arrays
    h = np.clip(J, 0.0, None) ** (N - 1.0) if N > 1 else np.ones_like(J)
    cell = 0.5 * np.diff(grid) * (h[:-1] + h[1:])
    mass = cell.sum()
    if mass <= 0:
        return np.inf
    cdf = np.concatenate([[0.0], np.cumsum(cell)]) / mass
    hn = h / mass
    best = np.inf
    for target in (v, 1.0 - v):
        k = np.searchsorted(cdf, target)
        if k == 0 or k >= len(grid):
            val = hn[min(k, len(grid) - 1)]
        else:
            t0, t1 = cdf[k - 1], cdf[k]
            lam = 0.0 if t1 == t0 else (target - t0) / (t1 - t0)
            val = (1 - lam) * hn[k - 1] + lam * hn[k]
        best = min(best, float(val))
    return best


# Below this w*D the K > 0 member differs from the K = 0 family only by
# O((w D)^2), well inside rel=1e-12, while sin(wt + xi) keeps only a few
# digits of wt against xi even in extended precision.
SMALL_OMEGA_D = 1e-6


def _direct_model_profile(spec, v):
    # oracle: model_profile with every family member evaluated directly,
    # sin(wt + xi) in np.longdouble for K > 0 (N > 1, 0 < v < 1, D within
    # the Bonnet-Myers bound); specs with w*D below SMALL_OMEGA_D take the
    # K = 0 family
    K, N, D = spec.K, spec.N, spec.D
    grid = np.linspace(0.0, D, iso.QUAD_N + 1)
    om = np.sqrt(abs(K) / (N - 1.0))
    if K > 0 and om * D < SMALL_OMEGA_D:
        K = 0.0
    if K > 0:
        omt = np.sqrt(np.longdouble(K) / (np.longdouble(N) - 1)) * grid.astype(np.longdouble)
        lo, hi = -om * D, np.pi

        def family(xi):
            return np.sin(omt + np.longdouble(xi)).astype(float)
    else:
        lo, hi = -np.pi / 2 + 1e-9, np.pi - 1e-9
        if K < 0:
            def family(a):
                return np.cos(a) * np.cosh(om * grid) + np.sin(a) * np.sinh(om * grid)
        else:
            def family(a):
                return np.cos(a) + np.sin(a) * grid

    def fun(p):
        return _direct_candidate_content(family(p), grid, N, v)

    params = np.linspace(lo, hi, 128)
    vals = np.array([fun(p) for p in params])
    best = np.inf
    for k in np.argsort(vals)[:3]:
        best = min(best, iso._golden(fun, params[max(k - 1, 0)], params[min(k + 1, 127)])[1])
    return float(best)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(1.1, 6.0),
       st.one_of(st.just(1.0), st.floats(0.05, 1.0)), st.floats(0.01, 0.99))
@example(K=5.459051890944621e-135, N=2.0, frac=1.0, v=0.75)   # w*D = 1e-67
@example(K=2.220446049250313e-16, N=1.9375, frac=1.0, v=0.75)  # w*D = 9e-8
@example(K=7e-15, N=2.0, frac=1.0, v=0.4)                      # w*D = 5e-7
@example(K=1e-10, N=2.0, frac=1.0, v=0.3)                      # w*D = 6e-5
@example(K=1e-15, N=1.125, frac=1.0, v=0.015625)               # w*D = 5.4e-7
def test_model_profile_matches_direct_evaluation(K, N, frac, v):
    # the tabulated basis (angle addition for K > 0) against direct evaluation
    cap = np.pi * np.sqrt((N - 1.0) / K) if K > 0 else 6.0
    spec = iso.ModelProfileSpec(K, N, frac * min(cap, 6.0))
    val, ref = iso.model_profile(spec, v), _direct_model_profile(spec, v)
    if K > 0:
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0)
    else:
        assert val == ref


def test_model_profile_clamps_to_bonnet_myers_diameter():
    # a window longer than pi*sqrt((N-1)/K) held several humps of sin, and
    # cuts at their zeros gave content 0
    assert iso.model_profile(iso.ModelProfileSpec(1.0, 2.0, 10.0), 0.5) == \
        iso.model_profile(iso.ModelProfileSpec(1.0, 2.0, np.pi), 0.5)
    assert iso.model_profile(iso.ModelProfileSpec(2.0, 2.0, np.pi), 0.5) == \
        iso.model_profile(iso.ModelProfileSpec(2.0, 2.0, np.pi / np.sqrt(2.0)), 0.5)
    assert iso.model_profile(iso.ModelProfileSpec(2.0, 2.0, np.pi), 0.5) == \
        pytest.approx(np.sqrt(2.0) / 2, abs=1e-4)


@pytest.mark.parametrize("K", [1.0, 2.0])
@pytest.mark.parametrize("v", [0.1, 0.25, 0.5, 0.8])
def test_model_profile_round_sphere_n3(K, v):
    # closed-form oracle for N = 3: the 3-sphere of radius s = sqrt(2/K) has
    # needle density sin^2(t/s) on [0, pi s]; in t/s the cap of mass v ends at
    # r with (r - sin r cos r)/pi = v, and its content is sin^2 r/(pi/2)/s
    s = np.sqrt(2.0 / K)
    r = brentq(lambda r: (r - np.sin(r) * np.cos(r)) / np.pi - v, 0.0, np.pi)
    val = iso.model_profile(iso.ModelProfileSpec(K, 3.0, np.pi * s), v)
    assert val == pytest.approx(np.sin(r) ** 2 / (np.pi / 2) / s, abs=1e-4)


def test_minkowski_uniform_interval():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 1000)
    A = space.line_coord <= 0.5
    est = iso.minkowski_content(space, A, iso.default_eps_window(space))
    assert est.value == pytest.approx(1.0, rel=0.02)


def test_minkowski_sin_model():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 1000)
    A = space.line_coord <= np.pi / 2
    est = iso.minkowski_content(space, A, iso.default_eps_window(space))
    assert est.value == pytest.approx(0.5, rel=0.02)


def test_minkowski_whole_space_and_empty():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 500)
    eps = iso.default_eps_window(space)
    whole = iso.minkowski_content(space, np.ones(space.n, bool), eps)
    assert whole.value <= 1e-12                      # A^eps = A, regression noise only
    assert all(q == 0.0 for _, q in whole.raw)
    assert iso.minkowski_content(space, np.zeros(space.n, bool), eps).value == 0.0


def _dense_content(space, A, eps_list):
    # oracle: the n x |A| column gather that minkowski_content replaced
    eps_arr = np.sort(np.asarray(eps_list, dtype=float))
    if A.sum() == 0:
        return 0.0, [(float(e), 0.0) for e in eps_arr]
    mass_A = space.weights[A].sum()
    dist = space.D[:, A].min(axis=1)
    masses = np.array([space.weights[dist < e].sum() for e in eps_arr])
    raw = [(float(e), float((g - mass_A) / e)) for e, g in zip(eps_arr, masses)]
    return max(float(np.polyfit(eps_arr, masses, 1)[0]), 0.0), raw


def _weighted_grid(k, seed):
    rng = np.random.default_rng(seed)
    edges = [[v, v + 1, float(rng.uniform(0.5, 1.5))] for v in range(k * k) if (v + 1) % k]
    edges += [[v, v + k, float(rng.uniform(0.5, 1.5))] for v in range(k * k - k)]
    return ms.build_space(list(range(k * k)), {"type": "graph", "edges": edges},
                          rng.random(k * k) + 0.1)


@pytest.mark.parametrize("kind", ["interval", "sphere", "graph"])
def test_minkowski_matches_dense_oracle(kind):
    if kind == "interval":
        space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 400)
    elif kind == "sphere":
        space = ms.generate_sphere_sample(2, 300, seed=1)
    else:
        space = _weighted_grid(12, 2)
    rng = np.random.default_rng(9)
    m = space.mesh
    windows = [iso.default_eps_window(space), iso.default_eps_window(space, 6),
               rng.permutation(np.linspace(2.0 * m, 20.0 * m, 9))]
    sets = [space.D[int(b)] < r for b in rng.choice(space.n, 3, replace=False)
            for r in (3.0 * m, 0.3 * space.max_distance)]
    sets += [rng.random(space.n) < p for p in (0.05, 0.5)]
    sets += [np.zeros(space.n, bool), np.ones(space.n, bool)]
    for eps in windows:
        for A in sets:
            est = iso.minkowski_content(space, A, eps)
            value, raw = _dense_content(space, A, eps)
            assert est.value == value
            assert est.raw == raw


def test_minkowski_memory():
    # the content reads the pairs within the largest eps, not an n x |A|
    # float copy of D (22.9 MB here)
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 2000)
    eps = iso.default_eps_window(space)
    A = np.zeros(space.n, bool)
    A[:1500] = True
    tracemalloc.start()
    try:
        iso.minkowski_content(space, A, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_minkowski_mesh_too_coarse():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 100)
    with pytest.raises(MeshTooCoarse):
        iso.minkowski_content(space, space.line_coord <= 0.5, [space.mesh])


def test_minkowski_first_order_convergence():
    # error against h(r) shrinks under refinement
    errs = []
    for n in (500, 2000):
        space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, n)
        A = space.line_coord <= np.pi / 3
        est = iso.minkowski_content(space, A, iso.default_eps_window(space))
        errs.append(abs(est.value - np.sin(np.pi / 3) / 2))
    assert errs[1] <= errs[0]


def test_empirical_profile_interval_matches_cut_oracle():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 1000)
    ep = iso.empirical_profile(space, 0.5, candidate_budget=16,
                               rng=np.random.default_rng(2))
    # oracle: best interval cut at mass 1/2 has content sin(pi/2)/2
    assert ep.content == pytest.approx(0.5, rel=0.03)
    assert ep.mass_defect <= space.weights.max()


def test_empirical_profile_small_volume_defect():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 300)
    ep = iso.empirical_profile(space, 0.001, candidate_budget=8,
                               rng=np.random.default_rng(3))
    assert ep.mass_defect >= 0.0
    assert ep.v > 0


def test_levy_gromov_interval_passes():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 1000)
    rep = iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, np.pi),
                                [0.25, 0.5, 0.75], rng=np.random.default_rng(4))
    assert rep["verdict"] == "pass"
    assert rep["D_used"] == pytest.approx(np.pi, rel=1e-9)


def test_levy_gromov_flat_fails_claimed_curvature():
    # uniform density on [0,1] claimed as CD(1,2): the 1D CD check fails, and
    # the profile deficit at v=1/2 exceeds a tightened allowance
    space, dens = ms.generate_interval_model(0.0, 2.0, 1.0, 800)
    tri = cv.sample_triples(dens.grid, 500, np.random.default_rng(5))
    assert not cv.cd_density_check(dens, 1.0, 2.0, tri).verdict
    rep = iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, 1.0), [0.5],
                                rng=np.random.default_rng(6), allowance=0.02)
    assert rep["verdict"] == "fail"


def test_levy_gromov_sphere_against_steeper_models():
    # the unit sphere clears its own model (K = 1) and not the K = 2 model,
    # which the diameter clamp keeps from collapsing to 0
    sphere = ms.generate_sphere_sample(2, 1000, 0)
    reps = [iso.levy_gromov_check(sphere, iso.ModelProfileSpec(K, 2.0, np.pi), [0.25],
                                  allowance=0.05) for K in (1.0, 2.0)]
    assert [r["verdict"] for r in reps] == ["pass", "fail"]
    assert reps[1]["rows"][0]["model"] == pytest.approx(np.sqrt(2.0) * np.sin(np.pi / 3) / 2,
                                                        abs=1e-4)


def test_levy_gromov_trivial_volumes():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 500)
    rep = iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, np.pi), [0.0, 1.0])
    assert rep["verdict"] == "pass"


@pytest.mark.parametrize("v", [1.5, -0.3, float("nan")])
def test_levy_gromov_rejects_volumes_outside_unit_interval(v):
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 100)
    with pytest.raises(BadVolume):
        iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, np.pi), [0.5, v])


def test_sphere_hemisphere_content_sanity():
    sphere = ms.generate_sphere_sample(2, 1000, 0)
    ep = iso.empirical_profile(sphere, 0.5, candidate_budget=12, rng=np.random.default_rng(7))
    assert ep.content == pytest.approx(0.5, rel=0.15)


def test_sphere_profile_from_ball_candidates():
    # every candidate is a metric ball about one of `candidate_budget`
    # distinct centres drawn from the stream
    sphere = ms.generate_sphere_sample(2, 400, 0)
    ep = iso.empirical_profile(sphere, 0.4, candidate_budget=10, rng=np.random.default_rng(8))
    assert 0 < ep.content < 2.0
    assert 0.3 < ep.v < 0.5
    assert ep.candidate.startswith("ball@")
    assert int(ep.candidate[5:]) in np.random.default_rng(8).choice(400, 10, replace=False)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_large_volume_profiles_on_the_sphere_come_from_balls(seed):
    # potential-sublevel candidates read below the exact profile sqrt(v(1-v))
    # at large volumes, which no set can do; balls are the only candidates
    sphere = ms.generate_sphere_sample(2, 600, 1)
    points = iso.empirical_profiles(sphere, [0.75, 0.9], rng=np.random.default_rng(seed))
    assert all(p.candidate.startswith("ball@") for p in points)


def test_levy_gromov_rows_share_one_key_set():
    space, _ = ms.generate_interval_model(1.0, 2.0, np.pi, 300)
    rep = iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, np.pi), [0.0, 0.5, 1.0],
                                candidate_budget=4)
    keys = {"v", "v_attained", "empirical", "model", "slack", "allowance",
            "candidate", "mass_defect"}
    assert [set(row) for row in rep["rows"]] == [keys] * 3
    assert [(row["candidate"], row["mass_defect"]) for row in rep["rows"][::2]] == [("", 0.0)] * 2


def test_levy_gromov_takes_the_model_at_spec_D():
    space, _ = ms.generate_interval_model(0.0, 2.0, 1.0, 400)
    spec = iso.ModelProfileSpec(0.0, 2.0, 2.0)
    rep = iso.levy_gromov_check(space, spec, [0.3], candidate_budget=4)
    row = rep["rows"][0]
    assert rep["D_used"] == 2.0
    assert row["model"] == iso.model_profile(spec, row["v_attained"])
    assert row["model"] < iso.model_profile(iso.ModelProfileSpec(0.0, 2.0, 1.0), row["v_attained"])


@pytest.mark.parametrize("metric", [
    {"type": "sphere2", "n": 400, "seed": 0},
    {"type": "interval", "K": 1.0, "N": 2.0, "D": np.pi, "n": 1000},
])
def test_volumes_share_one_pair_graph(metric, monkeypatch, tmp_path):
    # a 3-volume check and `needlekit profile` build the eps-pair graph once
    # per space and radius
    spec_path = tmp_path / "space.json"
    spec_path.write_text(json.dumps({"metric": metric}))
    builds = []
    pairs_within = ms.MMSpace.pairs_within

    def spy(self, R):
        graph = pairs_within(self, R)
        builds.append((self, R, graph))     # held, so no id is reused
        return graph

    monkeypatch.setattr(ms.MMSpace, "pairs_within", spy)
    space = ms.from_spec({"metric": metric})
    iso.levy_gromov_check(space, iso.ModelProfileSpec(1.0, 2.0, space.max_distance),
                          [0.25, 0.5, 0.75], rng=np.random.default_rng(5))
    assert cli.main(["profile", "--space", str(spec_path), "--out",
                     str(tmp_path / "profile.json")]) == 0
    graphs = {}
    for owner, R, graph in builds:
        graphs.setdefault((id(owner), R), set()).add(id(graph))
    assert len(builds) > 3 * len(graphs)
    assert all(len(ids) == 1 for ids in graphs.values())


def test_profiles_need_no_thread_pool_and_no_w1_solve():
    # balls are the only profile candidates, so no volume solves a W1 LP,
    # and nothing in src/ runs volumes in a pool
    def imported(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from (a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield from (f"{node.module or ''}.{a.name}".lstrip(".") for a in node.names)

    src = pathlib.Path(iso.__file__).parent
    assert [m for path in sorted(src.glob("*.py")) for m in imported(path)
            if m.startswith("concurrent")] == []
    assert [m for m in imported(src / "isoperim.py") if m.startswith("w1solve")] == []
