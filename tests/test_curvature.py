from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needlekit import curvature as cv
from needlekit import mmspace as ms
from needlekit.errors import BadDimension, BadParameter, DegenerateDensity


def test_sigma_k0_is_t():
    assert cv.sigma(0.0, 5.0, 0.3, 2.0) == 0.3


def test_sigma_blowup():
    assert cv.sigma(4.0, 1.0, 0.5, np.pi) == np.inf


def test_sigma_sin_value():
    # high-precision oracle
    with mpmath.workdps(40):
        expected = float(mpmath.sin(mpmath.pi / 4) / mpmath.sin(mpmath.pi / 2))
    assert cv.sigma(1.0, 1.0, 0.5, np.pi / 2) == pytest.approx(expected, abs=1e-15)
    assert cv.sigma(1.0, 1.0, 0.5, np.pi / 2) == pytest.approx(0.7071067812, abs=1e-9)


def test_sigma_sinh_branch():
    with mpmath.workdps(40):
        om = mpmath.sqrt(mpmath.mpf(2) / 3)
        expected = float(mpmath.sinh(0.25 * 2 * om) / mpmath.sinh(2 * om))
    assert cv.sigma(-2.0, 3.0, 0.25, 2.0) == pytest.approx(expected, rel=1e-14)


def test_sigma_n0_branches():
    assert cv.sigma(-1.0, 0.0, 0.4, 2.0) == 0.4      # K theta^2 < 0, N = 0
    assert cv.sigma(2.0, 0.0, 0.4, 1.0) == np.inf    # K theta^2 >= 0 = N pi^2
    assert cv.sigma(2.0, 0.0, 0.4, 0.0) == 0.4       # theta = 0


def test_sigma_endpoint_normalization():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        K = rng.uniform(-3, 3)
        N = rng.uniform(0.5, 8)
        th = rng.uniform(0, 2)
        if K > 0 and K * th**2 >= N * np.pi**2:
            continue
        assert cv.sigma(K, N, 0.0, th) == pytest.approx(0.0, abs=1e-15)
        assert cv.sigma(K, N, 1.0, th) == pytest.approx(1.0, abs=1e-12)


def test_sigma_ode_residual_second_order():
    K, N, th = 1.7, 3.0, 1.2
    res = {}
    for ds in (1e-2, 5e-3, 2.5e-3):
        s = np.arange(ds, 1 - ds / 2, ds)
        f = cv.sigma(K, N, s, np.full_like(s, th))
        second = (f[2:] - 2 * f[1:-1] + f[:-2]) / ds**2
        res[ds] = np.abs(second + th**2 * K / N * f[1:-1]).max()
    assert res[1e-2] / res[5e-3] >= 3.5
    assert res[5e-3] / res[2.5e-3] >= 3.5


def test_tau_k0_and_endpoint():
    assert cv.tau(0.0, 3.0, 0.7, 1.5) == pytest.approx(0.7, abs=1e-15)
    assert cv.tau(2.0, 3.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_tau_value_high_precision():
    # tau_{2,3}^{(1/2)}(1) = (1/2)^{1/3} (sin(1/2)/sin(1))^{2/3}
    with mpmath.workdps(40):
        expected = float(mpmath.mpf(0.5) ** (mpmath.mpf(1) / 3)
                         * (mpmath.sin(0.5) / mpmath.sin(1)) ** (mpmath.mpf(2) / 3))
    assert cv.tau(2.0, 3.0, 0.5, 1.0) == pytest.approx(expected, abs=1e-12)


def test_tau_n1_convention():
    assert cv.tau(-1.0, 1.0, 0.4, 2.0) == pytest.approx(0.4)
    assert cv.tau(1.0, 1.0, 0.4, 2.0) == np.inf


def _model_density(N, n=1201):
    grid = np.linspace(0.01, np.pi - 0.01, n)
    return ms.Density1D(grid, np.sin(grid) ** (N - 1))


@pytest.mark.parametrize("N", [2, 3, 5])
def test_cd_model_passes(N):
    dens = _model_density(N)
    tri = cv.sample_triples(dens.grid, 2000, np.random.default_rng(N))
    rep = cv.cd_density_check(dens, float(N - 1), float(N), tri)
    assert rep.verdict and rep.margin >= -1e-7


def test_cd_flat_fails_with_documented_triple():
    flat = ms.Density1D(np.linspace(0, 3, 301), np.ones(301))
    tri = cv.sample_triples(flat.grid, 500, np.random.default_rng(0))
    rep = cv.cd_density_check(flat, 1.0, 2.0, tri)
    assert not rep.verdict
    assert rep.worst_triple == (0.0, 3.0, 0.5)
    # oracle: RHS at the worst triple is 2 sin(1.5)/sin(3) ~ 14.1
    rhs = 2 * np.sin(1.5) / np.sin(3.0)
    assert rep.margin == pytest.approx((1 - rhs) / rhs, rel=1e-9)


def test_cd_constant_k0_equality():
    dens = ms.Density1D(np.linspace(0, 2, 101), np.full(101, 3.7))
    tri = cv.sample_triples(dens.grid, 500, np.random.default_rng(1))
    rep = cv.cd_density_check(dens, 0.0, 4.0, tri)
    assert rep.verdict and abs(rep.margin) <= 1e-12


def test_cd_scale_equivariance():
    dens = _model_density(3)
    scaled = ms.Density1D(dens.grid, 17.0 * dens.values)
    tri = cv.sample_triples(dens.grid, 1000, np.random.default_rng(2))
    r1 = cv.cd_density_check(dens, 2.0, 3.0, tri)
    r2 = cv.cd_density_check(scaled, 2.0, 3.0, tri)
    assert r1.verdict == r2.verdict
    assert r1.margin == pytest.approx(r2.margin, abs=1e-9)


def test_cd_monotone_in_K():
    dens = _model_density(3)
    tri = cv.sample_triples(dens.grid, 1000, np.random.default_rng(3))
    r_hi = cv.cd_density_check(dens, 2.0, 3.0, tri)
    assert r_hi.verdict
    for K in (1.0, 0.0, -1.0):
        assert cv.cd_density_check(dens, K, 3.0, tri).verdict


def test_cd_model_equality_at_symmetric_triples():
    dens = _model_density(3)
    grid = dens.grid
    n = len(grid)
    triples = [(grid[k], grid[n - 1 - k], 0.5) for k in range(10, n // 2 - 1, 40)]
    rep = cv.cd_density_check(dens, 2.0, 3.0, triples)
    assert abs(rep.margin) <= 1e-6


def test_cd_n1_constant_branch():
    flat = ms.Density1D(np.linspace(0, 1, 64), np.ones(64))
    assert cv.cd_density_check(flat, 0.0, 1.0, []).verdict
    tilt = ms.Density1D(np.linspace(0, 1, 64), np.linspace(1, 2, 64))
    assert not cv.cd_density_check(tilt, 0.0, 1.0, []).verdict


def test_cd_degenerate_density():
    vals = np.ones(64)
    vals[30] = 0.0
    dens = ms.Density1D(np.linspace(0, 1, 64), vals)
    with pytest.raises(DegenerateDensity):
        cv.cd_density_check(dens, 0.0, 2.0, [(0.0, 1.0, 0.5)])


def test_cd_bonnet_myers_reason():
    flat = ms.Density1D(np.linspace(0, 7, 101), np.ones(101))
    rep = cv.cd_density_check(flat, 1.0, 2.0, [(0.0, 7.0, 0.5)])
    assert not rep.verdict
    assert "domain too long" in rep.reason


def test_mcp_model_near_equality_at_extremes():
    grid = np.linspace(0.005, np.pi - 0.005, 1500)
    dens = ms.Density1D(grid, np.sin(grid))
    quads = cv.sample_quadruples(grid, 8000, np.random.default_rng(4))
    rep = cv.mcp_density_check(dens, 1.0, 2.0, quads)
    assert rep.verdict and rep.margin >= -1e-7
    # near-equality when sigma+ sits at the right end and s, tau mid-domain
    mid = len(grid) // 2
    tight = [(grid[0], grid[mid], grid[mid + 20], grid[-1])]
    rep2 = cv.mcp_density_check(dens, 1.0, 2.0, tight)
    assert rep2.margin <= 1e-3


def test_mcp_spike_fails():
    grid = np.linspace(0.005, np.pi - 0.005, 1500)
    vals = np.sin(grid).copy()
    vals[750] *= 10
    quads = cv.sample_quadruples(grid, 8000, np.random.default_rng(5))
    rep = cv.mcp_density_check(ms.Density1D(grid, vals), 1.0, 2.0, quads)
    assert not rep.verdict


def test_mcp_s_equals_tau_trivial():
    grid = np.linspace(0.1, 3.0, 500)
    dens = ms.Density1D(grid, np.sin(grid) + 1.1)
    quads = [(grid[0], grid[100], grid[100], grid[-1])]
    rep = cv.mcp_density_check(dens, 1.0, 2.0, quads)
    assert rep.margin == pytest.approx(0.0, abs=1e-12) or rep.margin >= 0


def test_mcp_requires_positive_K():
    dens = _model_density(2)
    with pytest.raises(ValueError):
        cv.mcp_density_check(dens, -1.0, 2.0, [(0.1, 0.2, 0.3, 0.4)])


def test_mollifier_unit_integral_and_support():
    x = np.linspace(-0.5, 1.5, 20001)
    vals = cv.standard_mollifier(x)
    assert np.all(vals[(x < 0) | (x > 1)] == 0)
    integral = np.trapezoid(vals, x)
    assert integral == pytest.approx(1.0, abs=1e-8)


def test_mollify_constant():
    dens = ms.Density1D(np.linspace(0, 2, 401), np.ones(401))
    he = cv.mollify_density(dens, 3.0, 0.1)
    inner = (he.grid >= 0.1 + 1e-9) & (he.grid <= 2.0 - 1e-9)
    assert np.abs(he.values[inner] - 1.0).max() <= 1e-8


def test_mollify_l1_decreasing():
    grid = np.linspace(0, np.pi, 801)
    dens = ms.Density1D(grid, np.sin(grid) ** 2)
    errs = []
    for eps in (0.1, 0.05, 0.025):
        he = cv.mollify_density(dens, 3.0, eps)
        ref = np.where((he.grid >= 0) & (he.grid <= np.pi),
                       np.interp(he.grid, grid, dens.values), 0.0)
        errs.append(np.trapezoid(np.abs(he.values - ref), he.grid))
    assert errs[0] > errs[1] > errs[2]


def test_mollify_preserves_cd_inside():
    grid = np.linspace(0, np.pi, 1501)
    dens = ms.Density1D(grid, np.sin(grid) ** 2)
    eps = 0.05
    he = cv.mollify_density(dens, 3.0, eps)
    i0 = np.searchsorted(he.grid, eps)
    i1 = np.searchsorted(he.grid, np.pi)
    tri = cv.sample_triples(he.grid[i0:i1], 1000, np.random.default_rng(6),
                            include_extremes=False)
    rep = cv.cd_density_check(he, 2.0, 3.0, tri)
    assert rep.verdict


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=10),
       st.floats(min_value=0.1, max_value=10))
def test_sigma_k0_property(t, theta, N):
    assert cv.sigma(0.0, N, t, theta) == t


def test_density_csv_roundtrip(tmp_path):
    dens = _model_density(3, n=301)
    path = tmp_path / "dens.csv"
    path.write_text("t,h\n" + "".join(f"{float(t)!r},{float(h)!r}\n"
                                      for t, h in zip(dens.grid, dens.values)))
    loaded = cv.load_density_csv(path)
    assert np.array_equal(loaded.grid, dens.grid)
    assert np.array_equal(loaded.values, dens.values)


def test_interval_model_density_satisfies_cd():
    # the generated model density passes the curvature check it was built for
    for K, N in ((1.0, 2.0), (2.0, 3.0)):
        D = np.pi * np.sqrt((N - 1) / K)
        space, dens = ms.generate_interval_model(K, N, D, 800)
        tri = cv.sample_triples(dens.grid, 1500, np.random.default_rng(8))
        rep = cv.cd_density_check(dens, K, N, tri)
        assert rep.verdict, rep


def test_interval_model_sinh_branch_cd():
    space, dens = ms.generate_interval_model(-1.0, 3.0, 2.0, 400)
    tri = cv.sample_triples(dens.grid, 1000, np.random.default_rng(9))
    rep = cv.cd_density_check(dens, -1.0, 3.0, tri)
    assert rep.verdict


def test_sigma_tau_high_precision_sweep():
    # random finite-branch draws against a 40-digit mpmath oracle
    rng = np.random.default_rng(21)
    with mpmath.workdps(40):
        for _ in range(200):
            K = float(rng.uniform(-4, 4))
            N = float(rng.uniform(1.0, 8.0))
            t = float(rng.uniform(0, 1))
            th = float(rng.uniform(0.01, 2.5))
            kt2 = K * th ** 2
            if kt2 >= N * np.pi ** 2:
                assert cv.sigma(K, N, t, th) == np.inf
                continue
            if kt2 == 0:
                ref = mpmath.mpf(t)
            elif K > 0:
                om = mpmath.sqrt(mpmath.mpf(K) / N)
                ref = mpmath.sin(t * th * om) / mpmath.sin(th * om)
            else:
                om = mpmath.sqrt(mpmath.mpf(-K) / N)
                ref = mpmath.sinh(t * th * om) / mpmath.sinh(th * om)
            assert cv.sigma(K, N, t, th) == pytest.approx(float(ref), rel=1e-13, abs=1e-13)
            if N >= 1:
                s = cv.sigma(K, N - 1, t, th)
                if np.isfinite(s):
                    ref_tau = (mpmath.mpf(t) ** (1 / mpmath.mpf(N))
                               * mpmath.mpf(s) ** ((N - 1) / mpmath.mpf(N)))
                    assert cv.tau(K, N, t, th) == pytest.approx(float(ref_tau),
                                                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_interval_model_full_domain_triple(seed):
    # h(pi) is the model's exact zero; the rounded sin(pi) = 1.2e-16 would
    # multiply sigma = +inf on the triple spanning all of [0, pi]
    dens = ms.model_density(1.0, 2.0, np.pi, 2000)
    assert dens.values[0] == 0.0 and dens.values[-1] == 0.0
    n = len(dens.grid)
    span = [(dens.grid[0], dens.grid[-1], ((n - 1) // 2) / (n - 1))]
    tri = cv.sample_triples(dens.grid, 20_000, np.random.default_rng(seed))
    assert cv.cd_density_check(dens, 1.0, 2.0, np.vstack([tri, span])).verdict
    flat = ms.model_density(0.0, 2.0, 1.0, 2000)
    tri = cv.sample_triples(flat.grid, 20_000, np.random.default_rng(seed))
    assert not cv.cd_density_check(flat, 1.0, 2.0, tri).verdict


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 300), st.booleans(), st.integers(0, 2**32 - 1))
def test_bracket_interp_matches_numpy(n, uniform, seed):
    # uniform and non-uniform grids; queries out of range, on nodes, one ulp
    # off them, at +-inf and NaN, and model-check midpoints
    rng = np.random.default_rng(seed)
    xp = np.linspace(-1.0, 2.0, n) if uniform else np.cumsum(rng.random(n) + 1e-3)
    fp = rng.normal(size=n)
    i, k = np.sort(rng.integers(0, n, size=(2, 200)), axis=0)
    s = rng.random(200)
    x = np.concatenate([rng.uniform(xp[0] - 1, xp[-1] + 1, 300), xp,
                        np.nextafter(xp, np.inf), np.nextafter(xp, -np.inf),
                        (1 - s) * xp[i] + s * xp[k], [np.nan, np.inf, -np.inf]])
    assert np.array_equal(cv._interp(x, xp, fp), np.interp(x, xp, fp), equal_nan=True)


@pytest.mark.parametrize("n", [2000, 2001])
@pytest.mark.parametrize("model", [(1.0, 2.0, np.pi), (1.0, 3.0, np.pi), (-1.0, 2.0, 2.0),
                                   (0.0, 2.0, 1.0)])
def test_bracket_interp_on_model_triples(model, n):
    # on the flat grid the mean-step guess puts about 43% of node queries one cell low
    dens = ms.model_density(*model, n)
    t0, t1, s = cv.sample_triples(dens.grid, 20_000, np.random.default_rng(n)).T
    for x in (t0, t1, (1 - s) * t0 + s * t1):
        assert np.array_equal(cv._interp(x, dens.grid, dens.values),
                              np.interp(x, dens.grid, dens.values))


@pytest.mark.parametrize("grid", [ms.model_density(1.0, 2.0, np.pi, 2000).grid,
                                  np.linspace(0.0, 1.0, 2000), np.linspace(-3e8, 1.0, 4001)])
def test_bracket_guess_searches_only_out_of_range_queries(grid):
    # the mean-step guess rounds one cell off near nodes, either way; moved by
    # a cell it is exact for model midpoints and for queries one ulp about nodes
    fp = np.sin(grid)
    t0, t1, s = cv.sample_triples(grid, 20_000, np.random.default_rng(len(grid))).T
    x = np.concatenate([(1 - s) * t0 + s * t1, grid, np.nextafter(grid, -np.inf),
                        np.nextafter(grid, np.inf)])
    with mock.patch.object(cv.np, "searchsorted", wraps=np.searchsorted) as search:
        out = cv._interp(x, grid, fp)
    assert np.array_equal(out, np.interp(x, grid, fp))
    searched = search.call_args.args[1]
    outside = x[(x < grid[0]) | (x >= grid[-1])]
    assert np.array_equal(np.sort(searched), np.sort(outside))


_FLAT = ms.Density1D(np.linspace(0.0, 1.0, 9), np.ones(9))


@pytest.mark.parametrize("call, error", [
    (lambda: cv.sigma(1.0, -1.0, 0.5, 1.0), BadDimension),
    (lambda: cv.sigma(1.0, 2.0, 1.5, 1.0), ValueError),          # t outside [0, 1]
    (lambda: cv.sigma(1.0, 2.0, 0.5, -1.0), ValueError),         # negative theta
    (lambda: cv.tau(1.0, 0.5, 0.5, 1.0), BadDimension),
    (lambda: cv.cd_density_check(_FLAT, 0.0, 2.0, [[0.5, 0.25, 0.5]]), ValueError),
    (lambda: cv.mcp_density_check(_FLAT, 1.0, 2.0, [[0.5, 0.25, 0.75, 1.0]]), ValueError),
    (lambda: cv.mcp_density_check(ms.Density1D([0.0, 0.5, 1.0], [1.0, 1.0, 0.0]), 1.0, 2.0,
                                  [[0.0, 1.0, 1.0, 1.0 + 1e-3]]), DegenerateDensity),
    (lambda: cv.mollify_density(_FLAT, 1.0, 0.1), BadDimension),
    (lambda: cv.mollify_density(_FLAT, 2.0, 0.0), ValueError),
])
def test_typed_input_errors(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("s", [-0.5, 1.5, -1e-16, np.nextafter(1.0, 2.0)])
def test_cd_triple_with_s_outside_the_unit_interval(s):
    # unchecked here, sigma's "t must lie in [0, 1]" named a parameter no caller passed
    with pytest.raises(BadParameter, match="triples need t0 < t1 and 0 <= s <= 1"):
        cv.cd_density_check(_FLAT, 0.0, 2.0, [[0.25, 0.75, s]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["K", "N"])
@pytest.mark.parametrize("call", ["sigma", "cd", "mcp"])
def test_nonfinite_K_or_N_is_rejected(call, which, bad):
    # NaN fails every comparison, so unchecked it reaches the math: sigma
    # with K = NaN fills none of its output, and the CD check reads its margin there
    K, N = (bad, 2.0) if which == "K" else (1.0, bad)
    dens = _model_density(2, 201)
    run = {"sigma": lambda: cv.sigma(K, N, np.array([0.3, 0.5]), np.array([1.0, 2.0])),
           "cd": lambda: cv.cd_density_check(dens, K, N, cv.sample_triples(dens.grid, 500)),
           "mcp": lambda: cv.mcp_density_check(dens, K, N, cv.sample_quadruples(dens.grid, 500))}
    with pytest.raises(BadParameter if which == "K" else BadDimension):
        run[call]()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("check, column", [("cd", c) for c in range(3)]
                         + [("mcp", c) for c in range(4)])
def test_nonfinite_node_tuple_is_rejected(check, column, bad):
    # unchecked, [[nan, 1.0, 0.5]] and [[0.2, 1.0, nan]] pass the CD check at margin 0
    dens = _model_density(2, 201)
    point = [0.2, 1.0, 0.5] if check == "cd" else [0.2, 0.4, 0.6, 1.0]
    point[column] = bad
    fn = cv.cd_density_check if check == "cd" else cv.mcp_density_check
    with pytest.raises(BadParameter):
        fn(dens, 1.0, 2.0, [point])


def test_mcp_on_a_domain_too_long_for_the_curvature():
    # a sine argument >= pi is a failed check with its quadruple, not an error
    rep = cv.mcp_density_check(_FLAT, 100.0, 2.0, [[0.0, 0.25, 0.5, 1.0]])
    assert not rep.verdict and rep.margin == -np.inf
    assert rep.worst_triple == (0.0, 0.25, 0.5, 1.0) and "pi" in rep.reason


def test_density_csv_without_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("0,1\n0.5,2\n1,1\n")
    dens = cv.load_density_csv(path)
    assert dens.grid.tolist() == [0.0, 0.5, 1.0] and dens.values.tolist() == [1.0, 2.0, 1.0]


@pytest.mark.parametrize("rel_tol", [np.nan, -1.0, np.inf])
@pytest.mark.parametrize("call", ["cd", "mcp", "cd-N1"])
def test_bad_rel_tol_is_rejected(call, rel_tol):
    # unchecked, rel_tol = NaN or -1 fails the (1, 2, pi) model at margin -1.4e-15
    dens = ms.model_density(1.0, 2.0, np.pi, 200)
    run = {"cd": lambda: cv.cd_density_check(dens, 1.0, 2.0, cv.sample_triples(dens.grid, 500),
                                             rel_tol=rel_tol),
           "mcp": lambda: cv.mcp_density_check(dens, 1.0, 2.0, cv.sample_quadruples(dens.grid, 500),
                                               rel_tol=rel_tol),
           "cd-N1": lambda: cv.cd_density_check(_FLAT, 0.0, 1.0, [[0.2, 0.8, 0.5]], rel_tol=rel_tol)}
    with pytest.raises(BadParameter):
        run[call]()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["N", "eps"])
def test_nonfinite_mollify_parameter_is_rejected(which, bad):
    # unchecked, eps = NaN raised a bare ValueError and eps = inf an
    # OverflowError; N = NaN or inf surfaced as Density1D's value errors
    N, eps = (bad, 0.05) if which == "N" else (2.0, bad)
    with pytest.raises(BadParameter) as info:
        cv.mollify_density(ms.model_density(1.0, 2.0, np.pi, 50), N, eps)
    assert type(info.value) is (BadDimension if which == "N" else BadParameter)
